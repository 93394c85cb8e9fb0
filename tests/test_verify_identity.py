"""The change summary of scripts/verify_identity.py on synthetic payloads."""

import importlib.util
import math
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "verify_identity.py"
_spec = importlib.util.spec_from_file_location("verify_identity", SCRIPT)
verify_identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(verify_identity)


def _payload(*reports):
    return {
        "reports": [
            {"title": title, "items": [{"name": n, "observed": v, "passed": ok} for n, v, ok in items]}
            for title, items in reports
        ]
    }


def test_summary_names_flips_and_the_largest_relative_change():
    old = _payload(
        ("criterion 7", [("failures", 0.0, True)]),
        ("criterion 8", [("gap a", 2.0e-15, True), ("gap b", 4.0e-15, True), ("gap c", 1.0, True)]),
    )
    new = _payload(
        ("criterion 7", [("failures", 0.0, True)]),
        ("criterion 8", [("gap a", 3.0e-15, True), ("gap b", 4.0e-15, True), ("gap c", 2.0, False)]),
    )
    assert verify_identity.summarize(old, new) == [
        "criterion 7: 0 verdict flips; largest relative change 0.000e+00",
        "criterion 8: 1 verdict flips; largest relative change 1.000e+00 (gap c)",
        "  flipped: gap c (True -> False)",
    ]


def test_summary_reports_nan_zero_and_missing_items():
    old = _payload(("criterion 9", [("floor", 2.5, True), ("bound", 0.0, True), ("gone", 1.0, True)]))
    new = _payload(
        ("criterion 9", [("floor", math.nan, False), ("bound", 0.0, True), ("new", 1.0, True)]),
        ("criterion 12", []),
    )
    assert verify_identity.summarize(old, new) == [
        "criterion 9: 1 verdict flips; largest relative change inf (floor)",
        "  flipped: floor (True -> False)",
        "  only at the ref: gone",
        "  only here: new",
        "criterion 12: only here",
    ]


def test_relative_change():
    assert verify_identity.relative_change(2.0, 3.0) == 0.5
    assert verify_identity.relative_change(math.nan, math.nan) == 0.0
    assert verify_identity.relative_change(0.0, 1e-300) == math.inf


def test_source_lines_count_newlines_as_wc_does(tmp_path):
    package = tmp_path / "meanlab"
    package.mkdir()
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3")  # no final newline, so wc -l counts 0 here
    (package / "notes.txt").write_text("\n\n\n")
    assert verify_identity.source_lines(tmp_path) == 2


def test_line_count_is_printed_and_leaves_the_exit_status_alone(tmp_path, monkeypatch, capsys):
    # A tree at the ref with 1 source line against this one: every run
    # matches, so the exit status is 0 whatever the two counts are.
    def unpack(ref, dest):
        (dest / "src" / "meanlab").mkdir(parents=True)
        (dest / "src" / "meanlab" / "m.py").write_text("pass\n")

    monkeypatch.setattr(verify_identity, "unpack", unpack)
    monkeypatch.setattr(verify_identity, "run_verify", lambda src, seed: (1, "{}", ""))
    monkeypatch.setattr(verify_identity, "run_cli", lambda src, runs, folder: [(0, "", "")] * len(runs))
    assert verify_identity.main(["REF"]) == 0
    here = verify_identity.source_lines(verify_identity.ROOT / "src")
    assert capsys.readouterr().out.splitlines()[-1] == f"source lines: 1 at REF, {here} here ({here - 1:+d})"


def test_every_listed_cli_run_exits_zero_or_one(tmp_path):
    # A usage or input error (exit 2) would compare identically on both trees
    # and prove little, so every listed argv must run to a verdict, except
    # the one usage error listed so that the runs after it share a parser
    # that has refused an argv: that one must be refused, in both modes.
    verify_identity.write_matrices(tmp_path)
    runs = verify_identity.cli_runs(tmp_path)
    results = verify_identity.run_cli(SCRIPT.parent.parent / "src", runs, tmp_path)
    refused = ["verify", "--criterion", "99"]
    bad = [(argv, code, err) for argv, (code, _, err) in zip(runs, results) if code not in (0, 1) and argv[:3] != refused]
    assert not bad
    usage = [(code, "invalid choice" in err) for argv, (code, _, err) in zip(runs, results) if argv[:3] == refused]
    assert usage == [(2, True)] * 2
    assert {argv[0] for argv in runs} == {"mean", "expand", "preserver", "centrality", "geodesic", "dbw", "axioms", "verify"}


def test_json_summary_pairs_numeric_leaves_by_path_and_names_flips():
    old = '{"all_pass": true, "result": {"pairs": [{"gap": 2.0, "verdict": "commutes"}, {"gap": 4.0}]}, "n": 3}'
    new = '{"all_pass": false, "result": {"pairs": [{"gap": 3.0, "verdict": "does_not_commute"}, {"gap": 4.0}]}, "n": 3}'
    assert verify_identity.json_summary(old, new) == [
        "  2 verdict flips; largest relative change 5.000e-01 (result.pairs[0].gap)",
        "  flipped: all_pass (True -> False)",
        "  flipped: result.pairs[0].verdict ('commutes' -> 'does_not_commute')",
    ]
    # A boolean is a verdict, not a number; an unpaired leaf is counted.
    assert verify_identity.json_summary('{"checks": [{"passed": true}]}', '{"checks": [{"passed": true}], "x": 1}') == [
        "  0 verdict flips; largest relative change 0.000e+00",
        "  1 leaves on one side only",
    ]
    assert verify_identity.json_summary("meanlab dbw", "{}") == ["  no summary: a run did not print JSON"]


def test_differing_json_runs_are_summarized_and_the_exit_status_is_kept(tmp_path, monkeypatch, capsys):
    # Two runs differ by the same value; only the --json one gets a summary,
    # and a difference still exits 1.
    def unpack(ref, dest):
        (dest / "src" / "meanlab").mkdir(parents=True)

    def run_cli(src, runs, folder):
        central = "true" if src == verify_identity.ROOT / "src" else "false"
        out = f'{{"result": {{"central": {central}, "worst_gap": {1.5 if central == "true" else 1.0}}}}}'
        return [(0, out, "") if "dbw" in argv else (0, "", "") for argv in runs]

    monkeypatch.setattr(verify_identity, "unpack", unpack)
    monkeypatch.setattr(verify_identity, "run_verify", lambda src, seed: (1, "{}", ""))
    monkeypatch.setattr(verify_identity, "run_cli", run_cli)
    assert verify_identity.main(["REF"]) == 1
    # The summary lines of each differing run, after its header and diff.
    summary, header = {}, None
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("cli: DIFFERENT"):
            header = line
            summary[header] = []
        elif header and line.startswith("  ") and not line.startswith("   "):
            summary[header].append(line)
    assert len(summary) == 2 * len(verify_identity.DIMS)
    for header, lines in summary.items():
        assert lines == ([
            "  1 verdict flips; largest relative change 5.000e-01 (result.worst_gap)",
            "  flipped: result.central (False -> True)",
        ] if "--json" in header else [])
