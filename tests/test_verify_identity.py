"""The change summary of scripts/verify_identity.py on synthetic payloads."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "verify_identity.py"
_spec = importlib.util.spec_from_file_location("verify_identity", SCRIPT)
verify_identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(verify_identity)


def _payload(*reports):
    return {
        "reports": [
            {
                "title": title,
                "items": [{"name": n, "observed": v, "tolerance": tol, "passed": ok} for n, v, tol, ok in items],
            }
            for title, items in reports
        ]
    }


def test_summary_names_flips_and_the_largest_relative_change():
    # Changes rank by |new - old| over the item's tolerance: gap c's 0.1
    # of its tolerance comes first, although gap d moved by 3 times its
    # old value and gap c only by 1 time; both are roundoff next to a
    # tolerance of 1e-11.
    old = _payload(
        ("criterion 7", [("failures", 0.0, 0.0, True)]),
        ("criterion 8", [
            ("gap a", 2.0e-15, 1e-11, True), ("gap b", 4.0e-15, 1e-11, True),
            ("gap c", 1.0, 10.0, True), ("gap d", 1.0e-14, 1e-11, True),
        ]),
    )
    new = _payload(
        ("criterion 7", [("failures", 0.0, 0.0, True)]),
        ("criterion 8", [
            ("gap a", 3.0e-15, 1e-11, True), ("gap b", 4.0e-15, 1e-11, True),
            ("gap c", 2.0, 10.0, False), ("gap d", 4.0e-14, 1e-11, True),
        ]),
    )
    assert verify_identity.summarize(old, new) == [
        "criterion 7: 0 verdict flips; largest change over tolerance 0.000e+00",
        "criterion 8: 1 verdict flips; largest change over tolerance 1.000e-01 (gap c)",
        "  flipped: gap c (True -> False)",
    ]


def test_summary_reports_nan_zero_and_missing_items():
    # A change on a zero tolerance, such as a failure count, is infinite.
    old = _payload(("criterion 9", [("floor", 2.5, 1.0, True), ("bound", 0.0, 1e-10, True), ("gone", 1.0, 1.0, True)]))
    new = _payload(
        ("criterion 9", [("floor", math.nan, 1.0, False), ("bound", 0.0, 1e-10, True), ("new", 1.0, 1.0, True)]),
        ("criterion 12", []),
    )
    assert verify_identity.summarize(old, new) == [
        "criterion 9: 1 verdict flips; largest change over tolerance inf (floor)",
        "  flipped: floor (True -> False)",
        "  only at the ref: gone",
        "  only here: new",
        "criterion 12: only here",
    ]
    count = [("criterion 7", [("failures", 0.0, 0.0, True)])]
    assert verify_identity.summarize(_payload(*count), _payload(("criterion 7", [("failures", 1.0, 0.0, False)]))) == [
        "criterion 7: 1 verdict flips; largest change over tolerance inf (failures)",
        "  flipped: failures (True -> False)",
    ]


def test_relative_change():
    assert verify_identity.relative_change(2.0, 3.0) == 0.5
    assert verify_identity.relative_change(math.nan, math.nan) == 0.0
    assert verify_identity.relative_change(0.0, 1e-300) == math.inf
    assert verify_identity.scaled_change(3.3e-14, 3.0e-15, 1e-11) == pytest.approx(3.0e-3)
    assert verify_identity.scaled_change(1.0, 1.0, 0.0) == 0.0
    assert verify_identity.scaled_change(1.0, math.nan, 1e-11) == math.inf


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
    here = verify_identity.module_lines(verify_identity.ROOT / "src")
    out = capsys.readouterr().out.splitlines()
    total = sum(here.values())
    at = out.index(f"source lines: 1 at REF, {total} here ({total - 1:+d})")
    # Every module here is missing at the ref, and m.py is missing here.
    assert len(out) == at + 1 + len(here) + 1
    assert "source lines, m.py: 1 at REF, 0 here (-1)" in out[at + 1:]


def test_line_changes_list_each_module_whose_count_moved(tmp_path):
    # Counts per module on two temporary trees: an unchanged module is left
    # out, a changed one and one on a single side are listed by name.
    trees = {}
    sides = {"ref": {"a.py": "x\n", "b.py": "x\ny\n", "c.py": "x\n"}, "here": {"a.py": "x\n", "b.py": "x\n", "d.py": "x\ny\nz\n"}}
    for side, files in sides.items():
        package = tmp_path / side / "meanlab"
        package.mkdir(parents=True)
        for name, text in files.items():
            (package / name).write_text(text)
        trees[side] = verify_identity.module_lines(tmp_path / side)
    assert trees["ref"] == {"a.py": 1, "b.py": 2, "c.py": 1}
    assert verify_identity.line_changes(trees["ref"], trees["here"], "REF") == [
        "source lines, b.py: 2 at REF, 1 here (-1)",
        "source lines, c.py: 1 at REF, 0 here (-1)",
        "source lines, d.py: 0 at REF, 3 here (+3)",
    ]


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
        "  2 verdict flips; largest change over tolerance 0.000e+00;"
        " largest relative change 5.000e-01 (result.pairs[0].gap)",
        "  flipped: all_pass (True -> False)",
        "  flipped: result.pairs[0].verdict ('commutes' -> 'does_not_commute')",
    ]
    # A boolean is a verdict, not a number; an unpaired leaf is counted.
    assert verify_identity.json_summary('{"checks": [{"passed": true}]}', '{"checks": [{"passed": true}], "x": 1}') == [
        "  0 verdict flips; largest change over tolerance 0.000e+00; largest relative change 0.000e+00",
        "  1 leaves on one side only",
    ]


def test_json_summary_ranks_checks_by_tolerance_and_skips_null_space_bases():
    # A check's observed value (and a probe's norm) ranks over the
    # tolerance beside it, the tolerance itself and every other leaf by
    # relative change; a null-space basis, which roundoff rotates freely,
    # is left out, on either side.
    old = json.dumps({
        "checks": [{"expected": 0.0, "observed": 1.3e-14, "tolerance": 1e-11}],
        "result": {"commutator_norm": 0.5, "tolerance": 1e-8, "masa": 1.9e-16, "null_space": [[0.7, -0.35]]},
    })
    new = json.dumps({
        "checks": [{"expected": 0.0, "observed": 3.3e-14, "tolerance": 1e-11}],
        "result": {"commutator_norm": 0.5, "tolerance": 2e-8, "masa": 8.3e-17, "null_space": [[0.1, 0.9], [0.2, 0.3]]},
    })
    assert verify_identity.json_summary(old, new) == [
        "  0 verdict flips; largest change over tolerance 2.000e-03 (checks[0].observed);"
        " largest relative change 1.000e+00 (result.tolerance)",
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
            "  1 verdict flips; largest change over tolerance 0.000e+00;"
            " largest relative change 5.000e-01 (result.worst_gap)",
            "  flipped: result.central (False -> True)",
        ] if "--json" in header else [])
