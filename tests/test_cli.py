"""Command-line surface: exit codes, JSON report shape, determinism.

Exit convention: 0 all checks pass, 1 at least one check fails, 2 usage or
input error. Commands run in-process through main(argv); subprocess smoke
tests cover the installed entry point and ``python -m meanlab``.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import meanlab
from meanlab import HermitianMatrix, matrix_to_json
from meanlab.cli import main

SCHEMA = "meanlab-report/1"


@pytest.fixture
def matrix_file(tmp_path):
    def write(name, arr):
        path = tmp_path / name
        blob = matrix_to_json(HermitianMatrix(np.asarray(arr, dtype=complex)))
        path.write_text(json.dumps(blob))
        return str(path)

    return write


@pytest.fixture
def scalar_pair(matrix_file):
    return matrix_file("a.json", 2.0 * np.eye(2)), matrix_file(
        "b.json", 6.0 * np.eye(2)
    )


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    payload = json.loads(capsys.readouterr().out)
    return code, payload


def test_mean_text_mode(capsys, scalar_pair):
    a, b = scalar_pair
    assert main(["mean", "--kind", "harmonic", "--a", a, "--b", b]) == 0
    out = capsys.readouterr().out
    assert out.startswith("meanlab mean")
    result = json.loads(out.splitlines()[1])
    assert result["mean"]["re"][0][0] == pytest.approx(3.0)


def test_mean_json_payload(capsys, scalar_pair):
    a, b = scalar_pair
    code, payload = run_json(
        capsys, ["mean", "--kind", "wasserstein", "--a", a, "--b", b]
    )
    assert code == 0
    assert payload["schema"] == SCHEMA
    assert payload["command"] == "mean"
    assert payload["all_pass"] is True
    assert "elapsed_ms" in payload
    names = [item["name"] for item in payload["checks"]]
    assert "two Wasserstein formulas agree" in names


# One random pair, scaled. The absolute gaps of the parent's cross-route
# checks crossed their tolerances at scale 1e3 (dim 3) and 1e5.
CROSS_ROUTES = {
    "wasserstein": ["--kind", "wasserstein"],
    "via-function": ["--kind", "kubo-ando-power", "--p", "0.5", "--via-function"],
}


def _scaled_pair(matrix_file, dim, scale):
    rng = meanlab.rng_for(7, dim)
    A, B = meanlab.random_pd(rng, dim), meanlab.random_pd(rng, dim)
    return matrix_file("a.json", scale * A.mat), matrix_file("b.json", scale * B.mat)


@pytest.mark.parametrize("route", sorted(CROSS_ROUTES))
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("scale", [1.0, 1e3, 1e5])
def test_mean_cross_routes_agree_at_any_scale(capsys, matrix_file, route, dim, scale):
    a, b = _scaled_pair(matrix_file, dim, scale)
    code, payload = run_json(capsys, ["mean", *CROSS_ROUTES[route], "--a", a, "--b", b])
    assert code == 0, payload["checks"]


def _spectral2(rng, lo, hi):
    # U diag(lo, hi) U* for a unitary U with complex phases.
    U = meanlab.random_unitary(rng, 2)
    X = (U * np.array([lo, hi])) @ U.conj().T
    return (X + X.conj().T) / 2.0


@pytest.mark.parametrize("spectra", ["clustered", "graded"])
def test_via_function_checks_the_2x2_power_form_from_outside(capsys, matrix_file, spectra):
    # m_0.5 takes the pencil form at n = 2, from the roots of det(B - mu A)
    # alone; the functional-calculus route takes eigenvectors in the frame
    # of S A S, S = diag(A)^(-1/2). A clustered pair has lambda_2 / lambda_1
    # - 1 = 1e-9, a graded one is D M D with D = diag(1, 1e-5) and M well
    # conditioned, so kappa is about 1e10. On it the unscaled A^(+-1/2)
    # frame errs 2.1e-10, against the check's 1e-10, where the scaled frame
    # and the pencil form agree with 50-digit mpmath to 2 eps.
    rng = meanlab.rng_for(22)
    if spectra == "clustered":
        A, B = _spectral2(rng, 1.0, 1.0 + 1e-9), _spectral2(rng, 2.0, 2.0 * (1.0 + 1e-9))
    else:
        D = np.diag([1.0, 1e-5])
        A, B = D @ _spectral2(rng, 1.0, 4.0) @ D, D @ _spectral2(rng, 1.0, 3.0) @ D
        assert np.linalg.cond(A) > 1e10 and np.linalg.cond(B) > 1e10
    argv = ["mean", *CROSS_ROUTES["via-function"], "--a", matrix_file("a.json", A), "--b", matrix_file("b.json", B)]
    code, payload = run_json(capsys, argv)
    assert code == 0
    assert [(c["name"], c["passed"]) for c in payload["checks"]] == [("functional-calculus route agrees", True)]


# Hard 2x2 inputs for the closed forms, each kept where the cross-check
# route is itself accurate. The T-form of the Wasserstein mean errs like
# eps kappa^2: at kappa per matrix of 1e6, graded or not, it already reads
# about 2e-11 against the 1e-11 tolerance, and raises from 1e8 graded on.
# The functional-calculus route takes, at n = 2, the frame of S A S and
# S B S with S = diag(A)^(-1/2), which undoes a grading, so it agrees to a
# few eps on graded pairs up to 1e11; ungraded it errs like eps kappa^2
# too, and reads 2.3e-10 to 4.7e-10 against 1e-10 at 1e4 (the geometric,
# harmonic and m_-0.5 means) and 6e-9 at 1e6 (m_0.5). The closed forms stay
# within 2 eps and 0.14 eps kappa of 50-digit mpmath.
@pytest.mark.parametrize(
    "argv, spectra, kappa",
    [
        (["--kind", "wasserstein"], "clustered", 0),
        (["--kind", "wasserstein"], "graded", 4),
        (["--kind", "wasserstein"], "ungraded", 4),
        (["--kind", "geometric", "--via-function"], "clustered", 0),
        (["--kind", "geometric", "--via-function"], "graded", 6),
        (["--kind", "geometric", "--via-function"], "ungraded", 3),
        *(
            (argv, spectra, kappa)
            for argv in (
                ["--kind", "kubo-ando-power", "--p", "0.5", "--via-function"],
                ["--kind", "kubo-ando-power", "--p", "-0.5", "--via-function"],
                ["--kind", "harmonic", "--via-function"],
            )
            for spectra, kappa in (("clustered", 0), ("graded", 10), ("ungraded", 3))
        ),
    ],
    ids=lambda x: "-".join(x[1::2]) if isinstance(x, list) else str(x),
)
def test_cross_routes_check_the_2x2_closed_forms_on_hard_inputs(capsys, matrix_file, argv, spectra, kappa):
    # The Wasserstein, geometric and harmonic means and m_p take closed
    # forms at n = 2; the T-form and the functional-calculus route keep
    # frames of A, so they check the forms from outside.
    rng = meanlab.rng_for(29)
    if spectra == "clustered":
        A, B = _spectral2(rng, 1.0, 1.0 + 1e-9), _spectral2(rng, 2.0, 2.0 * (1.0 + 1e-9))
    elif spectra == "graded":
        D = np.diag([1.0, 10.0 ** (-kappa / 2)])
        A, B = D @ _spectral2(rng, 1.0, 4.0) @ D, D @ _spectral2(rng, 1.0, 3.0) @ D
    else:
        A, B = _spectral2(rng, 1.0, 10.0**kappa), _spectral2(rng, 1.0, 10.0**kappa)
    assert min(np.linalg.cond(A), np.linalg.cond(B)) > 10.0 ** (kappa - 1)
    code, payload = run_json(capsys, ["mean", *argv, "--a", matrix_file("a.json", A), "--b", matrix_file("b.json", B)])
    assert code == 0
    assert [c["passed"] for c in payload["checks"]] == [True]


@pytest.mark.parametrize(
    "route, target",
    [("wasserstein", "wasserstein_alt"), ("via-function", "kubo_ando_from_function")],
)
def test_mean_cross_routes_catch_a_relative_offset(capsys, monkeypatch, matrix_file, route, target):
    import meanlab.cli as cli

    original = getattr(cli, target)

    def off(*args, **kwargs):
        M = original(*args, **kwargs)
        return meanlab.PdMatrix.certify(HermitianMatrix(M.mat * (1.0 + 1e-9)))

    monkeypatch.setattr(cli, target, off)
    a, b = _scaled_pair(matrix_file, 2, 1e5)
    code, payload = run_json(capsys, ["mean", *CROSS_ROUTES[route], "--a", a, "--b", b])
    assert code == 1
    assert [c["passed"] for c in payload["checks"]] == [False]


def test_dbw_scalar_value(capsys, scalar_pair):
    a, b = scalar_pair
    assert main(["dbw", "--a", a, "--b", b]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[1])
    assert result["distance"] == pytest.approx(np.sqrt(12.0) - 2.0)


def test_geodesic_midpoint_checks(capsys, scalar_pair):
    a, b = scalar_pair
    code = main(
        ["geodesic", "--kind", "bw", "--a", a, "--b", b, "--t", "0.5",
         "--check-metric"]
    )
    assert code == 0


def test_geodesic_check_metric_on_a_pair_of_large_condition_number(capsys, matrix_file):
    # The distances between the curve's points of diag(10, 2e12) and
    # [[2, 1], [1, 3]] once raised through the A^(+-1/2) frame ("power 0.5
    # of a matrix with minimum eigenvalue 0.000e+00", exit 2).
    a = matrix_file("a.json", np.diag([10.0, 2e12]))
    b = matrix_file("b.json", [[2.0, 1.0], [1.0, 3.0]])
    code, payload = run_json(capsys, ["geodesic", "--kind", "bw", "--a", a, "--b", b, "--check-metric"])
    assert code == 0
    assert payload["all_pass"] is True


def test_geodesic_check_metric_needs_the_bw_curve(capsys, scalar_pair):
    # The accrual check measures the Bures-Wasserstein curve, so it is
    # refused for the trace-metric point rather than run on the other curve.
    a, b = scalar_pair
    assert main(["geodesic", "--kind", "trace", "--a", a, "--b", b, "--check-metric"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "defined for the Bures-Wasserstein curve" in captured.err


def test_expand_exits_one_while_tabulated_pins_fail(capsys):
    code, payload = run_json(capsys, ["expand", "--mean", "kubo-ando", "--p", "0.5"])
    assert code == 1
    assert payload["all_pass"] is False
    failing = [item for item in payload["checks"] if not item["passed"]]
    assert failing and all("tabulated" in item["name"] for item in failing)


def test_verify_single_criterion_green(capsys):
    code, payload = run_json(capsys, ["verify", "--criterion", "6"])
    assert code == 0
    assert payload["command"] == "verify"
    assert payload["all_pass"] is True


def test_verify_single_criterion_red(capsys):
    assert main(["verify", "--criterion", "3", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_pass"] is False


def test_axioms_battery(capsys):
    code = main(["axioms", "--kind", "harmonic", "--samples", "25", "--dim", "2"])
    assert code == 0


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_axioms_reject_an_empty_battery(capsys, samples):
    assert main(["axioms", "--kind", "geometric", "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


@pytest.mark.parametrize("dim", ["0", "-1"])
def test_axioms_reject_a_dimension_below_one(capsys, dim):
    assert main(["axioms", "--kind", "geometric", "--samples", "3", "--dim", dim]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: dimension must be at least 1" in captured.err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_probe_rejects_an_empty_sample(capsys, matrix_file, samples):
    a = matrix_file("a.json", np.diag([1.0, 4.0]))
    assert main(["centrality", "--a", a, "--samples", samples, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


def test_probe_reports_verdict_without_failing(capsys, matrix_file):
    a = matrix_file("nonscalar.json", np.diag([1.0, 4.0]))
    assert main(["centrality", "--kind", "harmonic", "--a", a, "--samples", "10"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[1])
    assert result["central"] is False


IDENTITY_CHAINS = [
    (["--kind", "wasserstein"], "wasserstein", "wasserstein-vs-arithmetic"),
    (["--kind", "kubo-ando-power", "--p", "0.5"], "positive-power", "power-vs-arithmetic[p=0.5]"),
    (["--kind", "kubo-ando-power", "--p", "-0.5"], "negative-power", "power-vs-arithmetic[p=-0.5]"),
    (["--kind", "harmonic"], "harmonic", "power-vs-arithmetic[p=-1]"),
    # The harmonic mean takes no parameter, so --p does not change its chain.
    (["--kind", "harmonic", "--p", "0.5"], "harmonic", "power-vs-arithmetic[p=-1]"),
]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kind_args, case, label", IDENTITY_CHAINS)
def test_identity_chain_follows_the_kind(capsys, matrix_file, dim, kind_args, case, label):
    a, b = _scaled_pair(matrix_file, dim, 1.0)
    argv = ["centrality", *kind_args, "--chain", "identity", "--a", a, "--b", b]
    code, payload = run_json(capsys, argv)
    assert code == 0
    assert (payload["result"]["case"], payload["result"]["label"]) == (case, label)
    assert payload["parameters"]["chain"] == "identity"


@pytest.mark.parametrize("kind_args", [args for args, _, _ in IDENTITY_CHAINS[:4]])
def test_identity_chain_rejects_a_dimension_mismatch(capsys, matrix_file, kind_args):
    rng = meanlab.rng_for(7, 0)
    a = matrix_file("a.json", meanlab.random_pd(rng, 2).mat)
    b = matrix_file("b.json", meanlab.random_pd(rng, 3).mat)
    assert main(["centrality", *kind_args, "--chain", "identity", "--a", a, "--b", b]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: operands have dimensions 2 and 3\n"


def test_usage_error_on_unknown_kind(capsys, scalar_pair):
    a, b = scalar_pair
    assert main(["mean", "--kind", "nope", "--a", a, "--b", b]) == 2
    capsys.readouterr()


def test_input_error_on_missing_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    code = main(["dbw", "--a", missing, "--b", missing])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_input_error_on_malformed_matrix(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"re": [[1.0]]}')
    code = main(["dbw", "--a", str(bad), "--b", str(bad)])
    assert code == 2


def test_usage_error_on_bad_grid(capsys):
    for grid in ("0.01:0.9:6", "0.01:nan:6"):
        code = main(["expand", "--mean", "kubo-ando", "--p", "0.5", "--grid", grid])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "bad grid" in captured.err


def test_certificate_needs_the_geometric_kind(capsys, scalar_pair):
    a, b = scalar_pair
    code = main(["mean", "--kind", "harmonic", "--a", a, "--b", b, "--certificate"])
    assert code == 2


def test_geometric_certificate_accepts_the_mean(capsys, matrix_file):
    a, b = _scaled_pair(matrix_file, 2, 1.0)
    code, payload = run_json(capsys, ["mean", "--kind", "geometric", "--certificate", "--a", a, "--b", b])
    assert code == 0
    assert [(c["name"], c["passed"]) for c in payload["checks"]] == [
        ("variational certificate accepts the mean", True)
    ]


def test_rep_at_reports_the_representing_function(capsys, scalar_pair):
    # The geometric mean's representing function is sqrt(t).
    a, b = scalar_pair
    code, payload = run_json(capsys, ["mean", "--kind", "geometric", "--rep-at", "4", "--a", a, "--b", b])
    assert code == 0
    assert payload["result"]["representing_function"] == {"t": 4.0, "value": pytest.approx(2.0, rel=1e-15)}


def test_probe_with_b_reports_the_one_pair(capsys, matrix_file):
    a = matrix_file("a.json", np.diag([1.0, 4.0]))
    b = matrix_file("b.json", np.diag([9.0, 16.0]))
    code, payload = run_json(capsys, ["centrality", "--a", a, "--b", b])
    assert code == 0
    result = payload["result"]
    assert (result["pair_id"], result["kind"], result["verdict"]) == ("pair", "wasserstein", "commutes")


def test_identity_chain_needs_b(capsys, matrix_file):
    a = matrix_file("a.json", np.diag([1.0, 4.0]))
    assert main(["centrality", "--chain", "identity", "--a", a]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: --b is required for --chain identity\n"


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["--mean", "kubo-ando", "--p", "0.5"], "kubo-ando-power(p=0.5)"),
        (["--mean", "wasserstein"], "wasserstein"),
    ],
)
def test_preserver_solve_reports_the_contract(capsys, argv, kind):
    # The forced-constancy contract fails on purpose, as criterion 5 does.
    code, payload = run_json(capsys, ["preserver", *argv])
    assert code == 1
    assert payload["result"]["kind"] == kind
    assert payload["result"]["c_i_forced"] is False
    assert payload["parameters"]["mean"] == argv[1]


@pytest.mark.parametrize(
    "functional, mean, label",
    [
        ("constant", "kubo-ando", "kubo-ando-power(p=0.5)"),
        ("linear", "wasserstein", "wasserstein"),
        ("trace-power", "kubo-ando", "kubo-ando-power(p=0.5)"),
    ],
)
def test_preserver_functional_mode_samples_pairs(capsys, functional, mean, label):
    # --p defaults to 0.5 in this mode.
    code, payload = run_json(capsys, ["preserver", "--functional", functional, "--mean", mean, "--pairs", "3"])
    assert code == 0
    assert payload["result"]["mean"] == label and payload["result"]["pairs"] == 3
    assert payload["parameters"]["p"] == 0.5


@pytest.mark.parametrize(
    "argv, message",
    [
        (["preserver", "--mean", "kubo-ando"], "error: --p is required for the power family\n"),
        (["expand", "--mean", "kubo-ando"], "error: --p is required for the power family\n"),
        (["preserver", "--functional", "linear", "--pairs", "0"], "error: --pairs must be at least 1\n"),
    ],
)
def test_preserver_and_expand_input_errors(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message


def test_verify_needs_a_selector(capsys):
    assert main(["verify"]) == 2


def test_verify_selectors_are_exclusive(capsys):
    assert main(["verify", "--all", "--criterion", "4", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not allowed with" in captured.err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1", "-1e6", "abc"])
def test_tol_scale_must_be_positive_and_finite(capsys, value):
    assert main(["verify", "--criterion", "4", "--json", f"--tol-scale={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--tol-scale" in captured.err


def test_the_parser_is_built_once_per_process():
    from meanlab.cli import build_parser

    assert build_parser() is build_parser()


def test_calls_sharing_the_parser_match_fresh_calls(capsys, scalar_pair):
    # A run with --p, a usage error, then runs that leave --p and --tol-scale
    # at their defaults: through the one parser each prints what it prints
    # with a parser built for it alone.
    from meanlab.cli import build_parser

    a, b = scalar_pair
    runs = [
        ["axioms", "--kind", "kubo-ando-power", "--p", "0.5", "--samples", "2", "--json", "--tol-scale", "2"],
        ["axioms", "--kind", "nope", "--samples", "2"],
        ["axioms", "--kind", "geometric", "--samples", "2", "--json"],
        ["mean", "--kind", "harmonic", "--a", a, "--b", b, "--json"],
    ]

    def outputs(fresh):
        got = []
        for argv in runs:
            if fresh:
                build_parser.cache_clear()
            code = main(argv)
            captured = capsys.readouterr()
            got.append((code, re.sub(r'"elapsed_ms": \d+', "", captured.out), captured.err))
        return got

    shared = outputs(fresh=False)
    assert [code for code, _, _ in shared] == [0, 2, 0, 0]
    assert shared == outputs(fresh=True)


def test_json_output_is_deterministic(capsys):
    def snapshot():
        assert main(["expand", "--mean", "wasserstein", "--json", "--seed", "3"]) == 1
        raw = json.loads(capsys.readouterr().out)
        raw.pop("elapsed_ms")
        return json.dumps(raw, sort_keys=True)

    assert snapshot() == snapshot()


def test_out_file_matches_stdout(capsys, tmp_path, scalar_pair):
    a, b = scalar_pair
    dest = tmp_path / "report.txt"
    assert main(["mean", "--kind", "harmonic", "--a", a, "--b", b,
                 "--out", str(dest)]) == 0
    assert dest.read_text() == capsys.readouterr().out


def test_verify_out_file_matches_stdout(capsys, tmp_path):
    dest = tmp_path / "verify.json"
    assert main(["verify", "--criterion", "6", "--json", "--out", str(dest)]) == 0
    assert dest.read_text() == capsys.readouterr().out


def test_tol_scale_multiplies_every_expansion_tolerance(capsys):
    code, base = run_json(capsys, ["expand", "--mean", "wasserstein"])
    assert code == 1
    code, scaled = run_json(capsys, ["expand", "--mean", "wasserstein", "--tol-scale", "1e6"])
    assert code == 0
    assert [i["name"] for i in scaled["checks"]] == [i["name"] for i in base["checks"]]
    for b, s in zip(base["checks"], scaled["checks"]):
        assert s["tolerance"] == b["tolerance"] * 1e6
        assert s["observed"] == b["observed"]
    tabulated = [i for i in scaled["checks"] if "tabulated" in i["name"]]
    assert tabulated and all(i["passed"] for i in tabulated)
    assert not all(i["passed"] for i in base["checks"] if "tabulated" in i["name"])


def test_tol_scale_loosens_a_pin(capsys):
    # Scaling every tolerance by 1e6 turns the tabulated failures green.
    code = main(["expand", "--mean", "kubo-ando", "--p", "0.5",
                 "--tol-scale", "1e6"])
    assert code == 0
    capsys.readouterr()


def test_module_entry_point():
    src = Path(meanlab.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "meanlab", "verify", "--criterion", "1", "--json"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["schema"] == SCHEMA and report["command"] == "verify"


def test_installed_entry_point():
    proc = subprocess.run(
        ["meanlab", "verify", "--criterion", "11", "--json"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schema"] == SCHEMA
