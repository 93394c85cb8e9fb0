"""The summary of scripts/bench.py on synthetic result lines."""

import importlib.util
import re
import shutil
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
METRICS = [
    {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.15},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    spec = importlib.util.spec_from_file_location("bench", SCRIPTS / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(pair, side, pass_s, rss=40.0):
    metrics = {"pass_s": {"value": pass_s, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return {"workload": "w", "pair": pair, "side": side, "result": {"failed": 0, "metrics": metrics}}


def test_summary_counts_wins_per_pair_and_drops_a_broken_pair(bench):
    runs = [
        _run(0, "ref", 1.0), _run(0, "worktree", 0.5),
        _run(1, "worktree", 1.0), _run(1, "ref", 1.0),  # a tie counts for neither side
        _run(2, "ref", 1.2), _run(2, "worktree", 0.8, rss=41.0),
        _run(3, "ref", 9.0), {"workload": "w", "pair": 3, "side": "worktree", "result": {"error": "exit 2"}},
    ]
    row = bench.summarize(runs, METRICS)["w"]["pass_s"]
    assert row["pairs"] == 3
    assert row["worktree_wins"] == 2
    assert row["ref"]["median"] == 1.0 and row["worktree"]["median"] == 0.8
    assert row["change"] == pytest.approx(-0.2)
    assert row["bound"] == 0.15
    rss = bench.summarize(runs, METRICS)["w"]["peak_rss_mb"]
    assert rss["worktree_wins"] == 0 and rss["change"] == 0.0


def test_layers_take_the_median_of_the_per_round_ratios(monkeypatch):
    # Rounds where here took 1, 3 and 4 against REF's 2, 2 and 2: the
    # ratios are 0.5, 1.5 and 2.0, their median 1.5, while the change of
    # the min reads -50%.
    monkeypatch.syspath_prepend(str(SCRIPTS))
    spec = importlib.util.spec_from_file_location("ab_kernels", SCRIPTS / "ab_kernels.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    row = module.layers({"k": {"ref": [2.0, 2.0, 2.0], "here": [1.0, 3.0, 4.0]}})["k"]
    assert row["median_ratio"] == 1.5 and row["change_of_min"] == -0.5


def test_quartiles_of_a_single_run(bench):
    assert bench.quartiles([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5}


def _oracle_ratio(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("oracle_ratio", SCRIPTS / "oracle_ratio.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_oracle_ratio_reports_each_dim_for_one_seed(monkeypatch, capsys):
    # One seed of scripts/oracle_ratio.py: a worst ratio per dim, each under
    # the workload's tolerance factor, the dim-2 median, a worst ratio per
    # dim and operation, in the workload's order, and no raised call.
    module = _oracle_ratio(monkeypatch)
    assert module.main(["--first", "0", "--last", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    worst = [re.match(r"dim (\d): worst ratio ([\d.]+) at seed 0, item \d+ \(\S+\)$", line) for line in lines[:2]]
    assert [m.group(1) for m in worst] == ["2", "4"]
    assert all(0.0 < float(m.group(2)) < 256.0 for m in worst)
    assert re.fullmatch(r"dim 2: median ratio [\d.]+ over 2400 calls", lines[2])
    per_op = [re.fullmatch(r"dim (\d) (\S+): worst ratio ([\d.]+) at seed 0, item \d+", line) for line in lines[3:-1]]
    ops = module.OPERATIONS
    assert [(m.group(1), m.group(2)) for m in per_op] == [(d, op) for d in "24" for op in ops]
    assert max(float(m.group(3)) for m in per_op) == max(float(m.group(2)) for m in worst)
    assert lines[-1] == "calls that raised: 0"


def test_oracle_ratio_against_mpmath_for_one_seed(monkeypatch, capsys):
    # --reference mpmath judges the 200 dim-2 and 10 dim-4 pairs of seed 0:
    # one line per dim and operation, in the workload's order, with the
    # worst error over eps kappa, at dim 4 also over eps kappa(A) kappa(B),
    # and the mean error in eps. Every 2x2 route stays within a few eps
    # kappa of 50-digit mpmath there. At dim 4 the worst measured 5.445 eps
    # kappa and 2.985 eps kappa(A) kappa(B), both the spectral geometric
    # mean; the bounds are 1.5 times those.
    module = _oracle_ratio(monkeypatch)
    assert module.main(["--first", "0", "--last", "0", "--reference", "mpmath"]) == 0
    lines = capsys.readouterr().out.splitlines()
    ops = list(module.OPERATIONS)
    pattern = r"dim 2 (\S+): worst ([\d.e+-]+) eps kappa at seed 0, pair \d+; mean ([\d.e+-]+) eps over 200 calls"
    rows = [re.fullmatch(pattern, line) for line in lines[:len(ops)]]
    assert [m.group(1) for m in rows] == ops
    assert all(float(m.group(2)) < 16.0 for m in rows)
    pattern = (r"dim 4 (\S+): worst ([\d.e+-]+) eps kappa at seed 0, pair \d+; worst ([\d.e+-]+) eps kappa\(A\) "
               r"kappa\(B\) at seed 0, pair \d+; mean [\d.e+-]+ eps over 10 calls")
    rows = [re.fullmatch(pattern, line) for line in lines[len(ops):-1]]
    assert [m.group(1) for m in rows] == ops
    assert max(float(m.group(2)) for m in rows) <= 8.2
    assert max(float(m.group(3)) for m in rows) <= 4.5
    assert lines[-1] == "calls that raised: 0"


def test_ab_kernels_times_every_kernel_on_both_sides_in_one_round(monkeypatch, capsys):
    # One short round of scripts/ab_kernels.py, with this tree's source as
    # the ref: a line per kernel with a min and a median on each side.
    monkeypatch.syspath_prepend(str(SCRIPTS))
    spec = importlib.util.spec_from_file_location("ab_kernels", SCRIPTS / "ab_kernels.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "unpack", lambda ref, dest: shutil.copytree(SCRIPTS.parent / "src", dest / "src"))
    monkeypatch.setattr(module, "SPAN", 1e-4)
    assert module.main(["REF", "--rounds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1 rounds, alternating; microseconds per call"
    number = r"(\d+\.\d\d)"
    pattern = (rf"(.+): REF min {number} median {number} us; here min {number} median {number} us; "
               r"min [+-]\d+\.\d%; median ratio (\d+\.\d{3})")
    rows = [re.fullmatch(pattern, line) for line in lines[1:]]
    assert len(rows) == 63 and all(rows)
    assert all(float(m.group(2)) == float(m.group(3)) > 0.0 for m in rows)
    assert all(float(m.group(6)) > 0.0 for m in rows)
    names = {"_cholesky lone 4x4", "_d_bw_arr on 200 dim-3 pairs", "criterion_10", "PdMatrix.certify lone dim 2"}
    names |= {"mean geometric lone dim 4", "_order_violation on 180 dim-3 pairs", "_congruences on 180 dim-3 pairs"}
    names |= {"_pd_result lone 2x2", "_norms lone 2x2", "rng_batch count 1", "rng_batch count 200"}
    names |= {"PdMatrix.certify(H).min_eigenvalue lone dim 4", "geodesic bw lone dim 2"}
    names |= {"mean spectral-geometric lone dim 2", "mean conventional-power 0.5 lone dim 2"}
    names |= {"_certified_points bw on 50 dim-2 pairs, 5 ts", "criterion_1", "criterion_2", "criterion_5"}
    names |= {"solve_coefficients wasserstein", "check_power_mean_expansion 0.5", "centrality_probe m_0.5, 50 samples"}
    names |= {"criterion_8", "criterion_9", "seed hash, 10 streams of 50"}
    assert names | {"_mean_arr harmonic lone"} <= {m.group(1) for m in rows}


def test_ab_kernels_times_a_kernel_one_side_lacks_on_the_other_alone(monkeypatch):
    # A kernel missing at the ref is timed here alone, with no change.
    monkeypatch.syspath_prepend(str(SCRIPTS))
    spec = importlib.util.spec_from_file_location("ab_kernels", SCRIPTS / "ab_kernels.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    times = module.compare({"ref": {"a": lambda: None}, "here": {"a": lambda: None, "b": lambda: None}}, 2, 1e-4)
    assert set(times["b"]) == {"here"} and len(times["b"]["here"]) == 2
    rows = module.layers(times)
    assert rows["b"]["change_of_min"] is None and rows["a"]["change_of_min"] is not None
    assert rows["b"]["median_ratio"] is None and rows["a"]["median_ratio"] > 0.0
    assert module.report(times, "REF")[1].startswith("b: REF absent; here min ")
