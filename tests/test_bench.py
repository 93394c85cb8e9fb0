"""The summary of scripts/bench.py on synthetic result lines."""

import importlib.util
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


def test_quartiles_of_a_single_run(bench):
    assert bench.quartiles([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5}
