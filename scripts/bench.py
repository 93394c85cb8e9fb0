"""Benchmark a git ref against the working tree and write the runs to one JSON file.

Usage, from anywhere inside the repository:

    python3 scripts/bench.py REF --out BENCH_<n>.json

The committed tree at REF is unpacked as ``verify_identity.py`` unpacks it.
For each workload in BENCHMARK.json and each of 10 pairs i, with seed i + 1,
``perfbench/run.py --trace 0`` runs for BENCHMARK.json's ``run_seconds`` once
on REF's tree and once on the working tree, each tree its own copy of
perfbench, REF first in even pairs and the working tree first in odd ones.

The output holds every run's result line; for each workload and end-to-end
metric, each side's median and quartiles, the relative change of the
medians, and the pairs the working tree won (ties count for neither); the
layer timings of ``ab_kernels.py`` (both packages in this process, timed in
turns for its 25 rounds), as each side's min and median microseconds per
call, the change of the min and the median over rounds of the ratio
here / REF; and the provenance: REF's commit, HEAD, and
the working tree's ``git diff --stat`` against HEAD with its untracked
files, so that an uncommitted change is not labelled with HEAD. The exit
status is 0 when every run succeeded with no failed operation, 1 otherwise,
and 2 on a usage error or an unknown REF.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import ab_kernels
from verify_identity import ROOT, unpack

SIDES = ("ref", "worktree")
PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True, cwd=ROOT, check=True).stdout


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run on a tree: its result line, or the error it ended with."""
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=tree)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"no result line: {lines[-1][:200]}"}


def quartiles(values: list[float]) -> dict:
    """Median and quartiles; with one value all three are that value."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and end-to-end metric: both sides' quartiles, the change and the pairs won."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_pair: dict[int, dict] = {}
        for r in runs:
            if r["workload"] == workload and "metrics" in r["result"]:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
        pairs = [p for p in by_pair.values() if len(p) == 2]
        rows = {}
        for m in metrics if pairs else ():
            name, lower = m["name"], m["better"] == "lower"
            values = {s: [p[s][name]["value"] for p in pairs] for s in SIDES}
            ref, new = quartiles(values["ref"]), quartiles(values["worktree"])
            wins = sum((b < a) if lower else (b > a) for a, b in zip(values["ref"], values["worktree"]))
            rows[name] = {
                "unit": m["unit"],
                "better": m["better"],
                "bound": m["bound"],
                "ref": ref,
                "worktree": new,
                "change": new["median"] / ref["median"] - 1.0 if ref["median"] else None,
                "worktree_wins": wins,
                "pairs": len(pairs),
            }
        out[workload] = rows
    return out


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("ref")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    seconds = float(spec["run_seconds"])
    try:
        ref_commit = git("rev-parse", "--verify", f"{args.ref}^{{commit}}").strip()
    except subprocess.CalledProcessError as exc:
        print(exc.stderr, file=sys.stderr, end="")
        return 2
    provenance = {
        "ref": {"name": args.ref, "commit": ref_commit},
        "worktree": {
            "head": git("rev-parse", "HEAD").strip(),
            "diff_stat": git("diff", "--stat", "HEAD"),
            "untracked": git("ls-files", "--others", "--exclude-standard").split(),
        },
        "host": {"python": platform.python_version(), "machine": platform.machine(), "nproc": os.cpu_count()},
        "settings": {"pairs": PAIRS, "seconds": seconds},
    }
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        try:
            unpack(args.ref, Path(tmp))
        except RuntimeError as exc:
            print(exc, file=sys.stderr, end="")
            return 2
        trees = {"ref": Path(tmp), "worktree": ROOT}
        for workload in (w["name"] for w in spec["workloads"]):
            for pair in range(PAIRS):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    result = run_once(trees[side], workload, pair + 1, seconds)
                    runs.append({"workload": workload, "pair": pair, "seed": pair + 1, "side": side, "result": result})
                    pass_s = result.get("metrics", {}).get("pass_s", {}).get("value")
                    print(f"{workload} pair {pair} {side}: pass_s {pass_s}", file=sys.stderr, flush=True)
        layers = ab_kernels.layers(ab_kernels.time_layers(Path(tmp) / "src", ab_kernels.ROUNDS))
    doc = {"provenance": provenance, "summary": summarize(runs, spec["end_to_end"]), "layers": layers, "runs": runs}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    ok = all("error" not in r["result"] and r["result"]["failed"] == 0 for r in runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
