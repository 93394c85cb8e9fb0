"""Print the worst single-calls oracle ratio per dim over a range of seeds.

Usage, from anywhere inside the repository:

    python3 scripts/oracle_ratio.py [--first 0] [--last 39]

For each seed from ``--first`` to ``--last``, inclusive, the single-calls
workload of ``perfbench/workloads.py`` builds its pairs and their LAPACK
references (``perfbench/oracle.py``), and every call runs once on this
working tree's ``src``. A call's ratio is its relative error against the
reference over eps * max(16, cond(A) cond(B)), the scale the workload's
tolerance is a multiple of. The script prints, per dim, the worst ratio with
its seed, item index and operation, and for dim 2 the median ratio, then the
number of calls that raised. Both perfbench modules are only imported, never
changed. The exit status is 0 when no call raised and 1 otherwise.
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT / "perfbench"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import oracle  # noqa: E402
import workloads  # noqa: E402

EPS = float(np.finfo(float).eps)
# The workload runs the operations of oracle.REFERENCE, in that order, on
# each pair in turn.
OPERATIONS = tuple(oracle.REFERENCE)


def meanlab_modules() -> SimpleNamespace:
    """The meanlab modules the single-calls workload reads, by name."""
    names = ("errors", "geometry", "matcore", "means")
    return SimpleNamespace(**{n: importlib.import_module(f"meanlab.{n}") for n in names})


def seed_ratios(ml, seed: int) -> tuple[list[tuple[int, int, float]], int]:
    """(dim, item, ratio) for each call of one seed's pass, and the number of calls that raised."""
    work = workloads.SingleCalls(ml, seed, {})
    rows, failed = [], 0
    for item, ((_, call, dim), (ref, tol, scale)) in enumerate(zip(work.items, work.cases)):
        out = call()
        if isinstance(out, work.error):
            failed += 1
            continue
        got = out if isinstance(out, float) else out.mat
        err = float(np.linalg.norm(got - ref)) / scale
        cond = tol / (workloads.ORACLE_TOL_FACTOR * EPS)
        rows.append((dim, item, err / (EPS * cond)))
    return rows, failed


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=0, help="first seed (default 0)")
    parser.add_argument("--last", type=int, default=39, help="last seed, inclusive (default 39)")
    args = parser.parse_args(argv)
    ml = meanlab_modules()
    worst: dict[int, tuple[float, int, int]] = {}
    dim2: list[float] = []
    failed = 0
    for seed in range(args.first, args.last + 1):
        rows, raised = seed_ratios(ml, seed)
        failed += raised
        for dim, item, ratio in rows:
            if dim == 2:
                dim2.append(ratio)
            if dim not in worst or ratio > worst[dim][0]:
                worst[dim] = (ratio, seed, item)
    for dim, (ratio, seed, item) in sorted(worst.items()):
        name = OPERATIONS[item % len(OPERATIONS)]
        print(f"dim {dim}: worst ratio {ratio:.4f} at seed {seed}, item {item} ({name})")
    if dim2:
        print(f"dim 2: median ratio {statistics.median(dim2):.5f} over {len(dim2)} calls")
    print(f"calls that raised: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
