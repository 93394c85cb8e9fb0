"""Time the 2x2 kernels at a git ref and in the working tree, alternately, in one process.

Usage, from anywhere inside the repository:

    python3 scripts/ab_kernels.py REF [--rounds N]

The committed tree at REF is unpacked as ``verify_identity.py`` unpacks it.
Its ``src/meanlab`` and this tree's are loaded into one process as two
packages, ``meanlab_ref`` and ``meanlab_here``. Every round times each kernel
on both sides in turn, the side that goes first alternating from round to
round, so that the drift of a shared host falls on both sides alike; separate
processes on such a host can differ by 2x. The kernels are the lone
``_eig2_values``, the lone ``_pow_arr`` at 0.5 and at (0.5, -0.5) on a matrix
with b != 0 and on one with b = 0, a certified lone power, stacked powers of
20 and of 200 ``pd_stacks`` matrices, and ``_mean_arr`` m_0.5 of one pair and
of 200. Both sides get the same input arrays.

For each kernel the script prints the min and the median time per call on
each side, in microseconds, and the change of the min, here against REF. It
only measures; the exit status is 0, and 2 on a usage error or an unknown REF.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from verify_identity import ROOT, unpack

ROUNDS = 25
# Each timing covers about this many seconds of calls.
SPAN = 0.01


def load(src: Path, name: str):
    """The package in ``src/meanlab`` imported under ``name``, with its submodules."""
    init = src / "meanlab" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def inputs(pkg) -> dict:
    """The arrays every kernel runs on, drawn with ``pkg``: seeded certified 2x2 pairs."""
    A, B = pkg.sampling.pd_stacks(23, dim=2, k=2, count=200)
    return {"X": A[0], "D": np.diag([2.0, 5.0]).astype(complex), "A": A, "B": B}


def kernels(pkg, data: dict) -> dict:
    """Name -> argument-free callable, for each timed kernel of one side."""
    matcore, means = pkg.matcore, pkg.means
    pow_arr, m05 = matcore._pow_arr, means.kubo_ando_power(0.5)
    X, D, A, B = data["X"], data["D"], data["A"], data["B"]
    A20 = A[:20]
    return {
        "_eig2_values lone": lambda: matcore._eig2_values(X),
        "_pow_arr lone 0.5, b != 0": lambda: pow_arr(X, 0.5),
        "_pow_arr lone 0.5, b = 0": lambda: pow_arr(D, 0.5),
        "_pow_arr lone (0.5, -0.5), b != 0": lambda: pow_arr(X, 0.5, -0.5),
        "_pow_arr lone (0.5, -0.5), b = 0": lambda: pow_arr(D, 0.5, -0.5),
        "_pow_arr lone 0.5 certify": lambda: pow_arr(X, 0.5, certify=True),
        "_pow_arr stack of 20, 0.5": lambda: pow_arr(A20, 0.5),
        "_pow_arr stack of 200, 0.5": lambda: pow_arr(A, 0.5),
        "_mean_arr m_0.5 lone": lambda: means._mean_arr(m05, X, B[0]),
        "_mean_arr m_0.5 on 200 pairs": lambda: means._mean_arr(m05, A, B),
    }


def per_call(fn, number: int) -> float:
    """Seconds per call of ``fn`` over ``number`` calls."""
    start = time.perf_counter()
    for _ in range(number):
        fn()
    return (time.perf_counter() - start) / number


def compare(sides: dict, rounds: int, span: float = SPAN) -> dict:
    """{kernel: {side: [seconds per call, one per round]}} for two sides' kernels, timed in turns."""
    names = list(sides)
    first = sides[names[0]]
    # Calls per timing, from one untimed call of each kernel.
    numbers = {k: max(1, int(span / max(per_call(fn, 1), 1e-7))) for k, fn in first.items()}
    times = {k: {side: [] for side in names} for k in first}
    for i in range(rounds):
        for side in names if i % 2 == 0 else names[::-1]:
            for k, fn in sides[side].items():
                times[k][side].append(per_call(fn, numbers[k]))
    return times


def report(times: dict, ref: str) -> list[str]:
    """One line per kernel: min and median in microseconds per side, and the change of the min."""
    lines = []
    for k, by_side in times.items():
        old, new = (by_side[side] for side in ("ref", "here"))
        change = min(new) / min(old) - 1.0
        lines.append(
            f"{k}: {ref} min {min(old) * 1e6:.2f} median {statistics.median(old) * 1e6:.2f} us; "
            f"here min {min(new) * 1e6:.2f} median {statistics.median(new) * 1e6:.2f} us; min {change:+.1%}"
        )
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref")
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ab-kernels-") as tmp:
        try:
            unpack(args.ref, Path(tmp))
        except RuntimeError as exc:
            print(exc, file=sys.stderr, end="")
            return 2
        packages = {"ref": load(Path(tmp) / "src", "meanlab_ref"), "here": load(ROOT / "src", "meanlab_here")}
        data = inputs(packages["here"])
        times = compare({side: kernels(pkg, data) for side, pkg in packages.items()}, args.rounds, SPAN)
    print(f"{args.rounds} rounds, alternating; microseconds per call")
    for line in report(times, args.ref):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
