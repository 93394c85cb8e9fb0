"""Time the 2x2 kernels and the n >= 3 Cholesky frame at a git ref and in the working tree, alternately, in one process.

Usage, from anywhere inside the repository:

    python3 scripts/ab_kernels.py REF [--rounds N]

The committed tree at REF is unpacked as ``verify_identity.py`` unpacks it.
Its ``src/meanlab`` and this tree's are loaded into one process as two
packages, ``meanlab_ref`` and ``meanlab_here``. Every round times each kernel
on both sides in turn, the side that goes first alternating from round to
round, so that the drift of a shared host falls on both sides alike; separate
processes on such a host can differ by 2x. The kernels are:

- at n = 2: the lone ``_eig2_values``, the lone ``_pow_arr`` at 0.5 and at
  (0.5, -0.5) on a matrix with b != 0 and on one with b = 0, a certified
  lone power, stacked powers of 20 and of 200 ``pd_stacks`` matrices,
  ``_mean_arr`` m_0.5 of one pair and of 200, and the lone geometric,
  Wasserstein and harmonic ``_mean_arr``, which take the checked roots,
  nodes and ratio of the closed forms;
- ``PdMatrix.certify`` of a lone wrapped matrix at dims 2 and 4, which
  certifies it as a result is certified, the same at dim 4 with its
  ``min_eigenvalue`` then read (at n >= 3 a proof leaves it unread until
  then), and the public lone geometric ``mean`` at dims 2 and 4, which
  certifies its result;
- the lone 2x2 certificate, ``_pd_result`` of a closed-form geometric
  mean, and the lone ``_norms`` of a 2x2 and of a 4x4;
- ``rng_batch`` at counts 1 and 200, and the seeding of 10 streams of 50
  at once, criterion 9's probe partners: one ``rng_batches`` call, or at a
  ref without it one ``rng_batch`` per stream. That is the SeedSequence
  hash every sampled battery seeds through, which runs at the call (each
  generator is built only when its turn comes, so none is);
- at n >= 3: ``_cholesky`` and ``_lower_inverse`` on a stack of 180 3x3
  matrices and on a lone 4x4; ``_mean_arr`` of each kind the Cholesky frame
  serves (harmonic, geometric, m_0.5, m_-0.5, Wasserstein and spectral
  geometric) on 180 dim-3 pairs, the size of criterion 7's dim-3 mean stack
  at 20 samples, and on one dim-4 pair; ``check_kubo_ando_axioms`` at
  dim 3 with 20 samples for criterion 7's four kinds; and the stacked
  ``_order_violation`` and ``_congruences`` of 180 dim-3 pairs, the
  battery's yes/no questions;
- the Bures-Wasserstein distance ``_d_bw_arr`` of one pair at dims 2 and 4
  and of 200 pairs at dims 2 and 3, and ``criterion_10``, whose work is
  mostly distances;
- the public lone dim-2 ``geodesic`` on the Bures-Wasserstein curve, the
  spectral geometric ``mean`` and the conventional power ``mean`` at
  p = 0.5, each certified, and ``_certified_points`` of that curve on 50
  dim-2 pairs at 5 values of t;
- the power family's criteria, ``criterion_1``, ``criterion_2`` and
  ``criterion_5``, which take every p from one stacked pass, and beside
  them the one-kind calls of those stacked passes, ``solve_coefficients``
  of the Wasserstein mean and ``check_power_mean_expansion`` at p = 0.5;
  and one ``centrality_probe`` of m_0.5 at 50 samples on a non-scalar
  dim-2 matrix, beside ``criterion_9``, which runs its twelve probes as one
  stack, and ``criterion_8``, whose commuting pairs come from raw normals.

Both sides get the same input arrays. A kernel that one side lacks is timed
on the other alone.

For each kernel the script prints the min and the median time per call on
each side, in microseconds, the change of the min, here against REF, and
the median over rounds of the ratio here / REF of the two sides' times in
that round: a round times both sides within a fraction of a second, so the
ratio cancels the drift of a shared host that can move a min by 10%. It
only measures; the exit status is 0, and 2 on a usage error or an unknown REF.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import tempfile
import time
from operator import truediv
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
    """The arrays every kernel runs on, drawn with ``pkg``: seeded certified pairs at dims 2, 3 and 4."""
    A, B = pkg.sampling.pd_stacks(23, dim=2, k=2, count=200)
    A3, B3 = pkg.sampling.pd_stacks(23, 3, dim=3, k=2, count=200)
    A4, B4 = pkg.sampling.pd_stacks(23, 4, dim=4, k=2, count=1)
    return {
        "X": A[0], "D": np.diag([2.0, 5.0]).astype(complex), "A": A, "B": B, "A3": A3[:180], "B3": B3[:180],
        "A3_200": A3, "B3_200": B3, "A4": A4[0], "B4": B4[0], "G": pkg.means._mean_arr(pkg.means.GEOMETRIC, A[0], B[0]),
    }


def kernels(pkg, data: dict) -> dict:
    """Name -> argument-free callable, for each timed kernel that ``pkg`` has."""
    matcore, means = pkg.matcore, pkg.means
    pow_arr, m05 = matcore._pow_arr, means.kubo_ando_power(0.5)
    X, D, A, B = data["X"], data["D"], data["A"], data["B"]
    A3, B3, A4, B4 = data["A3"], data["B3"], data["A4"], data["B4"]
    A20 = A[:20]
    out = {
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
        "_mean_arr geometric lone": lambda: means._mean_arr(means.GEOMETRIC, X, B[0]),
        "_mean_arr wasserstein lone": lambda: means._mean_arr(means.WASSERSTEIN, X, B[0]),
        "_mean_arr harmonic lone": lambda: means._mean_arr(means.HARMONIC, X, B[0]),
        "_pd_result lone 2x2": lambda: matcore._pd_result(data["G"]),
        "_norms lone 2x2": lambda: matcore._norms(X),
        "_norms lone 4x4": lambda: matcore._norms(A4),
        "rng_batch count 1": lambda: pkg.sampling.rng_batch(7, 3, count=1),
        "rng_batch count 200": lambda: pkg.sampling.rng_batch(7, 3, count=200),
    }
    streams = [((seed,), 50) for seed in range(10)]
    if hasattr(pkg.sampling, "rng_batches"):
        out["seed hash, 10 streams of 50"] = lambda: pkg.sampling.rng_batches(*streams)
    else:
        out["seed hash, 10 streams of 50"] = lambda: [pkg.sampling.rng_batch(*p, count=n) for p, n in streams]
    for dim, M, N in ((2, X, B[0]), (4, A4, B4)):
        H = matcore.HermitianMatrix._wrap(M)
        out[f"PdMatrix.certify lone dim {dim}"] = lambda H=H: matcore.PdMatrix.certify(H)
        P, Q = matcore.PdMatrix.certify(M), matcore.PdMatrix.certify(N)
        out[f"mean geometric lone dim {dim}"] = lambda P=P, Q=Q: means.mean(means.GEOMETRIC, P, Q)
    H4 = matcore.HermitianMatrix._wrap(A4)
    out["PdMatrix.certify(H).min_eigenvalue lone dim 4"] = lambda: matcore.PdMatrix.certify(H4).min_eigenvalue
    if hasattr(matcore, "_cholesky"):
        with np.errstate(all="ignore"):
            factors = {"stack of 180 3x3": matcore._cholesky(A3)[:3], "lone 4x4": matcore._cholesky(A4)[:3]}
        for label, M in (("stack of 180 3x3", A3), ("lone 4x4", A4)):
            out[f"_cholesky {label}"] = lambda M=M: matcore._cholesky(M)
            out[f"_lower_inverse {label}"] = lambda parts=factors[label]: matcore._lower_inverse(*parts)
    kinds = {
        "harmonic": means.HARMONIC, "geometric": means.GEOMETRIC, "m_0.5": m05, "m_-0.5": means.kubo_ando_power(-0.5),
        "wasserstein": means.WASSERSTEIN, "spectral-geometric": means.SPECTRAL_GEOMETRIC,
    }
    for name, kind in kinds.items():
        out[f"_mean_arr {name} on 180 dim-3 pairs"] = lambda kind=kind: means._mean_arr(kind, A3, B3)
        out[f"_mean_arr {name} lone dim 4"] = lambda kind=kind: means._mean_arr(kind, A4, B4)
    out["_order_violation on 180 dim-3 pairs"] = lambda: matcore._order_violation(A3, A3 + B3)
    out["_congruences on 180 dim-3 pairs"] = lambda: matcore._congruences(B3, A3)
    for name in ("harmonic", "geometric", "m_0.5", "m_-0.5"):
        out[f"axioms {name}, dim 3, 20 samples"] = lambda kind=kinds[name]: means.check_kubo_ando_axioms(kind, samples=20, dim=3)
    d_bw = pkg.geometry._d_bw_arr
    for label, pair in (
        ("lone dim 2", (X, B[0])), ("lone dim 4", (A4, B4)),
        ("on 200 dim-2 pairs", (A, B)), ("on 200 dim-3 pairs", (data["A3_200"], data["B3_200"])),
    ):
        out[f"_d_bw_arr {label}"] = lambda pair=pair: d_bw(*pair)
    out["criterion_10"] = lambda: pkg.verification.criterion_10(seed=0)
    geometry = pkg.geometry
    P, Q = matcore.PdMatrix.certify(X), matcore.PdMatrix.certify(B[0])
    out["geodesic bw lone dim 2"] = lambda: geometry.geodesic(geometry.GEODESIC_BW, P, Q, 0.3)
    out["mean spectral-geometric lone dim 2"] = lambda: means.mean(means.SPECTRAL_GEOMETRIC, P, Q)
    out["mean conventional-power 0.5 lone dim 2"] = lambda: means.mean(means.conventional_power(0.5), P, Q)
    ts = (0.0, 0.25, 0.5, 0.75, 1.0)
    out["_certified_points bw on 50 dim-2 pairs, 5 ts"] = lambda: geometry._certified_points(
        geometry.GEODESIC_BW, A[:50], B[:50], ts
    )
    for n in (1, 2, 5, 8, 9):
        out[f"criterion_{n}"] = lambda n=n: pkg.verification.CRITERIA[n](seed=0)
    out["solve_coefficients wasserstein"] = lambda: pkg.preserver.solve_coefficients(means.WASSERSTEIN)
    out["check_power_mean_expansion 0.5"] = lambda: pkg.expansion.check_power_mean_expansion(0.5)
    out["centrality_probe m_0.5, 50 samples"] = lambda: pkg.centrality.centrality_probe(P, m05, 50, 0)
    return out


def per_call(fn, number: int) -> float:
    """Seconds per call of ``fn`` over ``number`` calls."""
    start = time.perf_counter()
    for _ in range(number):
        fn()
    return (time.perf_counter() - start) / number


def compare(sides: dict, rounds: int, span: float = SPAN) -> dict:
    """{kernel: {side: [seconds per call, one per round]}} for two sides' kernels, timed in turns.

    A kernel that a side lacks has no entry for that side.
    """
    names = list(sides)
    every = {k: fn for side in names[::-1] for k, fn in sides[side].items()}
    # Calls per timing, from one untimed call of each kernel.
    numbers = {k: max(1, int(span / max(per_call(fn, 1), 1e-7))) for k, fn in every.items()}
    times = {k: {side: [] for side in names if k in sides[side]} for k in every}
    for i in range(rounds):
        for side in names if i % 2 == 0 else names[::-1]:
            for k, fn in sides[side].items():
                times[k][side].append(per_call(fn, numbers[k]))
    return times


def layers(times: dict) -> dict:
    """{kernel: {side: {min_us, median_us}, change_of_min, median_ratio}}.

    ``median_ratio`` is the median over rounds of here / ref; it and the
    change are None where a side lacks the kernel.
    """
    out = {}
    for k, by_side in times.items():
        row = {side: {"min_us": min(t) * 1e6, "median_us": statistics.median(t) * 1e6} for side, t in by_side.items()}
        both = "ref" in row and "here" in row
        row["change_of_min"] = row["here"]["min_us"] / row["ref"]["min_us"] - 1.0 if both else None
        row["median_ratio"] = statistics.median(map(truediv, by_side["here"], by_side["ref"])) if both else None
        out[k] = row
    return out


def report(times: dict, ref: str) -> list[str]:
    """One line per kernel: min and median in microseconds per side, the change of the min and the median ratio."""
    lines = []
    for k, row in layers(times).items():
        sides = [
            f"{label} min {row[side]['min_us']:.2f} median {row[side]['median_us']:.2f} us" if side in row else f"{label} absent"
            for side, label in (("ref", ref), ("here", "here"))
        ]
        change = ""
        if row["change_of_min"] is not None:
            change = f"; min {row['change_of_min']:+.1%}; median ratio {row['median_ratio']:.3f}"
        lines.append(f"{k}: {sides[0]}; {sides[1]}{change}")
    return lines


def time_layers(ref_src: Path, rounds: int, span: float = SPAN) -> dict:
    """compare() of the package in ``ref_src`` against this tree's, on this tree's inputs."""
    packages = {"ref": load(ref_src, "meanlab_ref"), "here": load(ROOT / "src", "meanlab_here")}
    data = inputs(packages["here"])
    return compare({side: kernels(pkg, data) for side, pkg in packages.items()}, rounds, span)


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
        times = time_layers(Path(tmp) / "src", args.rounds, SPAN)
    print(f"{args.rounds} rounds, alternating; microseconds per call")
    for line in report(times, args.ref):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
