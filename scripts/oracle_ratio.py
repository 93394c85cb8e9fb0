"""Print the worst single-calls oracle ratio per dim and per operation over a range of seeds.

Usage, from anywhere inside the repository:

    python3 scripts/oracle_ratio.py [--first 0] [--last 39] [--reference lapack|mpmath]

For each seed from ``--first`` to ``--last``, inclusive, the single-calls
workload of ``perfbench/workloads.py`` builds its pairs and their LAPACK
references (``perfbench/oracle.py``), and every call runs once on this
working tree's ``src``. A call's ratio is its relative error against the
reference over eps * max(16, cond(A) cond(B)), the scale the workload's
tolerance is a multiple of. The script prints, per dim, the worst ratio with
its seed, item index and operation, and for dim 2 the median ratio; then the
worst ratio per dim and operation; then the number of calls that raised.

With ``--reference mpmath`` the LAPACK references, which take the same
A^(+-1/2) frame as several of meanlab's routes, are replaced by 40-digit
mpmath ones built on ``mpmath.eigh``. Only the dim-2 pairs are judged: each
seed's pairs come from ``perfbench/inputs.py``'s generator as the workload
draws them, and each operation runs once per pair as the workload calls it.
Per operation the script prints the worst error over eps * kappa, kappa
the larger condition number of the pair, with its seed and pair index, and
the mean error in eps, then the number of calls that raised. Errors are
relative to the reference's Frobenius norm, and d_bw's to sqrt(tr A + tr B)
as in the workload. The perfbench modules are only imported, never changed.
The exit status is 0 when no call raised and 1 otherwise.
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

import inputs  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

EPS = float(np.finfo(float).eps)
# The workload runs the operations of oracle.REFERENCE, in that order, on
# each pair in turn.
OPERATIONS = tuple(oracle.REFERENCE)
MP_DIGITS = 40


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


def meanlab_calls(ml) -> dict:
    """Each operation as the single-calls workload calls it, taking (A, B, t)."""
    m, g = ml.means, ml.geometry
    kinds = {
        "arithmetic": m.ARITHMETIC,
        "harmonic": m.HARMONIC,
        "geometric": m.GEOMETRIC,
        "kubo-ando-power_p0.5": m.kubo_ando_power(0.5),
        "kubo-ando-power_p-0.5": m.kubo_ando_power(-0.5),
        "conventional-power_p0.5": m.conventional_power(0.5),
        "spectral-geometric": m.SPECTRAL_GEOMETRIC,
        "wasserstein": m.WASSERSTEIN,
    }
    calls = {name: (lambda A, B, t, k=kind: m.mean(k, A, B)) for name, kind in kinds.items()}
    calls.update({
        "d_bw": lambda A, B, t: g.d_bw(A, B),
        "geodesic_trace": lambda A, B, t: g.geodesic(g.GEODESIC_TRACE, A, B, t),
        "geodesic_bw": lambda A, B, t: g.geodesic(g.GEODESIC_BW, A, B, t),
        "wasserstein_alt": lambda A, B, t: m.wasserstein_alt(A, B),
    })
    return calls


def mp_references(a: np.ndarray, b: np.ndarray, t: float) -> dict:
    """Every operation at (a, b, t) in MP_DIGITS-digit arithmetic, rounded to complex128 (d_bw to float)."""
    import mpmath as mp

    def spectral(X, f):
        E, V = mp.eigh((X + X.transpose_conj()) / 2)
        return V * mp.diag([f(e) for e in E]) * V.transpose_conj()

    def g(p):
        return lambda x: ((1 + x**p) / 2) ** (1 / p)

    with mp.workdps(MP_DIGITS):
        A, B = (mp.matrix([[mp.mpc(z.real, z.imag) for z in row] for row in X.tolist()]) for X in (a, b))
        t, half = mp.mpf(t), mp.mpf(0.5)
        Ah, Aih = spectral(A, mp.sqrt), spectral(A, lambda e: 1 / mp.sqrt(e))
        N = Aih * B * Aih
        E, V = mp.eigh((N + N.transpose_conj()) / 2)

        def kubo_ando(f):
            return Ah * V * mp.diag([f(e) for e in E]) * V.transpose_conj() * Ah

        S = spectral(Ah * B * Ah, mp.sqrt)
        Q = Aih * S * Aih
        R = spectral(Q, mp.sqrt)
        W = (A + B + A * Q + Q * A) / 4
        refs = {
            "arithmetic": (A + B) / 2,
            "harmonic": 2 * mp.inverse(mp.inverse(A) + mp.inverse(B)),
            "geometric": kubo_ando(mp.sqrt),
            "kubo-ando-power_p0.5": kubo_ando(g(half)),
            "kubo-ando-power_p-0.5": kubo_ando(g(-half)),
            "conventional-power_p0.5": spectral((spectral(A, mp.sqrt) + spectral(B, mp.sqrt)) / 2, lambda e: e * e),
            "spectral-geometric": R * A * R,
            "wasserstein": W,
            "geodesic_trace": kubo_ando(lambda e: e**t),
            "geodesic_bw": (1 - t) ** 2 * A + t**2 * B + t * (1 - t) * (A * Q + Q * A),
            "wasserstein_alt": W,
        }
        out = {name: np.array([[complex(M[i, j]) for j in range(2)] for i in range(2)]) for name, M in refs.items()}
        trace = sum(A[i, i].real + B[i, i].real - 2 * S[i, i].real for i in range(2))
        out["d_bw"] = float(mp.sqrt(max(trace, 0)))
    return out


def seed_mp_errors(ml, seed: int) -> tuple[list[tuple[str, int, float, float]], int]:
    """(operation, pair, err / (eps kappa), err / eps) for each dim-2 call of one seed, and the calls that raised."""
    pairs = inputs.make_pairs(np.random.default_rng(seed), 2, workloads.PAIRS[2])
    calls = meanlab_calls(ml)
    rows, failed = [], 0
    for index, p in enumerate(pairs):
        A = ml.matcore.PdMatrix.certify(ml.matcore.HermitianMatrix(p.a))
        B = ml.matcore.PdMatrix.certify(ml.matcore.HermitianMatrix(p.b))
        kappa = max(np.linalg.cond(p.a), np.linalg.cond(p.b))
        refs = mp_references(p.a, p.b, p.t)
        for name in OPERATIONS:
            try:
                out = calls[name](A, B, p.t)
            except ml.errors.MeanlabError:
                failed += 1
                continue
            ref = refs[name]
            if name == "d_bw":
                err = abs(out - ref) / np.sqrt(np.trace(p.a).real + np.trace(p.b).real)
            else:
                err = float(np.linalg.norm(out.mat - ref) / np.linalg.norm(ref))
            rows.append((name, index, err / (EPS * kappa), err / EPS))
    return rows, failed


def report_lapack(ml, seeds) -> int:
    worst: dict[tuple, tuple[float, int, int]] = {}
    dim2: list[float] = []
    failed = 0
    for seed in seeds:
        rows, raised = seed_ratios(ml, seed)
        failed += raised
        for dim, item, ratio in rows:
            if dim == 2:
                dim2.append(ratio)
            for key in ((dim,), (dim, OPERATIONS[item % len(OPERATIONS)])):
                if key not in worst or ratio > worst[key][0]:
                    worst[key] = (ratio, seed, item)
    for key in sorted(k for k in worst if len(k) == 1):
        ratio, seed, item = worst[key]
        name = OPERATIONS[item % len(OPERATIONS)]
        print(f"dim {key[0]}: worst ratio {ratio:.4f} at seed {seed}, item {item} ({name})")
    if dim2:
        print(f"dim 2: median ratio {statistics.median(dim2):.5f} over {len(dim2)} calls")
    for dim, name in sorted((k for k in worst if len(k) == 2), key=lambda k: (k[0], OPERATIONS.index(k[1]))):
        ratio, seed, item = worst[dim, name]
        print(f"dim {dim} {name}: worst ratio {ratio:.4f} at seed {seed}, item {item}")
    return failed


def report_mpmath(ml, seeds) -> int:
    worst: dict[str, tuple[float, int, int]] = {}
    errors: dict[str, list[float]] = {name: [] for name in OPERATIONS}
    failed = 0
    for seed in seeds:
        rows, raised = seed_mp_errors(ml, seed)
        failed += raised
        for name, index, ratio, err in rows:
            errors[name].append(err)
            if name not in worst or ratio > worst[name][0]:
                worst[name] = (ratio, seed, index)
    for name in OPERATIONS:
        if name in worst:
            ratio, seed, index = worst[name]
            print(f"dim 2 {name}: worst {ratio:.4g} eps kappa at seed {seed}, pair {index}; "
                  f"mean {statistics.fmean(errors[name]):.3g} eps over {len(errors[name])} calls")
    return failed


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=0, help="first seed (default 0)")
    parser.add_argument("--last", type=int, default=39, help="last seed, inclusive (default 39)")
    parser.add_argument("--reference", choices=("lapack", "mpmath"), default="lapack",
                        help="judge against perfbench's LAPACK oracle (default) or 40-digit mpmath at dim 2")
    args = parser.parse_args(argv)
    report = report_mpmath if args.reference == "mpmath" else report_lapack
    failed = report(meanlab_modules(), range(args.first, args.last + 1))
    print(f"calls that raised: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
