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
A^(+-1/2) frame as several of meanlab's routes, are replaced by the 50-digit
mpmath ones of ``tests/mp_oracle.py``, and the dim-2 and dim-4 pairs are
judged: each seed's pairs come from ``perfbench/inputs.py``'s generator as
the workload draws them, and each operation runs once per pair as the
workload calls it. Per dim and operation the script prints the worst error
over eps * kappa, kappa the larger condition number of the pair, at dim 4
also over eps * kappa(A) kappa(B), each with its seed and pair index, and
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
for _path in (ROOT / "src", ROOT / "perfbench", ROOT / "tests"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import inputs  # noqa: E402
import mp_oracle  # noqa: E402
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


def mp_operations(ml) -> dict:
    """Each operation as the single-calls workload calls it, and its tests/mp_oracle.py reference, both taking (A, B, t)."""
    m, g, ref = ml.means, ml.geometry, mp_oracle.reference
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
    # The oracle names a mean by its kind's tag and takes its p.
    ops = {
        name: (lambda A, B, t, k=kind: m.mean(k, A, B), lambda a, b, t, k=kind: ref(a, b, k.tag, *([k.p] if k.p else [])))
        for name, kind in kinds.items()
    }
    ops.update({
        "d_bw": (lambda A, B, t: g.d_bw(A, B), lambda a, b, t: float(ref(a, b, "d_bw"))),
        "geodesic_trace": (lambda A, B, t: g.geodesic(g.GEODESIC_TRACE, A, B, t), lambda a, b, t: ref(a, b, "geodesic_trace", t)),
        "geodesic_bw": (lambda A, B, t: g.geodesic(g.GEODESIC_BW, A, B, t), lambda a, b, t: ref(a, b, "geodesic_bw", t)),
        "wasserstein_alt": (lambda A, B, t: m.wasserstein_alt(A, B), lambda a, b, t: ref(a, b, "wasserstein")),
    })
    return ops


def seed_mp_errors(ml, seed: int) -> tuple[list[tuple], int]:
    """(dim, operation, pair, err / (eps kappa), err / (eps kappa(A) kappa(B)), err / eps) for each call of one
    seed, kappa = max(kappa(A), kappa(B)), and the number of calls that raised."""
    rng = np.random.default_rng(seed)
    by_dim = {dim: inputs.make_pairs(rng, dim, count) for dim, count in workloads.PAIRS.items()}
    ops = mp_operations(ml)
    rows, failed = [], 0
    for dim, pairs in by_dim.items():
        for index, p in enumerate(pairs):
            A = ml.matcore.PdMatrix.certify(ml.matcore.HermitianMatrix(p.a))
            B = ml.matcore.PdMatrix.certify(ml.matcore.HermitianMatrix(p.b))
            ka, kb = np.linalg.cond(p.a), np.linalg.cond(p.b)
            for name in OPERATIONS:
                call, reference = ops[name]
                try:
                    out = call(A, B, p.t)
                except ml.errors.MeanlabError:
                    failed += 1
                    continue
                ref = reference(p.a, p.b, p.t)
                if name == "d_bw":
                    err = abs(out - ref) / np.sqrt(np.trace(p.a).real + np.trace(p.b).real)
                else:
                    err = float(np.linalg.norm(out.mat - ref) / np.linalg.norm(ref))
                rows.append((dim, name, index, err / (EPS * max(ka, kb)), err / (EPS * ka * kb), err / EPS))
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
    worst: dict[tuple, tuple[float, int, int]] = {}
    errors: dict[tuple, list[float]] = {}
    failed = 0
    for seed in seeds:
        rows, raised = seed_mp_errors(ml, seed)
        failed += raised
        for dim, name, index, ratio, product, err in rows:
            errors.setdefault((dim, name), []).append(err)
            for key, value in (((dim, name), ratio), ((dim, name, "product"), product)):
                if key not in worst or value > worst[key][0]:
                    worst[key] = (value, seed, index)
    for dim, name in sorted(errors, key=lambda k: (k[0], OPERATIONS.index(k[1]))):
        ratio, seed, index = worst[dim, name]
        line = f"dim {dim} {name}: worst {ratio:.4g} eps kappa at seed {seed}, pair {index}; "
        if dim != 2:
            product, seed, index = worst[dim, name, "product"]
            line += f"worst {product:.4g} eps kappa(A) kappa(B) at seed {seed}, pair {index}; "
        print(line + f"mean {statistics.fmean(errors[dim, name]):.3g} eps over {len(errors[dim, name])} calls")
    return failed


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=0, help="first seed (default 0)")
    parser.add_argument("--last", type=int, default=39, help="last seed, inclusive (default 39)")
    parser.add_argument("--reference", choices=("lapack", "mpmath"), default="lapack",
                        help="judge against perfbench's LAPACK oracle (default) or 50-digit mpmath at dims 2 and 4")
    args = parser.parse_args(argv)
    report = report_mpmath if args.reference == "mpmath" else report_lapack
    failed = report(meanlab_modules(), range(args.first, args.last + 1))
    print(f"calls that raised: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
