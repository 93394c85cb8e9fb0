"""Command-line verification surface.

One executable, eight subcommands: mean, expand, preserver, centrality,
geodesic, dbw, axioms, verify. Every run produces either aligned text or a
versioned JSON report; identical argv and seed give byte-identical JSON
except for the elapsed_ms field. Exit codes: 0 when every reported check
passes, 1 when any check fails, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from .centrality import (
    commutator_report,
    probe_report,
    remark1_identity_chain,
    remark2_identity_chain,
)
from .errors import DomainError, MeanlabError
from .expansion import (
    DEFAULT_GRID,
    EpsFamily,
    _power_mean_expansions,
    _wasserstein_expansion,
)
from .geometry import (
    GEODESIC_BW,
    GEODESIC_TRACE,
    _accrual,
    d_bw,
    geodesic,
)
from .matcore import (
    PdMatrix,
    _rel_gap,
    matrix_from_json,
    matrix_to_json,
)
from .means import (
    HARMONIC,
    WASSERSTEIN,
    MeanKind,
    _POWER_TAGS,
    ando_variational_certificate,
    check_kubo_ando_axioms,
    kubo_ando_from_function,
    kubo_ando_power,
    mean,
    representing_function_of,
    wasserstein_alt,
)
from .preserver import (
    _certified_power,
    _residual_arr,
    constant_functional,
    linear_functional,
    phi_of,
    solve_coefficients,
    trace_power_functional,
)
from .report import CheckItem, worst
from .sampling import pd_stacks
from .verification import CRITERIA, run_all

SCHEMA = "meanlab-report/1"

_MEAN_KINDS = (
    "arithmetic", "geometric", "harmonic", "spectral-geometric", "wasserstein",
    "kubo-ando-power", "conventional-power",
)


def _parse_grid(text: str) -> EpsFamily:
    try:
        start, stop, count = text.split(":")
        values = np.linspace(float(start), float(stop), int(count))
        return EpsFamily(tuple(float(v) for v in values))
    except (ValueError, MeanlabError) as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}") from exc


def _load_pd(path: str) -> PdMatrix:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    return PdMatrix.certify(matrix_from_json(obj))


def _kind_from(name: str, p) -> MeanKind:
    # Kinds without a parameter ignore --p.
    if name not in _POWER_TAGS:
        return MeanKind(name)
    if p is None:
        raise MeanlabError(f"--p is required for {name}")
    return MeanKind(name, p=p)


def _family_from(name: str, p) -> MeanKind:
    # --mean kubo-ando|wasserstein of expand and preserver: m_p needs --p.
    if name == "wasserstein":
        return WASSERSTEIN
    if p is None:
        raise MeanlabError("--p is required for the power family")
    return kubo_ando_power(p)


def _tol_scale(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _emit(args, command: str, parameters: dict, checks=(), result=None, reports=None) -> int:
    """Print the report, also to --out, and return the exit code.

    Subcommands report check items and an optional result; verify passes
    whole criterion ``reports`` instead. Only the form that is printed,
    JSON or text, is built.
    """
    items = tuple(checks)
    all_pass = all(rep.all_pass for rep in reports) if reports is not None else all(item.passed for item in items)
    if args.json:
        if reports is not None:
            body = {"reports": [rep.to_json() for rep in reports]}
        else:
            body = {"checks": [item.to_json() for item in items]}
            if result is not None:
                body["result"] = result
        payload = {
            "schema": SCHEMA,
            "command": command,
            "parameters": parameters,
            "all_pass": all_pass,
            "elapsed_ms": int((time.monotonic() - args._t0) * 1000),
            **body,
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
    elif reports is not None:
        lines = [line for rep in reports for line in rep.lines()]
        text = "\n".join([*lines, "all criteria passed" if all_pass else "CRITERIA FAILURES PRESENT"])
    else:
        lines = [f"meanlab {command}", *([] if result is None else [json.dumps(result, sort_keys=True)])]
        lines.extend(item.line() for item in items)
        text = "\n".join([*lines, "all checks passed" if all_pass else "CHECK FAILURES PRESENT"])
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0 if all_pass else 1


def _cmd_mean(args) -> int:
    kind = _kind_from(args.kind, args.p)
    A = _load_pd(args.a)
    B = _load_pd(args.b)
    M = mean(kind, A, B)
    checks = []
    result = {"mean": matrix_to_json(M)}
    if kind.tag == "wasserstein":
        alt = wasserstein_alt(A, B)
        checks.append(
            CheckItem.bound(
                "two Wasserstein formulas agree",
                _rel_gap(alt.mat, M.mat),
                1e-11 * args.tol_scale,
            )
        )
    if args.via_function:
        if not kind.is_kubo_ando:
            raise MeanlabError(f"--via-function requires a Kubo-Ando kind, not {kind.label}")
        M2 = kubo_ando_from_function(
            lambda t: representing_function_of(kind, t), A, B, name=kind.label
        )
        checks.append(
            CheckItem.bound(
                "functional-calculus route agrees",
                _rel_gap(M2.mat, M.mat),
                1e-10 * args.tol_scale,
            )
        )
    if args.certificate:
        if kind.tag != "geometric":
            raise MeanlabError("--certificate applies to the geometric mean only")
        ok = ando_variational_certificate(A, B, M)
        checks.append(
            CheckItem.bound("variational certificate accepts the mean", 0.0 if ok else 1.0, 0.0)
        )
    if args.rep_at is not None:
        value = representing_function_of(kind, args.rep_at)
        result["representing_function"] = {"t": args.rep_at, "value": value}
    params = {"kind": args.kind, "p": args.p, "a": args.a, "b": args.b}
    return _emit(args, "mean", params, checks, result)


def _cmd_expand(args) -> int:
    grid = args.grid if args.grid is not None else DEFAULT_GRID
    kind = _family_from(args.mean, args.p)
    if kind == WASSERSTEIN:
        report, fit = _wasserstein_expansion(grid, args.tol_scale)
    else:
        ((report, fit),) = _power_mean_expansions((kind.p,), grid, args.tol_scale)
    result = {
        "title": report.title,
        "c0": matrix_to_json(fit.c0),
        "c1": matrix_to_json(fit.c1),
        "c2": matrix_to_json(fit.c2),
        "residual_bound": fit.residual_bound,
    }
    params = {"mean": args.mean, "p": args.p, "grid": list(grid.eps_grid)}
    return _emit(args, "expand", params, report.items, result)


def _cmd_preserver(args) -> int:
    if args.functional is None:
        rep = solve_coefficients(_family_from(args.mean, args.p))
        report = rep.contract_report(args.tol_scale)
        params = {"mean": args.mean, "p": args.p}
        return _emit(args, "preserver", params, report.items, rep.to_json())

    if args.pairs < 1:
        raise MeanlabError("--pairs must be at least 1")
    p = args.p if args.p is not None else 0.5
    if args.functional == "constant":
        f = constant_functional(1.7)
    elif args.functional == "linear":
        f = linear_functional(np.eye(2) / 2)
    else:
        f = trace_power_functional(p)
    kind = _family_from(args.mean, p)
    A, B = pd_stacks(args.seed, dim=2, k=2, count=args.pairs)
    residual = worst(_residual_arr(f, kind, A, B).tolist())
    # phi(X) = f(X^(1/p))^p, so phi(A^p)^(1/p) = f(A), here for the last A.
    roundtrip = abs(f(A[-1]) - phi_of(f, p)(_certified_power(A[-1], p)) ** (1.0 / p))
    checks = (
        CheckItem.bound(
            "transform round-trip recovers the functional", roundtrip, 1e-12 * args.tol_scale
        ),
    )
    result = {
        "functional": f.label,
        "mean": kind.label,
        "pairs": args.pairs,
        "worst_residual": residual,
    }
    params = {"functional": args.functional, "mean": args.mean, "p": p, "pairs": args.pairs}
    return _emit(args, "preserver", params, checks, result)


def _cmd_centrality(args) -> int:
    kind = _kind_from(args.kind, args.p)
    A = _load_pd(args.a)
    params = {
        "kind": args.kind,
        "p": args.p,
        "a": args.a,
        "b": args.b,
        "chain": args.chain,
        "samples": args.samples,
    }

    if args.chain == "probe":
        if args.b is not None:
            B = _load_pd(args.b)
            rep = commutator_report(kind, A, B)
            return _emit(args, "centrality", params, (), rep.to_json())
        probe = probe_report(A, kind, args.samples, args.seed)
        result = {
            "central": probe.central,
            "worst_gap": probe.worst_gap,
            "pairs": [r.to_json() for r in probe.pairs],
        }
        return _emit(args, "centrality", params, (), result)

    if args.b is None:
        raise MeanlabError("--b is required for --chain identity")
    B = _load_pd(args.b)
    # Remark 1 for the Wasserstein mean, Remark 2 for m_p and for the harmonic mean as m_(-1).
    if kind == WASSERSTEIN:
        chain = remark1_identity_chain(A, B)
        checks = (
            CheckItem.bound(
                "derivative step matches the extracted coefficient",
                chain.derivative_error,
                1e-5 * args.tol_scale,
            ),
        )
    else:
        chain = remark2_identity_chain(A, B, -1.0 if kind == HARMONIC else kind.p)
        checks = ()
    return _emit(args, "centrality", params, checks, chain.to_json())


def _cmd_geodesic(args) -> int:
    if args.check_metric and args.kind != "bw":
        raise DomainError(
            "--check-metric checks distance accrual, which is defined for the "
            "Bures-Wasserstein curve: use --kind bw"
        )
    kind = GEODESIC_BW if args.kind == "bw" else GEODESIC_TRACE
    A = _load_pd(args.a)
    B = _load_pd(args.b)
    G = geodesic(kind, A, B, args.t)
    checks = []
    result = {"point": matrix_to_json(G), "t": args.t}
    if args.check_metric:
        partition = (0.0, 0.25, 0.5, 0.75, 1.0)
        dev, total = (float(x) for x in _accrual(A.mat, B.mat, partition))
        result["metric_deviation"] = dev
        # Relative contract with an absolute floor for near-coincident pairs.
        checks.append(
            CheckItem.bound(
                "distance accrues proportionally along the curve",
                dev,
                args.tol_scale * max(1e-8 * total, 1e-13),
            )
        )
    params = {"kind": args.kind, "a": args.a, "b": args.b, "t": args.t}
    return _emit(args, "geodesic", params, checks, result)


def _cmd_dbw(args) -> int:
    A = _load_pd(args.a)
    B = _load_pd(args.b)
    params = {"a": args.a, "b": args.b}
    return _emit(args, "dbw", params, (), {"distance": d_bw(A, B)})


def _cmd_axioms(args) -> int:
    kind = _kind_from(args.kind, args.p)
    rep = check_kubo_ando_axioms(kind, samples=args.samples, rng_seed=args.seed, dim=args.dim)
    checks = tuple(
        CheckItem.bound(f"axiom failures: {c.axiom}", float(c.failures), 0.0) for c in rep.checks
    )
    params = {"kind": args.kind, "p": args.p, "samples": args.samples, "dim": args.dim}
    return _emit(args, "axioms", params, checks, rep.to_json())


def _cmd_verify(args) -> int:
    if args.all:
        reports = run_all(seed=args.seed, tol_scale=args.tol_scale)
    else:
        reports = [CRITERIA[args.criterion](seed=args.seed, tol_scale=args.tol_scale)]
    params = {"all": args.all, "criterion": args.criterion}
    return _emit(args, "verify", params, reports=reports)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process: every default is immutable and each ``func``
    # looks its collaborators up in this module's globals when it runs, so
    # a parser shared by every ``main`` call parses as a fresh one would.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed for all sampled checks")
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument(
        "--tol-scale",
        dest="tol_scale",
        type=_tol_scale,
        default=1.0,
        help="multiplies all default tolerances (positive and finite)",
    )
    common.add_argument("--out", default=None, help="also write the report to this file")

    parser = argparse.ArgumentParser(
        prog="meanlab",
        description="Verification CLI for operator means on positive definite matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mean = sub.add_parser("mean", parents=[common], help="evaluate a mean of two PD matrices")
    p_mean.add_argument("--kind", required=True, choices=_MEAN_KINDS)
    p_mean.add_argument("--p", type=float, default=None)
    p_mean.add_argument("--a", required=True)
    p_mean.add_argument("--b", required=True)
    p_mean.add_argument("--via-function", dest="via_function", action="store_true",
                        help="cross-check through the representing function")
    p_mean.add_argument("--certificate", action="store_true",
                        help="check the variational certificate (geometric mean)")
    p_mean.add_argument("--rep-at", dest="rep_at", type=float, default=None,
                        help="also evaluate the representing function at t")
    p_mean.set_defaults(func=_cmd_mean)

    p_expand = sub.add_parser("expand", parents=[common], help="perturbative expansion checks")
    p_expand.add_argument("--mean", required=True, choices=["kubo-ando", "wasserstein"])
    p_expand.add_argument("--p", type=float, default=None)
    p_expand.add_argument("--grid", type=_parse_grid, default=None, metavar="START:STOP:COUNT")
    p_expand.set_defaults(func=_cmd_expand)

    p_pres = sub.add_parser("preserver", parents=[common], help="mean-preserving functional checks")
    p_pres.add_argument("--mean", choices=["kubo-ando", "wasserstein"], default="kubo-ando")
    p_pres.add_argument("--p", type=float, default=None)
    p_pres.add_argument("--functional", choices=["constant", "linear", "trace-power"], default=None)
    p_pres.add_argument("--pairs", type=int, default=100)
    p_pres.set_defaults(func=_cmd_preserver)

    p_cent = sub.add_parser("centrality", parents=[common], help="commutation probes and chains")
    p_cent.add_argument("--kind", choices=["wasserstein", "kubo-ando-power", "harmonic"], default="wasserstein")
    p_cent.add_argument("--p", type=float, default=None)
    p_cent.add_argument("--a", required=True)
    p_cent.add_argument("--b", default=None)
    p_cent.add_argument("--chain", choices=["probe", "identity"], default="probe",
                        help="sample partners, or run the identity chain of --kind against --b")
    p_cent.add_argument("--samples", type=int, default=50)
    p_cent.set_defaults(func=_cmd_centrality)

    p_geo = sub.add_parser("geodesic", parents=[common], help="evaluate a geodesic point")
    p_geo.add_argument("--kind", choices=["trace", "bw"], required=True)
    p_geo.add_argument("--a", required=True)
    p_geo.add_argument("--b", required=True)
    p_geo.add_argument("--t", type=float, default=0.5)
    p_geo.add_argument("--check-metric", dest="check_metric", action="store_true",
                       help="also verify proportional distance accrual (--kind bw only)")
    p_geo.set_defaults(func=_cmd_geodesic)

    p_dbw = sub.add_parser("dbw", parents=[common], help="Bures-Wasserstein distance")
    p_dbw.add_argument("--a", required=True)
    p_dbw.add_argument("--b", required=True)
    p_dbw.set_defaults(func=_cmd_dbw)

    p_ax = sub.add_parser("axioms", parents=[common], help="Kubo-Ando axiom battery")
    p_ax.add_argument("--kind", required=True, choices=_MEAN_KINDS)
    p_ax.add_argument("--p", type=float, default=None)
    p_ax.add_argument("--samples", type=int, default=50)
    p_ax.add_argument("--dim", type=int, default=2)
    p_ax.set_defaults(func=_cmd_axioms)

    p_ver = sub.add_parser("verify", parents=[common], help="acceptance criteria batteries")
    selector = p_ver.add_mutually_exclusive_group(required=True)
    selector.add_argument("--all", action="store_true")
    selector.add_argument("--criterion", type=int, choices=sorted(CRITERIA), default=None)
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args._t0 = time.monotonic()
    try:
        return args.func(args)
    except (MeanlabError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
