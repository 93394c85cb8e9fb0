"""The three benchmark workloads.

Each workload is built from freshly imported meanlab modules and a seed, and
runs passes over a fixed input set. A workload lists its calls as ``items``
(harness span names, a zero-argument call, and the call's dim when per-call
latency is wanted); the runner times them, and ``check`` judges every output
afterwards. All loops are closed: one caller, the next call issued when the
previous one returns.

- ``verify-cli``: every acceptance criterion through ``meanlab.cli.main``.
  Criteria other than 7 run as ``verify --criterion N --json``. Criterion 7's
  axiom battery runs as ``axioms --json`` for its four kinds at dims 2 and 3,
  on the first ``CLI_AXIOM_SAMPLES`` of its 200 samples per kind and dim.
  Dim-3 Jacobi does most of the work.
- ``batteries-dim2``: criteria 1-6 and 8-11 plus the dim-2 half of criterion
  7 at its full 200 samples, through the Python API. Every input is 2x2.
- ``single-calls``: one public call at a time (8 means, d_bw, both geodesics,
  wasserstein_alt) over seeded pairs at dims 2 and 4, checked against the
  LAPACK oracle in ``oracle.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass

import numpy as np

import inputs
import oracle

# Criterion 7's kinds: the item label used in its report, and the CLI flags.
CRITERION_7_KINDS = (
    ("harmonic", ("--kind", "harmonic")),
    ("geometric", ("--kind", "geometric")),
    ("m_0.5", ("--kind", "kubo-ando-power", "--p", "0.5")),
    ("m_-0.5", ("--kind", "kubo-ando-power", "--p", "-0.5")),
)
CRITERION_7_SAMPLES = 200
CLI_AXIOM_SAMPLES = 20
OTHER_CRITERIA = (1, 2, 3, 4, 5, 6, 8, 9, 10, 11)

# single-calls: pairs per pass at each dim. 200 pairs x 12 calls gives 2400
# dim-2 calls per pass; 10 pairs give 120 dim-4 calls.
PAIRS = {2: 200, 4: 10}
# A result fails when its relative error exceeds ORACLE_TOL_FACTOR * eps *
# max(ORACLE_COND_FLOOR, cond(A) cond(B)). Over seeds 0-39 at this commit the
# worst error is 17 times eps * max(16, cond(A) cond(B)).
ORACLE_TOL_FACTOR = 256.0
ORACLE_COND_FLOOR = 16.0
_EPS = float(np.finfo(float).eps)


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    max_rel_err: float = 0.0


def _compare(got: dict, want: dict) -> tuple[int, int]:
    """(attempted, failed) for two {item name: passed} maps."""
    names = set(got) | set(want)
    return len(names), sum(got.get(n) != want.get(n) for n in names)


def _guarded(fn, error):
    """A call whose typed meanlab error comes back as its result."""
    def item():
        try:
            return fn()
        except error as exc:
            return exc
    return item


class VerifyCli:
    name = "verify-cli"

    def __init__(self, ml, seed: int, verdicts: dict) -> None:
        main = ml.cli.main
        ref = verdicts["criteria"]
        tail = ("--json", "--seed", str(seed))
        calls = []  # (argv, expected, harness spans)
        for n in OTHER_CRITERIA:
            if n == 8:
                # Criterion 7 runs as axioms calls, so the harness names its
                # span; the other criteria get theirs from the CRITERIA table.
                for label, flags in CRITERION_7_KINDS:
                    for dim in (2, 3):
                        argv = ["axioms", *flags, "--samples", str(CLI_AXIOM_SAMPLES),
                                "--dim", str(dim), *tail]
                        want = ref["7"]["items"][f"axiom failures, {label}, dim {dim}"]
                        calls.append((argv, want, ("verification.criterion_7", "cli")))
            calls.append((["verify", "--criterion", str(n), *tail], ref[str(n)]["items"], ("cli",)))

        def run_cli(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            return code, buf.getvalue()

        self.expected = [(argv, want) for argv, want, _ in calls]
        self.items = [(spans, lambda argv=argv: run_cli(argv), None) for argv, _, spans in calls]

    def check(self, outs) -> Check:
        res = Check()
        for (argv, want), (code, text) in zip(self.expected, outs):
            payload = json.loads(text) if code in (0, 1) else None
            if argv[0] == "verify":
                items = payload["reports"][0]["items"] if payload else []
                a, f = _compare({i["name"]: i["passed"] for i in items}, want)
                all_pass = all(want.values())
            else:
                checks = payload["checks"] if payload else []
                a = max(1, len(checks))
                f = sum(c["passed"] != want for c in checks) if checks else 1
                all_pass = want
            res.attempted += a + 1
            res.failed += f + (code != (0 if all_pass else 1))
        return res


class BatteriesDim2:
    name = "batteries-dim2"

    def __init__(self, ml, seed: int, verdicts: dict) -> None:
        m, criteria, error = ml.means, ml.verification.CRITERIA, ml.errors.MeanlabError
        ref = verdicts["criteria"]
        kinds = {
            "harmonic": m.HARMONIC,
            "geometric": m.GEOMETRIC,
            "m_0.5": m.kubo_ando_power(0.5),
            "m_-0.5": m.kubo_ando_power(-0.5),
        }
        self.items, self.expected = [], []
        for n in OTHER_CRITERIA:
            if n == 8:
                for label, kind in kinds.items():
                    fn = lambda k=kind: m.check_kubo_ando_axioms(  # noqa: E731
                        k, samples=CRITERION_7_SAMPLES, rng_seed=seed, dim=2)
                    self.items.append((("verification.criterion_7",), _guarded(fn, error), None))
                    self.expected.append(ref["7"]["items"][f"axiom failures, {label}, dim 2"])
            fn = lambda n=n: criteria[n](seed=seed)  # noqa: E731
            self.items.append(((), _guarded(fn, error), None))
            self.expected.append(ref[str(n)]["items"])
        self.error = error

    def check(self, outs) -> Check:
        res = Check()
        for want, out in zip(self.expected, outs):
            if isinstance(want, dict):  # a criterion report
                got = {} if isinstance(out, self.error) else {i.name: i.passed for i in out.items}
                a, f = _compare(got, want)
            else:  # one kind of the dim-2 axiom battery
                ok = not isinstance(out, self.error) and sum(c.failures for c in out.checks) == 0
                a, f = 1, int(ok != want)
            res.attempted += a
            res.failed += f
        return res


class SingleCalls:
    name = "single-calls"

    def __init__(self, ml, seed: int, verdicts: dict) -> None:
        rng = np.random.default_rng(seed)
        by_dim = {dim: inputs.make_pairs(rng, dim, count) for dim, count in PAIRS.items()}
        self.shares = {f"dim{d}": inputs.shares(p) for d, p in by_dim.items()}
        # Interleave: one dim-4 pair after every PAIRS[2] / PAIRS[4] dim-2 pairs.
        step = PAIRS[2] // PAIRS[4]
        order = []
        for i, p4 in enumerate(by_dim[4]):
            order.extend(by_dim[2][i * step:(i + 1) * step])
            order.append(p4)
        order.extend(by_dim[2][PAIRS[4] * step:])

        mc, m, g = ml.matcore, ml.means, ml.geometry
        self.error = ml.errors.MeanlabError
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
        # Each op looks its function up on the module at call time, so a
        # traced pass reaches the tracer's wrappers.
        ops = {name: (lambda A, B, t, k=kind: m.mean(k, A, B)) for name, kind in kinds.items()}
        ops.update({
            "d_bw": lambda A, B, t: g.d_bw(A, B),
            "geodesic_trace": lambda A, B, t: g.geodesic(g.GEODESIC_TRACE, A, B, t),
            "geodesic_bw": lambda A, B, t: g.geodesic(g.GEODESIC_BW, A, B, t),
            "wasserstein_alt": lambda A, B, t: m.wasserstein_alt(A, B),
        })
        self.items = []
        self.cases = []  # (reference, tolerance, error scale), one per item
        for p in order:
            A = mc.PdMatrix.certify(mc.HermitianMatrix(p.a))
            B = mc.PdMatrix.certify(mc.HermitianMatrix(p.b))
            cond = max(ORACLE_COND_FLOOR, np.linalg.cond(p.a) * np.linalg.cond(p.b))
            tol = ORACLE_TOL_FACTOR * _EPS * cond
            for name, op in ops.items():
                ref = oracle.REFERENCE[name](p.a, p.b, p.t)
                # d_bw is judged on its natural scale sqrt(tr A + tr B): the
                # distance itself cancels for near pairs.
                scale = np.sqrt(np.trace(p.a).real + np.trace(p.b).real) if name == "d_bw" else np.linalg.norm(ref)
                call = _guarded(lambda op=op, A=A, B=B, t=p.t: op(A, B, t), self.error)
                self.items.append(((), call, p.dim))
                self.cases.append((ref, tol, float(scale)))

    def check(self, outs) -> Check:
        res = Check(attempted=len(outs))
        for out, (ref, tol, scale) in zip(outs, self.cases):
            if isinstance(out, self.error):
                res.failed += 1
                continue
            got = out if isinstance(out, float) else out.mat
            err = float(np.linalg.norm(got - ref)) / scale
            if not np.isfinite(err) or err > tol:
                res.failed += 1
            res.max_rel_err = max(res.max_rel_err, err)
        return res


WORKLOADS = {w.name: w for w in (VerifyCli, BatteriesDim2, SingleCalls)}
