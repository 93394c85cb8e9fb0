"""meanlab benchmark: one workload per run, timed untraced or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload single-calls --seed 3 --seconds 20 --trace 0

``--trace 0`` sets up SETUP_REPEATS times (fresh import of meanlab, input
generation, one warm-up pass), then runs untraced passes for ``--seconds``
and reports the end-to-end metrics. ``--trace 1`` alternates untraced and
traced passes for ``--seconds`` and reports per-layer metrics per traced
pass; the spans of the last traced pass go to perfbench/out/. Times are
calibrated against machine speed (see calibrate.py); the log shows raw times
next to them. Log lines come first; the last line of standard output is the
JSON result.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, fixed before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import oracle  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Check  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_PASSES = 3
# Stop starting passes after this long, whatever --seconds says.
WALL_CAP_S = 140.0

# eig_per_call name -> prefix of the span names it aggregates (both power
# parameters count as one kind).
EIG_PER_CALL = {
    "arithmetic": "means.mean|arithmetic|",
    "harmonic": "means.mean|harmonic|",
    "geometric": "means.mean|geometric|",
    "kubo-ando-power": "means.mean|kubo-ando-power_",
    "conventional-power": "means.mean|conventional-power_",
    "spectral-geometric": "means.mean|spectral-geometric|",
    "wasserstein": "means.mean|wasserstein|",
    "d_bw": "geometry.d_bw|",
    "geodesic-bw": "geometry.geodesic_bw|",
    "geodesic-trace": "geometry.geodesic_trace|",
}


class SetupError(Exception):
    pass


def log(msg: str) -> None:
    print(msg, flush=True)


def load_meanlab():
    """Import meanlab afresh from ./src, dropping any copy already loaded."""
    if not (SRC / "meanlab" / "__init__.py").is_file():
        raise SetupError(f"no meanlab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "meanlab" or n.startswith("meanlab.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("meanlab")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"meanlab imported from {pkg.__file__}, not {SRC}")
    for sub in ("cli", "errors", "geometry", "matcore", "means", "verification"):
        importlib.import_module(f"meanlab.{sub}")
    return pkg


def provenance() -> dict:
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it."""
    return int(100 * (1 - 10 / n))


def layer_metrics(stats: dict, rotations: Counter, traced: list, untraced: list) -> dict:
    """Per-layer metrics per traced pass, from calibrated span totals."""
    per = float(len(traced))

    def total(pred, col):
        return sum(s[col] for name, s in stats.items() if pred(name))

    def prefix(p):
        return lambda name: name.startswith(p)

    def exact(name):
        return lambda n: n == name

    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    for n in (2, 3, 4):
        eig = exact(f"matcore.eig.n{n}")
        calls = total(eig, 0)
        put(f"matcore.eig.n{n}.calls", calls / per, "count")
        put(f"matcore.eig.n{n}.self_s", total(eig, 2) / per, "s")
        if n > 2:
            put(f"matcore.jacobi.rotations_per_eig.n{n}",
                rotations[n] / calls if calls else 0.0, "count")
    for layer, pred in (
        ("matcore.pow", exact("matcore.pow")),
        ("matcore.certify", exact("matcore.certify")),
        ("means.mean", prefix("means.mean|")),
        ("expansion.fit_series", exact("expansion.fit_series")),
        ("preserver.residual", exact("preserver.residual")),
    ):
        put(f"{layer}.calls", total(pred, 0) / per, "count")
        put(f"{layer}.self_s", total(pred, 2) / per, "s")
    for dim in (2, 3):
        put(f"means.axioms.dim{dim}.s", total(exact(f"means.axioms|dim{dim}"), 1) / per, "s")
    for n in range(1, 12):
        put(f"verification.criterion_{n}.s",
            total(exact(f"verification.criterion_{n}"), 1) / per, "s")
    for name, p in EIG_PER_CALL.items():
        calls = total(prefix(p), 0)
        put(f"matcore.eig_per_call.{name}", total(prefix(p), 3) / calls if calls else 0.0, "count")

    def mean_us(span_name):
        calls = total(exact(span_name), 0)
        return total(exact(span_name), 1) * 1e6 / calls if calls else 0.0

    for dim in (2, 4):
        for kind in oracle.MEANS:
            put(f"means.mean.{kind}.dim{dim}.us", mean_us(f"means.mean|{kind}|dim{dim}"), "us")
        put(f"means.wasserstein_alt.dim{dim}.us", mean_us(f"means.wasserstein_alt|dim{dim}"), "us")
        for op in ("d_bw", "geodesic_bw", "geodesic_trace"):
            put(f"geometry.{op}.dim{dim}.us", mean_us(f"geometry.{op}|dim{dim}"), "us")
    put("geometry.self_s", total(prefix("geometry."), 2) / per, "s")
    put("preserver.solve_coefficients.s", total(exact("preserver.solve_coefficients"), 1) / per, "s")
    put("centrality.probe.s", total(exact("centrality.probe"), 1) / per, "s")
    put("centrality.chains.s", total(exact("centrality.chains"), 1) / per, "s")
    put("sampling.random_pd.calls", total(exact("sampling.random_pd"), 0) / per, "count")
    put("sampling.self_s", total(prefix("sampling."), 2) / per, "s")
    put("cli.self_s", total(exact("cli"), 2) / per, "s")

    # Per-call latency and accuracy come from the untraced passes.
    for dim in (2, 4):
        p50s, tails = [], []
        for r in untraced:
            lat = r.latencies_us.get(dim)
            if lat:
                p50s.append(float(np.percentile(lat, 50)))
                tails.append(float(np.percentile(lat, tail_percentile(len(lat)))))
        put(f"call_us_p50.dim{dim}", statistics.median(p50s) if p50s else 0.0, "us")
        put(f"call_us_tail.dim{dim}", statistics.median(tails) if tails else 0.0, "us")
    put("max_rel_err", max(r.check.max_rel_err for r in untraced), "ratio")
    t_med = statistics.median(r.seconds for r in traced)
    u_med = statistics.median(r.seconds for r in untraced)
    put("trace.overhead_frac", t_med / u_med - 1.0, "ratio")
    return out


def eig_table(stats: dict) -> str:
    rows = []
    for name, p in EIG_PER_CALL.items():
        cells = []
        for dim in (2, 3, 4):
            sel = [s for n, s in stats.items() if n.startswith(p) and n.endswith(f"|dim{dim}")]
            calls = sum(s[0] for s in sel)
            cells.append(f"{sum(s[3] for s in sel) / calls:g}" if calls else "-")
        rows.append(f"  {name:<20} " + " ".join(f"{c:>6}" for c in cells))
    return "eigendecompositions per call (dim 2, 3, 4):\n" + "\n".join(rows)


@dataclass
class Pass:
    seconds: float  # calibrated
    raw_s: float
    check: Check
    latencies_us: dict  # dim -> calibrated per-call latencies


def run_pass(wl, tracer: Tracer | None = None, c_start: float | None = None) -> Pass:
    """Time each item of one pass, calibrating about every CAL_EVERY_S of work."""
    items = wl.items
    n = len(items)
    outs, raw, scale = [None] * n, [0.0] * n, [1.0] * n
    clock = time.perf_counter
    c_prev = calibrate.sample() if c_start is None else c_start
    seg_start, seg = 0, 0.0
    for i, (spans, fn, _) in enumerate(items):
        if tracer is not None:
            for name in spans:
                tracer.enter(name)
        t0 = clock()
        outs[i] = fn()
        raw[i] = clock() - t0
        if tracer is not None:
            for _ in spans:
                tracer.exit()
        seg += raw[i]
        if seg >= calibrate.CAL_EVERY_S or i == n - 1:
            c = calibrate.sample()
            scale[seg_start:i + 1] = [2.0 * calibrate.REF_S / (c_prev + c)] * (i + 1 - seg_start)
            seg_start, seg, c_prev = i + 1, 0.0, c
    lat = {}
    for (_, _, dim), r, f in zip(items, raw, scale):
        if dim is not None:
            lat.setdefault(dim, []).append(r * f * 1e6)
    return Pass(sum(r * f for r, f in zip(raw, scale)), sum(raw), wl.check(outs), lat)


def set_up(cls, seed: int, verdicts: dict):
    """Fresh import, input generation and one warm-up pass: (workload, warm-up, calibrated s, raw s)."""
    c0 = calibrate.sample()
    t0 = time.perf_counter()
    wl = cls(load_meanlab(), seed, verdicts)
    raw = time.perf_counter() - t0
    c1 = calibrate.sample()
    warm = run_pass(wl, c_start=c1)
    return wl, warm, raw * 2.0 * calibrate.REF_S / (c0 + c1) + warm.seconds, raw + warm.raw_s


def run(args) -> dict:
    start = time.perf_counter()
    verdicts = json.loads((HERE / "verdicts.json").read_text())
    cls = WORKLOADS[args.workload]
    checks, setups, setups_raw = [], [], []
    for _ in range(SETUP_REPEATS):
        wl, warm, s, s_raw = set_up(cls, args.seed, verdicts)
        checks.append(warm.check)
        setups.append(s)
        setups_raw.append(s_raw)

    log(f"provenance: {json.dumps(provenance(), sort_keys=True)}")
    log(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for dim, sh in getattr(wl, "shares", {}).items():
        log(f"inputs {dim}: {json.dumps(sh, sort_keys=True)}")

    t_end = time.perf_counter() + args.seconds

    def keep_going(done: int) -> bool:
        if time.perf_counter() - start > WALL_CAP_S:
            return done < 1
        return time.perf_counter() < t_end or done < MIN_PASSES

    untraced, traced = [], []
    tracer = Tracer()
    rotations: Counter = Counter()
    stats: dict[str, list] = {}  # span name -> [calls, calibrated total s, calibrated self s, eigs]
    while keep_going(len(untraced)):
        untraced.append(run_pass(wl))
        if args.trace:
            tracer.reset()
            tracer.install()
            try:
                p = run_pass(wl, tracer)
            finally:
                tracer.uninstall()
            traced.append(p)
            f = p.seconds / p.raw_s / 1e9
            for name, (calls, total_ns, self_ns, eigs) in tracer.stats.items():
                acc = stats.setdefault(name, [0, 0.0, 0.0, 0])
                acc[0] += calls
                acc[1] += total_ns * f
                acc[2] += self_ns * f
                acc[3] += eigs
            rotations.update(tracer.rotations)
    checks += [p.check for p in untraced + traced]
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)

    def series(name, passes, key):
        log(f"{name}: " + " ".join(f"{key(p):.4f}" for p in passes))

    series("pass_s", untraced, lambda p: p.seconds)
    series("pass_s uncalibrated", untraced, lambda p: p.raw_s)
    series("setup_s", setups, float)
    series("setup_s uncalibrated", setups_raw, float)
    if args.trace:
        series("traced pass_s", traced, lambda p: p.seconds)
        log(eig_table(stats))
        spans_path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path)
        log(f"spans of the last traced pass: {len(tracer.spans)} in {spans_path.relative_to(ROOT)}")
        metrics = layer_metrics(stats, rotations, traced, untraced)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "pass_s": {"value": statistics.median(p.seconds for p in untraced), "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        }
    log(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result = run(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
