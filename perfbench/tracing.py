"""Outside-in tracing of meanlab's layers.

The tracer wraps layer entry points by rebinding their names in every loaded
``meanlab`` module (the modules import ``_eig_array``, ``_pow_arr``, ``mpow``
and ``mean`` by name, so patching the defining module alone misses calls).
It also patches ``PdMatrix.certify`` and the ``CRITERIA`` table, and counts
Jacobi rotations through ``matcore._eig2_closed``, which Jacobi reaches as a
module global. :meth:`Tracer.uninstall` restores every name. Timed runs
never install it.

Spans live in memory as (id, parent, name, start_ns, end_ns). A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

_now = time.perf_counter_ns

# Frame layout, kept as a list for speed: id, name, start, child time, eig
# calls inside, eigensolver size (0 unless the frame is an eig).
_ID, _NAME, _T0, _CHILD, _EIGS, _EIGN = range(6)


def kind_name(kind) -> str:
    """Metric-safe name of a MeanKind: tag, plus _p<p> for the power tags."""
    return kind.tag if kind.p is None else f"{kind.tag}_p{kind.p:g}"


def _dim(X) -> int:
    return X.mat.shape[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total, self, eigs]
        self.rotations: Counter = Counter()  # eig size -> Jacobi rotations
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list = []

    # -- spans -------------------------------------------------------------

    def enter(self, name: str, eig_n: int = 0) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, _now(), 0, 0, eig_n])

    def exit(self) -> None:
        t1 = _now()
        sid, name, t0, child, eigs, _ = self._stack.pop()
        dur = t1 - t0
        parent = 0
        if self._stack:
            top = self._stack[-1]
            top[_CHILD] += dur
            parent = top[_ID]
        self.spans.append((sid, parent, name, t0, t1))
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0, 0, 0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        st[3] += eigs

    def reset(self) -> None:
        self.spans.clear()
        self.stats.clear()
        self.rotations.clear()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, namer):
        enter, exit_ = self.enter, self.exit

        def wrapper(*args, **kwargs):
            enter(namer(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_eig(self, fn):
        stack, enter, exit_ = self._stack, self.enter, self.exit

        def eig_array(arr):
            n = arr.shape[0]
            for frame in stack:
                frame[_EIGS] += 1
            enter(f"matcore.eig.n{n}", n)
            try:
                return fn(arr)
            finally:
                exit_()

        return eig_array

    def _wrap_eig2(self, fn):
        stack, rotations = self._stack, self.rotations

        def eig2_closed(arr):
            if stack and stack[-1][_EIGN] >= 3:
                rotations[stack[-1][_EIGN]] += 1
            return fn(arr)

        return eig2_closed

    def install(self) -> None:
        """Wrap every layer entry point in every loaded meanlab module."""
        mods = {n: m for n, m in sys.modules.items() if n == "meanlab" or n.startswith("meanlab.")}
        mc, mn, geo = mods["meanlab.matcore"], mods["meanlab.means"], mods["meanlab.geometry"]
        exp, pres, cen = mods["meanlab.expansion"], mods["meanlab.preserver"], mods["meanlab.centrality"]
        samp, ver = mods["meanlab.sampling"], mods["meanlab.verification"]

        def fixed(name):
            return lambda args, kwargs: name

        def by_dim(name):
            return lambda args, kwargs: f"{name}|dim{_dim(args[0])}"

        def mean_name(args, kwargs):
            return f"means.mean|{kind_name(args[0])}|dim{_dim(args[1])}"

        def geodesic_name(args, kwargs):
            tag = "geodesic_bw" if args[0].tag == "bures-wasserstein" else "geodesic_trace"
            return f"geometry.{tag}|dim{_dim(args[1])}"

        def axioms_name(args, kwargs):
            return f"means.axioms|dim{kwargs.get('dim', args[3] if len(args) > 3 else 2)}"

        wrappers = {
            mc._eig_array: self._wrap_eig(mc._eig_array),
            mc._eig2_closed: self._wrap_eig2(mc._eig2_closed),
            mc._pow_arr: self._wrap(mc._pow_arr, fixed("matcore.pow")),
            mc.mpow: self._wrap(mc.mpow, fixed("matcore.pow")),
            mn.mean: self._wrap(mn.mean, mean_name),
            mn.wasserstein_alt: self._wrap(mn.wasserstein_alt, by_dim("means.wasserstein_alt")),
            mn.check_kubo_ando_axioms: self._wrap(mn.check_kubo_ando_axioms, axioms_name),
            geo.d_bw: self._wrap(geo.d_bw, by_dim("geometry.d_bw")),
            geo.geodesic: self._wrap(geo.geodesic, geodesic_name),
            geo.check_geodesic_metric: self._wrap(geo.check_geodesic_metric, fixed("geometry.check_geodesic_metric")),
            exp.fit_series: self._wrap(exp.fit_series, fixed("expansion.fit_series")),
            exp.fit_series_general: self._wrap(exp.fit_series_general, fixed("expansion.fit_series")),
            pres.solve_coefficients: self._wrap(pres.solve_coefficients, fixed("preserver.solve_coefficients")),
            pres.preserver_residual: self._wrap(pres.preserver_residual, fixed("preserver.residual")),
            cen.centrality_probe: self._wrap(cen.centrality_probe, fixed("centrality.probe")),
            cen.remark1_identity_chain: self._wrap(cen.remark1_identity_chain, fixed("centrality.chains")),
            cen.remark2_identity_chain: self._wrap(cen.remark2_identity_chain, fixed("centrality.chains")),
        }
        for fname in ("rng_for", "random_pd", "random_unitary", "random_hermitian", "random_invertible_hermitian"):
            fn = getattr(samp, fname)
            wrappers[fn] = self._wrap(fn, fixed(f"sampling.{fname}"))
        for number, fn in ver.CRITERIA.items():
            wrappers[fn] = self._wrap(fn, fixed(f"verification.criterion_{number}"))

        by_id = {id(orig): (orig, w) for orig, w in wrappers.items()}
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._undo.append((setattr, mod, attr, value))
        for number, fn in list(ver.CRITERIA.items()):
            ver.CRITERIA[number] = wrappers[fn]
            self._undo.append((dict.__setitem__, ver.CRITERIA, number, fn))

        cls = mc.PdMatrix
        original = cls.__dict__["certify"]
        certify = self._wrap(original.__func__, fixed("matcore.certify"))
        cls.certify = classmethod(certify)
        self._undo.append((setattr, cls, "certify", original))

    def uninstall(self) -> None:
        while self._undo:
            setter, target, key, value = self._undo.pop()
            setter(target, key, value)

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write the spans as JSON: a name table and [id, parent, name, t0, t1] rows."""
        names: dict[str, int] = {}
        rows = [[sid, parent, names.setdefault(name, len(names)), t0, t1]
                for sid, parent, name, t0, t1 in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(names), "spans": rows}, fh, separators=(",", ":"))

