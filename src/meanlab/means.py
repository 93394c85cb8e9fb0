"""Two-variable operator means on positive definite matrices.

The Kubo-Ando family is evaluated through its representing function: for an
operator monotone f with f(1) = 1,

    A sigma B = A^(1/2) f(A^(-1/2) B A^(-1/2)) A^(1/2),

and f is recovered from the mean by f(t) I = I sigma (t I). Built-in kinds
cover the arithmetic, harmonic and geometric means, the power family
m_p with representing function g_p(x) = ((1 + x^p)/2)^(1/p) for
0 < |p| <= 1, and two means that live outside the Kubo-Ando class: the
spectral geometric mean and the Wasserstein mean

    A sigma_W B = (A + B + A Q + Q A)/4,    Q = A^(-1) # B.

At n = 2 nine routes take closed forms with no eigendecomposition, each
one body for a lone pair and for stacks on matcore's 2x2 layer, and the
routes of the means and geodesics are one table keyed by tag (_ROUTES2),
whose results come as parts: assembled for a stack, and for a lone pair
certified on those floats as they are built into the result. With
a = sqrt(det A), b = sqrt(det B), s = ab, rho = b/a, c = tr(adj(A/a) B/b)
and e = sqrt(det Q) = (det B / det A)^(1/4):

    A # B = sqrt(ab) S / sqrt(det S),              S = A/a + B/b,
    A sigma_W B = (A + B + (AB + BA + 2sI) / sqrt(tr AB + 2s)) / 4,
    Q = A^(-1) # B = sqrt(b/a) S' / sqrt(det S'),  S' = adj(A)/a + B/b,
    Q^(1/2) A Q^(1/2) = (e^2 A + e (AQ + QA) + B) / (tr Q + 2e),
    gamma(t) = (1 - t)^2 A + t^2 B + t (1 - t)(AQ + QA),
    2 (A^(-1) + B^(-1))^(-1) = 2 (rho A + B/rho) / (rho + c + 1/rho),
    A sigma_f B = f(mu_1) A + f[mu_1, mu_2] (B - mu_1 A).

They are Bhatia, Positive Definite Matrices (Princeton 2007), Prop. 4.1.12;
(AB)^(1/2) + (BA)^(1/2) by Levinger's 2x2 square root (Math. Mag. 53, 1980);
the BW geodesic's Q with no inverse, and on it the spectral geometric mean,
by the 2x2 Q^(1/2) = (Q + eI) / sqrt(tr Q + 2e) and QAQ = B, and the BW
geodesic's points (Bhatia, Jain & Lim, Expo. Math. 37, 2019), which keep
their own formula, so that the midpoint checks the Wasserstein mean; the
harmonic mean by the adjugate, a sum of positive definite matrices over a
denominator of at least 2 + rho + 1/rho; and, for m_p and the trace-metric
geodesic, the interpolation form of A^(1/2) f(N) A^(1/2) (Kubo & Ando,
Math. Ann. 246, 1980; Higham, Functions of Matrices, 2008), mu_1 <= mu_2
the roots of det(B - mu A) = 0. The last stays within 0.14 eps kappa of
50-digit mpmath, where the A^(+-1/2) frame errs like eps kappa^2.
geometry.d_bw takes one more form on the same parts (_bw_distance2), and
the conventional power mean composes its three 2x2 powers on the parts
(matcore._power_parts), with the bits of the arrays.

At any other n the Kubo-Ando means, the Wasserstein mean and both geodesics
take the Cholesky frame A = L L* (Iannazzo, Numer. Linear Algebra Appl. 23,
2016), from matcore's bespoke factor and triangular inverse:

    A sigma B = L f(N) L*,        N = L^(-1) B L^(-*),
    2 (A^(-1) + B^(-1))^(-1) = 2 (R^(-1) A)* (R^(-1) B),  A + B = R R*,
    Q = L^(-*) S L^(-1),  A Q = L S L^(-1),  S = (L* B L)^(1/2),

so the geometric mean and m_p take one eigendecomposition of N (m_p both
its powers from it), the Wasserstein mean one of L* B L, and the harmonic
mean none; a pair whose L* B L would leave the float range is scaled
jointly by a power of four first. The spectral geometric mean is
(Q^(1/2)) A (Q^(1/2)) on that Q. The conventional power mean keeps its
spectral route, and --via-function and wasserstein_alt keep the
A^(+-1/2) frame, as cross-checks.

Every public evaluation returns a freshly certified :class:`PdMatrix`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import matcore
from .errors import DimMismatch, DomainError, NotKuboAndo, PositivityError
from .matcore import (
    HermitianMatrix,
    PdMatrix,
    _apply_spectral,
    _certified,
    _cholesky_frame,
    _certify_stack,
    _check_certificates,
    _cholesky_proof,
    _check_operands,
    _congruences,
    _eig_array,
    _end_powers,
    _norms,
    _order_violation,
    _pd_parts,
    _pd_result,
    _pow_arr,
    _power_guard,
    _power_parts,
    _rel_gap,
    _require,
    _spectral_values,
    _sym,
    as_array,
    identity_pd,
    loewner_leq,
    pd_tolerance,
)
from .report import json_fields, worst
from .sampling import _invertible_hermitian, _pd_gram, complex_draws, rng_batch

# Power parameters are kept away from 0, where g_p degenerates.
P_MIN = 1e-6


def power_parameter(p: float) -> float:
    """float(p) when P_MIN <= |p| <= 1, the range of the power family; DomainError otherwise."""
    p = float(p)
    if not (P_MIN <= abs(p) <= 1.0):
        raise DomainError(f"power parameter must satisfy {P_MIN} <= |p| <= 1, got {p}")
    return p


# Tolerances for the axiom battery. Equality checks are relative to
# max(1, scale of the matrices involved).
AXIOM_EQ_TOL = 1e-10
AXIOM_NORMALIZATION_TOL = 1e-11
AXIOM_ORDER_TOL = 1e-10

TAG_ARITHMETIC = "arithmetic"
TAG_HARMONIC = "harmonic"
TAG_GEOMETRIC = "geometric"
TAG_POWER = "kubo-ando-power"
TAG_CONVENTIONAL_POWER = "conventional-power"
TAG_SPECTRAL_GEOMETRIC = "spectral-geometric"
TAG_WASSERSTEIN = "wasserstein"
TAG_FROM_FUNCTION = "from-function"
# The geodesics' tags (geometry.GeodesicKind), keys of the 2x2 route table
# beside the means'.
TAG_TRACE = "geometric-trace"
TAG_BW = "bures-wasserstein"

KUBO_ANDO_TAGS = frozenset(
    {TAG_ARITHMETIC, TAG_HARMONIC, TAG_GEOMETRIC, TAG_POWER, TAG_FROM_FUNCTION}
)
NON_KUBO_ANDO_TAGS = frozenset(
    {TAG_CONVENTIONAL_POWER, TAG_SPECTRAL_GEOMETRIC, TAG_WASSERSTEIN}
)
ALL_TAGS = KUBO_ANDO_TAGS | NON_KUBO_ANDO_TAGS
_POWER_TAGS = frozenset({TAG_POWER, TAG_CONVENTIONAL_POWER})


@dataclass(frozen=True)
class RepresentingFunction:
    """A scalar function normalized by f(1) = 1, for from-function means."""

    fn: Callable[[float], float]
    name: str = "f"

    def __post_init__(self) -> None:
        try:
            at_one = float(self.fn(1.0))
        except Exception as exc:
            raise ValueError(f"representing function failed at 1: {exc}") from exc
        if not math.isfinite(at_one) or abs(at_one - 1.0) > 1e-12:
            raise ValueError(f"representing function must satisfy f(1) = 1, got {at_one!r}")

    def __call__(self, x: float) -> float:
        return float(self.fn(x))


@dataclass(frozen=True)
class MeanKind:
    """A mean selector: a tag plus the parameter the tag needs.

    Power tags carry ``p`` with P_MIN <= |p| <= 1; the from-function tag
    carries a :class:`RepresentingFunction`. Other tags take nothing.
    """

    tag: str
    p: float | None = None
    f: RepresentingFunction | None = None

    def __post_init__(self) -> None:
        if self.tag not in ALL_TAGS:
            raise DomainError(f"unknown mean tag {self.tag!r}")
        if self.tag in _POWER_TAGS:
            if self.p is None:
                raise DomainError(f"{self.tag} requires a power parameter")
            object.__setattr__(self, "p", power_parameter(self.p))
        elif self.p is not None:
            raise DomainError(f"{self.tag} takes no power parameter")
        if self.tag == TAG_FROM_FUNCTION:
            if not isinstance(self.f, RepresentingFunction):
                raise DomainError("from-function means require a RepresentingFunction")
        elif self.f is not None:
            raise DomainError(f"{self.tag} takes no representing function")

    @property
    def label(self) -> str:
        if self.tag in _POWER_TAGS:
            return f"{self.tag}(p={self.p:g})"
        if self.tag == TAG_FROM_FUNCTION:
            return f"{self.tag}({self.f.name})"
        return self.tag

    @property
    def is_kubo_ando(self) -> bool:
        return self.tag in KUBO_ANDO_TAGS


ARITHMETIC = MeanKind(TAG_ARITHMETIC)
HARMONIC = MeanKind(TAG_HARMONIC)
GEOMETRIC = MeanKind(TAG_GEOMETRIC)
SPECTRAL_GEOMETRIC = MeanKind(TAG_SPECTRAL_GEOMETRIC)
WASSERSTEIN = MeanKind(TAG_WASSERSTEIN)


def kubo_ando_power(p: float) -> MeanKind:
    """The mean with representing function ((1 + x^p)/2)^(1/p)."""
    return MeanKind(TAG_POWER, p=float(p))


def conventional_power(p: float) -> MeanKind:
    """The entrywise-spectral power mean ((A^p + B^p)/2)^(1/p)."""
    return MeanKind(TAG_CONVENTIONAL_POWER, p=float(p))


def from_function(f: RepresentingFunction | Callable[[float], float], name: str = "f") -> MeanKind:
    if not isinstance(f, RepresentingFunction):
        f = RepresentingFunction(f, name)
    return MeanKind(TAG_FROM_FUNCTION, f=f)


def _cholesky_inner(Aarr: np.ndarray, Barr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The Kubo-Ando frame at n >= 3: L and N = L^(-1) B L^(-*), A = L L*.
    L, Li = _cholesky_frame(Aarr)
    return L, _sym(Li @ Barr @ Li.conj().swapaxes(-1, -2))


# L* B L has the scale of tr A tr B; a pair whose product of traces lies
# outside [2^-_PAIR_RANGE, 2^_PAIR_RANGE] is scaled jointly first.
_PAIR_RANGE = 500


def _pair_exponent(Aarr: np.ndarray, Barr: np.ndarray):
    # None when 2^e = tr A tr B, to within a factor 4, has |e| <= _PAIR_RANGE
    # for the pair, or for every pair of stacks that broadcast; else k with
    # tr A tr B 16^-k in [1/4, 8), one per pair as (..., 1, 1) for stacks
    # (0 where |e| <= _PAIR_RANGE). A trace that is not a finite positive
    # number has exponent 0 and is left to the factorization to refuse.
    if Aarr.ndim == 2 and Barr.ndim == 2:
        e = math.frexp(sum(Aarr.diagonal().real.tolist()))[1] + math.frexp(sum(Barr.diagonal().real.tolist()))[1]
        return None if -_PAIR_RANGE <= e <= _PAIR_RANGE else e // 4
    ta, tb = (np.diagonal(X, axis1=-2, axis2=-1).real.sum(axis=-1) for X in (Aarr, Barr))
    e = np.frexp(ta)[1] + np.frexp(tb)[1]
    out = np.abs(e) > _PAIR_RANGE
    return np.where(out, e // 4, 0)[..., None, None] if out.any() else None


def _ldexp(X: np.ndarray, e) -> np.ndarray:
    # X 2^e as a complex matrix or stack, e an int or one per matrix: exact
    # wherever an entry stays in the normal range.
    return np.ldexp(np.ascontiguousarray(X, dtype=np.complex128).view(np.float64), e).view(np.complex128)


def _cholesky_bw(Aarr: np.ndarray, Barr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The frame of Q = A^(-1) # B = L^(-*) S L^(-1) at n >= 3: L, L^(-1) and
    # S = (L* B L)^(1/2), A = L L*, from one eigendecomposition. Where
    # _pair_exponent gives k, the frame is that of 4^-k A and 4^-k B, whose
    # L* B L lies near 1, and L, L^(-1) and S are scaled back by 2^k, 2^-k
    # and 4^k: exact, where L* B L itself would overflow (entries of A and B
    # near 1e160) or underflow.
    k = _pair_exponent(Aarr, Barr)
    if k is not None:
        Aarr, Barr = _ldexp(Aarr, -2 * k), _ldexp(Barr, -2 * k)
    L, Li = _cholesky_frame(Aarr)
    S = _pow_arr(_sym(L.conj().swapaxes(-1, -2) @ Barr @ L), 0.5)
    return (L, Li, S) if k is None else (_ldexp(L, k), _ldexp(Li, -k), _ldexp(S, 2 * k))


def _bw_frame(Aarr: np.ndarray, Barr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The transport frame: A^(1/2), A^(-1/2) and S = (A^(1/2) B A^(1/2))^(1/2),
    # from one eig of A and one of A^(1/2) B A^(1/2). Only the cross-checks
    # that are defined on it take it: wasserstein_alt and the remark-1 chain.
    Ah, Aih = _pow_arr(Aarr, 0.5, -0.5)
    return Ah, Aih, _pow_arr(_sym(Ah @ Barr @ Ah), 0.5)


# The 2x2 closed forms, on matcore's 2x2 layer: a Hermitian [[p, z],
# [conj z, q]] enters as its parts (p, q, Re z, Im z), Python floats for a
# lone pair and arrays that broadcast for stacks (one A against a stack of B
# included), and one body per form runs on either with the routines of
# _LONE or _STACK, matcore's tables plus the closed forms' own below. Each
# result leaves as the parts (p, q, Re z, Im z, -Im z) of an exactly
# Hermitian matrix, the lower corner's Im last. So do
# the checked quantities (_root, _nodes, _ratio), which refuse a pair
# through matcore._require. Every sum is written in one order and every
# square root is correctly rounded in both, so a stack gives each pair the
# bits it gets alone.
# A matrix whose larger diagonal entry lies outside [2^-500, 2^500) is first
# scaled by the power of four that takes it into [1/2, 2), and the result
# scaled back by the matching power of two. That is exact, so the bits are
# those of the unscaled form, but det A neither overflows (entries past
# 1.3e154) nor underflows (below 1e-154) where the A^(+-1/2) route did not;
# inside the range its rounding costs at most 2^-74 kappa relative.
_SCALE_FROM = 2.0**500
# A float, so that a lone pair's comparisons with it give Python bools.
_TINY = float(np.finfo(float).tiny)
_DETERMINANT = "2x2 closed form needs a finite positive determinant, got {:.3e}"
_ROOTS = "2x2 pencil form needs roots in the normal float range, got {:.3e} and {:.3e}"
_RATIO = "2x2 harmonic form needs sqrt(det B / det A) and its inverse finite, got {:.3e} and {:.3e}"


def _root(d, ops):
    # The square root of a determinant (or of tr AB + 2s), which must be
    # finite and positive: PositivityError otherwise, never a NaN.
    ok = (d > 0.0) & (d < math.inf)
    if ok is not True:
        _require(ok, PositivityError, _DETERMINANT, d)
    return ops.sqrt(d)


def _nodes(q, shift, m, ops):
    # r = q 2^shift and the pencil's roots mu_1 = r/m <= mu_2 = r m, which
    # must be normal floats: DomainError otherwise, never an overflow.
    r = ops.saturate(q, shift)
    mu1, mu2 = r / m, r * m
    ok = (_TINY <= mu1) & (mu2 < math.inf)
    if ok is not True:
        _require(ok, DomainError, _ROOTS, mu1, mu2)
    return r, mu1, mu2


def _ratio(q, qi, shift, ops):
    # rho = q 2^shift and 1/rho = qi 2^-shift, which must both be finite
    # (one overflows where the other underflows to 0): DomainError
    # otherwise, never an overflow. A subnormal one is kept.
    rho, inv = ops.saturate(q, shift), ops.saturate(qi, -shift)
    ok = (rho < math.inf) & (inv < math.inf)
    if ok is not True:
        _require(ok, DomainError, _RATIO, rho, inv)
    return rho, inv


def _half_exponent_lone(p: float, q: float):
    # k with 4^-k max(p, q) in [1/2, 2), or None while max(p, q) is in
    # [1/_SCALE_FROM, _SCALE_FROM).
    top = max(p, q)
    return None if 1.0 / _SCALE_FROM <= top < _SCALE_FROM else math.frexp(top)[1] // 2


def _half_exponent_stack(p: np.ndarray, q: np.ndarray):
    # _half_exponent_lone for each matrix, 0 where it gives None; None when
    # it does for every matrix.
    top = np.maximum(p, q)
    if 1.0 / _SCALE_FROM <= top.min(initial=1.0) and top.max(initial=1.0) < _SCALE_FROM:
        return None
    return np.where((top < 1.0 / _SCALE_FROM) | (top >= _SCALE_FROM), np.frexp(top)[1] // 2, 0)


def _saturate_lone(x: float, e: int) -> float:
    # x 2^e, inf where that overflows.
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.inf


# matcore's tables, extended: root0 clamps below 0; quotient is d / gap, or
# the derivative where gap is 0; saturate is x 2^e, inf where that
# overflows. nodes and ratio are the checked bodies above, called with the
# table they run on; a stack's run with numpy's overflow warning off, as a
# lone pair's Python floats do.
_LONE = type("_LONE", (matcore._LONE,), dict(
    root0=lambda d: math.sqrt(max(d, 0.0)), half_exponent=_half_exponent_lone,
    quotient=lambda d, gap, derivative: d / gap if gap else derivative, maximum=max, saturate=_saturate_lone,
    nodes=_nodes, ratio=_ratio,
))
_STACK = type("_STACK", (matcore._STACK,), dict(
    root0=lambda d: np.sqrt(np.maximum(d, 0.0)), half_exponent=_half_exponent_stack,
    quotient=lambda d, gap, derivative: np.divide(d, gap, out=derivative, where=gap != 0.0), maximum=np.maximum,
    saturate=np.ldexp, nodes=np.errstate(over="ignore")(_nodes), ratio=np.errstate(over="ignore")(_ratio),
))


def _normalized2(x, ops):
    # The parts of 4^-k X, the root of its determinant, and k (0 unscaled).
    k = ops.half_exponent(x[0], x[1])
    p, q, re, im = x if k is None else [ops.ldexp(v, -2 * k) for v in x]
    return (p, q, re, im), _root(p * q - (re * re + im * im), ops), 0 if k is None else k


def _geometric_parts(x, y, ops, inverse):
    # A # B = sqrt(ab) S / sqrt(det S), S = A/a + B/b; with ``inverse``,
    # Q = A^(-1) # B = sqrt(b/a) S' / sqrt(det S'), S' = adj(A)/a + B/b.
    # Checking the root of sqrt(ab)^2 / det S checks det S. Returns the
    # parts with ab (b/a) of the normalized roots and the exponent m of the
    # result's scale 2^m, so that sqrt(det Q) = sqrt(b/a) 2^m.
    (p, q, re, im), a, ka = _normalized2(x, ops)
    (u, v, wr, wi), b, kb = _normalized2(y, ops)
    if inverse:
        p, q, re, im = q, p, -re, -im
    S = (p / a + u / b, q / a + v / b, re / a + wr / b, im / a + wi / b)
    ratio = b / a if inverse else a * b
    c = _root(ratio / (S[0] * S[1] - (S[2] * S[2] + S[3] * S[3])), ops)
    m = kb - ka if inverse else ka + kb
    return tuple(ops.ldexp(c * s, m) for s in S), ratio, m


def _geometric2(x, y, ops, inverse=False):
    # A # B, or Q = A^(-1) # B with ``inverse`` (_geometric_parts).
    p, q, re, im = _geometric_parts(x, y, ops, inverse)[0]
    return [(p, q, re, im, -im)]


def _anticommutator2(x, y):
    # The parts of XY + YX for Hermitian X and Y: diagonal 2(pu + t) and
    # 2(qv + t), t = Re(z conj w), and corner (p + q) w + (u + v) z.
    p, q, re, im = x
    u, v, wr, wi = y
    t = re * wr + im * wi
    ta, tb = p + q, u + v
    return 2.0 * (p * u + t), 2.0 * (q * v + t), ta * wr + tb * re, ta * wi + tb * im


def _spectral_geometric2(x, y, ops):
    # Q^(1/2) A Q^(1/2) = (e^2 A + e (AQ + QA) + B) / (tr Q + 2e), since the
    # 2x2 Q^(1/2) = (Q + eI) / sqrt(tr Q + 2e), e = sqrt(det Q), and QAQ = B.
    # e = (det B / det A)^(1/4) is taken from the checked normalized roots,
    # and e^2 A + e (AQ + QA) as (e A + AQ + QA) times e / (tr Q + 2e) <= 1/4,
    # so that e^2 never overflows or underflows where the result does not.
    Q, ratio, m = _geometric_parts(x, y, ops, True)
    e = ops.ldexp(ops.sqrt(ratio), m)
    den = (Q[0] + Q[1]) + 2.0 * e
    w = e / den
    p, q, re, im = (w * (e * xi + k) + yi / den for xi, yi, k in zip(x, y, _anticommutator2(x, Q)))
    return [(p, q, re, im, -im)]


def _bw_points2(ts, x, y, ops):
    # The Bures-Wasserstein geodesic (1 - t)^2 A + t^2 B + t(1 - t)(AQ + QA)
    # at each t of ts, with Q = A^(-1) # B and its anticommutator taken once.
    K = _anticommutator2(x, _geometric_parts(x, y, ops, True)[0])
    points = (tuple((1.0 - t) ** 2 * xi + t**2 * yi + t * (1.0 - t) * k for xi, yi, k in zip(x, y, K)) for t in ts)
    return [(p, q, re, im, -im) for p, q, re, im in points]


def _wasserstein2(x, y, ops):
    # (A + B + R)/4 with R = (AB + BA + 2sI) / sqrt(tr AB + 2s), s = ab:
    # for Hermitian A and B, AB + BA has diagonal 2(pu + t), 2(qv + t) with
    # t = Re(z conj w), and corner (p + q) w + (u + v) z.
    (p, q, re, im), a, ka = _normalized2(x, ops)
    (u, v, wr, wi), b, kb = _normalized2(y, ops)
    s, t = a * b, re * wr + im * wi
    pu, qv = p * u, q * v
    d = _root(pu + qv + 2.0 * (t + s), ops)
    ta, tb = p + q, u + v
    R = (2.0 * (pu + t + s) / d, 2.0 * (qv + t + s) / d, (ta * wr + tb * re) / d, (ta * wi + tb * im) / d)
    p, q, re, im = ((xi + yi + ops.ldexp(r, ka + kb)) / 4.0 for xi, yi, r in zip(x, y, R))
    return [(p, q, re, im, -im)]


def _pencil2(fs, x, y, ops):
    # A sigma_f B for each f of fs, which maps (mu_1, mu_2, mu_2 - mu_1, D/c,
    # ops) to (f(mu_1), f[mu_1, mu_2]). mu = (b/a) m for the roots m of
    # m^2 - c m + 1, c = tr(adj(A/a) B/b), and c^2 - 4 = -det(B/b - A/a)(c + 2)
    # does not cancel and is >= 0 exactly (rounding below 0 is clamped), so
    # m_2 = (c + D)/2, m_1 = 1/m_2 and mu_2 - mu_1 = (b/a) D.
    (p, q, re, im), a, ka = _normalized2(x, ops)
    (u, v, wr, wi), b, kb = _normalized2(y, ops)
    p, q, re, im = p / a, q / a, re / a, im / a
    u, v, wr, wi = u / b, v / b, wr / b, wi / b
    c = q * u + p * v - 2.0 * (re * wr + im * wi)
    d0, d1, dr, di = u - p, v - q, wr - re, wi - im
    D = ops.root0(-(d0 * d1 - (dr * dr + di * di)) * (c + 2.0))
    m = (c + D) / 2.0
    r, mu1, mu2 = ops.nodes(b / a, 2 * (kb - ka), m, ops)
    gap, z = r * D, D / c
    # B - mu_1 A = b (B/b - m_1 A/a), from the unit-determinant parts.
    diff = tuple(ops.ldexp(b * (vb - va / m), 2 * kb) for va, vb in zip((p, q, re, im), (u, v, wr, wi)))
    coefficients = [f(mu1, mu2, gap, z, ops) for f in fs]
    results = (tuple(f1 * xi + F * di for xi, di in zip(x, diff)) for f1, F in coefficients)
    return [(p, q, re, im, -im) for p, q, re, im in results]


def _power_f(t, mu1, mu2, gap, z, ops):
    # f(x) = x ** t: the trace-metric geodesic at t.
    f1, _, d = _end_powers(mu1, mu2, z, t, ops)
    return f1, ops.quotient(d, gap, t * (f1 / mu1))


def _power_mean_f(p, mu1, mu2, gap, z, ops):
    # g_p through the chain s = x^p, k = (1 + s)/2, h = k^(1/p), each
    # difference by the rule (k falls as mu rises for p < 0). The chain's
    # quotients cancel to (h_2 - h_1)/(mu_2 - mu_1), so none that could
    # overflow is formed; a zero gap takes g_p'(mu_1) = (h_1/mu_1)(s_1/k_1)/2.
    s1, s2, ds = _end_powers(mu1, mu2, z, p, ops)
    k1, k2 = (1.0 + s1) / 2.0, (1.0 + s2) / 2.0
    up = p > 0
    h_lo, h_hi, dh = _end_powers(*((k1, k2) if up else (k2, k1)), (ds if up else -ds) / (2.0 * (k1 + k2)), 1.0 / p, ops)
    h1 = h_lo if up else h_hi
    return h1, ops.quotient(dh if up else -dh, gap, (h1 / mu1) * (s1 / k1) / 2.0)


def _harmonic2(x, y, ops):
    # 2 (A^(-1) + B^(-1))^(-1) = 2 (rho A + B/rho) / (rho + c + 1/rho), with
    # rho = b/a and c = tr(adj(A/a) B/b) >= 2: the numerator is a sum of
    # positive definite matrices and the denominator is at least
    # 2 + rho + 1/rho, so nothing cancels, and only rho and 1/rho need be
    # finite. Each matrix is scaled by its coefficient, 2 rho / den or
    # 2 (1/rho) / den, less than 2.
    (p, q, re, im), a, ka = _normalized2(x, ops)
    (u, v, wr, wi), b, kb = _normalized2(y, ops)
    p, q, re, im = p / a, q / a, re / a, im / a
    u, v, wr, wi = u / b, v / b, wr / b, wi / b
    c = q * u + p * v - 2.0 * (re * wr + im * wi)
    rho, inv = ops.ratio(b / a, a / b, 2 * (kb - ka), ops)
    den = rho + c + inv
    ca, cb = 2.0 * (rho / den), 2.0 * (inv / den)
    p, q, re, im = (ca * xi + cb * yi for xi, yi in zip(x, y))
    return [(p, q, re, im, -im)]


def _bw_distance2(x, y, ops):
    # d_bw(A, B)^2 = tr A + tr B - 2 tr S with tr S = sqrt(tr AB + 2ab) for
    # the 2x2 S = (A^(1/2) B A^(1/2))^(1/2), taken as
    #     ((tr A - tr B)^2 + 4ab(c - 2)) / (tr A + tr B + 2 tr S):
    # the trace form times its conjugate, over the conjugate, rewritten by
    # tr A tr B - tr AB = tr(adj A B) = ab c. c - 2 = -det(B/b - A/a) >= 0
    # is taken from the difference, as _pencil2 takes c^2 - 4, so nothing
    # cancels near B = A and d(A, A) is 0 exactly; rounding below 0 is
    # clamped. tr AB + 2ab is ab (tr(A/a B/b) + 2). Both matrices are taken
    # to the larger one's scale 4^k, exact but for what underflows beside
    # it, and d is scaled back by 2^k.
    (p, q, re, im), a, ka = _normalized2(x, ops)
    (u, v, wr, wi), b, kb = _normalized2(y, ops)
    k = ops.maximum(ka, kb)
    sa, sb = 2 * (ka - k), 2 * (kb - k)
    ta, tb, s = ops.ldexp(p + q, sa), ops.ldexp(u + v, sb), ops.ldexp(a, sa) * ops.ldexp(b, sb)
    p, q, re, im = p / a, q / a, re / a, im / a
    u, v, wr, wi = u / b, v / b, wr / b, wi / b
    d0, d1, dr, di = u - p, v - q, wr - re, wi - im
    c2 = -(d0 * d1 - (dr * dr + di * di))
    trace_s = ops.root0(s * (p * u + q * v + 2.0 * (re * wr + im * wi) + 2.0))
    return ops.ldexp(ops.root0(((ta - tb) * (ta - tb) + 4.0 * (s * c2)) / (ta + tb + 2.0 * trace_s)), k)


def _parts2(Aarr: np.ndarray, Barr: np.ndarray):
    # The parts (p, q, Re z, Im z) of a 2x2 pair, Python floats for one pair
    # and arrays for two stacks that broadcast, with the route table.
    if Aarr.ndim == 2 and Barr.ndim == 2:
        (p, z), (_, q) = Aarr.tolist()
        (u, w), (_, v) = Barr.tolist()
        return (p.real, q.real, z.real, z.imag), (u.real, v.real, w.real, w.imag), _LONE
    x, y = ((X[..., 0, 0].real, X[..., 1, 1].real, X[..., 0, 1].real, X[..., 0, 1].imag) for X in (Aarr, Barr))
    return x, y, _STACK


def _closed2(form, Aarr: np.ndarray, Barr: np.ndarray):
    # The list of results of a 2x2 form (one, or one per function of
    # _pencil2) of one pair, on Python floats, or of each pair of two stacks
    # that broadcast, as arrays, each assembled from its parts by the
    # table's ``matrix``.
    x, y, ops = _parts2(Aarr, Barr)
    return [ops.matrix(*parts) for parts in form(x, y, ops)]


def _conventional_power2(ps, x, y, ops):
    # ((A^p + B^p)/2)^(1/p) for each p of ps, its three 2x2 powers composed
    # on the parts (matcore._power_parts), with the lower corner's Im as
    # _power2 writes it: the sum of two exactly Hermitian powers is exactly
    # Hermitian, so it has the bits that _sym gives the spectral route's.
    out = []
    for p in ps:
        S = [(u + v) / 2.0 for u, v in zip(_power_parts(x, p)[:4], _power_parts(y, p))]
        out.append(_power_parts(S, 1.0 / p))
    return out


_bw_q2 = functools.partial(_geometric2, inverse=True)
# The 2x2 routes, one per tag of a mean or geodesic that has one:
# route(params, x, y, ops) gives, from the parts of a pair (_parts2), the
# parts (P, Q, Re, Im, Im of the lower corner) of one result per parameter,
# a p of m_p or of the conventional power mean or a t of a geodesic, or of
# the one result of a form that takes none. A lone pair's certified result
# is built from its parts (_lone2); a stack's are assembled (_closed2).
_ROUTES2 = {
    TAG_GEOMETRIC: lambda _, x, y, ops: _geometric2(x, y, ops),
    TAG_WASSERSTEIN: lambda _, x, y, ops: _wasserstein2(x, y, ops),
    TAG_HARMONIC: lambda _, x, y, ops: _harmonic2(x, y, ops),
    TAG_SPECTRAL_GEOMETRIC: lambda _, x, y, ops: _spectral_geometric2(x, y, ops),
    TAG_POWER: lambda ps, x, y, ops: _pencil2([functools.partial(_power_mean_f, p) for p in ps], x, y, ops),
    TAG_CONVENTIONAL_POWER: _conventional_power2,
    TAG_TRACE: lambda ts, x, y, ops: _pencil2([functools.partial(_power_f, t) for t in ts], x, y, ops),
    TAG_BW: _bw_points2,
}


def _routed2(tag: str, params, Aarr: np.ndarray, Barr: np.ndarray) -> list[np.ndarray]:
    # The results of the 2x2 route of tag, one per parameter (or one), of
    # one pair or of each pair of two stacks that broadcast.
    return _closed2(functools.partial(_ROUTES2[tag], params), Aarr, Barr)


def _lone2(tag: str, param, Aarr: np.ndarray, Barr: np.ndarray) -> PdMatrix:
    # The certified result of the 2x2 route of tag at param for one pair,
    # from the parts the route computed (matcore._pd_parts): the array and
    # the certificate of _pd_result(_routed2(tag, (param,), Aarr, Barr)[0]).
    x, y, ops = _parts2(Aarr, Barr)
    return _pd_parts(*_ROUTES2[tag]((param,), x, y, ops)[0])


def _q_arr(Aarr: np.ndarray, Barr: np.ndarray) -> np.ndarray:
    # Q = A^(-1) # B, Hermitian, of one pair or of each pair of two stacks:
    # the closed form at n = 2, L^(-*) S L^(-1) on the Cholesky frame else.
    if Aarr.shape[-1] == 2:
        return _closed2(_bw_q2, Aarr, Barr)[0]
    _, Li, S = _cholesky_bw(Aarr, Barr)
    return _sym(Li.conj().swapaxes(-1, -2) @ S @ Li)


def _means_arr(kinds, Aarr: np.ndarray, Barr: np.ndarray) -> list[np.ndarray]:
    # _mean_arr of each kind of kinds; at n = 2 every m_p among them comes
    # from one pencil, whose roots and B - mu_1 A are taken once, and each p
    # gets the bits it gets alone.
    ps = [kind.p for kind in kinds if kind.tag == TAG_POWER] if Aarr.shape[-1] == 2 else []
    pencil = iter(_routed2(TAG_POWER, ps, Aarr, Barr) if ps else ())
    return [next(pencil) if ps and kind.tag == TAG_POWER else _mean_arr(kind, Aarr, Barr) for kind in kinds]


def _power_mean_arr(N: np.ndarray, p: float) -> np.ndarray:
    # g_p(N) = V diag(((1 + lambda^p)/2)^(1/p)) V*: (I + N^p)/2 has the
    # eigenvectors of N, so one eigendecomposition serves both powers, each
    # guarded as _pow_arr guards its own (k = (1 + lambda^p)/2 falls as
    # lambda rises for p < 0).
    w, V = _eig_array(N)
    ends = w.tolist() if w.ndim == 1 else w.T
    _power_guard(ends[0], ends[-1], (p,), False)
    k = (1.0 + np.power(w, p)) / 2.0
    ends = k.tolist() if k.ndim == 1 else k.T
    _power_guard(*((ends[0], ends[-1]) if p > 0.0 else (ends[-1], ends[0])), (1.0 / p,), False)
    return _apply_spectral(np.power(k, 1.0 / p), V)


def _mean_arr(kind: MeanKind, Aarr: np.ndarray, Barr: np.ndarray) -> np.ndarray:
    # The selected mean, Hermitian and uncertified, of one pair of Hermitian
    # matrices or of each pair of two stacks (N, n, n). At n = 2 every kind
    # but the arithmetic and from-function means takes its 2x2 route
    # (_ROUTES2); at any other n the Kubo-Ando kinds and the Wasserstein and
    # spectral geometric means take the Cholesky frame A = L L*, where the
    # spectral geometric mean is built on Q = A^(-1) # B (_q_arr), and the
    # conventional power mean keeps its spectral route, as from-function
    # means do. The route decides the symmetrization: the 2x2 routes and the
    # arithmetic mean assemble a result exactly Hermitian, which _sym would
    # give back bit for bit, and every other route symmetrizes its own.
    tag = kind.tag
    n = Aarr.shape[-1]
    if tag == TAG_ARITHMETIC:
        return (Aarr + Barr) / 2.0
    if n == 2 and tag in _ROUTES2:
        return _routed2(tag, (kind.p,), Aarr, Barr)[0]
    if tag == TAG_CONVENTIONAL_POWER:
        S = (_pow_arr(Aarr, kind.p) + _pow_arr(Barr, kind.p)) / 2.0
        return _sym(_pow_arr(_sym(S), 1.0 / kind.p))
    if tag == TAG_FROM_FUNCTION:
        # The A^(+-1/2) frame of D A D and D B D, D = diag(A)^(-1/2), and the
        # mean scaled back (the transformer equality): a graded pair keeps
        # its accuracy. S holds the entries of D's congruence.
        d = np.sqrt(np.diagonal(Aarr, axis1=-2, axis2=-1).real)
        S = 1.0 / (d[..., :, None] * d[..., None, :])
        Ah, Aih = _pow_arr(Aarr * S, 0.5, -0.5)
        w, vals, V = _spectral_values(_sym(Aih @ (Barr * S) @ Aih), kind.f)
        _require(vals > 0.0, DomainError, "representing function must stay positive, got {!r} at {!r}", vals, w)
        return _sym(Ah @ _apply_spectral(vals, V) @ Ah / S)
    if tag == TAG_HARMONIC:
        # 2 A (A + B)^(-1) B = 2 (R^(-1) A)* (R^(-1) B), A + B = R R*.
        _, Ri = _cholesky_frame(Aarr + Barr)
        return _sym(2.0 * (Ri @ Aarr).conj().swapaxes(-1, -2) @ (Ri @ Barr))
    if tag == TAG_WASSERSTEIN:
        # A Q = L S L^(-1) = T, and Q A = T*.
        L, Li, S = _cholesky_bw(Aarr, Barr)
        T = L @ S @ Li
        return _sym((Aarr + Barr + T + T.conj().swapaxes(-1, -2)) / 4.0)
    if tag == TAG_SPECTRAL_GEOMETRIC:
        R = _pow_arr(_q_arr(Aarr, Barr), 0.5)
        return _sym(R @ Aarr @ R)
    if tag in (TAG_GEOMETRIC, TAG_POWER):
        L, N = _cholesky_inner(Aarr, Barr)
        F = _pow_arr(N, 0.5) if tag == TAG_GEOMETRIC else _power_mean_arr(N, kind.p)
        return _sym(L @ F @ L.conj().swapaxes(-1, -2))
    raise DomainError(f"unknown mean tag {tag!r}")


def _wasserstein_alt_arr(Aarr: np.ndarray, Barr: np.ndarray) -> np.ndarray:
    # wasserstein_alt, symmetrized and uncertified, of one pair or of
    # stacks, with T = A^(-1/2) S A^(1/2) on the transport frame.
    Ah, Aih, S = _bw_frame(Aarr, Barr)
    T = Aih @ S @ Ah
    return _sym((Aarr + Barr + T + T.conj().swapaxes(-1, -2)) / 4.0)


def mean(kind: MeanKind, A: PdMatrix, B: PdMatrix) -> PdMatrix:
    """Evaluate the selected mean at (A, B).

    At n = 2 the geometric, harmonic, Wasserstein, spectral geometric and
    m_p means take closed forms with no eigendecomposition, and the
    conventional power mean its three 2x2 powers, one each. At other n the
    Kubo-Ando and Wasserstein means take the Cholesky frame A = L L*:
    L f(L^(-1) B L^(-*)) L* for the geometric mean and m_p, from one
    eigendecomposition, 2 (R^(-1) A)* (R^(-1) B) with A + B = R R* for the
    harmonic mean, from none, and (A + B + T + T*)/4 with
    T = L (L* B L)^(1/2) L^(-1) for the Wasserstein mean, from one; the
    spectral geometric mean takes Q^(1/2) A Q^(1/2) on that frame's Q, from
    two. The certificate takes one more at n = 2, and none at n >= 3,
    where a Cholesky proof certifies the result and its ``min_eigenvalue``
    is computed when first read.

    At n = 2 every kind but the arithmetic and from-function means takes
    its route in one table keyed by tag (``_ROUTES2``), whose parts of the
    result (P, Q, Re, Im and the lower corner's Im) are certified on
    those Python floats and built into the one read-only array
    (``matcore._pd_parts``): the bits, certificate and refusals of
    certifying the array the route would assemble, with no read of it back.

    Parameters
    ----------
    kind : MeanKind
    A, B : PdMatrix
        Must share a dimension.

    Returns
    -------
    PdMatrix
        The result is re-certified positive definite; a certification failure
        here would indicate a genuine numerical breakdown, not a soft warning.
    """
    _check_operands(A, B)
    if kind.tag in _ROUTES2 and A.dim == 2:
        return _lone2(kind.tag, kind.p, A.mat, B.mat)
    return _pd_result(_mean_arr(kind, A.mat, B.mat))


def wasserstein_alt(A: PdMatrix, B: PdMatrix) -> PdMatrix:
    """The fixed-point form (A + B + T + T*)/4 with T = A^(-1/2)(A^(1/2) B A^(1/2))^(1/2) A^(1/2).

    Agrees with the Q-form of the Wasserstein mean; kept separate so the two
    routes can be compared against each other.
    """
    _check_operands(A, B)
    return _pd_result(_wasserstein_alt_arr(A.mat, B.mat))


def kubo_ando_from_function(f, A: PdMatrix, B: PdMatrix, name: str = "f") -> PdMatrix:
    """Evaluate the mean induced by a representing function directly."""
    return mean(from_function(f, name), A, B)


def representing_function_of(kind: MeanKind, t: float) -> float:
    """Recover f(t) from the mean via f(t) I = I sigma (t I).

    Raises NotKuboAndo for kinds outside the Kubo-Ando class and DomainError
    for t <= 0.
    """
    if kind.tag in NON_KUBO_ANDO_TAGS:
        raise NotKuboAndo(f"{kind.label} is not a Kubo-Ando mean")
    t = float(t)
    if not (t > 0.0) or not math.isfinite(t):
        raise DomainError(f"representing functions live on t > 0, got {t}")
    I2 = identity_pd(2)
    tI = PdMatrix(HermitianMatrix._wrap(t * np.eye(2, dtype=np.complex128)), t)
    M = mean(kind, I2, tI)
    return float(M.mat[0, 0].real)


@dataclass(frozen=True)
class AxiomCheck:
    """Outcome of one axiom over the sampled battery."""

    axiom: str
    samples: int
    failures: int
    worst_violation: float

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json(self) -> dict:
        return {**json_fields(self), "passed": self.passed}


@dataclass(frozen=True)
class AxiomReport:
    """Battery outcome for one mean kind at one dimension."""

    kind: str
    dim: int
    seed: int
    checks: tuple[AxiomCheck, ...] = field(default=())

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {**json_fields(self), "all_pass": self.all_pass, "checks": [c.to_json() for c in self.checks]}


def _transforms(M: np.ndarray) -> np.ndarray:
    # The axiom battery's T from their (N, n, n) Gaussian factors, each
    # parity as one stack: random_invertible_hermitian's matrix for even i
    # and random_pd's certified one for odd i.
    T = np.empty(M.shape, dtype=np.complex128)
    T[0::2] = _sym(_invertible_hermitian(M[0::2]))
    T[1::2] = _certified(_pd_gram(M[1::2]))
    return T


def check_kubo_ando_axioms(
    kind: MeanKind,
    samples: int = 50,
    rng_seed: int = 0,
    dim: int = 2,
) -> AxiomReport:
    """Sampled test of the four defining axioms.

    For each draw: (1) normalization I sigma I = I; (2) joint monotonicity,
    A <= B and C <= D imply A sigma C <= B sigma D; (3) the transformer
    property as an equality T (A sigma B) T* = (T A T*) sigma (T B T*) for an
    invertible Hermitian T, alternating with a positive definite T;
    (4) continuity from above along A + I/k for k = 1, 2, 4, ..., 32, checked
    as Loewner-monotone decrease plus norm convergence consistent with a 1/k
    envelope.

    Sample i draws A, C, G1, G2 and T, in that order, from
    ``rng_for(rng_seed, i)``: T is ``random_invertible_hermitian`` for even
    i and ``random_pd`` for odd i. Every sample is drawn first, its five
    factors at once, and each parity's T are built and checked as one
    stack, bit for bit the matrices a draw at a time gives. The nine means of
    each sample (lo = A sigma C, hi = B sigma D, the transformed mean and the
    six shifted means) are then evaluated as one stack over all samples and
    certified as one, and so are the order checks; every matrix a mean or a
    check consumes is certified, as one sample at a time would certify it.
    Each axiom failure, a NaN violation included, counts once per sample;
    worst violations (NaN if any was) are in absolute Frobenius or eigenvalue
    units. Normalization does not depend on the draw, so it is evaluated once
    and counted against every sample. DomainError when ``samples`` < 1, since
    a verdict needs at least one draw, and when ``dim`` < 1.
    """
    samples = int(samples)
    dim = int(dim)
    if samples < 1:
        raise DomainError("at least one sample is required")
    if dim < 1:
        raise DomainError(f"dimension must be at least 1, got {dim}")
    I = np.eye(dim)
    I_pd = identity_pd(dim)
    v = float(_norms(mean(kind, I_pd, I_pd).mat - I))
    checks = [
        AxiomCheck("normalization", samples, 0 if v <= AXIOM_NORMALIZATION_TOL else samples, worst((v,)))
    ]

    F = complex_draws(rng_batch(rng_seed, count=samples), dim, 5)
    T = _transforms(F[:, 4])
    A, C = _pd_gram(F[:, 0]), _pd_gram(F[:, 1])
    ks = (1, 2, 4, 8, 16, 32)
    # Each lambda_min of A and C must clear the tolerance of its matrix and
    # of every shift by I/k. ||X + tI||_F grows with t, so at n >= 3 one
    # proof above pd_tolerance(X + I) answers every k, and only the
    # matrices it leaves open read their eigenvalues, raising as before.
    AC = np.concatenate([A, C])
    if dim > 2:
        AC = AC[~_cholesky_proof(AC, pd_tolerance(AC + I))]
    if len(AC):
        lam = _certify_stack(AC)
        for k in ks:
            _check_certificates(AC + I / k, lam)
    G1, G2 = F[:, 2], F[:, 3]
    B, D, TA, TC = _certified(_sym(np.concatenate([
        A + G1.conj().swapaxes(-1, -2) @ G1 + 0.05 * I,
        C + G2.conj().swapaxes(-1, -2) @ G2 + 0.05 * I,
        *_congruences(T, A, C),
    ]))).reshape(4, samples, dim, dim)
    As, Cs = [A + I / k for k in ks], [C + I / k for k in ks]

    # The nine means of every sample as one stack, certified as one: lo,
    # hi, the transformed mean and the six shifted means. T's invertibility
    # was checked with TA and TC, so lhs = T lo T* is taken directly.
    firsts = np.concatenate([A, B, TA, *As])
    seconds = np.concatenate([C, D, TC, *Cs])
    lo, hi, rhs, *shifts = _certified(_mean_arr(kind, firsts, seconds)).reshape(9, samples, dim, dim)
    trans = _rel_gap(_sym(T @ lo @ T.conj().swapaxes(-1, -2)), rhs)
    # The order checks as one stack: lo <= hi, and each shift below the one before.
    order = _order_violation(
        np.concatenate([lo, *shifts[1:]]), np.concatenate([hi, *shifts[:-1]])
    ).reshape(6, samples)
    mono, mono_bad = order[0], order[1:].max(axis=0)
    dists = [_norms(S - lo) for S in shifts]
    envelope = 10.0 * np.maximum(1.0, _norms(lo)) / ks[-1]
    converged = (dists[-1] <= envelope) & (dists[-1] <= dists[0] / 4.0 + AXIOM_EQ_TOL)
    cont = np.maximum(mono_bad, np.where(converged, 0.0, dists[-1]))

    for name, values, ok in (
        ("monotonicity", mono, mono <= AXIOM_ORDER_TOL * np.maximum(1.0, _norms(hi))),
        ("transformer", trans, trans <= AXIOM_EQ_TOL),
        ("continuity", cont, (mono_bad <= AXIOM_ORDER_TOL * np.maximum(1.0, _norms(shifts[0]))) & converged),
    ):
        checks.append(AxiomCheck(name, samples, int(np.count_nonzero(~ok)), worst(values.tolist())))
    return AxiomReport(kind.label, dim, int(rng_seed), tuple(checks))


def ando_variational_certificate(A: PdMatrix, B: PdMatrix, X) -> bool:
    """Whether the block matrix [[A, X], [X, B]] is positive semidefinite.

    This is the feasibility side of the variational description of the
    geometric mean: A # B is the largest Hermitian X passing this test.
    """
    _check_operands(A, B)
    Xarr = as_array(X)
    if Xarr.shape != A.mat.shape:
        raise DimMismatch(f"block X has shape {Xarr.shape}, expected {A.mat.shape}")
    return loewner_leq(0, np.block([[A.mat, Xarr], [Xarr.conj().T, B.mat]]))
