"""Bures-Wasserstein distance and two geodesic families on the PD cone.

d_bw(A, B) = sqrt(tr A + tr B - 2 tr S) with S = (A^(1/2) B A^(1/2))^(1/2)
is a metric whose geodesic has the Wasserstein mean as midpoint. It equals
the transport form ||(T - I) A^(1/2)||_F, T = A^(-1) # B the optimal map
(Bhatia, Jain & Lim, Expo. Math. 37, 2019), which d_bw takes on the
Cholesky frame at n >= 3, and at n = 2 a closed form of the trace form
with its cancellation rewritten away; neither builds A^(+-1/2). The
geodesic's points (1 - t)^2 A + t^2 B + t (1 - t)(AT + TA) take T on the
same frame at n >= 3, and at n = 2 T's closed form and the points on the
2x2 parts, with no eigendecomposition; they never take the Wasserstein
mean's own form, which their midpoint is checked against.
The trace-metric geodesic t -> A^(1/2) (A^(-1/2) B A^(-1/2))^t A^(1/2),
equal to L (L^(-1) B L^(-*))^t L* for A = L L*, has the geometric mean as
midpoint. check_geodesic_metric verifies proportional
distance accrual along a partition of the Bures-Wasserstein curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .matcore import PdMatrix, _certified, _check_hermitian, _check_operands, _norms, _pd_result, _pow_arr, _sym
from .means import TAG_BW, TAG_TRACE, _bw_distance2, _cholesky_bw, _cholesky_inner, _lone2, _parts2, _q_arr, _routed2


@dataclass(frozen=True)
class GeodesicKind:
    tag: str

    def __post_init__(self) -> None:
        if self.tag not in (TAG_TRACE, TAG_BW):
            raise DomainError(f"unknown geodesic kind {self.tag!r}")

    @property
    def label(self) -> str:
        return self.tag


GEODESIC_TRACE = GeodesicKind(TAG_TRACE)
GEODESIC_BW = GeodesicKind(TAG_BW)


def _d_bw_arr(Aarr: np.ndarray, Barr: np.ndarray) -> np.ndarray:
    # d_bw of one pair, or of each pair of two (N, n, n) stacks: the closed
    # form at n = 2, ||L^(-*)(S - L* L)||_F on the Cholesky frame else.
    if Aarr.shape[-1] == 2:
        return np.float64(_bw_distance2(*_parts2(Aarr, Barr)))
    L, Li, S = _cholesky_bw(Aarr, Barr)
    return _norms(Li.conj().swapaxes(-1, -2) @ (S - L.conj().swapaxes(-1, -2) @ L))


def d_bw(A: PdMatrix, B: PdMatrix) -> float:
    """Bures-Wasserstein distance between PD matrices of equal dimension.

    d_bw(A, B)^2 = tr A + tr B - 2 tr S with S = (A^(1/2) B A^(1/2))^(1/2).
    That trace form cancels near B = A and turns eps-sized roundoff into
    sqrt(eps) in the distance, so neither route takes it as written. At
    n = 2, with a = sqrt(det A), b = sqrt(det B) and
    c = tr(adj(A/a) B/b), it is
    ((tr A - tr B)^2 + 4ab(c - 2)) / (tr A + tr B + 2 sqrt(tr AB + 2ab)),
    c - 2 = -det(B/b - A/a) taken from the difference, with no
    eigendecomposition; d_bw(A, A) is exactly 0 and d_bw(A, B) exactly
    d_bw(B, A). At other n it is the transport form ||(Q - I) L||_F,
    Q = A^(-1) # B, on the Cholesky frame A = L L*:
    ||L^(-*)(S' - L* L)||_F with S' = (L* B L)^(1/2), from one
    eigendecomposition.
    """
    _check_operands(A, B)
    return float(_d_bw_arr(A.mat, B.mat))


def geodesic(kind: GeodesicKind, A: PdMatrix, B: PdMatrix, t: float) -> PdMatrix:
    """Point at parameter t on the chosen geodesic from A to B.

    The Bures-Wasserstein curve is
    (1-t)^2 A + t^2 B + t(1-t)(A Q + Q A) with Q = A^(-1) # B. At n = 2, Q
    takes the closed form sqrt(b/a) S' / sqrt(det S'), S' = adj(A)/a + B/b,
    a and b the roots of det A and det B, with no inverse and no
    eigendecomposition, and the point is formed on the 2x2 parts, exactly
    Hermitian; at other n Q is L^(-*) S L^(-1), symmetrized, on the
    Cholesky frame A = L L* with S = (L* B L)^(1/2), from one
    eigendecomposition, and the point is checked Hermitian and
    symmetrized. Q is uncertified: only the curve points are certified.
    check_geodesic_metric computes Q once for all its points.
    The trace-metric curve takes, at n = 2, the pencil form
    mu_1^t A + f[mu_1, mu_2] (B - mu_1 A) of means._pencil2, with no
    eigendecomposition; at other n it is L N^t L* with N = L^(-1) B L^(-*),
    from one. The point is certified as ``means.mean`` certifies a mean: at
    n = 2 from the parts its route computed, built into the one read-only
    array with no read of it back.
    """
    t = float(t)
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"parameter must lie in [0, 1], got {t}")
    _check_operands(A, B)
    if A.dim == 2:
        return _lone2(kind.tag, t, A.mat, B.mat)
    return _pd_result(_curve_points(kind, A.mat, B.mat, (t,))[0])


def _curve_points(kind: GeodesicKind, Aarr: np.ndarray, Barr: np.ndarray, ts) -> list[np.ndarray]:
    # Uncertified Hermitian points of the chosen geodesic, one entry per t
    # of ts: a matrix for one pair, a stack for two stacks of pairs. Each
    # pair's pencil or Cholesky frame (trace) or Q (Bures-Wasserstein) is
    # taken once for all ts, and each t enters as a float, so a lone point
    # costs what it did alone. At n = 2 both closed forms assemble each
    # point exactly Hermitian; every other point is checked Hermitian to
    # HERMITICITY_RTOL (a NaN fails), then symmetrized.
    if Aarr.shape[-1] == 2:
        return _routed2(kind.tag, ts, Aarr, Barr)
    if kind.tag == TAG_TRACE:
        L, N = _cholesky_inner(Aarr, Barr)
        Lh = L.conj().swapaxes(-1, -2)
        points = [L @ P @ Lh for P in np.reshape(_pow_arr(N, *ts), (len(ts),) + N.shape)]
    else:
        Q = _q_arr(Aarr, Barr)
        AQ = Aarr @ Q + Q @ Aarr
        points = [(1.0 - t) ** 2 * Aarr + t**2 * Barr + t * (1.0 - t) * AQ for t in ts]
    for P in points:
        _check_hermitian(P)
    return [_sym(P) for P in points]


def _certified_points(kind: GeodesicKind, Aarr: np.ndarray, Barr: np.ndarray, ts) -> np.ndarray:
    # _curve_points at each of ts, with a leading axis for t, each point
    # certified as geodesic certifies one.
    return _certified(np.stack(_curve_points(kind, Aarr, Barr, ts)))


def _accrual(Aarr: np.ndarray, Barr: np.ndarray, partition):
    # check_geodesic_metric's deviation, with the d_bw(A, B) it is measured
    # against, for one pair or for each pair of two (N, n, n) stacks.
    ts = [float(t) for t in partition]
    if len(ts) < 2 or ts != sorted(ts):
        raise DomainError("partition must be sorted with at least two points")
    if ts[0] != 0.0 or ts[-1] != 1.0:
        raise DomainError("partition must start at 0 and end at 1")
    if any(t != t for t in ts):  # sorted from 0 to 1, only a NaN can lie outside [0, 1]
        raise DomainError("parameter must lie in [0, 1], got nan")
    total = _d_bw_arr(Aarr, Barr)
    P = _certified_points(GEODESIC_BW, Aarr, Barr, ts)
    n = Aarr.shape[-1]
    steps = _d_bw_arr(P[:-1].reshape(-1, n, n), P[1:].reshape(-1, n, n)).reshape((-1,) + total.shape)
    # max keeps a NaN, as report.worst does.
    deviation = np.abs(steps - np.multiply.outer(np.diff(ts), total)).max(axis=0)
    return deviation, total


def check_geodesic_metric(A: PdMatrix, B: PdMatrix, partition) -> float:
    """Worst deviation from proportional distance accrual along the BW curve.

    ``partition`` must be sorted within [0, 1] and contain both endpoints.
    Returns max over consecutive (s, t) of
    |d_bw(gamma(s), gamma(t)) - (t - s) d_bw(A, B)|.
    """
    _check_operands(A, B)
    return float(_accrual(A.mat, B.mat, partition)[0])
