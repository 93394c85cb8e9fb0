"""Bures-Wasserstein distance and two geodesic families on the PD cone.

d_bw(A, B) = ||A^(-1/2)(S - A)||_F with S = (A^(1/2) B A^(1/2))^(1/2) is a
metric whose geodesic has the Wasserstein mean as midpoint. This transport
form ||(T - I) A^(1/2)||_F, T the optimal map (Bhatia, Jain & Lim, Expo.
Math. 37, 2019), equals sqrt(tr A + tr B - 2 tr S) without its cancellation.
The trace-metric geodesic t -> A^(1/2) (A^(-1/2) B A^(-1/2))^t A^(1/2) has
the geometric mean as midpoint. check_geodesic_metric verifies proportional
distance accrual along a partition of the Bures-Wasserstein curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .matcore import HermitianMatrix, PdMatrix, _certified, _check_hermitian, _check_operands, _norms, _pow_arr, _sym
from .means import _bw_frame, _geometric_arr, _normalized_inner

TAG_TRACE = "geometric-trace"
TAG_BW = "bures-wasserstein"


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
    # ||A^(-1/2)(S - A)||_F for one pair, or for each pair of two (N, n, n) stacks.
    _, Aih, S = _bw_frame(Aarr, Barr)
    return _norms(Aih @ (S - Aarr))


def d_bw(A: PdMatrix, B: PdMatrix) -> float:
    """Bures-Wasserstein distance between PD matrices of equal dimension.

    Computed as ||A^(-1/2)(S - A)||_F with S = (A^(1/2) B A^(1/2))^(1/2),
    from the same two eigendecompositions as sqrt(tr A + tr B - 2 tr S).
    That trace form cancels near B = A and turns eps-sized roundoff into
    sqrt(eps) in the distance; the transport form keeps d_bw(A, A) at roundoff.
    """
    _check_operands(A, B)
    return float(_d_bw_arr(A.mat, B.mat))


def geodesic(kind: GeodesicKind, A: PdMatrix, B: PdMatrix, t: float) -> PdMatrix:
    """Point at parameter t on the chosen geodesic from A to B.

    The Bures-Wasserstein curve is
    (1-t)^2 A + t^2 B + t(1-t)(A Q + Q A) with Q = A^(-1) # B, Q taken by the
    geometric mean's array routine. A^(-1) and Q are symmetrized, unlike in
    the Wasserstein mean, and uncertified: only the curve points are
    certified. check_geodesic_metric computes Q once for all its points.
    """
    t = float(t)
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"parameter must lie in [0, 1], got {t}")
    _check_operands(A, B)
    P = _curve_points(kind, A.mat, B.mat, (t,))[0]
    _check_hermitian(P)
    return PdMatrix.certify(HermitianMatrix._wrap(P))


def _curve_points(kind: GeodesicKind, Aarr: np.ndarray, Barr: np.ndarray, ts) -> list[np.ndarray]:
    # Uncertified points of the chosen geodesic, one entry per t of ts: a
    # matrix for one pair, a stack for two stacks of pairs. Each pair's
    # frame (trace) or Q (Bures-Wasserstein) is taken once for all ts, and
    # each t enters as a float, so a lone point costs what it did alone.
    if kind.tag == TAG_TRACE:
        Ah, N = _normalized_inner(Aarr, Barr)
        return [Ah @ P @ Ah for P in np.reshape(_pow_arr(N, *ts), (len(ts),) + N.shape)]
    Q = _sym(_geometric_arr(_sym(_pow_arr(Aarr, -1.0)), Barr))
    AQ = Aarr @ Q + Q @ Aarr
    return [(1.0 - t) ** 2 * Aarr + t**2 * Barr + t * (1.0 - t) * AQ for t in ts]


def _certified_points(kind: GeodesicKind, Aarr: np.ndarray, Barr: np.ndarray, ts) -> np.ndarray:
    # _curve_points at each of ts, with a leading axis for t, each point
    # checked as geodesic checks one: Hermitian to HERMITICITY_RTOL (a NaN
    # fails), then symmetrized and certified.
    P = np.stack(_curve_points(kind, Aarr, Barr, ts))
    _check_hermitian(P)
    return _certified(P)


def _accrual(Aarr: np.ndarray, Barr: np.ndarray, partition):
    # check_geodesic_metric's deviation, with the d_bw(A, B) it is measured
    # against, for one pair or for each pair of two (N, n, n) stacks.
    ts = [float(t) for t in partition]
    if len(ts) < 2 or ts != sorted(ts):
        raise DomainError("partition must be sorted with at least two points")
    if ts[0] != 0.0 or ts[-1] != 1.0:
        raise DomainError("partition must start at 0 and end at 1")
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
