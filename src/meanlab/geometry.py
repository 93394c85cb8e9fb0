"""Bures-Wasserstein distance and two geodesic families on the PD cone.

d_bw(A, B) = (tr A + tr B - 2 tr (A^(1/2) B A^(1/2))^(1/2))^(1/2) is a
metric whose geodesic has the Wasserstein mean as midpoint. The trace-metric
geodesic t -> A^(1/2) (A^(-1/2) B A^(-1/2))^t A^(1/2) has the geometric mean
as midpoint. check_geodesic_metric verifies proportional distance accrual
along a partition of the Bures-Wasserstein curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NegativeRadicand
from .matcore import PdMatrix, _check_operands, _pow_arr, _sym
from .means import _geometric_arr
from .report import worst

# Radicand dips below zero by at most this before it signals a bug.
RADICAND_FLOOR = 1e-10

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


def d_bw(A: PdMatrix, B: PdMatrix) -> float:
    """Bures-Wasserstein distance between PD matrices of equal dimension."""
    _check_operands(A, B)
    Ah = _pow_arr(A.mat, 0.5)
    cross = _pow_arr(Ah @ B.mat @ Ah, 0.5)
    radicand = A.trace() + B.trace() - 2.0 * float(np.trace(cross).real)
    if radicand < -RADICAND_FLOOR:
        raise NegativeRadicand(f"radicand {radicand:.3e} below -{RADICAND_FLOOR:.0e}")
    if radicand < 0.0:
        radicand = 0.0
    return math.sqrt(radicand)


def geodesic(kind: GeodesicKind, A: PdMatrix, B: PdMatrix, t: float) -> PdMatrix:
    """Point at parameter t on the chosen geodesic from A to B.

    The Bures-Wasserstein curve is
    (1-t)^2 A + t^2 B + t(1-t)(A Q + Q A) with Q = A^(-1) # B. A^(-1) and Q
    are computed as the Wasserstein mean computes them, uncertified, by the
    geometric mean's own array routine: only the curve points are certified.
    check_geodesic_metric computes Q once for all its points.
    """
    t = float(t)
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"parameter must lie in [0, 1], got {t}")
    _check_operands(A, B)
    if kind.tag == TAG_TRACE:
        Ah, Aih = _pow_arr(A.mat, 0.5, -0.5)
        N = Aih @ B.mat @ Aih
        return PdMatrix.certify(Ah @ _pow_arr(N, t) @ Ah)
    return _bw_points(A, B, [t])[0]


def _bw_points(A: PdMatrix, B: PdMatrix, ts) -> list[PdMatrix]:
    # Certified points of the Bures-Wasserstein curve at each t, from one Q.
    Q = _sym(_geometric_arr(_sym(_pow_arr(A.mat, -1.0)), B.mat))
    return [
        PdMatrix.certify(
            (1.0 - t) ** 2 * A.mat
            + t**2 * B.mat
            + t * (1.0 - t) * (A.mat @ Q + Q @ A.mat)
        )
        for t in ts
    ]


def _accrual(A: PdMatrix, B: PdMatrix, partition) -> tuple[float, float]:
    # check_geodesic_metric's deviation, with the d_bw(A, B) it is measured against.
    ts = [float(t) for t in partition]
    if len(ts) < 2 or ts != sorted(ts):
        raise DomainError("partition must be sorted with at least two points")
    if ts[0] != 0.0 or ts[-1] != 1.0:
        raise DomainError("partition must start at 0 and end at 1")
    total = d_bw(A, B)
    points = _bw_points(A, B, ts)
    deviation = worst(
        abs(d_bw(P, Qp) - (t - s) * total)
        for (s, P), (t, Qp) in zip(zip(ts, points), zip(ts[1:], points[1:]))
    )
    return deviation, total


def check_geodesic_metric(A: PdMatrix, B: PdMatrix, partition) -> float:
    """Worst deviation from proportional distance accrual along the BW curve.

    ``partition`` must be sorted within [0, 1] and contain both endpoints.
    Returns max over consecutive (s, t) of
    |d_bw(gamma(s), gamma(t)) - (t - s) d_bw(A, B)|.
    """
    return _accrual(A, B, partition)[0]
