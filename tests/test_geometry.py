"""Bures-Wasserstein distance and the two geodesic constructions.

Scalar pairs give exact oracles: for aI and bI in dimension two the distance
is sqrt(2) |sqrt(b) - sqrt(a)| and both geodesics are scalar curves.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanlab import (
    GEODESIC_BW,
    GEODESIC_TRACE,
    GEOMETRIC,
    WASSERSTEIN,
    DimMismatch,
    DomainError,
    GeodesicKind,
    check_geodesic_metric,
    d_bw,
    frobenius,
    geodesic,
    identity_pd,
    mean,
    random_pd,
    random_unitary,
    rng_for,
)
from meanlab import geometry, verification
from meanlab.geometry import _accrual, _certified_points, _d_bw_arr
from meanlab.sampling import draws, stacked

ENDPOINT_TOL = 1e-11
MIDPOINT_TOL = 1e-10
SELF_DISTANCE_TOL = 1e-11
UNITARY_TOL = 1e-10


def test_distance_between_scalar_matrices(pd):
    assert d_bw(identity_pd(2), pd(4.0 * np.eye(2))) == pytest.approx(
        np.sqrt(2.0), abs=1e-12
    )
    # sqrt(2) (sqrt(6) - sqrt(2)) = sqrt(12) - 2
    assert d_bw(pd(2.0 * np.eye(2)), pd(6.0 * np.eye(2))) == pytest.approx(
        np.sqrt(12.0) - 2.0, abs=1e-12
    )


def test_distance_is_symmetric(rng):
    # Exactly at n = 2: the closed form takes each term symmetrically.
    for _ in range(20):
        A = random_pd(rng, 2)
        B = random_pd(rng, 2)
        assert d_bw(A, B) == d_bw(B, A)


def test_self_distance_is_roundoff_only(rng):
    # At n = 2 no roundoff is left: c - 2 = -det(A/a - A/a) and
    # tr A - tr A are 0 exactly. At n = 3 it is S - L* L.
    for _ in range(5):
        assert d_bw(A := random_pd(rng, 2), A) == 0.0
        assert d_bw(A := random_pd(rng, 3), A) <= SELF_DISTANCE_TOL


def test_triangle_inequality_on_samples(rng):
    for _ in range(50):
        A = random_pd(rng, 2)
        B = random_pd(rng, 2)
        C = random_pd(rng, 2)
        slack = d_bw(A, B) + d_bw(B, C) - d_bw(A, C)
        assert slack >= -1e-10


def test_unitary_invariance(pd, rng):
    A = random_pd(rng, 2)
    B = random_pd(rng, 2)
    Q = random_unitary(rng, 2)
    rotated = d_bw(pd(Q @ A.mat @ Q.conj().T), pd(Q @ B.mat @ Q.conj().T))
    assert abs(rotated - d_bw(A, B)) <= UNITARY_TOL


def test_distance_rejects_dimension_mismatch(rng):
    with pytest.raises(DimMismatch):
        d_bw(random_pd(rng, 2), random_pd(rng, 3))


@pytest.mark.parametrize("tag", ["nope", "", "trace", "bw"])
def test_unknown_geodesic_kind_is_refused(tag):
    # The CLI's --kind names are not tags.
    with pytest.raises(DomainError, match="unknown geodesic kind"):
        GeodesicKind(tag)


@pytest.mark.parametrize("kind", [GEODESIC_TRACE, GEODESIC_BW], ids=lambda k: k.tag)
def test_geodesic_endpoints(kind, rng):
    A = random_pd(rng, 2)
    B = random_pd(rng, 2)
    assert frobenius(geodesic(kind, A, B, 0.0).mat - A.mat) <= ENDPOINT_TOL
    assert frobenius(geodesic(kind, A, B, 1.0).mat - B.mat) <= ENDPOINT_TOL


@pytest.mark.parametrize("kind", [GEODESIC_TRACE, GEODESIC_BW], ids=lambda k: k.tag)
def test_geodesic_takes_any_real_parameter(kind, rng):
    # An int or a numpy scalar t gives the point a float t gives, bit for bit.
    A = random_pd(rng, 2)
    B = random_pd(rng, 2)
    for t, want in ((0, A), (1, B), (np.float32(0.5), None)):
        got = geodesic(kind, A, B, t)
        assert np.array_equal(got.mat, geodesic(kind, A, B, float(t)).mat)
        if want is not None:
            assert frobenius(got.mat - want.mat) <= ENDPOINT_TOL


def test_trace_midpoint_is_the_geometric_mean(rng):
    A = random_pd(rng, 2)
    B = random_pd(rng, 2)
    mid = geodesic(GEODESIC_TRACE, A, B, 0.5)
    assert frobenius(mid.mat - mean(GEOMETRIC, A, B).mat) <= MIDPOINT_TOL


def test_bw_midpoint_is_the_wasserstein_mean(rng):
    A = random_pd(rng, 2)
    B = random_pd(rng, 2)
    mid = geodesic(GEODESIC_BW, A, B, 0.5)
    assert frobenius(mid.mat - mean(WASSERSTEIN, A, B).mat) <= MIDPOINT_TOL


def test_bw_midpoint_is_the_wasserstein_mean_at_large_scale(pd):
    # A^(-1) = diag(0.1, 5e-13) does not clear the certification tolerance
    # itself; like the Wasserstein mean, the curve must certify only its points.
    A = pd(np.diag([10.0, 2e12]))
    B = pd(np.array([[2.0, 1.0], [1.0, 3.0]]))
    W = mean(WASSERSTEIN, A, B)
    mid = geodesic(GEODESIC_BW, A, B, 0.5)
    assert frobenius(mid.mat - W.mat) <= 1e-12 * frobenius(W.mat)


def test_bw_geodesic_scalar_oracle(pd):
    # Between 2I and 6I the curve is ((1-t) sqrt(2) + t sqrt(6))^2 I.
    got = geodesic(GEODESIC_BW, pd(2.0 * np.eye(2)), pd(6.0 * np.eye(2)), 0.5)
    want = ((np.sqrt(2.0) + np.sqrt(6.0)) / 2.0) ** 2
    assert frobenius(got.mat - want * np.eye(2)) <= 1e-12


def test_bw_geodesic_distance_is_additive(rng):
    A = random_pd(rng, 2)
    B = random_pd(rng, 2)
    total = d_bw(A, B)
    dev = check_geodesic_metric(A, B, (0.0, 0.25, 0.5, 0.75, 1.0))
    assert dev <= 1e-8 * max(total, 1e-8)


def test_geodesic_parameter_range(rng):
    A = random_pd(rng, 2)
    B = random_pd(rng, 2)
    for t in (-0.1, 1.1):
        with pytest.raises(DomainError):
            geodesic(GEODESIC_BW, A, B, t)


def test_partition_validation(rng):
    A = random_pd(rng, 2)
    B = random_pd(rng, 2)
    with pytest.raises(DomainError):
        check_geodesic_metric(A, B, (0.0,))
    with pytest.raises(DomainError):
        check_geodesic_metric(A, B, (0.1, 0.5, 1.0))
    with pytest.raises(DomainError):
        check_geodesic_metric(A, B, (0.0, 0.5, 0.9))


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(min_value=0.2, max_value=9.0),
    b=st.floats(min_value=0.2, max_value=9.0),
)
def test_scalar_distance_closed_form(a, b):
    from meanlab import HermitianMatrix, PdMatrix

    A = PdMatrix.certify(HermitianMatrix(a * np.eye(2, dtype=complex)))
    B = PdMatrix.certify(HermitianMatrix(b * np.eye(2, dtype=complex)))
    want = np.sqrt(2.0) * abs(np.sqrt(b) - np.sqrt(a))
    assert d_bw(A, B) == pytest.approx(want, abs=1e-12)


def test_criterion_10_fails_on_one_nan_distance(monkeypatch):
    # Entry 0 of the first stacked call is d_bw(A, B) of the first triple,
    # which feeds the symmetry and triangle items; a NaN there must fail both.
    real = verification._d_bw_arr
    calls = []

    def nan_once(A, B):
        d = real(A, B)
        calls.append(1)
        if len(calls) == 1:
            d[0] = math.nan
        return d

    monkeypatch.setattr(verification, "_d_bw_arr", nan_once)
    rep = verification.criterion_10(seed=0)
    failed = {item.name for item in rep.items if not item.passed}
    assert failed == {"distance symmetry (200 triples)", "triangle inequality violation (200 triples)"}


def test_criterion_10_fails_on_one_nan_accrual_distance(monkeypatch):
    # The accrual takes its 4 x 50 interval distances in one stacked call; a
    # NaN in one of them must fail the accrual item and nothing else.
    real = geometry._d_bw_arr

    def nan_in_intervals(A, B):
        d = real(A, B)
        if d.shape == (200,):
            d[77] = math.nan
        return d

    monkeypatch.setattr(geometry, "_d_bw_arr", nan_in_intervals)
    rep = verification.criterion_10(seed=0)
    failed = {item.name: item for item in rep.items if not item.passed}
    assert set(failed) == {"distance accrues proportionally along the curve"}
    assert math.isnan(failed["distance accrues proportionally along the curve"].observed)


@pytest.mark.parametrize("dim", [2, 3])
def test_stacked_accrual_matches_each_pair(dim):
    partition = [0.0, 0.25, 0.5, 0.75, 1.0]
    pairs = draws(lambda rng: (random_pd(rng, dim), random_pd(rng, dim)), 6, dim, count=12)
    deviation, total = _accrual(*stacked(pairs), partition)
    for (A, B), dev, d in zip(pairs, deviation, total, strict=True):
        assert abs(dev - check_geodesic_metric(A, B, partition)) <= 1e-14 * d
        assert abs(d - d_bw(A, B)) <= 1e-14 * d


@pytest.mark.parametrize("dim", [2, 3])
def test_stacked_curve_points_match_each_geodesic(dim):
    ts = (0.0, 0.3, 1.0)
    pairs = draws(lambda rng: (random_pd(rng, dim), random_pd(rng, dim)), 7, dim, count=6)
    for kind in (GEODESIC_TRACE, GEODESIC_BW):
        P = _certified_points(kind, *stacked(pairs), ts)
        assert P.shape == (len(ts), len(pairs), dim, dim)
        for j, (A, B) in enumerate(pairs):
            for i, t in enumerate(ts):
                G = geodesic(kind, A, B, t).mat
                assert frobenius(P[i, j] - G) <= 1e-14 * frobenius(G)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_stacked_distance_matches_each_pair(dim):
    # Byte for byte, and for one A against a stack of B.
    pairs = draws(lambda rng: (random_pd(rng, dim), random_pd(rng, dim)), 5, dim, count=12)
    A, B = stacked(pairs)
    want = np.array([d_bw(P, Q) for P, Q in pairs])
    assert _d_bw_arr(A, B).tobytes() == want.tobytes()
    against = np.array([d_bw(pairs[0][0], Q) for _, Q in pairs])
    assert _d_bw_arr(A[0], B).tobytes() == against.tobytes()


def _scaled(X, e):
    # X 2^e, exactly.
    return np.ldexp(X.view(np.float64), e).view(np.complex128)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("k", [-400, -100, 100, 400])
def test_distance_is_homogeneous_under_powers_of_four(dim, k):
    # d(4^k A, 4^k B) = 2^k d(A, B) bit for bit, lone and stacked: at
    # n = 2 each matrix is scaled by a power of four inside the form, and
    # at n >= 3 a pair with k = +-400 is scaled jointly before L* B L
    # (whose entries would pass 1e308 or fall below 1e-308).
    A, B = stacked(draws(lambda rng: (random_pd(rng, dim), random_pd(rng, dim)), 8, dim, count=6))
    want = np.ldexp(_d_bw_arr(A, B), k)
    got = _d_bw_arr(_scaled(A, 2 * k), _scaled(B, 2 * k))
    assert got.tobytes() == want.tobytes()
    assert _d_bw_arr(_scaled(A[0], 2 * k), _scaled(B[0], 2 * k)) == want[0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim", [2, 3])
def test_extreme_scales_give_a_distance_and_no_nan(dim):
    # A and B scaled apart by 2^ea and 2^eb, from 1e-301 to 1e301 and up
    # to 2^2000 apart: every pair gets a finite distance with no numpy
    # warning, lone and stacked, within the bounds
    # |sqrt(tr A) - sqrt(tr B)| <= d <= sqrt(tr A + tr B).
    A, B = stacked(draws(lambda rng: (random_pd(rng, dim), random_pd(rng, dim)), 9, dim, count=3))
    for ea in (-1000, -520, -160, 0, 160, 520, 1000):
        for eb in (-1000, -520, 0, 520, 1000):
            As, Bs = _scaled(A, ea), _scaled(B, eb)
            d = _d_bw_arr(As, Bs)
            assert [_d_bw_arr(a, b) for a, b in zip(As, Bs)] == d.tolist()
            ta, tb = (np.trace(X, axis1=-2, axis2=-1).real for X in (As, Bs))
            lo, hi = np.abs(np.sqrt(ta) - np.sqrt(tb)), np.sqrt(ta + tb)
            assert np.all((lo * (1.0 - 1e-12) <= d) & (d <= hi * (1.0 + 1e-12))), (ea, eb)


def _mp_d_bw(A, B):
    # The trace form at 50 digits, where its cancellation costs nothing.
    def mat(X):
        return mp.matrix([[mp.mpc(z.real, z.imag) for z in row] for row in X.tolist()])

    with mp.workdps(50):
        Am, Bm = mat(A), mat(B)
        Ah = mp.sqrtm(Am)
        S = mp.sqrtm(Ah * Bm * Ah)
        radicand = sum(Am[i, i] + Bm[i, i] - 2 * S[i, i] for i in range(Am.rows))
        return mp.sqrt(mp.re(radicand))


def test_near_pair_distance_against_mpmath(pd):
    A = pd([[2.0, 0.5 - 0.25j], [0.5 + 0.25j, 1.0]])
    B = pd(A.mat + 1e-6 * np.array([[1.0, 0.5j], [-0.5j, -0.75]]))
    want = _mp_d_bw(A.mat, B.mat)
    assert float(abs(d_bw(A, B) - want) / want) <= 1e-8


def test_self_distance_at_large_condition_number(pd):
    A = pd(np.diag([10.0, 2e12]))
    assert d_bw(A, A) == 0.0


def test_distance_of_a_pair_of_large_condition_number_against_mpmath(pd):
    # The pair whose geodesic accrual check once raised through the frame
    # (tests/test_cli.py): its distance is within one rounding of 50 digits
    # (measured 0.28 eps).
    A = pd(np.diag([10.0, 2e12]))
    B = pd([[2.0, 1.0], [1.0, 3.0]])
    want = _mp_d_bw(A.mat, B.mat)
    assert float(abs(d_bw(A, B) - want) / want) <= np.finfo(float).eps
