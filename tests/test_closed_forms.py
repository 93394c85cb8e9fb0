"""The 2x2 closed forms (``means._closed2``): the geometric, Wasserstein,
harmonic and spectral geometric means, the Bures-Wasserstein geodesic's
Q = A^(-1) # B and its points, the pencil form
A sigma_f B = f(mu_1) A + f[mu_1, mu_2] (B - mu_1 A) of m_p and the
trace-metric geodesic (``means._pencil2``), and the conventional power mean
on the parts of its three 2x2 powers.

Each form is checked against the 50-digit mpmath references of
``mp_oracle.py``, which take the A^(+-1/2) frame through mpmath's Hermitian
eigensolver and so share nothing with the forms; its lone route (Python
floats) against its stacked route (arrays), bit for bit; its power-of-two
prescaling against exact homogeneity; and its guards, which turn a
determinant that is not finite and positive into PositivityError, and a
power past _POW_LOG_LIMIT into DomainError, instead of a NaN.
"""

import functools
import re

import numpy as np
import pytest

from meanlab import (
    GEODESIC_BW,
    GEODESIC_TRACE,
    GEOMETRIC,
    HARMONIC,
    SPECTRAL_GEOMETRIC,
    WASSERSTEIN,
    DomainError,
    GeodesicKind,
    HermitianMatrix,
    PdMatrix,
    PositivityError,
    conventional_power,
    geodesic,
    kubo_ando_power,
    mean,
    rng_for,
)
from meanlab import means
from meanlab.geometry import _certified_points, _curve_points
from meanlab.matcore import _pow_arr, _sym
from meanlab.means import (
    P_MIN,
    TAG_WASSERSTEIN,
    _bw_points2,
    _bw_q2,
    _closed2,
    _geometric2,
    _harmonic2,
    _mean_arr,
    _pencil2,
    _power_f,
    _power_mean_f,
    _spectral_geometric2,
    _wasserstein2,
)
from meanlab.sampling import pd_stacks

from mp_oracle import reference, relative_error, spectral

EPS = np.finfo(float).eps
FORMS = {
    "geometric": _geometric2, "wasserstein": _wasserstein2, "bw-q": _bw_q2, "harmonic": _harmonic2,
    "spectral-geometric": _spectral_geometric2,
}
# The Bures-Wasserstein geodesic's points, one result per t.
BW_TS = (0.1, 0.3, 0.5, 0.9)
BW_POINTS = functools.partial(_bw_points2, BW_TS)
# The pencil form's functions: g_p for m_p, and x^t.
PENCILS = {
    "m_0.5": functools.partial(_power_mean_f, 0.5),
    "m_-0.5": functools.partial(_power_mean_f, -0.5),
    "trace-0.3": functools.partial(_power_f, 0.3),
}


def _corpus():
    # 8 pairs per cell; kappa per matrix 1e2 ... 1e11, ungraded
    # (U diag(1, kappa) U*) and graded (D M D with M well conditioned and
    # D = diag(1, kappa^(-1/2))).
    rng = rng_for(23)
    pairs = []
    for k in range(2, 12):
        D = np.diag([1.0, 10.0 ** (-k / 2)])
        for _ in range(8):
            pairs.append((spectral(rng, (1.0, 10.0**k)), spectral(rng, (1.0, 10.0**k))))
            pairs.append((D @ spectral(rng, (1.0, 4.0)) @ D, D @ spectral(rng, (1.0, 3.0)) @ D))
    return pairs


def _mp_references(A, B):
    # The 50-digit reference of each form, each pencil and BW_TS's points.
    pencils = {"m_0.5": ("kubo-ando-power", 0.5), "m_-0.5": ("kubo-ando-power", -0.5), "trace-0.3": ("geodesic_trace", 0.3)}
    refs = {name: reference(A, B, *pencils.get(name, (name,))) for name in [*FORMS, *pencils]}
    return {**refs, "bw-points": [reference(A, B, "geodesic_bw", t) for t in BW_TS]}


@pytest.mark.filterwarnings("error")
def test_closed_forms_meet_mpmath_over_the_conditioning_corpus():
    # Measured worst over the 160 pairs: the Wasserstein form 1.72 eps
    # relative; the geometric form 0.068 eps kappa and Q 0.074 eps kappa,
    # kappa the larger condition number of the pair. On the same corpus the
    # A^(+-1/2) frame route erred up to 2.6e7 eps kappa for the geometric
    # mean (its error grows like eps kappa^2), and of the 64 pairs with
    # kappa >= 1e8 it raised PositivityError on 16 and the T-form on 36.
    # The harmonic form keeps the pins of the pencil form it replaced. The
    # spectral geometric form, (c^2 A + c (AQ + QA) + B) / (tr Q + 2c) on
    # Q's, measured 0.0264 eps kappa, where Q's root on the spectral route
    # gave 0.0353. The BW geodesic's points on Q's closed form, at BW_TS,
    # measured 0.0263 eps kappa: worse than the 0.0115 of the matrix
    # products (AQ + QA by matmul, then symmetrized) they replaced, and
    # pinned there.
    worst = dict.fromkeys([*FORMS, "bw-points"], 0.0)
    graded = 0.0
    for i, (A, B) in enumerate(_corpus()):
        kappa = max(np.linalg.cond(A), np.linalg.cond(B))
        refs = _mp_references(A, B)
        for name, form in {**FORMS, "bw-points": BW_POINTS}.items():
            for P, ref in zip(_closed2(form, A, B), refs[name] if name == "bw-points" else [refs[name]]):
                err = relative_error(P, ref)
                worst[name] = max(worst[name], err / (EPS if name == "wasserstein" else EPS * kappa))
            if name == "harmonic" and i % 2:
                graded = max(graded, err / EPS)
    assert worst["wasserstein"] <= 4.0
    assert worst["geometric"] <= 0.1 and worst["bw-q"] <= 0.1
    assert worst["harmonic"] <= 0.2 and graded <= 4.0
    assert worst["spectral-geometric"] <= 0.03 and worst["bw-points"] <= 0.03


@pytest.mark.filterwarnings("error")
def test_pencil_form_meets_mpmath_over_the_conditioning_corpus():
    # Measured worst over the 160 pairs: 0.136 eps kappa (m_-0.5), kappa
    # the larger condition number of the pair, and 2.52 eps on the graded
    # pairs. On the same corpus the A^(+-1/2) frame route erred up to 1.1e9
    # eps kappa (m_-0.5) and 2e10 eps on graded pairs (the harmonic mean),
    # and raised PositivityError on 16 pairs for m_+-0.5 and the geodesic.
    worst = dict.fromkeys(PENCILS, 0.0)
    graded = dict.fromkeys(PENCILS, 0.0)
    for i, (A, B) in enumerate(_corpus()):
        kappa = max(np.linalg.cond(A), np.linalg.cond(B))
        refs = _mp_references(A, B)
        outs = _closed2(functools.partial(_pencil2, tuple(PENCILS.values())), A, B)
        for name, P in zip(PENCILS, outs):
            err = relative_error(P, refs[name])
            worst[name] = max(worst[name], err / (EPS * kappa))
            if i % 2:
                graded[name] = max(graded[name], err / EPS)
    assert max(worst.values()) <= 0.2
    assert max(graded.values()) <= 4.0


def _special_pairs():
    # Off-diagonal b = 0 on either side or both, scalar matrices, commuting
    # pairs (B a polynomial in A), and graded or ill-conditioned ones.
    rng = rng_for(25)
    A = spectral(rng, (1.0, 7.0))
    D = np.diag([3.0, 0.5]).astype(complex)
    pairs = [
        (D, A), (A, D), (D, np.diag([0.25, 9.0]).astype(complex)), (2.0 * np.eye(2), 5.0 * np.eye(2)),
        (np.eye(2), A), (A, A), (A, 3.0 * A + np.eye(2)), (A, A @ A), (A, 0.5 * A),
    ]
    return pairs + _corpus()[::7]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(FORMS) + ["bw-points"])
def test_stacked_closed_forms_equal_the_lone_ones_bit_for_bit(name):
    # 2000 random pairs and the special ones, as two stacks, and one A
    # against a stack of B; compared byte for byte, the sign of a zero
    # included, for each result (one per t for the BW geodesic's points).
    form = FORMS.get(name, BW_POINTS)
    A, B = pd_stacks(0, 26, dim=2, k=2, count=2000)
    special = _special_pairs()
    A = np.concatenate([A, [a for a, _ in special]])
    B = np.concatenate([B, [b for _, b in special]])
    stacked = _closed2(form, A, B)
    assert all(X.shape == A.shape for X in stacked)
    for i, (a, b) in enumerate(zip(A, B)):
        assert [X.tobytes() for X in _closed2(form, a, b)] == [X[i].tobytes() for X in stacked]
    against = _closed2(form, A[0], B[:50])
    for j, X in enumerate(against):
        assert X.tobytes() == np.array([_closed2(form, A[0], b)[j] for b in B[:50]]).tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(FORMS) + sorted(PENCILS) + ["bw-points"])
@pytest.mark.parametrize("a, d", [(2.0, 5.0), (3.0, 3.0), (5.0, 2.0)])
def test_closed_forms_of_diagonal_pairs_have_unsigned_off_diagonal_parts(name, a, d):
    # A diagonal pair's result has Re z = Im z = +0.0 (and so Re conj z),
    # lone and stacked: no form turns a zero off the diagonal into -0.0.
    form = FORMS.get(name) or (BW_POINTS if name == "bw-points" else functools.partial(_pencil2, (PENCILS[name],)))
    A = np.diag([a, d]).astype(complex)
    B = np.diag([3.0, 1.0]).astype(complex)
    for X, Y in ((A, B), (A[None], B[None]), (A, np.array([B, A]))):
        for M in _closed2(form, X, Y):
            parts = np.array([M[..., 0, 1].real, M[..., 0, 1].imag, M[..., 1, 0].real])
            assert not np.signbit(parts).any() and not parts.any()


# Pencil functions for the bit-for-bit test: the ends p = +-1 and +-P_MIN of
# the power family, and t = 0 and 1 of the geodesic, besides PENCILS.
PENCIL_EDGES = {
    **PENCILS,
    **{f"m_{p:g}": functools.partial(_power_mean_f, p) for p in (1.0, -1.0, P_MIN, -P_MIN)},
    "trace-0-1": (functools.partial(_power_f, 0.0), functools.partial(_power_f, 1.0)),
}


def _near_pairs():
    # B = (1 + delta) A for delta = 1e-1 ... 1e-15, where the roots of the
    # pencil merge.
    A = pd_stacks(0, 29, dim=2, k=1, count=15)[0]
    return [(a, (1.0 + 10.0**-k) * a) for k, a in enumerate(A, start=1)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(PENCIL_EDGES))
def test_stacked_pencil_form_equals_the_lone_one_bit_for_bit(name):
    # 2000 random pairs, the special ones and the merging ones, as two
    # stacks, and one A against a stack of B; compared byte for byte, the
    # sign of a zero included.
    fs = PENCIL_EDGES[name]
    fs = fs if isinstance(fs, tuple) else (fs,)
    A, B = pd_stacks(0, 26, dim=2, k=2, count=2000)
    special = _special_pairs() + _near_pairs()
    A = np.concatenate([A, [a for a, _ in special]])
    B = np.concatenate([B, [b for _, b in special]])
    stacked = _closed2(functools.partial(_pencil2, fs), A, B)
    for i, (a, b) in enumerate(zip(A, B)):
        lone = _closed2(functools.partial(_pencil2, fs), a, b)
        assert [X.tobytes() for X in lone] == [S[i].tobytes() for S in stacked]
    against = _closed2(functools.partial(_pencil2, fs), A[0], B[:50])
    for j, X in enumerate(against):
        assert X.tobytes() == np.array([_closed2(functools.partial(_pencil2, fs), A[0], b)[j] for b in B[:50]]).tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("stacked", [False, True])
def test_prescaling_keeps_the_bits_of_exact_homogeneity(stacked):
    # Diagonals outside [2^-500, 2^500) are scaled by a power of four first,
    # so det A neither overflows nor underflows. Scaling by powers of two is
    # exact, so A # B, the Wasserstein mean and the pencil forms of
    # (c A, c B) are c times those of (A, B) bit for bit, A # B of (c A, B)
    # is sqrt(c) times, and Q is homogeneous of degree 0 jointly and -1/2
    # in A alone; for c = 2^600 and c = 2^-540.
    A, B = pd_stacks(0, 27, dim=2, k=2, count=20)
    if not stacked:
        A, B = A[0], B[0]
    fs = tuple(PENCILS.values())
    for c, root in ((2.0**600, 2.0**300), (2.0**-540, 2.0**-270)):
        for form, X, Y in (
            (_geometric2, (c * A, c * B), c),
            (_wasserstein2, (c * A, c * B), c),
            (_harmonic2, (c * A, c * B), c),
            (_geometric2, (c * A, B), root),
            (_bw_q2, (c * A, c * B), 1.0),
            (_bw_q2, (c * A, B), 1.0 / root),
            (_spectral_geometric2, (c * A, c * B), c),
        ):
            assert _closed2(form, *X)[0].tobytes() == (Y * _closed2(form, A, B)[0]).tobytes()
        for form in (functools.partial(_pencil2, fs), BW_POINTS):
            for X, Y in zip(_closed2(form, c * A, c * B), _closed2(form, A, B)):
                assert X.tobytes() == (c * Y).tobytes()


def _public(kind, A, B):
    # The certified mean, or the geodesic's point at t = 0.3.
    return geodesic(kind, A, B, 0.3) if isinstance(kind, GeodesicKind) else mean(kind, A, B)


# The certificate's norm squares overflow and are taken again scaled, with
# no numpy warning.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "kind",
    [GEOMETRIC, WASSERSTEIN, HARMONIC, SPECTRAL_GEOMETRIC, kubo_ando_power(0.5), kubo_ando_power(-0.5), GEODESIC_BW],
    ids=lambda k: k.label,
)
@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_means_of_huge_pairs_are_certified(kind, scale):
    # det A would overflow past entries of about 1.3e154; the A^(+-1/2)
    # route took the geometric mean of such pairs, and the Wasserstein
    # mean raised PositivityError there.
    A = PdMatrix.certify(HermitianMatrix(scale * np.diag([1.0, 2.0])))
    B = PdMatrix.certify(HermitianMatrix(scale * np.array([[2.0, 1.0], [1.0, 3.0]])))
    small = _public(kind, PdMatrix.certify(np.diag([1.0, 2.0])), PdMatrix.certify(np.array([[2.0, 1.0], [1.0, 3.0]])))
    assert np.allclose(_public(kind, A, B).mat / scale, small.mat, rtol=1e-14, atol=0.0)


TINY_KINDS = [
    GEOMETRIC, WASSERSTEIN, HARMONIC, SPECTRAL_GEOMETRIC, kubo_ando_power(0.5), kubo_ando_power(-0.5), GEODESIC_TRACE,
    GEODESIC_BW,
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", TINY_KINDS, ids=lambda k: k.label if hasattr(k, "label") else "trace-0.3")
@pytest.mark.parametrize("scale", [1e-160, 1e-170, 2.0**-540, 1e-300], ids=["1e-160", "1e-170", "2^-540", "1e-300"])
def test_means_of_tiny_pairs_keep_their_digits(kind, scale):
    # Below about 1e-154 det A is subnormal and below 1e-162 it is 0, so
    # without the prescaling these pairs raised PositivityError or lost
    # digits. Too small to certify, so the routes are called directly,
    # lone and stacked.
    def call(A, B):
        if isinstance(kind, GeodesicKind):
            return _curve_points(kind, A, B, (0.3,))[0]
        return _mean_arr(kind, A, B)

    A = np.diag([1.0, 2.0]).astype(complex)
    B = np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex)
    unit = call(A, B)
    assert np.allclose(call(scale * A, scale * B) / scale, unit, rtol=1e-14, atol=0.0)
    assert np.allclose(call(np.array([scale * A, A]), np.array([scale * B, B]))[0] / scale, unit, rtol=1e-14, atol=0.0)


@pytest.mark.filterwarnings("error")
def test_harmonic_mean_of_pairs_far_apart_in_scale():
    # rho = sqrt(det B / det A) = 1e306 and 1.6e305 for these pairs, and
    # the harmonic form takes no power: 2 (A^-1 + B^-1)^-1 is about 2A.
    I = np.eye(2, dtype=complex)
    assert np.allclose(_mean_arr(HARMONIC, 1e-153 * I, 1e153 * I), 2e-153 * I, rtol=1e-14, atol=0.0)
    A = np.diag([1.0, 2.0])
    B = 1e305 * np.array([[2.0, 1.0], [1.0, 3.0]])
    H = mean(HARMONIC, PdMatrix.certify(A), PdMatrix.certify(B))
    assert H.min_eigenvalue > 0.0
    assert relative_error(H.mat, 2.0 * np.linalg.inv(np.linalg.inv(A) + np.linalg.inv(B))) < 1e-15


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a, b", [(1e-8, 1e300), (1e300, 1e-8)], ids=["mu-past-max", "mu-subnormal"])
def test_harmonic_mean_of_pairs_whose_pencil_roots_leave_the_float_range(a, b):
    # A = a diag(1, 2) and B = b [[2, 1], [1, 3]] are certified, and their
    # harmonic mean is representable, but the pencil roots are not: mu_2 is
    # past the largest float for the first pair and mu_1 is subnormal for
    # the second, where the pencil form raised DomainError. The harmonic
    # form needs only rho = 1.6e308 and 1.6e-308 and their inverses finite.
    A = np.diag([a, 2.0 * a])
    B = b * np.array([[2.0, 1.0], [1.0, 3.0]])
    want = 2.0 * np.linalg.inv(np.linalg.inv(A) + np.linalg.inv(B))
    H = mean(HARMONIC, PdMatrix.certify(A), PdMatrix.certify(B))
    assert relative_error(H.mat, want) < 1e-15
    stacked = _mean_arr(HARMONIC, np.array([A, A]).astype(complex), np.array([B, B]).astype(complex))
    assert stacked[0].tobytes() == _mean_arr(HARMONIC, A.astype(complex), B.astype(complex)).tobytes()


# Nearly singular: det rounds to 0 (a rank-one matrix), and below 0 (the
# off-diagonal one ulp past the diagonal).
NEARLY_SINGULAR = [
    (np.array([[1.0, 1.0], [1.0, 1.0]]), "0.000e+00"),
    (np.array([[1.0, 1.0 + 2.0**-52], [1.0 + 2.0**-52, 1.0]]), "-4.441e-16"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad, det", NEARLY_SINGULAR, ids=["zero", "negative"])
def test_a_nearly_singular_pair_raises_a_typed_error_never_a_nan(bad, det):
    # On either side, lone, inside a stack, and as the lone side against a
    # stack: PositivityError naming the determinant, with no numpy warning.
    bad = bad.astype(complex)
    good = pd_stacks(0, 28, dim=2, k=1, count=3)[0]
    message = f"^{re.escape(f'2x2 closed form needs a finite positive determinant, got {det}')}$"
    stack = np.array([good[0], bad, good[2]])
    for A, B in ((bad, good[1]), (good[1], bad), (stack, good), (good, stack), (bad, good)):
        for call in (
            lambda: _mean_arr(GEOMETRIC, A, B),
            lambda: _mean_arr(WASSERSTEIN, A, B),
            lambda: _curve_points(GEODESIC_BW, A, B, (0.25, 0.5)),
            lambda: _mean_arr(HARMONIC, A, B),
            lambda: _mean_arr(kubo_ando_power(0.5), A, B),
            lambda: _mean_arr(kubo_ando_power(-0.5), A, B),
            lambda: _curve_points(GEODESIC_TRACE, A, B, (0.25, 0.5)),
        ):
            with pytest.raises(PositivityError, match=message):
                call()


# Pairs whose pencil roots put a power past _POW_LOG_LIMIT = 700, with the
# power and root _power_guard would name. A = I and B = 1e305 I give
# mu = 1e305: |-1 log mu| = 702.3 for m_-1, and |1 log mu| for the geodesic
# at t = 1. m_0.5 passes mu^0.5 (|p log mu| = 351) but
# k = (1 + mu^0.5)/2 = 1.58e152 fails its square (|log k / p| = 700.8);
# m_-0.5 the same at mu = 1e-305, from A = 1e152 I and B = 1e-153 I. Then,
# for each pencil kind, roots that leave the normal float range, as the
# roots guard names them: mu = 1e315 overflows (A = 1e-10 I, B = 1e305 I)
# and mu = 1e-310 is subnormal (A = 1e155 I, B = 1e-155 I). The harmonic
# form takes no root and no power, only rho = sqrt(det B / det A) and
# 1/rho: rho = 1e315 overflows on the first pair, and on the second
# rho = 1e-310 is kept but 1/rho overflows.
I2 = np.eye(2, dtype=complex)
PENCIL_CALLS = {
    "m_0.5": lambda A, B: _mean_arr(kubo_ando_power(0.5), A, B),
    "m_-0.5": lambda A, B: _mean_arr(kubo_ando_power(-0.5), A, B),
    "trace": lambda A, B: _curve_points(GEODESIC_TRACE, A, B, (0.0, 0.3)),
}
ROOTS = "2x2 pencil form needs roots in the normal float range, got {}"
RATIO = "2x2 harmonic form needs sqrt(det B / det A) and its inverse finite, got {}"
OVERFLOWS = [
    (lambda A, B: _mean_arr(kubo_ando_power(-1.0), A, B), I2, 1e305 * I2, "power -1.0 overflows at eigenvalue 1.000e+305"),
    (lambda A, B: _curve_points(GEODESIC_TRACE, A, B, (0.5, 1.0)), I2, 1e305 * I2, "power 1.0 overflows at eigenvalue 1.000e+305"),
    (lambda A, B: _mean_arr(kubo_ando_power(0.5), A, B), I2, 1e305 * I2, "power 2.0 overflows at eigenvalue 1.581e+152"),
    (lambda A, B: _mean_arr(kubo_ando_power(-0.5), A, B), 1e152 * I2, 1e-153 * I2, "power -2.0 overflows at eigenvalue 1.581e+152"),
    (lambda A, B: _mean_arr(HARMONIC, A, B), 1e-10 * I2, 1e305 * I2, RATIO.format("inf and 1.000e-315")),
    *((call, 1e-10 * I2, 1e305 * I2, ROOTS.format("inf and inf")) for call in PENCIL_CALLS.values()),
    (lambda A, B: _mean_arr(HARMONIC, A, B), 1e155 * I2, 1e-155 * I2, RATIO.format("1.000e-310 and inf")),
    *((call, 1e155 * I2, 1e-155 * I2, ROOTS.format("1.000e-310 and 1.000e-310")) for call in PENCIL_CALLS.values()),
]
OVERFLOW_IDS = ["m_-1", "trace-t1", "m_0.5-k", "m_-0.5-k"]
OVERFLOW_IDS += [f"{name}-{where}" for where in ("mu-overflow", "mu-subnormal") for name in ("harmonic", *PENCIL_CALLS)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, A, B, message", OVERFLOWS, ids=OVERFLOW_IDS)
def test_a_power_or_root_out_of_range_raises_domain_error_never_a_nan(call, A, B, message):
    # Lone, as the middle pair of a stack, and with A against a stack of B:
    # DomainError in _power_guard's, the roots guard's or the harmonic
    # form's words, with no numpy warning.
    pattern = f"^{re.escape(message)}$"
    with pytest.raises(DomainError, match=pattern):
        call(A, B)
    for As, Bs in ((np.array([2.0 * A, A, 3.0 * A]), np.array([2.0 * A, B, 3.0 * A])), (A, np.array([2.0 * A, B, B]))):
        with pytest.raises(DomainError, match=pattern):
            call(As, Bs)



@pytest.mark.parametrize("p", [0.5, -0.5, 1.0, -1.0, 0.3])
def test_conventional_power_mean_at_n_2_has_the_bits_of_its_three_powers(p):
    # ((A^p + B^p)/2)^(1/p) on the parts of its 2x2 powers, byte for byte
    # the three _pow_arr calls composed by hand, symmetrization included:
    # lone, stacked, and one A against a stack of B.
    A, B = pd_stacks(0, 31, dim=2, k=2, count=300)
    special = _special_pairs()
    A = np.concatenate([A, [a for a, _ in special]])
    B = np.concatenate([B, [b for _, b in special]])
    kind = conventional_power(p)

    def by_hand(X, Y):
        return _pow_arr(_sym((_pow_arr(X, p) + _pow_arr(Y, p)) / 2.0), 1.0 / p)

    assert _mean_arr(kind, A, B).tobytes() == by_hand(A, B).tobytes()
    for a, b in zip(A, B):
        assert _mean_arr(kind, a, b).tobytes() == by_hand(a, b).tobytes()
    assert _mean_arr(kind, A[0], B[:50]).tobytes() == by_hand(A[0], B[:50]).tobytes()


def test_the_bw_geodesic_at_n_2_does_not_take_the_wasserstein_form(monkeypatch):
    # Criterion 10 compares the geodesic's midpoint with the Wasserstein
    # mean, so the point must come by its own formula: with the Wasserstein
    # form refused, lone points and stacked certified points still run.
    A, B = (PdMatrix.certify(X[0]) for X in pd_stacks(0, 32, dim=2, k=2, count=1))
    want = geodesic(GEODESIC_BW, A, B, 0.5).mat

    def refused(*args):
        raise AssertionError("the Wasserstein form was called")

    monkeypatch.setattr(means, "_wasserstein2", refused)
    monkeypatch.setitem(means._CLOSED2, TAG_WASSERSTEIN, refused)
    assert geodesic(GEODESIC_BW, A, B, 0.5).mat.tobytes() == want.tobytes()
    As, Bs = pd_stacks(0, 33, dim=2, k=2, count=20)
    points = _certified_points(GEODESIC_BW, As, Bs, (0.0, 0.5, 1.0))
    assert points.shape == (3, 20, 2, 2)
    with pytest.raises(AssertionError, match="Wasserstein form"):
        _mean_arr(WASSERSTEIN, As, Bs)
