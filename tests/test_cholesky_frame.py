"""The Cholesky frame of the means at n >= 3 (``matcore._cholesky``).

With A = L L*, every Kubo-Ando mean is A sigma B = L f(N) L* for
N = L^(-1) B L^(-*), and Q = A^(-1) # B = L^(-*) S L^(-1) for
S = (L* B L)^(1/2) (Kubo & Ando, Math. Ann. 246, 1980). The factor and its
inverse are bespoke: one column loop that the positivity proof shares, and
a triangular inverse, each one body for a lone matrix (Python floats) and
for a stack (arrays).

Each re-routed quantity is checked against the 50-digit mpmath references
of ``mp_oracle.py``, which take the A^(+-1/2) frame through mpmath's
Hermitian eigensolver and so share nothing with the frame; its lone route
against its stacked route, bit for bit; and the factor's guard, which turns
a pivot that is not a finite positive number into PositivityError instead
of a NaN. The Bures-Wasserstein distance, ||L^(-*)(S - L* L)||_F on the
frame and a closed form at n = 2, is checked against the same references at
n = 2, 3 and 4.
"""

import math
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
    PdMatrix,
    PositivityError,
    d_bw,
    geodesic,
    kubo_ando_power,
    mean,
    rng_for,
)
from meanlab import matcore
from meanlab.geometry import _curve_points, _d_bw_arr
from meanlab.matcore import _sym
from meanlab.means import _mean_arr, _q_arr
from meanlab.sampling import pd_stacks

from mp_oracle import reference, relative_error, spectral

EPS = np.finfo(float).eps
QUANTITIES = {
    "geometric": lambda A, B: _mean_arr(GEOMETRIC, A, B),
    "m_0.5": lambda A, B: _mean_arr(kubo_ando_power(0.5), A, B),
    "m_-0.5": lambda A, B: _mean_arr(kubo_ando_power(-0.5), A, B),
    "harmonic": lambda A, B: _mean_arr(HARMONIC, A, B),
    "wasserstein": lambda A, B: _mean_arr(WASSERSTEIN, A, B),
    "spectral-geometric": lambda A, B: _mean_arr(SPECTRAL_GEOMETRIC, A, B),
    "bw-q": _q_arr,
    "trace-0.3": lambda A, B: _curve_points(GEODESIC_TRACE, A, B, (0.3,))[0],
}
# The oracle's name and parameters for the quantities it names otherwise.
REFERENCES = {"m_0.5": ("kubo-ando-power", 0.5), "m_-0.5": ("kubo-ando-power", -0.5), "trace-0.3": ("geodesic_trace", 0.3)}
CONDITIONS = (1e2, 1e4, 1e6, 1e8, 1e10)


def _spectral(rng, n, kappa):
    # U diag(1 ... kappa) U* for a unitary U with complex phases.
    return spectral(rng, np.logspace(0.0, math.log10(kappa), n))


def _corpus(n):
    # Two pairs per cell at size n: kappa per matrix 1e2 ... 1e10, ungraded
    # (U diag(1 ... kappa) U*) and graded (D M D with M well conditioned and
    # D = diag(1 ... kappa^(-1/2))); (A, B, graded).
    rng = rng_for(41, n)
    pairs = []
    for kappa in CONDITIONS:
        D = np.diag(kappa ** (-np.arange(n) / (2.0 * (n - 1))))
        for _ in range(2):
            pairs.append((_spectral(rng, n, kappa), _spectral(rng, n, kappa), False))
            pairs.append((_sym(D @ _spectral(rng, n, 4.0) @ D), _sym(D @ _spectral(rng, n, 3.0) @ D), True))
    return pairs


# Each pin is the measured worst over both sizes times 1.5: the error over
# eps kappa(A) kappa(B) for ungraded pairs, and over eps for graded ones,
# where the frame keeps the Kubo-Ando kinds at roundoff (the A^(+-1/2)
# frame erred up to 1.3e7 eps for m_-0.5 and 6.7e9 eps for the harmonic
# mean on this corpus). Q, and the two means built on it, take the root of
# L* B L, whose condition is that of AB, so their graded errors are scaled
# as ungraded ones are. Measured worst (dim 3 / dim 4), with the A^(+-1/2)
# frame's in brackets where it answered the same pairs: ungraded geometric
# 0.025 / 0.0048 (0.50 / 0.0047), m_0.5 0.0020 / 0.0019, m_-0.5
# 0.0092 / 0.0050 (0.84 / 0.0051), harmonic 0.0010 / 0.00029, Wasserstein
# 0.0020 / 0.0054, spectral geometric 0.0046 / 0.015, Q 0.039 / 0.058,
# trace geodesic 0.042 / 0.0057; graded geometric 25 / 15, m_0.5 22 / 14,
# m_-0.5 28 / 19, harmonic 1.2 / 1.8, trace geodesic 15 / 10, Wasserstein
# 0.00059 / 0.0069, spectral geometric 0.0011 / 0.015, Q 0.077 / 0.23. At
# dim 4 the frame answers ungraded pairs at kappa = 1e10 on which the
# A^(+-1/2) frame raised, and those set its worst there.
UNGRADED_PINS = {
    "geometric": 0.037, "m_0.5": 0.003, "m_-0.5": 0.014, "harmonic": 0.0016, "wasserstein": 0.008,
    "spectral-geometric": 0.023, "bw-q": 0.087, "trace-0.3": 0.062,
}
GRADED_PINS = {"geometric": 37.0, "m_0.5": 33.0, "m_-0.5": 42.0, "harmonic": 2.6, "trace-0.3": 22.0}
GRADED_Q_PINS = {"wasserstein": 0.0104, "spectral-geometric": 0.022, "bw-q": 0.34}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [3, 4])
def test_the_frame_meets_mpmath_over_the_conditioning_corpus(n):
    # A pair may raise PositivityError only at kappa >= 1e8, where an
    # eigenvalue of N or of L* B L falls below the Jacobi threshold; every
    # other pair answers within its pin.
    worst = {}
    for A, B, graded in _corpus(n):
        kappa = np.linalg.cond(A) * np.linalg.cond(B)
        for name, call in QUANTITIES.items():
            try:
                P = call(A, B)
            except PositivityError:
                assert max(np.linalg.cond(A), np.linalg.cond(B)) > 1e7, name
                continue
            scale = EPS if graded and name in GRADED_PINS else EPS * kappa
            key = (name, graded)
            ref = reference(A, B, *REFERENCES.get(name, (name,)))
            worst[key] = max(worst.get(key, 0.0), relative_error(P, ref) / scale)
    for name in QUANTITIES:
        assert worst[name, False] <= UNGRADED_PINS[name], name
        assert worst[name, True] <= {**GRADED_PINS, **GRADED_Q_PINS}[name], name


# The distance's pins, each the measured worst times 1.5. At n = 2 the
# closed form's relative error over eps, ungraded and graded (measured 0.86
# and 10.7; the A^(+-1/2) frame erred up to 1.7e9 and 4.5e5 eps there and
# raised on 5 pairs). At n = 3 and 4 the frame's over eps kappa(A) kappa(B)
# (measured ungraded 0.0041 / 0.0087, graded 0.0046 / 0.033; the A^(+-1/2)
# frame 0.00097 / 0.00041 and 0.0019 / 0.011 on the pairs it answered,
# 7.3e6 against 3.7e6 eps at worst ungraded at n = 3). Near pairs
# B = A + delta E, kappa(A) = 1e4: the absolute error over
# eps sqrt(tr A + tr B) (measured 10.4 at n = 2, where the frame read 1.2e5,
# and 2.4e5 at n = 3 and 4, as the frame).
D_BW_PINS = {2: (1.3, 16.0), 3: (0.013, 0.05), 4: (0.013, 0.05)}
NEAR_PINS = {2: 16.0, 3: 3.6e5, 4: 3.6e5}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [2, 3, 4])
def test_d_bw_meets_mpmath_over_the_conditioning_corpus(n):
    # A pair may raise PositivityError only at n >= 3 and kappa >= 1e8, as
    # the Q-based quantities above; at n = 2 every pair answers.
    worst = {False: 0.0, True: 0.0}
    for A, B, graded in _corpus(n):
        kappa = np.linalg.cond(A) * np.linalg.cond(B)
        want = reference(A, B, "d_bw")
        try:
            d = float(_d_bw_arr(A, B))
        except PositivityError:
            assert n >= 3 and max(np.linalg.cond(A), np.linalg.cond(B)) > 1e7
            continue
        scale = EPS if n == 2 else EPS * kappa
        worst[graded] = max(worst[graded], float(abs(d - want) / want) / scale)
    assert worst[False] <= D_BW_PINS[n][0] and worst[True] <= D_BW_PINS[n][1]
    rng = rng_for(48, n)
    near = 0.0
    for delta in 10.0 ** -np.arange(2, 15):
        A = _spectral(rng, n, 1e4)
        B = _sym(A + delta * (_spectral(rng, n, 3.0) - 2.0 * np.eye(n)))
        err = abs(float(_d_bw_arr(A, B)) - reference(A, B, "d_bw"))
        near = max(near, float(err) / (EPS * math.sqrt(np.trace(A).real + np.trace(B).real)))
    assert near <= NEAR_PINS[n]


@pytest.mark.filterwarnings("error")
def test_q_quantities_at_entries_near_1e160():
    # L* B L of such a pair would pass 1e308 (numpy's matmul overflow, then
    # ConvergenceFailure); the pair is scaled jointly by a power of two
    # first, so each quantity is its value at the unscaled pair, scaled.
    A, B = pd_stacks(0, 36, dim=3, k=2, count=2)
    big = [PdMatrix.certify(1e160 * X[0]) for X in (A, B)]
    small = [PdMatrix.certify(X[0]) for X in (A, B)]
    for call, power in (
        (lambda P, R: mean(WASSERSTEIN, P, R).mat, 1),
        (lambda P, R: mean(SPECTRAL_GEOMETRIC, P, R).mat, 1),
        (lambda P, R: geodesic(GEODESIC_BW, P, R, 0.3).mat, 1),
        (lambda P, R: d_bw(P, R), 0.5),
    ):
        got, want = call(*big), 1e160**power * call(*small)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    for call, power in ((_q_arr, 0), (lambda P, R: _mean_arr(WASSERSTEIN, P, R), 1), (_d_bw_arr, 0.5)):
        got, want = call(1e160 * A, 1e160 * B), 1e160**power * call(A, B)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want).max())


def _special_pairs(n):
    # Diagonal, scalar and commuting pairs (B a polynomial in A), and a
    # graded one.
    rng = rng_for(43, n)
    A = _spectral(rng, n, 7.0)
    D = np.diag(np.linspace(3.0, 0.5, n)).astype(complex)
    G = np.diag(10.0 ** -np.arange(n))
    return [
        (D, A), (A, D), (D, np.diag(np.linspace(0.25, 9.0, n)).astype(complex)),
        (2.0 * np.eye(n, dtype=complex), 5.0 * np.eye(n, dtype=complex)),
        (A, A), (A, 3.0 * A + np.eye(n)), (A, A @ A), (_sym(G @ A @ G), _sym(G @ _spectral(rng, n, 3.0) @ G)),
    ]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("name", sorted(QUANTITIES))
def test_stacked_frame_routes_equal_the_lone_ones_bit_for_bit(name, n):
    # 40 random pairs and the special ones, as two stacks, and one A against
    # a stack of B; compared byte for byte, the sign of a zero included.
    call = QUANTITIES[name]
    A, B = pd_stacks(0, 44, n, dim=n, k=2, count=40)
    special = _special_pairs(n)
    A = np.concatenate([A, [a for a, _ in special]])
    B = np.concatenate([B, [b for _, b in special]])
    stacked = call(A, B)
    assert stacked.shape == A.shape
    for a, b, X in zip(A, B, stacked):
        assert call(a, b).tobytes() == X.tobytes()
    against = call(A[0], B[:10])
    assert against.tobytes() == np.array([call(A[0], b) for b in B[:10]]).tobytes()


@pytest.mark.parametrize("n", [1, 3, 4, 6])
def test_the_factor_and_its_inverse(n):
    # L L* = A and L^(-1) L = I to roundoff, both lower triangular with a
    # real positive diagonal, and a stack gives each matrix the bits it
    # gets alone.
    (A,) = pd_stacks(0, 45, n, dim=n, k=1, count=30)
    L, X = matcore._cholesky_frame(A)
    I = np.eye(n)
    assert np.allclose(L @ L.conj().swapaxes(-1, -2), A, rtol=0.0, atol=1e-13 * np.abs(A).max())
    assert np.allclose(X @ L, I, rtol=0.0, atol=1e-13)
    for M in (L, X):
        assert not np.triu(M, 1).any()
        d = np.diagonal(M, axis1=-2, axis2=-1)
        assert (d.real > 0.0).all() and not d.imag.any()
    for a, l, x in zip(A, L, X):
        lone = matcore._cholesky_frame(a)
        assert lone[0].tobytes() == l.tobytes() and lone[1].tobytes() == x.tobytes()


def test_the_frame_and_the_proof_share_one_factor(monkeypatch):
    # _cholesky_frame and _cholesky_proof, lone and stacked, all run
    # matcore._cholesky, on parts: n rows, and a zero of shape () for a
    # lone matrix or (N,) for a stack of N.
    (A,) = pd_stacks(0, 46, dim=3, k=1, count=4)
    calls = []
    original = matcore._cholesky

    def counting(re, im, zero, ops):
        calls.append((len(re), np.shape(zero)))
        return original(re, im, zero, ops)

    monkeypatch.setattr(matcore, "_cholesky", counting)
    matcore._cholesky_frame(A[0])
    matcore._cholesky_frame(A)
    assert matcore._cholesky_proof(A, matcore.pd_tolerance(A)).all()
    assert matcore._cholesky_proof(A[0], matcore.pd_tolerance(A[0]))
    assert calls == [(3, ()), (3, (4,)), (3, (4,)), (3, ())]


# Hand-made inputs whose factorization must stop: an indefinite matrix (the
# second pivot is 1 - 4 = -3), a singular one (the second pivot is 0), a
# negative and a NaN first entry, and an infinite second one.
NOT_PD = [
    (np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), "-3.000e+00"),
    (np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), "0.000e+00"),
    (np.diag([-1.0, 1.0, 1.0]), "-1.000e+00"),
    (np.diag([np.nan, 1.0, 1.0]), "nan"),
    (np.diag([1.0, np.inf, 1.0]), "inf"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad, pivot", NOT_PD, ids=["indefinite", "singular", "negative", "nan", "inf"])
def test_a_pivot_that_is_not_finite_and_positive_raises_positivity_error(bad, pivot):
    # Lone, inside a stack and through a mean's frame: PositivityError
    # naming the pivot, with no numpy warning and no NaN returned.
    bad = bad.astype(complex)
    good = pd_stacks(0, 47, dim=3, k=1, count=2)[0]
    message = f"^{re.escape(f'Cholesky pivot {pivot} is not a finite positive number')}$"
    for call in (
        lambda: matcore._cholesky_frame(bad),
        lambda: matcore._cholesky_frame(np.array([good[0], bad, good[1]])),
        lambda: _mean_arr(GEOMETRIC, bad, good[0]),
        lambda: _mean_arr(WASSERSTEIN, np.array([good[0], bad]), good),
    ):
        with pytest.raises(PositivityError, match=message):
            call()
