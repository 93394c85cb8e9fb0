"""The 2x2 closed forms of the geometric and Wasserstein means and of the
Bures-Wasserstein geodesic's Q = A^(-1) # B (``means._closed2``).

Each form is checked against 50-digit mpmath, whose references take the
A^(+-1/2) frame through mpmath's Hermitian eigensolver and so share nothing
with the forms; its lone route (Python floats) against its stacked route
(arrays), bit for bit; its power-of-two prescaling against exact
homogeneity; and its guard, which turns a determinant that is not finite
and positive into PositivityError instead of a NaN.
"""

import re

import mpmath as mp
import numpy as np
import pytest

from meanlab import (
    GEODESIC_BW,
    GEOMETRIC,
    WASSERSTEIN,
    HermitianMatrix,
    PdMatrix,
    PositivityError,
    mean,
    random_unitary,
    rng_for,
)
from meanlab.geometry import _curve_points
from meanlab.matcore import _sym
from meanlab.means import _bw_q2, _closed2, _geometric2, _mean_arr, _wasserstein2
from meanlab.sampling import pd_stacks

EPS = np.finfo(float).eps
FORMS = {"geometric": _geometric2, "wasserstein": _wasserstein2, "bw-q": _bw_q2}


def _spectral2(rng, lo, hi):
    # U diag(lo, hi) U* for a unitary U with complex phases.
    U = random_unitary(rng, 2)
    return _sym((U * np.array([lo, hi])) @ U.conj().T)


def _corpus():
    # 8 pairs per cell; kappa per matrix 1e2 ... 1e11, ungraded
    # (U diag(1, kappa) U*) and graded (D M D with M well conditioned and
    # D = diag(1, kappa^(-1/2))).
    rng = rng_for(23)
    pairs = []
    for k in range(2, 12):
        D = np.diag([1.0, 10.0 ** (-k / 2)])
        for _ in range(8):
            pairs.append((_spectral2(rng, 1.0, 10.0**k), _spectral2(rng, 1.0, 10.0**k)))
            pairs.append((D @ _spectral2(rng, 1.0, 4.0) @ D, D @ _spectral2(rng, 1.0, 3.0) @ D))
    return pairs


def _mp_references(A, B):
    # A # B, the Wasserstein mean and A^(-1) # B at 50 digits, from the
    # frame of A and the square roots of A^(-1/2) B A^(-1/2) and
    # A^(1/2) B A^(1/2).
    def mpm(X):
        return mp.matrix([[mp.mpc(z.real, z.imag) for z in row] for row in X.tolist()])

    def spectral(M, f):
        E, V = mp.eighe(M)
        return V * mp.diag([f(e) for e in E]) * V.transpose_conj()

    def array(M):
        return np.array([[complex(M[i, j]) for j in range(2)] for i in range(2)])

    with mp.workdps(50):
        Am, Bm = mpm(A), mpm(B)
        E, V = mp.eighe(Am)
        Ah = V * mp.diag([mp.sqrt(e) for e in E]) * V.transpose_conj()
        Aih = V * mp.diag([1 / mp.sqrt(e) for e in E]) * V.transpose_conj()
        S = spectral(Ah * Bm * Ah, mp.sqrt)
        T = Aih * S * Ah
        G = Ah * spectral(Aih * Bm * Aih, mp.sqrt) * Ah
        return {
            "geometric": array(G),
            "wasserstein": array((Am + Bm + T + T.transpose_conj()) / 4),
            "bw-q": array(Aih * S * Aih),
        }


def _relative_error(P, ref):
    s = np.abs(ref).max()
    return np.linalg.norm((P - ref) / s) / np.linalg.norm(ref / s)


@pytest.mark.filterwarnings("error")
def test_closed_forms_meet_mpmath_over_the_conditioning_corpus():
    # Measured worst over the 160 pairs: the Wasserstein form 1.72 eps
    # relative; the geometric form 0.068 eps kappa and Q 0.074 eps kappa,
    # kappa the larger condition number of the pair. On the same corpus the
    # A^(+-1/2) frame route erred up to 2.6e7 eps kappa for the geometric
    # mean (its error grows like eps kappa^2), and of the 64 pairs with
    # kappa >= 1e8 it raised PositivityError on 16 and the T-form on 36.
    worst = dict.fromkeys(FORMS, 0.0)
    for A, B in _corpus():
        kappa = max(np.linalg.cond(A), np.linalg.cond(B))
        refs = _mp_references(A, B)
        for name, form in FORMS.items():
            scale = EPS if name == "wasserstein" else EPS * kappa
            worst[name] = max(worst[name], _relative_error(_closed2(form, A, B), refs[name]) / scale)
    assert worst["wasserstein"] <= 4.0
    assert worst["geometric"] <= 0.1 and worst["bw-q"] <= 0.1


def _special_pairs():
    # Off-diagonal b = 0 on either side or both, scalar matrices, commuting
    # pairs (B a polynomial in A), and graded or ill-conditioned ones.
    rng = rng_for(25)
    A = _spectral2(rng, 1.0, 7.0)
    D = np.diag([3.0, 0.5]).astype(complex)
    pairs = [
        (D, A), (A, D), (D, np.diag([0.25, 9.0]).astype(complex)), (2.0 * np.eye(2), 5.0 * np.eye(2)),
        (np.eye(2), A), (A, A), (A, 3.0 * A + np.eye(2)), (A, A @ A), (A, 0.5 * A),
    ]
    return pairs + _corpus()[::7]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(FORMS))
def test_stacked_closed_forms_equal_the_lone_ones_bit_for_bit(name):
    # 2000 random pairs and the special ones, as two stacks, and one A
    # against a stack of B; compared byte for byte, the sign of a zero
    # included.
    form = FORMS[name]
    A, B = pd_stacks(0, 26, dim=2, k=2, count=2000)
    special = _special_pairs()
    A = np.concatenate([A, [a for a, _ in special]])
    B = np.concatenate([B, [b for _, b in special]])
    stacked = _closed2(form, A, B)
    assert stacked.shape == A.shape
    for a, b, X in zip(A, B, stacked):
        assert _closed2(form, a, b).tobytes() == X.tobytes()
    against = _closed2(form, A[0], B[:50])
    assert against.tobytes() == np.array([_closed2(form, A[0], b) for b in B[:50]]).tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("stacked", [False, True])
def test_prescaling_keeps_the_bits_of_exact_homogeneity(stacked):
    # Diagonals from 2^500 up are scaled by a power of four first, so the
    # squares in det A cannot overflow. Scaling by powers of two is exact,
    # so A # B and the Wasserstein mean of (2^600 A, 2^600 B) are 2^600
    # times those of (A, B) bit for bit, A # B of (2^600 A, B) is 2^300
    # times, and Q is homogeneous of degree 0 jointly and -1/2 in A alone.
    A, B = pd_stacks(0, 27, dim=2, k=2, count=20)
    if not stacked:
        A, B = A[0], B[0]
    c = 2.0**600
    assert _closed2(_geometric2, c * A, c * B).tobytes() == (c * _closed2(_geometric2, A, B)).tobytes()
    assert _closed2(_wasserstein2, c * A, c * B).tobytes() == (c * _closed2(_wasserstein2, A, B)).tobytes()
    assert _closed2(_geometric2, c * A, B).tobytes() == (2.0**300 * _closed2(_geometric2, A, B)).tobytes()
    assert _closed2(_bw_q2, c * A, c * B).tobytes() == _closed2(_bw_q2, A, B).tobytes()
    assert _closed2(_bw_q2, c * A, B).tobytes() == (2.0**-300 * _closed2(_bw_q2, A, B)).tobytes()


# The certificate's norm squares overflow and are taken again scaled; numpy
# warns inside the first try.
@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
@pytest.mark.parametrize("kind", [GEOMETRIC, WASSERSTEIN], ids=lambda k: k.label)
@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_means_of_huge_pairs_are_certified(kind, scale):
    # det A would overflow past entries of about 1.3e154; the A^(+-1/2)
    # route took the geometric mean of such pairs, and the Wasserstein
    # mean raised PositivityError there.
    A = PdMatrix.certify(HermitianMatrix(scale * np.diag([1.0, 2.0])))
    B = PdMatrix.certify(HermitianMatrix(scale * np.array([[2.0, 1.0], [1.0, 3.0]])))
    small = mean(kind, PdMatrix.certify(np.diag([1.0, 2.0])), PdMatrix.certify(np.array([[2.0, 1.0], [1.0, 3.0]])))
    assert np.allclose(mean(kind, A, B).mat / scale, small.mat, rtol=1e-14, atol=0.0)


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
        ):
            with pytest.raises(PositivityError, match=message):
                call()
