"""Core matrix layer: certified wrappers, the bespoke eigensolver, and the
functional calculus built on it."""

import json
import math

import numpy as np
import pytest

from meanlab import (
    ConvergenceFailure,
    DimMismatch,
    DomainError,
    HermitianMatrix,
    PdMatrix,
    PositivityError,
    SingularError,
    commutator_norm,
    congruence,
    eig,
    frobenius,
    func_calc,
    identity_pd,
    loewner_leq,
    matrix_from_json,
    matrix_to_json,
    mpow,
    pauli_basis,
    pauli_pair,
    random_hermitian,
    random_pd,
    random_unitary,
    rng_for,
)
from meanlab import expansion, matcore
from meanlab.geometry import _d_bw_arr
from meanlab.matcore import _pow_arr, _sym
from meanlab.sampling import _pd_gram, draws, pd_stacks, random_complex, stacked
from meanlab.verification import _commuting_stacks, _weighted_pairs

ORACLE_TOL = 1e-12
ROUND_TRIP_TOL = 1e-12


def test_hermitian_rejects_nonsquare():
    with pytest.raises(ValueError):
        HermitianMatrix(np.ones((2, 3), dtype=complex))


def test_hermitian_rejects_asymmetric():
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianMatrix(np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex))


def test_hermitian_accepts_roundoff_asymmetry():
    arr = np.array([[1.0, 0.5], [0.5 + 1e-12, 1.0]], dtype=complex)
    H = HermitianMatrix(arr)
    assert frobenius(H.mat - H.mat.conj().T) == 0.0


def test_hermiticity_check_runs_per_matrix_of_a_stack():
    # The check HermitianMatrix applies, over a stack: one asymmetric matrix
    # or one NaN among Hermitian ones is refused, roundoff asymmetry is not.
    good = np.array([[1.0, 0.5], [0.5 + 1e-12, 1.0]], dtype=complex)
    matcore._check_hermitian(np.array([good, good]))
    for bad in (np.array([[1.0, 2.0], [0.0, 1.0]]), np.full((2, 2), math.nan)):
        stack = np.array([good, bad, good], dtype=complex)
        with pytest.raises(ValueError, match="not Hermitian"):
            matcore._check_hermitian(stack)
        with pytest.raises(ValueError, match="not Hermitian"):
            matcore._check_hermitian(stack[None].repeat(2, axis=0))


def test_hermitian_storage_is_immutable():
    H = HermitianMatrix(np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        H.mat[0, 0] = 5.0


def test_pd_certify_rejects_indefinite(herm):
    with pytest.raises(PositivityError):
        PdMatrix.certify(herm([[1.0, 0.0], [0.0, -1.0]]))


def test_pd_certify_rejects_singular(herm):
    with pytest.raises(PositivityError):
        PdMatrix.certify(herm([[1.0, 1.0], [1.0, 1.0]]))


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_eig_matches_lapack(dim, rng, eigh_oracle):
    for _ in range(10):
        H = random_hermitian(rng, dim)
        spectrum = eig(H)
        ref_vals, _ = eigh_oracle(H.mat)
        assert np.max(np.abs(spectrum.eigenvalues - ref_vals)) <= ORACLE_TOL * max(
            1.0, H.norm()
        )


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_eig_reconstructs_and_is_unitary(dim, rng):
    H = random_hermitian(rng, dim)
    spectrum = eig(H)
    V = spectrum.vectors
    rebuilt = V @ np.diag(spectrum.eigenvalues) @ V.conj().T
    assert frobenius(rebuilt - H.mat) <= 1e-12 * max(1.0, H.norm())
    assert frobenius(V.conj().T @ V - np.eye(dim)) <= 1e-13
    assert np.all(np.diff(spectrum.eigenvalues) >= 0)


def test_eig_phase_is_deterministic(rng):
    H = random_hermitian(rng, 4)
    first = eig(H)
    second = eig(H)
    assert np.array_equal(first.vectors, second.vectors)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)


JACOBI_DIMS = [3, 4, 8]
# The edge cases that apply to the 2x2 closed form as well.
EIG_DIMS = [2] + JACOBI_DIMS
JACOBI_TOL = 1e-13


def _with_spectrum(rng, spectrum) -> np.ndarray:
    U = random_unitary(rng, len(spectrum))
    arr = (U * np.asarray(spectrum, dtype=float)) @ U.conj().T
    return (arr + arr.conj().T) / 2.0


def _assert_solves(arr, eigh_oracle):
    # Against LAPACK, relative to the spectral radius so that extreme scales
    # are judged alike: eigenvalues ascending and matching, an orthonormal
    # basis that rebuilds arr, and the phase rule on every column. Moduli
    # within rounding of the largest count as tied, and the first of them is
    # the pivot: equal diagonals at n = 2 tie exactly, and the phased
    # entries then differ by an ulp either way.
    w, V = matcore._eig_array(arr)
    ref = eigh_oracle(arr)[0]
    scale = np.max(np.abs(ref))
    n = arr.shape[0]
    assert np.all(np.diff(w) >= 0)
    assert np.max(np.abs(w - ref)) <= JACOBI_TOL * scale
    assert np.linalg.norm(((V * w) @ V.conj().T - arr) / scale) <= JACOBI_TOL
    assert np.linalg.norm(V.conj().T @ V - np.eye(n)) <= JACOBI_TOL
    for j in range(n):
        mod = np.abs(V[:, j])
        piv = V[np.flatnonzero(mod >= mod.max() * (1.0 - 4e-16))[0], j]
        assert piv.real > 0.0 and abs(piv.imag) <= 1e-15 * piv.real


def test_closed_form_2x2_matches_lapack(rng, eigh_oracle):
    # |b| log-uniform from 1e-12 |a| up, where lam2 - a cancels unless it is
    # taken in its stable form; every fourth draw has equal diagonals, where
    # the phase tie-break decides.
    for i in range(2000):
        a, d = rng.standard_normal(2) * 10.0 ** rng.uniform(-3, 3, 2)
        if i % 4 == 0:
            d = a
        b = complex(*rng.standard_normal(2))
        b *= abs(a) * 10.0 ** rng.uniform(-12, 2) / abs(b)
        _assert_solves(np.array([[a, b], [b.conjugate(), d]]), eigh_oracle)


def _closed_form_cases(rng) -> np.ndarray:
    # The 2000 draws above, plus exact b = 0 with a < d, a = d and a > d.
    cases = []
    for i in range(2000):
        a, d = rng.standard_normal(2) * 10.0 ** rng.uniform(-3, 3, 2)
        if i % 4 == 0:
            d = a
        b = complex(*rng.standard_normal(2))
        b *= abs(a) * 10.0 ** rng.uniform(-12, 2) / abs(b)
        cases.append([[a, b], [b.conjugate(), d]])
    cases += [np.diag(diag) for diag in ([1.0, 2.0], [1.5, 1.5], [2.0, 1.0])]
    return np.array(cases, dtype=complex)


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
def test_stacked_closed_form_matches_the_scalar_one(scale, rng):
    # The vectorized closed form runs on stacks, the scalar one on lone 2x2
    # inputs; they agree within 4 ulp, eigenvalues relative to the larger
    # one in modulus and each vector entry relative to its own modulus.
    arr = _closed_form_cases(rng) * scale
    w, V = matcore._eig2_stack(arr)
    assert w.shape == (len(arr), 2) and V.shape == arr.shape
    eps = np.finfo(float).eps
    for X, ws, Vs in zip(arr, w, V):
        wc, Vc = matcore._eig2_closed(X)
        assert np.all(np.abs(ws - wc) <= 4 * np.spacing(np.max(np.abs(wc))))
        assert np.all(np.abs(Vs - Vc) <= 4 * eps * np.abs(Vc))


def _assert_matches_one_at_a_time(arr):
    # The stacked Jacobi against the scalar one, run per matrix: bit for
    # bit, else within 4 ulp as the 2x2 stack is held. The kernel is called
    # directly, since _eig_array loops over a stack below the crossover.
    w, V = matcore._eig_jacobi_stack(arr)
    assert w.shape == arr.shape[:2] and V.shape == arr.shape
    eps = np.finfo(float).eps
    for X, ws, Vs in zip(arr, w, V):
        wc, Vc = matcore._eig_array(X)
        if not (np.array_equal(ws, wc) and np.array_equal(Vs, Vc)):
            assert np.all(np.abs(ws - wc) <= 4 * np.spacing(np.max(np.abs(wc))))
            assert np.all(np.abs(Vs - Vc) <= 4 * eps * np.abs(Vc))


@pytest.mark.parametrize("dim", [3, 4])
def test_stacked_jacobi_matches_the_scalar_one(dim, rng):
    # Indefinite and PD inputs, the latter at scales from 1e-200 to 1e200.
    arr = [random_hermitian(rng, dim).mat for _ in range(60)]
    arr += [random_pd(rng, dim).mat * 10.0 ** rng.uniform(-200, 200) for _ in range(60)]
    _assert_matches_one_at_a_time(np.array(arr))


def test_stacked_jacobi_solves_unlike_matrices_side_by_side(rng):
    # Each matrix keeps its own threshold and converges in its own number of
    # sweeps: a zero matrix, a diagonal one, a repeated eigenvalue, a
    # D^(1/2) H D^(1/2) graded by D = (1e12, 1e6, 1), and a complex-phased one.
    H = random_pd(rng, 3).mat
    graded = np.sqrt([1e12, 1e6, 1.0])
    phases = np.exp(2j * np.pi * rng.uniform(size=3))
    arr = np.array([
        np.zeros((3, 3)),
        np.diag([3.0, 1.0, 2.0]),
        _with_spectrum(rng, [1.0, 1.0, 5.0]),
        graded[:, None] * H * graded,
        phases[:, None] * H * phases.conj(),
    ], dtype=complex)
    _assert_matches_one_at_a_time(arr)
    w, V = matcore._eig_jacobi_stack(arr)
    assert np.array_equal(w[0], np.zeros(3)) and np.array_equal(V[0], np.eye(3))
    assert np.array_equal(w[1], [1.0, 2.0, 3.0]) and np.array_equal(V[1], np.eye(3)[:, [1, 2, 0]])


def test_stacked_jacobi_raises_when_one_matrix_runs_out_of_sweeps(rng, monkeypatch):
    # Diagonal matrices need no sweep; a random one needs more than two.
    monkeypatch.setattr(matcore, "JACOBI_MAX_SWEEPS", 2)
    easy = np.array([np.diag([1.0, 2.0, 3.0]), np.diag([2.0, 2.0, 1.0])], dtype=complex)
    matcore._eig_jacobi_stack(easy)
    with pytest.raises(ConvergenceFailure):
        matcore._eig_jacobi_stack(np.concatenate([easy, random_hermitian(rng, 3).mat[None]]))


@pytest.mark.parametrize("dim", [3, 4])
def test_stacked_jacobi_rotates_as_often_as_the_scalar_one(dim, rng, monkeypatch):
    # A rotation counts once per matrix it turns, on either route.
    arr = np.array([random_pd(rng, dim).mat for _ in range(40)])
    counts = {"scalar": 0, "stacked": 0}
    rotation, rotation_stack = matcore._rotation, matcore._rotation_stack

    def scalar(*args):
        counts["scalar"] += 1
        return rotation(*args)

    def stacked(a, *args):
        counts["stacked"] += a.size
        return rotation_stack(a, *args)

    monkeypatch.setattr(matcore, "_rotation", scalar)
    monkeypatch.setattr(matcore, "_rotation_stack", stacked)
    matcore._eig_jacobi_stack(arr)
    for X in arr:
        matcore._eig_array(X)
    assert counts["stacked"] == counts["scalar"] > 0


def _values_cases(rng, n):
    # Indefinite draws, PD draws at scales 1e-200 to 1e200, the zero matrix
    # and two diagonals, one ascending and one to be swapped or sorted (at
    # n = 2, rows with b = 0 on both sides of the a <= d test).
    arr = [random_hermitian(rng, n).mat for _ in range(20)]
    arr += [random_pd(rng, n).mat * 10.0**s for s in (-200, -100, 0, 100, 200) for _ in range(4)]
    arr += [np.zeros((n, n)), np.diag(np.arange(1.0, n + 1.0)), np.diag(np.arange(n, 0.0, -1.0))]
    return np.array(arr, dtype=complex)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_eigenvalues_only_equal_the_full_solve_bit_for_bit(n, rng):
    # Each lone matrix on the scalar kernels; the 43-matrix stack on the
    # stacked ones (past both crossovers); its first five on the scalar
    # loop at n >= 3; and each stacked kernel called in both modes.
    arr = _values_cases(rng, n)
    for X in arr:
        assert np.array_equal(matcore._eig_values(X), matcore._eig_array(X)[0])
    for stack in (arr, arr[:5]):
        assert np.array_equal(matcore._eig_values(stack), matcore._eig_array(stack)[0])
    if n == 2:
        assert np.array_equal(matcore._eig2_stack(arr, False), matcore._eig2_stack(arr)[0])
    if n >= 3:
        assert np.array_equal(matcore._eig_jacobi_stack(arr, False), matcore._eig_jacobi_stack(arr)[0])


# Rotations over the 40 random_pd draws of rng_for(16, n): the count every
# route and mode must turn, pinned so that a change of the rotation rule
# shows.
ROTATIONS = {3: 399, 4: 935}


@pytest.mark.parametrize("n", [3, 4])
def test_eigenvalues_only_rotate_as_often_as_the_full_solve(n, monkeypatch):
    # A rotation counts once per matrix it turns: scalar and stacked Jacobi,
    # with and without vectors.
    rng = rng_for(16, n)
    arr = np.array([random_pd(rng, n).mat for _ in range(40)])
    count = [0]
    rotation, rotation_stack = matcore._rotation, matcore._rotation_stack

    def scalar(*args):
        count[0] += 1
        return rotation(*args)

    def stacked(a, *args):
        count[0] += a.size
        return rotation_stack(a, *args)

    monkeypatch.setattr(matcore, "_rotation", scalar)
    monkeypatch.setattr(matcore, "_rotation_stack", stacked)
    counts = []
    for vectors in (True, False):
        for route in (lambda: [matcore._eig_jacobi(X, vectors) for X in arr],
                      lambda: matcore._eig_jacobi_stack(arr, vectors)):
            count[0] = 0
            route()
            counts.append(count[0])
    assert counts == [ROTATIONS[n]] * 4


@pytest.mark.parametrize("vectors", [True, False])
def test_small_stacks_loop_over_the_scalar_jacobi(vectors, rng, monkeypatch):
    # Below the crossover of its mode a stack at n >= 3 never reaches the
    # stacked kernel; at the crossover it does.
    below = matcore._LOOP_BELOW[vectors]
    entry = matcore._eig_array if vectors else matcore._eig_values
    kernel, sizes = matcore._eig_jacobi_stack, []

    def stacked(arr, mode):
        sizes.append(len(arr))
        return kernel(arr, mode)

    monkeypatch.setattr(matcore, "_eig_jacobi_stack", stacked)
    arr = np.array([random_pd(rng, 3).mat for _ in range(below)])
    entry(arr[:-1])
    assert sizes == []
    entry(arr)
    assert sizes == [below]


def test_an_empty_stack_has_empty_spectra():
    # The axiom battery certifies its odd-i transforms as one stack, which
    # one sample leaves empty.
    for n in (1, 2, 3):
        arr = np.zeros((0, n, n), dtype=complex)
        w, V = matcore._eig_array(arr)
        assert w.shape == (0, n) and V.shape == (0, n, n)
        assert matcore._eig_values(arr).shape == (0, n)
        assert matcore._certify_stack(arr).shape == (0,)


@pytest.mark.parametrize("dim", [2, 3])
def test_stacked_powers_and_certificates_match_one_matrix_at_a_time(dim, rng):
    arr = np.array([random_pd(rng, dim).mat for _ in range(6)])
    P, cert = _pow_arr(arr, -0.5, certify=True)
    lam = matcore._certify_stack(arr)
    for X, Pi, ci, li in zip(arr, P, cert, lam):
        Pc, cc = _pow_arr(X, -0.5, certify=True)
        assert frobenius(Pi - Pc) <= 1e-14 * frobenius(Pc)
        assert ci == pytest.approx(cc, rel=1e-14)
        assert li == pytest.approx(PdMatrix.certify(X).min_eigenvalue, rel=1e-14)


def _stack_around(bad) -> np.ndarray:
    good = random_pd(rng_for(3), 2).mat
    return np.array([good, np.asarray(bad, dtype=complex), good])


def test_stacked_power_and_certification_reject_one_bad_matrix():
    indefinite = _stack_around(np.diag([-1.0, 2.0]))
    with pytest.raises(PositivityError):
        _pow_arr(indefinite, 0.5)
    with pytest.raises(PositivityError):
        _pow_arr(indefinite, 2.0, certify=True)
    with pytest.raises(PositivityError):
        matcore._certify_stack(indefinite)
    with pytest.raises(DomainError):
        _pow_arr(_stack_around(np.diag([1e10, 1.0])), 40.0)
    # ||X||_F exceeds the largest float, so no eigenvalue clears the
    # tolerance, and the cube of 1.3e308 would overflow; numpy's overflow
    # warnings are expected here.
    huge = _stack_around(np.diag([1.3e308, 1.3e308]))
    with np.errstate(over="ignore"):
        with pytest.raises(PositivityError):
            matcore._certify_stack(huge)
        with pytest.raises(DomainError):
            _pow_arr(huge, 3.0)


def test_certification_takes_a_lone_matrix_or_any_leading_shape(rng):
    arr = np.array([random_pd(rng, 2).mat for _ in range(6)])
    lam = matcore._certify_stack(arr)
    assert matcore._certify_stack(arr[4]) == pytest.approx(lam[4], rel=1e-14)
    assert np.array_equal(matcore._certify_stack(arr.reshape(2, 3, 2, 2)), lam.reshape(2, 3))
    with pytest.raises(PositivityError):
        matcore._certify_stack(np.diag([-1.0, 2.0]).astype(complex))


def test_stacked_certificate_and_invertibility_checks_run_per_matrix(rng):
    arr = np.array([random_pd(rng, 2).mat for _ in range(3)])
    lam = matcore._certify_stack(arr)
    assert np.array_equal(matcore._check_certificates(arr + np.eye(2), lam), lam)
    for bad in (math.nan, -1.0):
        with pytest.raises(PositivityError):
            matcore._check_certificates(arr, np.array([lam[0], bad, lam[2]]))
    C = arr.copy()
    C[1] = [[1.0, 1.0], [1.0, 1.0]]
    with pytest.raises(SingularError):
        matcore._congruences(C, arr)
    out = matcore._congruences(arr, arr)[0]
    for X, Y in zip(arr, out):
        assert np.array_equal(Y, X @ X @ X.conj().T)


@pytest.mark.parametrize(
    "arr",
    [
        [[1.0, 1e-8], [1e-8, 0.0]],
        [[1.0, 0.0, 1e-8], [0.0, 0.5, 0.0], [1e-8, 0.0, 0.0]],
        [[1.0, 1e-8, 0.0], [1e-8, 0.5, 0.0], [0.0, 0.0, 0.0]],
    ],
    ids=["2x2", "3x3-02", "3x3-01"],
)
def test_small_coupling_keeps_the_residual_at_rounding(arr):
    # |b| far below |a - d|: the rotation must not degenerate to a swap
    # that drops b.
    arr = np.array(arr, dtype=complex)
    w, V = matcore._eig_array(arr)
    assert np.linalg.norm((V * w) @ V.conj().T - arr) <= 1e-15


@pytest.mark.parametrize("dim", EIG_DIMS)
def test_jacobi_leaves_a_diagonal_alone(dim, rng, monkeypatch):
    def no_rotation(*args):
        raise AssertionError("a diagonal input needs no rotation")

    monkeypatch.setattr(matcore, "_rotation", no_rotation)
    diag = rng.permutation(np.arange(1.0, dim + 1.0))
    w, V = matcore._eig_array(np.diag(diag).astype(complex))
    order = np.argsort(diag)
    assert np.array_equal(w, diag[order])
    assert np.array_equal(V, np.eye(dim)[:, order])


@pytest.mark.parametrize("dim", EIG_DIMS)
def test_jacobi_zero_matrix(dim):
    w, V = matcore._eig_array(np.zeros((dim, dim), dtype=complex))
    assert np.array_equal(w, np.zeros(dim))
    assert np.array_equal(V, np.eye(dim))


@pytest.mark.parametrize("dim", EIG_DIMS)
def test_jacobi_exactly_repeated_eigenvalues(dim, rng, eigh_oracle):
    _assert_solves(_with_spectrum(rng, [1.0, 1.0] + [5.0] * (dim - 2)), eigh_oracle)


@pytest.mark.parametrize("dim", EIG_DIMS)
def test_jacobi_tight_cluster(dim, rng, eigh_oracle):
    spectrum = [1.0, 1.0 + 1e-12] + [float(k) for k in range(2, dim)]
    _assert_solves(_with_spectrum(rng, spectrum), eigh_oracle)


@pytest.mark.parametrize("dim", EIG_DIMS)
@pytest.mark.parametrize("scale", [1e-200, 1e-100, 1e100, 1e200])
def test_jacobi_extreme_scales(dim, scale, rng, eigh_oracle):
    # At 1e+-200 the squared Frobenius norm leaves the float64 range; the
    # stopping threshold must still be a true multiple of ||A||_F.
    _assert_solves(random_pd(rng, dim).mat * scale, eigh_oracle)


@pytest.mark.parametrize("dim", EIG_DIMS)
def test_jacobi_random_input_meets_the_phase_rule(dim, rng, eigh_oracle):
    for _ in range(5):
        _assert_solves(random_hermitian(rng, dim).mat, eigh_oracle)


@pytest.mark.parametrize("dim", JACOBI_DIMS)
def test_jacobi_raises_when_the_sweep_budget_runs_out(dim, rng, monkeypatch):
    monkeypatch.setattr(matcore, "JACOBI_MAX_SWEEPS", 0)
    with pytest.raises(ConvergenceFailure):
        eig(random_hermitian(rng, dim))


def test_func_calc_exponential_matches_oracle(rng, eigh_oracle):
    A = random_pd(rng, 3)
    out = func_calc(A, math.exp)
    vals, vecs = eigh_oracle(A.mat)
    ref = vecs @ np.diag(np.exp(vals)) @ vecs.conj().T
    assert frobenius(out.mat - ref) <= 1e-10 * max(1.0, float(np.exp(vals).max()))


def test_func_calc_rejects_nonfinite_values():
    with pytest.raises(DomainError):
        func_calc(identity_pd(2), lambda t: float("nan"))


def test_mpow_diagonal(pd):
    out = mpow(pd(np.diag([4.0, 9.0])), 0.5)
    assert frobenius(out.mat - np.diag([2.0, 3.0])) <= 1e-14


def test_mpow_unit_power_is_identity_map(rng):
    A = random_pd(rng, 3)
    assert frobenius(mpow(A, 1.0).mat - A.mat) <= 1e-13


def test_mpow_zero_power_gives_identity(rng):
    A = random_pd(rng, 2)
    assert frobenius(mpow(A, 0.0).mat - np.eye(2)) <= 1e-14


def test_mpow_round_trip(pd, pauli):
    _, sx, _ = pauli
    A = pd(np.eye(2) + 0.5 * sx.mat)
    back = mpow(mpow(A, 0.3), 1.0 / 0.3)
    assert frobenius(back.mat - A.mat) <= ROUND_TRIP_TOL


def test_mpow_overflow_raises(pd):
    A = pd(np.diag([1e10, 1.0]))
    with pytest.raises(DomainError):
        mpow(A, 40.0)


@pytest.mark.parametrize("dim", [2, 3])
def test_multi_power_equals_separate_calls(dim, rng):
    X = random_pd(rng, dim).mat
    Xh, Xih = _pow_arr(X, 0.5, -0.5)
    assert np.array_equal(Xh, _pow_arr(X, 0.5))
    assert np.array_equal(Xih, _pow_arr(X, -0.5))


@pytest.mark.parametrize("arr", [[[1.0, 1.0], [1.0, 1.0]], np.diag([2.0, 0.0, 1.0])])
def test_multi_power_rejects_a_zero_eigenvalue(arr):
    with pytest.raises(PositivityError):
        _pow_arr(np.asarray(arr, dtype=complex), 0.5, -0.5)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("p", [0.5, -0.5, 2.0])
def test_mpow_certificate_is_the_powered_minimum(dim, p, rng):
    A = random_pd(rng, dim)
    w = eig(A).eigenvalues
    assert mpow(A, p).min_eigenvalue == float(np.min(w**p))


def test_pd_matrix_is_a_certified_hermitian_matrix(rng):
    A = random_pd(rng, 2)
    assert isinstance(A, HermitianMatrix)
    assert not hasattr(A, "matrix")
    H = HermitianMatrix(A.mat)
    assert PdMatrix(H, A.min_eigenvalue).mat is H.mat
    assert PdMatrix.certify(A.mat.tolist()).min_eigenvalue == A.min_eigenvalue
    with pytest.raises(ValueError):
        PdMatrix([[2.0, 1.0], [0.0, 2.0]], 1.0)


def test_mpow_rejects_a_false_certificate():
    # The certificate claims positivity; the spectrum computed by mpow does
    # not, and even an integer power must refuse.
    bad = PdMatrix(HermitianMatrix(np.diag([-1.0, 2.0]).astype(complex)), 1.0)
    with pytest.raises(PositivityError):
        mpow(bad, 2.0)


def test_congruence_rotates_sigma_z_to_sigma_x(pauli):
    sz, sx, U = pauli
    out = congruence(U.mat, sz)
    assert frobenius(out.mat - sx.mat) <= 1e-14


def test_congruence_rejects_singular(herm):
    C = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    with pytest.raises(SingularError):
        congruence(C, herm(np.eye(2)))


def test_loewner_orders_scalar_multiples(rng):
    A = random_pd(rng, 3)
    double = HermitianMatrix(2.0 * A.mat)
    assert loewner_leq(A, double)
    assert not loewner_leq(double, A)


def test_loewner_is_reflexive(rng):
    A = random_pd(rng, 2)
    assert loewner_leq(A, A)


def test_pauli_identities(pauli):
    sz, sx, U = pauli
    w = sz.mat + sx.mat
    assert frobenius(w @ w - 2.0 * np.eye(2)) <= 1e-15
    assert frobenius(U.mat @ U.mat - np.eye(2)) <= 1e-15
    assert frobenius(sx.mat @ sz.mat - np.array([[0, -1], [1, 0]])) <= 1e-15


def test_pauli_pair_matches_definition(pauli):
    sz, sx, _ = pauli
    A, B = pauli_pair(0.3)
    assert frobenius(A.mat - (np.eye(2) + 0.3 * sz.mat)) <= 1e-15
    assert frobenius(B.mat - (np.eye(2) + 0.3 * sx.mat)) <= 1e-15


def test_pauli_pair_rejects_large_eps():
    with pytest.raises(DomainError, match="got 1.0$"):
        pauli_pair(1.0)
    with pytest.raises(DomainError, match="got nan$"):
        pauli_pair(np.nan)
    # A grid's pairs are built as stacks; one point outside fails them all.
    with pytest.raises(DomainError, match="got -1.5$"):
        expansion._pauli_stacks((0.1, -1.5, 0.2))


@pytest.mark.parametrize("eps", [0.01, 0.1, 0.3, 0.5, -0.7, 0.999])
def test_pauli_pair_is_the_symmetrized_definition_bit_for_bit(pauli, eps):
    # Each matrix of the stacked grid pairs, and each pauli_pair, is
    # I + eps sigma, symmetrized, as a lone matrix builds it.
    sz, sx, _ = pauli
    A, B = pauli_pair(eps)
    assert np.array_equal(A.mat, _sym(np.eye(2, dtype=complex) + eps * sz.mat))
    assert np.array_equal(B.mat, _sym(np.eye(2, dtype=complex) + eps * sx.mat))
    assert A.min_eigenvalue == B.min_eigenvalue == 1.0 - abs(eps)
    grid = (0.02, eps, 0.04)
    SA, SB = expansion._pauli_stacks(grid)
    assert np.array_equal(SA, [_sym(np.eye(2, dtype=complex) + e * sz.mat) for e in grid])
    assert np.array_equal(SB, [_sym(np.eye(2, dtype=complex) + e * sx.mat) for e in grid])


def test_random_unitary_is_unitary(rng):
    for dim in (2, 3, 5):
        Q = random_unitary(rng, dim)
        assert frobenius(Q.conj().T @ Q - np.eye(dim)) <= 1e-12


def test_rng_for_streams_are_stable():
    a = rng_for(7, 1, 2).standard_normal(4)
    b = rng_for(7, 1, 2).standard_normal(4)
    c = rng_for(7, 1, 3).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _pd_pair(rng):
    return random_pd(rng, 2), random_pd(rng, 2)


def test_draws_keep_one_generator_per_draw():
    for i, (A, B) in enumerate(draws(_pd_pair, 3, 60, count=4)):
        rng = rng_for(3, 60, i)
        assert np.array_equal(A.mat, random_pd(rng, 2).mat)
        assert np.array_equal(B.mat, random_pd(rng, 2).mat)


@pytest.mark.parametrize("dim", [2, 3])
def test_stacked_draws_equal_one_draw_at_a_time(dim):
    # The axiom battery draws four factors at once and builds A and C as a
    # stack; every matrix must equal the one drawn a call at a time.
    factors = random_complex(rng_for(5, 1), dim, 4)
    rng = rng_for(5, 1)
    A, C = random_pd(rng, dim), random_pd(rng, dim)
    assert np.array_equal(_sym(_pd_gram(factors[:2])), np.array([A.mat, C.mat]))
    assert np.array_equal(factors[2:], np.array([random_complex(rng, dim) for _ in range(2)]))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_pd_stacks_equal_random_pd_draws(k, dim):
    # Draw i takes its k factors at once on rng_for(seed, *stream, i); every
    # matrix must be bit for bit the one k random_pd calls there return (at
    # k = 2 and dim 2, draws(_pd_pair, ...)).
    want = stacked(draws(lambda rng: tuple(random_pd(rng, dim) for _ in range(k)), 2, 102, count=9))
    got = pd_stacks(2, 102, dim=dim, k=k, count=9)
    assert len(got) == k
    assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


@pytest.mark.parametrize("seed", [0, 1])
def test_criterion_6_stacks_equal_random_pd_draws(seed):
    # Stream 60 holds the pairs of the constant cases, stream 61 the linear
    # cases: a weight factor G first, then the pair.
    A, B = pd_stacks(seed, 60, dim=2, k=2, count=100)
    W, C, D = _weighted_pairs(seed)
    for i in range(100):
        rng = rng_for(seed, 60, i)
        assert np.array_equal(A[i], random_pd(rng, 2).mat) and np.array_equal(B[i], random_pd(rng, 2).mat)
        rng = rng_for(seed, 61, i)
        G = random_complex(rng, 2)
        Wi = G.conj().T @ G
        assert np.array_equal(W[i], Wi / float(np.trace(Wi).real))
        assert np.array_equal(C[i], random_pd(rng, 2).mat) and np.array_equal(D[i], random_pd(rng, 2).mat)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("stream", [80, 81])
def test_criterion_8_commuting_stacks_equal_each_draw(seed, stream):
    # One stacked QR and (V * d) @ V* over the stack against a unitary and
    # V diag(d) V* per draw, bit for bit.
    A, B = _commuting_stacks(seed, stream)
    for i in range(100):
        rng = rng_for(seed, stream, i)
        V = random_unitary(rng, 2)
        for d, got in ((rng.uniform(0.5, 3.0, size=2), A[i]), (rng.uniform(0.5, 3.0, size=2), B[i])):
            assert np.array_equal(got, HermitianMatrix(V @ np.diag(d) @ V.conj().T).mat)


def test_stacked_puts_each_position_of_the_draws_in_one_stack():
    pairs = draws(_pd_pair, 3, 60, count=4)
    A, B = stacked(pairs)
    assert A.shape == B.shape == (4, 2, 2)
    assert np.array_equal(A[2], pairs[2][0].mat) and np.array_equal(B[3], pairs[3][1].mat)


def test_json_round_trip(rng):
    H = random_hermitian(rng, 3)
    blob = json.dumps(matrix_to_json(H))
    back = matrix_from_json(json.loads(blob))
    assert np.array_equal(back, H.mat)


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        matrix_from_json({"re": [[1.0]]})


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: congruence(np.eye(2), np.eye(3)), DimMismatch, "congruence shapes differ"),
        (lambda: matrix_from_json([[1.0]]), ValueError, "must be a JSON object"),
        (lambda: matrix_from_json({"dim": 2, "re": [[1.0]]}), ValueError, "do not match dim 2"),
        (lambda: matrix_from_json({"dim": 1, "re": [[math.nan]]}), ValueError, "must be finite"),
        (lambda: func_calc(identity_pd(2), lambda x: 1.0 / 0.0), DomainError, "scalar function failed"),
    ],
    ids=["congruence-shapes", "json-not-an-object", "json-shape", "json-non-finite", "func-calc-raises"],
)
def test_matcore_error_branches(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_check_primitives_take_a_matrix_or_a_stack():
    # pd_tolerance, the order violation and the relative gap give each matrix
    # (or pair) of a stack the value they give it alone, to roundoff; the
    # Loewner test is the violation against LOEWNER_TOL * max(1, ||B - A||_F).
    A, B = pd_stacks(3, dim=2, k=2, count=6)
    B[::2] = A[::2] + 0.5 * np.eye(2)
    tol, viol, gap = matcore.pd_tolerance(A), matcore._order_violation(A, B), matcore._rel_gap(A, B)
    assert tol.shape == viol.shape == gap.shape == (6,)
    for i in range(6):
        assert tol[i] == pytest.approx(matcore.pd_tolerance(A[i]), rel=1e-15)
        assert gap[i] == pytest.approx(matcore._rel_gap(A[i], B[i]), rel=1e-15)
        assert viol[i] == pytest.approx(matcore._order_violation(A[i], B[i]), rel=1e-12, abs=1e-15)
        leq = viol[i] <= matcore.LOEWNER_TOL * max(1.0, frobenius(B[i] - A[i]))
        assert loewner_leq(A[i], B[i]) is bool(leq)
    assert np.all(viol[::2] == 0.0) and np.all(viol[1::2] > 0.0)
    assert matcore.pd_tolerance(np.zeros((2, 2))) == matcore.PD_TOLERANCE
    assert type(matcore.pd_tolerance(A[0])) is float


def test_frobenius_of_known_matrix():
    assert frobenius(np.array([[3.0, 4.0], [0.0, 0.0]])) == pytest.approx(5.0)


@pytest.mark.parametrize("dim", [2, 3])
def test_stacked_commutator_norm_equals_each_pair_bit_for_bit(dim):
    # np.linalg.norm takes one matrix by BLAS dots; the stacked norm runs
    # the same dots, so each value matches the lone call exactly.
    pairs = [(random_pd(rng_for(5, i), dim).mat, random_pd(rng_for(6, i), dim).mat) for i in range(200)]
    A, B = (np.array(side) for side in zip(*pairs))
    assert np.array_equal(commutator_norm(A, B), [commutator_norm(a, b) for a, b in pairs])
    assert np.array_equal(commutator_norm(A[0], B), [commutator_norm(A[0], b) for b in B])


# Powers of ten from 1e-100 to 1e100, one per matrix in turn.
_SCALES = 10.0 ** np.array([-100, -50, -8, 0, 8, 50, 100])


@pytest.mark.parametrize("dim", [2, 3])
def test_every_quantity_built_on_a_norm_gives_a_stack_the_lone_bits(dim):
    # Over 200 draws at scales 1e-100 to 1e100, each value of a stack is
    # the one its matrix (or pair) gets alone. The commutator's operands
    # take the square root of the scale, so that the commutator spans it.
    s = np.resize(_SCALES, 200)[:, None, None]
    X0, Y0 = (random_complex(rng_for(seed, dim), dim, 200) for seed in (22, 23))
    A, B = (s * M for M in pd_stacks(21, dim=dim, k=2, count=200))
    cases = {
        "_norms": (matcore._norms, s * X0),
        "pd_tolerance": (matcore.pd_tolerance, s * X0),
        "_rel_gap": (matcore._rel_gap, s * X0, s * Y0),
        "commutator_norm": (commutator_norm, np.sqrt(s) * X0, np.sqrt(s) * Y0),
        "_d_bw_arr": (_d_bw_arr, A, B),
    }
    for name, (fn, *stacks) in cases.items():
        got = fn(*stacks)
        assert np.all(np.isfinite(got)), name
        assert np.array_equal(got, [fn(*(X[i] for X in stacks)) for i in range(200)]), name


def _proof_corpus(n: int) -> np.ndarray:
    # Seeded Hermitian matrices at size n for the Cholesky proof, LAPACK's
    # eigvalsh as the oracle: random grams, graded grams, condition numbers
    # 1e2 to 1e12 under complex unitary frames, each also at scales 1e-100
    # and 1e100, and lambda_min placed at pd_tolerance * (1 -+ 10^-k) for
    # k = 1..6 at scales 1 and 1e100.
    rng = rng_for(77, n)
    mats = [_pd_gram(random_complex(rng, n)) for _ in range(8)]
    for step in (1.0, 2.0, 4.0):
        D = np.diag(10.0 ** (-step * np.arange(n)))
        mats.append(D @ _pd_gram(random_complex(rng, n)) @ D)
    for cond in (1e2, 1e6, 1e10, 1e12):
        Q = random_unitary(rng, n)
        mats.append((Q * np.logspace(0.0, -math.log10(cond), n)) @ Q.conj().T)
    mats += [s * M for s in (1e-100, 1e100) for M in list(mats)]
    for scale in (1.0, 1e100):
        for k in range(1, 7):
            for sign in (-1.0, 1.0):
                Q = random_unitary(rng, n)
                rest = rng.uniform(1.0, 10.0, n - 1)
                tol = matcore.PD_TOLERANCE * max(1.0, math.hypot(*rest))
                lam = np.concatenate([[tol * (1.0 + sign * 10.0**-k)], rest])
                mats.append(scale * ((Q * lam) @ Q.conj().T))
    return _sym(np.array(mats, dtype=np.complex128))


@pytest.mark.parametrize("n", [3, 4, 6])
def test_cholesky_proof_accepts_only_what_the_oracle_certifies(n):
    M = _proof_corpus(n)
    proven = matcore._cholesky_proof(M)
    lam = np.linalg.eigvalsh(M)[:, 0]
    tol = matcore.pd_tolerance(M)
    assert np.all(lam[proven] > tol[proven])
    # Not vacuous: the random grams at scales 1 and 1e100, and a lambda_min
    # placed a tenth above the tolerance, are proven; none placed below is.
    base = 15
    assert proven[:8].all() and proven[2 * base : 2 * base + 8].all()
    placed = 3 * base
    assert proven[[placed + 1, placed + 13]].all()
    assert not proven[placed::2].any()
    # The stacked decision is the decision each matrix gets alone.
    assert np.array_equal(proven, [matcore._cholesky_proof(X[None])[0] for X in M])


def test_cholesky_proof_fails_closed_on_nan_inf_and_overflow():
    good = pd_stacks(31, dim=3, k=1, count=5)[0]
    for bad in (np.nan, np.inf, -np.inf):
        M = good.copy()
        M[2, 0, 1] = M[2, 1, 0] = bad
        M[3, 1, 1] = bad
        assert matcore._cholesky_proof(M).tolist() == [True, True, False, False, True]
    # The factor works at the square root of the scale, so 1e160 is
    # proven; a trace past the largest float leaves a PD matrix unproven.
    # numpy warns of the overflowing squares of their norms.
    with np.errstate(over="ignore"):
        assert matcore._cholesky_proof(1e160 * good[:1])[0]
        assert not matcore._cholesky_proof(np.diag([1e308] * 3)[None].astype(complex))[0]


@pytest.mark.parametrize("count", [6, 40])
def test_certified_stack_raises_the_eigenvalue_route_error(count):
    # One indefinite matrix in a stack at n = 3: the proof leaves it to the
    # eigenvalue route, which raises the PositivityError that certifying the
    # whole stack by its eigenvalues raises.
    M = pd_stacks(32, dim=3, k=1, count=count)[0].copy()
    Q = random_unitary(rng_for(33), 3)
    M[count // 2] = (Q * np.array([-1e-3, 1.0, 2.0])) @ Q.conj().T
    with pytest.raises(PositivityError) as whole:
        matcore._certify_stack(_sym(M))
    with pytest.raises(PositivityError) as proved:
        matcore._certified(M)
    assert str(proved.value) == str(whole.value)
    rest = np.delete(M, count // 2, axis=0)
    assert np.array_equal(matcore._certified(rest), _sym(rest))


def test_overflowing_norms_are_taken_again_scaled():
    # Squares of entries past about 1.3e154 overflow; the norm is then taken
    # with the matrix scaled by a power of two, and the certificate holds.
    # numpy warns of the overflowing squares first.
    with np.errstate(over="ignore"):
        P = PdMatrix.certify(HermitianMatrix(1e160 * np.diag([1.0, 2.0])))
        assert P.min_eigenvalue == 1e160
        assert P.norm() == pytest.approx(math.sqrt(5.0) * 1e160, rel=1e-15)
    pairs = [(random_pd(rng_for(34, i), 2).mat, random_pd(rng_for(35, i), 2).mat) for i in range(6)]
    A, B = (np.array(side) for side in zip(*pairs))
    with np.errstate(over="ignore"):
        big = commutator_norm(1e100 * A, 1e100 * B)
        assert np.array_equal(big, [commutator_norm(1e100 * a, 1e100 * b) for a, b in pairs])
    assert np.all(big > 1e200) and np.all(np.isfinite(big))
    assert big == pytest.approx(1e200 * commutator_norm(A, B), rel=1e-14)
    # A finite norm keeps its bits, alone or beside an overflowing one.
    mixed = np.array([A[0], 1e160 * A[1]])
    with np.errstate(over="ignore"):
        assert np.array_equal(matcore._norms(mixed), [matcore._norms(X) for X in mixed])
        assert matcore._norms(mixed)[0] == np.linalg.norm(A[0])
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isinf(matcore._norms(np.array([[np.inf, 0.0], [0.0, 1.0]])))
        assert math.isinf(matcore._norms(np.full((2, 2), 1.7e308)))
