"""Core matrix layer: certified wrappers, the bespoke eigensolver, and the
functional calculus built on it. The 2x2 powers are checked against the
50-digit mpmath references of ``mp_oracle.py``."""

import json
import math
import re
import sys

import numpy as np
import pytest

from meanlab import (
    GEOMETRIC,
    HARMONIC,
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
    kubo_ando_power,
    loewner_leq,
    matrix_from_json,
    matrix_to_json,
    mean,
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
from meanlab.sampling import _pd_gram, draws, pd_stacks, random_complex, rng_batch, stacked
from meanlab.verification import _commuting_stacks, _weighted_pairs

from mp_oracle import reference, relative_error, spectral

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


@pytest.mark.parametrize("n", [3, 4, 6])
def test_stacked_jacobi_equals_the_scalar_one_byte_for_byte(n):
    # On seeded PD stacks, 100 matrices at each of seeds 0-2, the stacked
    # kernel gives each matrix the bytes the scalar kernel gives it alone,
    # eigenvalues and vectors, signs of zero included.
    for seed in range(3):
        (A,) = pd_stacks(seed, 62, n, dim=n, k=1, count=100)
        w, V = matcore._eig_jacobi_stack(A)
        for X, ws, Vs in zip(A, w, V):
            wc, Vc = matcore._eig_jacobi(X)
            assert ws.tobytes() == wc.tobytes() and Vs.tobytes() == Vc.tobytes()


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


def test_jacobi_plan_is_built_once_per_size_and_immutable():
    for n in (3, 4):
        plan = matcore._jacobi_plan(n)
        assert plan is matcore._jacobi_plan(n)
        assert isinstance(plan, tuple) and all(isinstance(rest, tuple) for _, _, rest in plan)
        assert list(plan) == [
            (p, q, tuple(k for k in range(n) if k not in (p, q))) for p in range(n - 1) for q in range(p + 1, n)
        ]


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
        spectral(rng, [1.0, 1.0, 5.0]),
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
    # stacked ones (past the crossover); its first five on the scalar loop
    # at n >= 3; and the 2x2 stack called in both modes.
    arr = _values_cases(rng, n)
    for X in arr:
        assert np.array_equal(matcore._eig_values(X), matcore._eig_array(X)[0])
    for stack in (arr, arr[:5]):
        assert np.array_equal(matcore._eig_values(stack), matcore._eig_array(stack)[0])
    if n == 2:
        assert np.array_equal(matcore._eig2_stack(arr, False)[0], matcore._eig2_stack(arr)[0])


# Rotations over the 40 random_pd draws of rng_for(16, n): the count both
# routes must turn, pinned so that a change of the rotation rule shows.
ROTATIONS = {3: 399, 4: 935}


@pytest.mark.parametrize("n", [3, 4])
def test_scalar_and_stacked_jacobi_rotate_alike(n, monkeypatch):
    # A rotation counts once per matrix it turns: scalar and stacked Jacobi.
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
    for route in (lambda: [matcore._eig_jacobi(X) for X in arr], lambda: matcore._eig_jacobi_stack(arr)):
        count[0] = 0
        route()
        counts.append(count[0])
    assert counts == [ROTATIONS[n]] * 2


def test_small_stacks_loop_over_the_scalar_jacobi(rng, monkeypatch):
    # Below the crossover a stack at n >= 3 never reaches the stacked
    # kernel; at the crossover it does.
    below = matcore._LOOP_BELOW
    kernel, sizes = matcore._eig_jacobi_stack, []

    def stacked(arr):
        sizes.append(len(arr))
        return kernel(arr)

    monkeypatch.setattr(matcore, "_eig_jacobi_stack", stacked)
    arr = np.array([random_pd(rng, 3).mat for _ in range(below)])
    matcore._eig_array(arr[:-1])
    assert sizes == []
    matcore._eig_array(arr)
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
    _assert_solves(spectral(rng, [1.0, 1.0] + [5.0] * (dim - 2)), eigh_oracle)


@pytest.mark.parametrize("dim", EIG_DIMS)
def test_jacobi_tight_cluster(dim, rng, eigh_oracle):
    spectrum = [1.0, 1.0 + 1e-12] + [float(k) for k in range(2, dim)]
    _assert_solves(spectral(rng, spectrum), eigh_oracle)


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


@pytest.mark.parametrize("dim", [2, 3])
def test_value_types_compare_and_hash_by_identity(dim):
    # Two distinct objects holding equal arrays are unequal, with no
    # "truth value of an array is ambiguous" raised; each equals itself and
    # hashes. The value types holding a HermitianMatrix compare through it.
    from meanlab.expansion import GeneralSeriesFit, SeriesFit
    from meanlab.preserver import MasaFunctional

    I = np.eye(dim)
    H = HermitianMatrix(I)
    sz = pauli_basis()[0]
    pairs = [
        (HermitianMatrix(I), HermitianMatrix(I)),
        (PdMatrix.certify(I), PdMatrix.certify(I)),
        (eig(I), eig(I)),
        (GeneralSeriesFit(I, I, I, 0.0), GeneralSeriesFit(I.copy(), I, I, 0.0)),
        (SeriesFit(H, H, H, 0.0), SeriesFit(HermitianMatrix(I), H, H, 0.0)),
        (MasaFunctional(1.0, ((sz, 0.5),)), MasaFunctional(1.0, ((sz, 0.5),))),
    ]
    for A, B in pairs:
        assert (A == B) is False and (A != B) is True
        assert (A == A) is True
        assert isinstance(hash(A), int) and hash(A) == hash(A)


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


def test_grid_pairs_are_built_once_per_grid_and_read_only():
    grid = expansion.DEFAULT_GRID.eps_grid
    A, B = expansion._pauli_stacks(grid)
    assert expansion._pauli_stacks(grid)[0] is A
    assert not (A.flags.writeable or B.flags.writeable)


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
    W, C, D = _weighted_pairs(rng_batch(seed, 61, count=100))
    for i in range(100):
        rng = rng_for(seed, 60, i)
        assert np.array_equal(A[i], random_pd(rng, 2).mat) and np.array_equal(B[i], random_pd(rng, 2).mat)
        rng = rng_for(seed, 61, i)
        G = random_complex(rng, 2)
        Wi = G.conj().T @ G
        assert np.array_equal(W[i], Wi / float(np.trace(Wi).real))
        assert np.array_equal(C[i], random_pd(rng, 2).mat) and np.array_equal(D[i], random_pd(rng, 2).mat)


@pytest.mark.parametrize("seed", [0, 1])
def test_criterion_8_commuting_stacks_equal_each_draw(seed):
    # Streams 80 and 81 in one call: one stacked QR, (V * d) @ V* and one
    # certification over both against a unitary and V diag(d) V* per draw,
    # bit for bit, each stream's pairs in its own two stacks.
    streams = (80, 81)
    got = _commuting_stacks(*(rng_batch(seed, stream, count=100) for stream in streams))
    assert len(got) == 2
    for stream, (A, B) in zip(streams, got):
        assert A.shape == B.shape == (100, 2, 2) and A.flags.c_contiguous and B.flags.c_contiguous
        for i in range(100):
            rng = rng_for(seed, stream, i)
            V = random_unitary(rng, 2)
            for d, X in ((rng.uniform(0.5, 3.0, size=2), A[i]), (rng.uniform(0.5, 3.0, size=2), B[i])):
                assert np.array_equal(X, HermitianMatrix(V @ np.diag(d) @ V.conj().T).mat)


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
        (lambda: commutator_norm(np.eye(2), np.eye(3)), DimMismatch, r"^operands have shapes \(2, 2\) and \(3, 3\)$"),
        (lambda: commutator_norm(np.zeros((3, 2, 2)), np.zeros((4, 2, 2))), DimMismatch,
         r"^operands have shapes \(3, 2, 2\) and \(4, 2, 2\)$"),
        (lambda: loewner_leq(np.eye(2), np.eye(3)), DimMismatch, r"^operands have shapes \(2, 2\) and \(3, 3\)$"),
    ],
    ids=[
        "congruence-shapes", "json-not-an-object", "json-shape", "json-non-finite", "func-calc-raises",
        "commutator-sizes", "commutator-stack-lengths", "loewner-sizes",
    ],
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
    tol = matcore.pd_tolerance(M)
    proven = matcore._cholesky_proof(M, tol)
    lam = np.linalg.eigvalsh(M)[:, 0]
    assert np.all(lam[proven] > tol[proven])
    # Not vacuous: the random grams at scales 1 and 1e100, and a lambda_min
    # placed a tenth above the tolerance, are proven; none placed below is.
    base = 15
    assert proven[:8].all() and proven[2 * base : 2 * base + 8].all()
    placed = 3 * base
    assert proven[[placed + 1, placed + 13]].all()
    assert not proven[placed::2].any()
    # The stacked decision is the decision each matrix gets in a stack of
    # one, and alone on Python floats.
    assert np.array_equal(proven, [matcore._cholesky_proof(X[None], t)[0] for X, t in zip(M, tol)])
    assert np.array_equal(proven, [matcore._cholesky_proof(X, t) for X, t in zip(M, tol)])


def _proof(M):
    # _cholesky_proof against the certificate's own tolerance.
    return matcore._cholesky_proof(M, matcore.pd_tolerance(M))


@pytest.mark.filterwarnings("error")
def test_cholesky_proof_fails_closed_on_nan_inf_and_overflow():
    good = pd_stacks(31, dim=3, k=1, count=5)[0]
    for bad in (np.nan, np.inf, -np.inf):
        M = good.copy()
        M[2, 0, 1] = M[2, 1, 0] = bad
        M[3, 1, 1] = bad
        assert _proof(M).tolist() == [True, True, False, False, True]
        assert [_proof(X) for X in M] == [True, True, False, False, True]
    # The factor works at the square root of the scale, so 1e160 is
    # proven; a trace past the largest float leaves a PD matrix unproven.
    # No numpy warning escapes, the overflowing squares of their norms
    # included.
    assert _proof(1e160 * good[:1])[0] and _proof(1e160 * good[0])
    huge = np.diag([1e308] * 3).astype(complex)
    assert not _proof(huge[None])[0] and not _proof(huge)


def _proof_on_a_copy(M, floor) -> bool:
    # The reference for the lone proof: _cholesky on the parts of a copy of
    # M whose diagonal is assigned M's, each less tau.
    n = M.shape[-1]
    shift = (2 * n + 2) * matcore._UNIT_ROUNDOFF * (1.0 + 1e-3) + 2.0 * matcore.JACOBI_OFF_RTOL
    d = M.diagonal().real.tolist()
    tau = floor + shift * sum(map(abs, d))
    A = M.copy()
    A[np.arange(n), np.arange(n)] = [x - tau for x in d]
    try:
        matcore._cholesky(*matcore._LONE.parts(A), matcore._LONE)
    except PositivityError:
        return False
    return True


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [3, 4, 6])
def test_the_lone_proof_shifts_the_parts_as_a_shifted_copy_would(n):
    # The lone proof shifts the diagonal of the parts _cholesky reads, with
    # no copy of M. Over both matrices of each pair of the frame's corpus
    # (tests/test_cholesky_frame.py), the proof corpus with lambda_min at
    # pd_tolerance * (1 -+ 10^-k), and matrices with a NaN or an infinite
    # entry on or off the diagonal, it decides as the reference does,
    # against the certificate's tolerance and against 0, and leaves M as it
    # was; a NaN or an infinity fails closed.
    from test_cholesky_frame import _corpus as frame_corpus

    mats = [X for A, B, _ in frame_corpus(n) for X in (A, B)] + list(_proof_corpus(n))
    bad = []
    for value in (np.nan, np.inf, -np.inf):
        for i, j in ((0, 1), (n - 1, n - 2), (1, 1)):
            M = mats[0].copy()
            M[i, j] = M[j, i] = value
            bad.append(M)
    decided = []
    for M in mats + bad:
        before = M.tobytes()
        for floor in (matcore.pd_tolerance(M), 0.0):
            decided.append(matcore._cholesky_proof(M, floor))
            assert decided[-1] is _proof_on_a_copy(M, floor)
        assert M.tobytes() == before
    assert not any(decided[-2 * len(bad):])
    # Not vacuous: the proof passes some matrices and leaves others open.
    assert any(decided) and not all(decided[: -2 * len(bad)])


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


@pytest.mark.parametrize("n", [3, 4, 6])
def test_a_proven_matrix_gets_the_eigenvalue_routes_answer(n):
    # On the corpus, lambda_min at pd_tolerance * (1 -+ 10^-k) included,
    # every matrix the proof passes against a floor is passed by the
    # eigenvalues as well: its certificate, read lazily, clears the
    # tolerance; its order violation is 0; its Gram test of invertibility
    # holds. Only the unproven ones differ from a proof's answer.
    M = _proof_corpus(n)
    tol, norms = matcore.pd_tolerance(M), matcore._norms(M)
    w = matcore._eig_values(M)
    certified = matcore._cholesky_proof(M, tol)
    assert np.all(w[certified, 0] > tol[certified])
    for X in M[certified]:
        P = matcore._pd_result(X.copy())
        assert "min_eigenvalue" not in vars(P)
        assert P.min_eigenvalue == matcore._certify_stack(X)
    ordered = matcore._cholesky_proof(M, 0.0)
    assert ordered[certified].all() and np.all(np.maximum(0.0, -w[ordered, 0]) == 0.0)
    assert np.array_equal(matcore._order_violation(np.zeros_like(M), M), np.maximum(0.0, -w[:, 0]))
    invertible = matcore._cholesky_proof(M, 1e-24 * norms)
    assert np.all(w[invertible, 0] > 1e-24 * w[invertible, -1])
    # Not vacuous: each proof passes the random grams at scale 1.
    assert certified[:8].all() and ordered[:8].all() and invertible[:8].all()


def _decision(certify, X):
    # What a certificate route says of X: its lambda_min, or its refusal's text.
    try:
        return float(certify(X))
    except PositivityError as exc:
        return str(exc)


def test_a_lone_and_a_stacked_2x2_certificate_decide_alike():
    # On the corpus, lambda_min at pd_tolerance * (1 -+ 10^-k) for
    # k = 1..6 at scales 1 and 1e100 included, the lone certificate on
    # Python floats passes what a stack of one passes, with its lambda_min,
    # and refuses the rest with the same PositivityError; so does
    # PdMatrix.certify, and a whole stack names its first refused matrix.
    M = _proof_corpus(2)
    lone = [_decision(matcore._certificates, X) for X in M]
    assert lone == [_decision(lambda X: matcore._certify_stack(X[None])[0], X) for X in M]
    assert lone == [_decision(lambda X: PdMatrix.certify(X).min_eigenvalue, X) for X in M]
    assert lone == [_decision(lambda X: matcore._pd_result(X.copy()).min_eigenvalue, X) for X in M]
    refused = [d for d in lone if isinstance(d, str)]
    with pytest.raises(PositivityError, match=re.escape(refused[0])):
        matcore._certified(M)
    # Not vacuous: a lambda_min placed a tenth below the tolerance is
    # refused and one placed a tenth above passes, at both scales.
    placed = 45
    assert isinstance(lone[placed], str) and isinstance(lone[placed + 12], str)
    assert isinstance(lone[placed + 1], float) and isinstance(lone[placed + 13], float)


def test_a_lazily_read_2x2_certificate_is_the_eager_one():
    # A lone 2x2 result reads its lambda_min at construction, from the
    # values-only closed form on Python floats; read lazily it has the
    # same bits.
    for X in _proof_corpus(2):
        X = X.copy()
        X.setflags(write=False)
        lazy = object.__new__(PdMatrix)
        object.__setattr__(lazy, "mat", X)
        assert _decision(lambda _: lazy.min_eigenvalue, X) == _decision(lambda X: matcore._pd_result(X).min_eigenvalue, X)


def _lean(M):
    # _pd_result of a copy, which it makes read-only.
    return matcore._pd_result(np.array(M, dtype=complex))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_lazily_read_certificate_is_the_eager_one_bit_for_bit(n):
    # At n = 2 the certificate is read at construction; at n >= 3 the proof
    # leaves it unread until asked, and it then has the bits of the
    # eigenvalue certificate (_certify_stack), once, for the means,
    # wasserstein_alt and both geodesics.
    from meanlab import GEODESIC_BW, GEODESIC_TRACE, SPECTRAL_GEOMETRIC, WASSERSTEIN, geodesic
    from meanlab import ARITHMETIC, conventional_power, wasserstein_alt

    A, B = (PdMatrix.certify(X[0]) for X in pd_stacks(0, 48, n, dim=n, k=2, count=1))
    kinds = (ARITHMETIC, HARMONIC, GEOMETRIC, WASSERSTEIN, SPECTRAL_GEOMETRIC, kubo_ando_power(-0.5), conventional_power(0.5))
    results = [mean(kind, A, B) for kind in kinds] + [wasserstein_alt(A, B)]
    results += [geodesic(kind, A, B, 0.3) for kind in (GEODESIC_BW, GEODESIC_TRACE)]
    for M in results:
        assert ("min_eigenvalue" in vars(M)) == (n == 2)
        eager = matcore._certify_stack(M.mat.copy())
        assert M.min_eigenvalue == eager and vars(M)["min_eigenvalue"] == eager
        assert not M.mat.flags.writeable and M.mat.base is None
    # The dataclass's __repr__ reads the field, lazily too.
    M, N = mean(GEOMETRIC, A, B), mean(GEOMETRIC, A, B)
    assert repr(M) == repr(PdMatrix.certify(M.mat.copy()))
    assert M == M and N.min_eigenvalue == M.min_eigenvalue
    with pytest.raises(AttributeError, match="no attribute 'matrix'"):
        M.matrix


@pytest.mark.parametrize("n", [3, 4])
def test_a_matrix_the_proof_leaves_open_is_decided_by_its_eigenvalues(n):
    # An indefinite matrix and one whose lambda_min clears the tolerance by
    # 1e-14 tr, less than the proof's margin for Jacobi's error but more
    # than its rounding bound: the proof leaves both open, so the first
    # raises the eigenvalue route's PositivityError, in the words it always
    # had, and the second is certified with its eager lambda_min, lone
    # (PdMatrix.certify or a result) or stacked.
    Q = random_unitary(rng_for(49, n), n)
    tail = np.arange(2.0, n + 1.0)
    bad = _sym((Q * np.concatenate([[-1e-3], tail])) @ Q.conj().T)
    lam = float(matcore._eig_array(bad)[0][0])
    message = f"minimum eigenvalue {lam:.3e} does not clear the positivity tolerance"
    for certify in (PdMatrix.certify, _lean, matcore._certified):
        with pytest.raises(PositivityError, match=f"^{re.escape(message)}$"):
            certify(bad)
    tol = matcore.PD_TOLERANCE * math.hypot(*tail)
    close = _sym((Q * np.concatenate([[tol + 1e-14 * (tol + tail.sum())], tail])) @ Q.conj().T)
    assert not matcore._cholesky_proof(close, matcore.pd_tolerance(close))
    lam = float(matcore._eig_array(close)[0][0])
    assert vars(_lean(close))["min_eigenvalue"] == vars(PdMatrix.certify(close))["min_eigenvalue"] == lam
    assert np.array_equal(matcore._certified(close), close)


def test_every_order_and_congruence_stack_of_verify_all_is_decided_alike(monkeypatch):
    # verify --all at seeds 0 and 1: each matrix the proofs of the axiom
    # battery pass (M2 - M1 of every order check, C*C of every invertibility
    # check, at n = 3) is passed by its eigenvalues as well.
    import contextlib
    import io

    from meanlab import means
    from meanlab.cli import main

    orders, grams = [], []

    def order(M1, M2, real=means._order_violation):
        orders.append(_sym(M2 - M1))
        return real(M1, M2)

    def congruences(C, *mats, real=means._congruences):
        grams.append(_sym(C.conj().swapaxes(-1, -2) @ C))
        return real(C, *mats)

    monkeypatch.setattr(means, "_order_violation", order)
    monkeypatch.setattr(means, "_congruences", congruences)
    for seed in (0, 1):
        with contextlib.redirect_stdout(io.StringIO()):
            main(["verify", "--all", "--json", "--seed", str(seed)])
    D = np.concatenate([X for X in orders if X.shape[-1] >= 3])
    G = np.concatenate([X for X in grams if X.shape[-1] >= 3])
    assert len(D) and len(G)
    ordered = matcore._cholesky_proof(D, 0.0)
    assert ordered.all() and np.all(np.maximum(0.0, -matcore._eig_values(D)[:, 0]) == 0.0)
    invertible = matcore._cholesky_proof(G, 1e-24 * matcore._norms(G))
    w = matcore._eig_values(G)
    assert invertible.all() and np.all(w[:, 0] > 1e-24 * w[:, -1])


def test_every_site_that_asks_the_proof_decides_as_the_eigenvalues(monkeypatch):
    # With a proof that proves nothing, every site that asks it (the
    # certificates, the order and invertibility checks, and the axiom
    # battery's shifted A and C) reads the eigenvalues instead, and every
    # output keeps its bytes: criterion 7's four kinds at dim 3 (20 samples,
    # seeds 0 and 1), and at dim 4 the mean of seven kinds and the
    # certificate of each matrix, with min_eigenvalue.
    from meanlab import means
    from meanlab.means import (
        ARITHMETIC, SPECTRAL_GEOMETRIC, WASSERSTEIN, check_kubo_ando_axioms, conventional_power,
    )

    axiom_kinds = (HARMONIC, GEOMETRIC, kubo_ando_power(0.5), kubo_ando_power(-0.5))
    kinds = (
        ARITHMETIC, HARMONIC, GEOMETRIC, kubo_ando_power(0.5), conventional_power(0.5), SPECTRAL_GEOMETRIC, WASSERSTEIN,
    )

    def outputs():
        out = [check_kubo_ando_axioms(kind, samples=20, rng_seed=seed, dim=3).to_json()
               for kind in axiom_kinds for seed in (0, 1)]
        for a, b in zip(*pd_stacks(36, dim=4, k=2, count=10)):
            A, B = PdMatrix.certify(a), PdMatrix.certify(b)
            for M in [A] + [mean(kind, A, B) for kind in kinds]:
                out.append((M.mat.tobytes(), M.min_eigenvalue.hex()))
        return out

    proven = outputs()
    sites = set()

    def unproven(M, floor):
        sites.add(sys._getframe(1).f_code.co_name)
        return False if M.ndim == 2 else np.zeros(len(M), dtype=bool)

    monkeypatch.setattr(matcore, "_cholesky_proof", unproven)
    monkeypatch.setattr(means, "_cholesky_proof", unproven)
    assert outputs() == proven
    assert sites == {"_certificates", "_order_violation", "_congruences", "check_kubo_ando_axioms"}


@pytest.mark.filterwarnings("error")
def test_overflowing_norms_are_taken_again_scaled():
    # Squares of entries past about 1.3e154 overflow; the norm is then taken
    # with the matrix scaled by a power of two, and the certificate holds.
    # Neither a lone norm nor a stack's warns of the overflowing squares.
    P = PdMatrix.certify(HermitianMatrix(1e160 * np.diag([1.0, 2.0])))
    assert P.min_eigenvalue == 1e160
    assert P.norm() == pytest.approx(math.sqrt(5.0) * 1e160, rel=1e-15)
    pairs = [(random_pd(rng_for(34, i), 2).mat, random_pd(rng_for(35, i), 2).mat) for i in range(6)]
    A, B = (np.array(side) for side in zip(*pairs))
    big = commutator_norm(1e100 * A, 1e100 * B)
    assert np.array_equal(big, [commutator_norm(1e100 * a, 1e100 * b) for a, b in pairs])
    assert np.all(big > 1e200) and np.all(np.isfinite(big))
    assert big == pytest.approx(1e200 * commutator_norm(A, B), rel=1e-14)
    # A finite norm keeps its bits, alone or beside an overflowing one.
    mixed = np.array([A[0], 1e160 * A[1]])
    assert np.array_equal(matcore._norms(mixed), [matcore._norms(X) for X in mixed])
    assert matcore._norms(mixed)[0] == np.linalg.norm(A[0])
    assert math.isinf(matcore._norms(np.array([[np.inf, 0.0], [0.0, 1.0]])))
    assert math.isinf(matcore._norms(np.full((2, 2), 1.7e308)))
    assert np.isinf(matcore._norms(np.full((3, 2, 2), 1.7e308))).all()


@pytest.mark.filterwarnings("error")
def test_huge_inputs_certify_and_average_without_a_numpy_warning():
    # The lone norm's first try no longer warns when its squares overflow:
    # PdMatrix.certify of diag(1e160, 2e160), and the Kubo-Ando means of a
    # 3x3 pair at that scale, whose Cholesky frame works at the square root
    # of the scale, give no RuntimeWarning.
    P = PdMatrix.certify(np.diag([1e160, 2e160]))
    assert P.min_eigenvalue == 1e160
    A, B = (1e160 * M for M in pd_stacks(0, 36, dim=3, k=2, count=1))
    A, B = PdMatrix.certify(A[0]), PdMatrix.certify(B[0])
    for kind in (GEOMETRIC, HARMONIC, kubo_ando_power(-0.5)):
        M = mean(kind, A, B)
        assert M.min_eigenvalue > 0.0 and np.all(np.isfinite(M.mat))


def test_the_lone_norm_keeps_the_bits_of_numpys_norm():
    # np.vdot of the flattened real and imaginary parts gives the bits of
    # np.linalg.norm at every size up to 10, and at scales 1e-100 to 1e100.
    rng = rng_for(37)
    for n in range(1, 11):
        for scale in _SCALES:
            X = scale * random_complex(rng, n)
            assert matcore._norms(X) == np.linalg.norm(X)
            assert matcore._norms(X.ravel()) == np.linalg.norm(X.ravel())


@pytest.mark.filterwarnings("error")
def test_a_lone_norm_whose_squares_overflow_in_their_sum_does_not_warn():
    # Each dot of X's real or imaginary parts is finite, their sum is not:
    # the lone norm takes it again, scaled, with no numpy warning, at n = 2
    # and for X with a third diagonal entry; PdMatrix.certify too.
    X = np.array([[0.9e154, 0.85e154j], [-0.85e154j, 0.9e154]])
    X3 = np.zeros((3, 3), dtype=complex)
    X3[:2, :2], X3[2, 2] = X, 0.3e154
    for M in (X, X3):
        assert frobenius(M) == matcore._norms(M[None])[0] == pytest.approx(np.linalg.norm(M / 1e154) * 1e154, rel=1e-15)
        assert PdMatrix.certify(M).min_eigenvalue == pytest.approx(5e152, rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_a_2x2_stack_near_the_largest_float_raises_without_a_numpy_warning():
    # diag(1.3e308, 1.3e308) in a stack: its diagonal mean overflows, as it
    # does on Python floats, with no numpy warning, and the stack raises
    # the typed errors the lone matrix raises.
    huge = np.diag([1.3e308, 1.3e308]).astype(complex)
    stack = np.array([np.eye(2, dtype=complex), huge])
    for call, error in ((matcore._certify_stack, PositivityError), (lambda X: _pow_arr(X, 3.0), DomainError)):
        with pytest.raises(error) as alone:
            call(huge)
        with pytest.raises(error) as stacked:
            call(stack)
        assert str(stacked.value) == str(alone.value)


def _two_by_two_norm_corpus() -> list:
    # General complex 2x2 matrices (not only Hermitian) at scales 1e-300 to
    # 1e300, with signed zeros, subnormal, infinite and NaN entries put in.
    rng = rng_for(38)
    mats = [s * random_complex(rng, 2) for s in 10.0 ** np.array([-300, -160, -150, -8, 0, 8, 150, 154, 160, 300]) for _ in range(40)]
    for special in (0.0, -0.0, 5e-324, -3e-310, 2.2e-308, np.inf, -np.inf, np.nan):
        for k in range(8):
            X = random_complex(rng, 2)
            X.view(np.float64).reshape(8)[k] = special
            mats.append(X)
    mats += [np.zeros((2, 2), complex), -0.0 * np.ones((2, 2), complex), np.full((2, 2), 1.7e308 + 1.7e308j)]
    return mats


@pytest.mark.filterwarnings("error")
def test_the_lone_2x2_norm_on_python_floats_has_the_bits_of_numpys_norm():
    # A lone 2x2 is normed on Python floats, (x0^2 + x2^2) + (x1^2 + x3^2)
    # for the real and the imaginary parts, with the bits of np.linalg.norm
    # (OpenBLAS's 4-entry ddot) wherever that norm is finite, and with the
    # bits a stack of one gets where its squares overflow; infinite entries
    # give inf and NaN ones NaN. It is a Python float.
    for X in _two_by_two_norm_corpus():
        got = matcore._norms(X)
        assert type(got) is float
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.linalg.norm(X)
        stacked = matcore._norms(X[None])[0]
        if math.isnan(want):
            assert math.isnan(got) and math.isnan(stacked)
        elif math.isfinite(want) or np.isinf(X).any():
            assert got == want == stacked
        else:
            k = math.frexp(np.abs(X.view(np.float64)).max())[1]
            with np.errstate(over="ignore"):
                scaled = np.ldexp(np.linalg.norm(X * 2.0**-k), k)
            assert got == stacked == pytest.approx(scaled, rel=1e-15)



# 2x2 powers are built from the eigenvalues alone (matcore._power2); these
# check the form against 50-digit mpmath, and the lone route against the
# stacked one.
TWO_BY_TWO_POWERS = (0.5, -0.5, 1.0 / 3.0, 0.3, -1.0, 2.0)


def _two_by_two_corpus() -> np.ndarray:
    # Clustered spectra, hi / lo - 1 from 1e-1 down to 1e-12; kappa from
    # 1e2 to 1e12, ungraded and graded (D M D with M well conditioned and
    # D = diag(1, 10^(-k/2))); scales 1e-100 and 1e100; the b = 0 rows I,
    # a < d and a > d.
    rng = rng_for(20)
    mats = []
    for k in range(1, 13):
        mats += [spectral(rng, (1.0, 1.0 + 10.0**-k)), spectral(rng, (3.0, 3.0 * (1.0 + 10.0**-k)))]
    for k in range(2, 13, 2):
        D = np.diag([1.0, 10.0 ** (-k / 2)])
        mats += [spectral(rng, (1.0, 10.0**k)), D @ spectral(rng, (1.0, 4.0)) @ D]
    for scale in (1e-100, 1e100):
        mats += [scale * spectral(rng, (1.0, 1.5)), scale * spectral(rng, (1.0, 1e3))]
    mats += [np.eye(2), np.diag([1.0, 5.0]), np.diag([5.0, 1.0])]
    return np.array(mats, dtype=complex)


@pytest.mark.filterwarnings("error")
def test_2x2_powers_meet_mpmath_within_a_pinned_multiple_of_eps_kappa():
    # Over the corpus and every p the worst error measured 1.58 eps kappa,
    # where V diag(lambda ** p) V* measured 2.04.
    corpus = _two_by_two_corpus()
    worst = 0.0
    for p in TWO_BY_TWO_POWERS:
        for X, P in zip(corpus, _pow_arr(corpus, p)):
            kappa = np.linalg.cond(X)
            worst = max(worst, relative_error(P, reference(X, X, "power", p)) / (np.finfo(float).eps * kappa))
    assert worst <= 2.0


def test_the_corpus_takes_both_branches_of_the_divided_difference():
    # lambda_1 < lambda_2 / 2 takes the plain quotient, the rest atanh.
    plain = near = 0
    for X in _two_by_two_corpus():
        w, pieces = matcore._eig2_values(X)
        if not pieces[5]:  # b != 0
            plain += w[0] < w[1] / 2.0
            near += not w[0] < w[1] / 2.0
    assert plain >= 10 and near >= 20


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", TWO_BY_TWO_POWERS)
def test_2x2_powers_of_a_stack_equal_the_lone_ones_bit_for_bit(p):
    # The whole corpus, reversed, and a mixed stack of b = 0 rows, clustered
    # and graded ones, each with its certificate, compared byte for byte
    # (the sign of a zero included); then two powers at once. Each is
    # exactly Hermitian, as _sym gives it back, so the certified powers
    # need not symmetrize it.
    corpus = _two_by_two_corpus()
    for stack in (corpus, corpus[::-1], corpus[[-1, 0, 30, -3, 11, -2]]):
        P, cert = _pow_arr(stack, p, certify=True)
        assert P.tobytes() == _sym(P).tobytes()
        for X, Pi, ci in zip(stack, P, cert):
            Pl, cl = _pow_arr(X, p, certify=True)
            assert Pi.tobytes() == Pl.tobytes() == _sym(Pl).tobytes() and ci == cl
    both = _pow_arr(corpus, p, -p)
    assert all(B.tobytes() == _pow_arr(corpus, q).tobytes() for B, q in zip(both, (p, -p)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [1.0, 3.0])
def test_2x2_integer_powers_of_a_stack_keep_the_sign_of_a_zero_eigenvalue(p):
    # A diagonal matrix with a -0.0 eigenvalue, in either diagonal order,
    # beside one with b != 0: each row of the stack byte for byte as alone,
    # the sign of the zero included.
    Z = np.array([np.diag([-0.0, 1.0]), spectral(rng_for(22), (1.0, 4.0)), np.diag([1.0, -0.0])], dtype=complex)
    assert all(Zi.tobytes() == _pow_arr(X, p).tobytes() for X, Zi in zip(Z, _pow_arr(Z, p)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", TWO_BY_TWO_POWERS)
@pytest.mark.parametrize("a, d", [(2.0, 5.0), (3.0, 3.0), (5.0, 2.0)])
def test_2x2_powers_of_a_diagonal_matrix_are_the_diagonal_powers_byte_for_byte(a, d, p):
    # diag(a, d) ** p is diag(a ** p, d ** p) with +0.0 in every zero part,
    # the imaginary part of entry (1, 0) included: lone, in a stack of
    # diagonal matrices, and beside a matrix with b != 0.
    X = np.diag([a, d]).astype(complex)
    want = np.diag([a**p, d**p]).astype(complex).tobytes()
    assert _pow_arr(X, p).tobytes() == want
    assert _pow_arr(np.array([X, X]), p)[1].tobytes() == want
    assert _pow_arr(np.array([spectral(rng_for(22), (1.0, 4.0)), X]), p)[1].tobytes() == want


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (-2.0, 1.0), (0.0, 1.0), (-1.0, -0.5), (-1.0, 1.0 + 1e-9)])
def test_integer_powers_with_a_non_positive_eigenvalue_take_the_plain_quotient(lo, hi):
    # _power_guard lets an integer p >= 0 through when lambda_1 <= 0; the
    # atanh branch would take the square root of a negative f_1 there.
    X = spectral(rng_for(21), (lo, hi))
    w, pieces = matcore._eig2_values(X)
    assert not pieces[5] and w[0] <= 0.0 and w[0] < w[1] / 2.0
    for p in (0.0, 1.0, 2.0, 3.0):
        want = np.linalg.matrix_power(X, int(p))
        got = _pow_arr(X, p)
        assert frobenius(got - want) <= 1e-14 * max(1.0, frobenius(want))
        assert _pow_arr(X[None], p)[0].tobytes() == got.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "arr, p, certify, error, message",
    [
        ([[0.5, 1.5], [1.5, 0.5]], 0.5, False, PositivityError, "power 0.5 of a matrix with minimum eigenvalue -1.000e+00"),
        ([[1.0, 1.0], [1.0, 1.0]], 2.0, True, PositivityError, "power 2.0 of a matrix with minimum eigenvalue 0.000e+00"),
        ([[1e10, 1e-3], [1e-3, 1.0]], 40.0, False, DomainError, "power 40.0 overflows at eigenvalue 1.000e+10"),
    ],
    ids=["fractional", "certified", "overflow"],
)
def test_2x2_power_guard_errors_keep_their_text(arr, p, certify, error, message):
    X = np.asarray(arr, dtype=complex)
    for operand in (X, _stack_around(X)):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            _pow_arr(operand, p, certify=certify)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize(
    "ends, ps, certify, error, message",
    [
        ((-1.0, 2.0), (2.0, 0.5), False, PositivityError, "power 0.5 of a matrix with minimum eigenvalue -1.000e+00"),
        ((0.0, 2.0), (1.0,), True, PositivityError, "power 1.0 of a matrix with minimum eigenvalue 0.000e+00"),
        ((1e-10, 1e10), (0.5, -40.0), False, DomainError, "power -40.0 overflows at eigenvalue 1.000e-10"),
        ((1.0, 1e20), (3.0, 36.0), False, DomainError, "power 36.0 overflows at eigenvalue 1.000e+20"),
    ],
    ids=["fractional", "certified", "overflow-at-lambda-min", "overflow-at-lambda-max"],
)
def test_power_guard_names_the_first_failing_power_and_its_eigenvalue(n, ends, ps, certify, error, message):
    # The guard does its p-independent work once per call and builds the
    # text only when a power fails: the first p of ps that fails, and the
    # eigenvalue the per-power test would name (lambda_min before
    # lambda_max), lone and inside a stack.
    X = np.diag(np.linspace(*ends, n)).astype(complex)
    good = random_pd(rng_for(3), n).mat
    for operand in (X, np.array([good, X, good])):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            _pow_arr(operand, *ps, certify=certify)
