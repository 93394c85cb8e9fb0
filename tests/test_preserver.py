"""Scalar functionals on the positive cone, the diagonal-subalgebra model,
and the coefficient solver for the preservation equation."""

import re
import warnings

import numpy as np
import pytest

from meanlab import preserver
from meanlab import (
    ARITHMETIC,
    CRITERIA,
    GEOMETRIC,
    HARMONIC,
    DimMismatch,
    WASSERSTEIN,
    DomainError,
    HermitianMatrix,
    MasaFunctional,
    NotInCone,
    ScalarFunctional,
    canonical_direction,
    constant_functional,
    identity_pd,
    kubo_ando_power,
    linear_functional,
    masa_eval,
    masa_split,
    mean,
    mpow,
    pauli_basis,
    pauli_pair,
    phi_of,
    preserver_residual,
    random_pd,
    rng_for,
    solve_coefficients,
    trace_power_functional,
)
from meanlab.preserver import _residual_arr
from meanlab.sampling import draws, stacked

SZ, SX, U = pauli_basis()
I2 = np.eye(2, dtype=complex)

CONSTANT_TOL = 1e-13
LINEAR_TOL = 1e-12
VANISH_TOL = 1e-10
SEPARATION_FLOOR = 1e-4


def test_constant_functional_preserves_every_mean(rng):
    f = constant_functional(1.7)
    for kind in (kubo_ando_power(0.5), WASSERSTEIN, kubo_ando_power(-0.5)):
        A = random_pd(rng, 2)
        B = random_pd(rng, 2)
        assert preserver_residual(f, kind, A, B) <= CONSTANT_TOL


def test_residual_supports_only_the_studied_kinds(rng):
    f = constant_functional(1.0)
    A, B = random_pd(rng, 2), random_pd(rng, 2)
    with pytest.raises(DomainError, match="not harmonic"):
        preserver_residual(f, HARMONIC, A, B)
    with pytest.raises(DomainError, match="not harmonic"):
        _residual_arr(f, HARMONIC, np.array([A.mat] * 3), np.array([B.mat] * 3))


def _weights(count):
    # One trace-normalized PSD weight per pair, for f = tr(W .).
    G = np.array([random_pd(rng_for(8, i), 2).mat for i in range(count)])
    return G / np.trace(G, axis1=-2, axis2=-1).real[:, None, None]


@pytest.mark.parametrize("kind", [ARITHMETIC, kubo_ando_power(0.5), kubo_ando_power(-0.5), WASSERSTEIN],
                         ids=lambda k: k.label)
@pytest.mark.parametrize("name", ["constant", "linear", "trace-power"])
def test_stacked_residual_matches_each_pair_bit_for_bit(name, kind):
    # Every functional admits every kind the residual takes. The stacked
    # route runs the stacked kernels, which match the lone-matrix ones bit
    # for bit, and np.power, as a lone pair does, so the match is exact. The linear functional weighs each pair with its own W.
    pairs = draws(lambda rng: (random_pd(rng, 2), random_pd(rng, 2)), 7, count=20)
    W = _weights(len(pairs))
    if name == "linear":
        f, each = linear_functional(W), [linear_functional(HermitianMatrix(w)) for w in W]
    else:
        f = constant_functional(1.7) if name == "constant" else trace_power_functional(0.5)
        each = [f] * len(pairs)
    got = _residual_arr(f, kind, *stacked(pairs))
    want = [preserver_residual(g, kind, A, B) for g, (A, B) in zip(each, pairs)]
    assert got.shape == (len(pairs),)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("p", [0.5, -0.5])
def test_trace_power_residual_matches_the_np_power_route(p):
    # The functional's outer power and the scalar m_p are taken with
    # np.power, as the eigenvalue powers are, for a stack as for one value;
    # Python's pow can differ from it in the last bit.
    kind = kubo_ando_power(p)
    pairs = draws(lambda rng: (random_pd(rng, 2), random_pd(rng, 2)), 9, count=50)

    def f(X):
        return np.power(float(np.trace(mpow(X, p).mat).real) / X.dim, 1.0 / p)

    want = [
        abs(f(mean(kind, A, B)) - np.power((np.power(f(A), p) + np.power(f(B), p)) / 2.0, 1.0 / p))
        for A, B in pairs
    ]
    assert np.array_equal(_residual_arr(trace_power_functional(p), kind, *stacked(pairs)), want)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
def test_functional_checks_every_value_of_a_stack(bad):
    X = np.array([np.eye(2, dtype=complex)] * 4)
    f = ScalarFunctional(lambda X: np.where(np.arange(len(X)) == 2, bad, 1.0), label="one bad")
    with pytest.raises(DomainError, match="one bad"):
        f(X)
    # Through the residual: one weight of the stack is negative definite.
    W = np.array([np.eye(2) / 2.0] * 4)
    W[1] = -W[1]
    with pytest.raises(DomainError, match="non-positive"):
        _residual_arr(linear_functional(W), ARITHMETIC, X, X)


@pytest.mark.parametrize("kind", [kubo_ando_power(0.5), WASSERSTEIN], ids=lambda k: k.label)
def test_solve_canonicalizes_each_direction_once(kind, monkeypatch):
    # Matrices canonicalized, a stack counted per matrix: three directions
    # at construction of the probe functional, which is built once for all
    # solves, then one per matrix of the cross-check's stack (3 per grid
    # point, 6 points), split in one call: 21, and 18 for every later solve.
    # Looking the probe's three coefficients up by direction would make 24;
    # canonicalizing masa_split's key again per evaluation, and looking the
    # three up per grid point, 57.
    calls = []
    original = preserver._canonical

    def counting(arr):
        calls.append(len(arr) if arr.ndim == 3 else 1)
        return original(arr)

    monkeypatch.setattr(preserver, "_canonical", counting)
    preserver._masa_probe.cache_clear()
    solve_coefficients(kind)
    assert calls == [1, 1, 1, 18]
    calls.clear()
    solve_coefficients(kind)
    assert calls == [18]


def test_constant_functional_rejects_nonpositive():
    with pytest.raises(DomainError):
        constant_functional(0.0)


def test_linear_functional_under_the_arithmetic_mean(rng):
    f = linear_functional(HermitianMatrix(0.5 * I2))
    for _ in range(10):
        A = random_pd(rng, 2)
        B = random_pd(rng, 2)
        assert preserver_residual(f, ARITHMETIC, A, B) <= LINEAR_TOL


def test_trace_power_parameter_range():
    with pytest.raises(DomainError):
        trace_power_functional(0.0)
    with pytest.raises(DomainError):
        trace_power_functional(1.5)


def test_trace_power_is_exact_on_commuting_pairs(pd):
    f = trace_power_functional(0.5)
    A = pd(np.diag([1.0, 4.0]))
    B = pd(np.diag([9.0, 16.0]))
    assert preserver_residual(f, kubo_ando_power(0.5), A, B) == pytest.approx(
        0.0, abs=1e-14
    )


def test_trace_power_fails_on_the_matched_pair():
    """A genuine non-preserver: the residual sits well above the floor."""
    f = trace_power_functional(0.5)
    A, B = pauli_pair(0.5)
    assert preserver_residual(f, kubo_ando_power(0.5), A, B) >= SEPARATION_FLOOR


def test_phi_of_composition():
    f = trace_power_functional(0.5)
    phi = phi_of(f, 0.5)
    X = random_pd(rng_for(3), 2)
    assert phi(mpow(X, 0.5)) == pytest.approx(f(X) ** 0.5, rel=1e-12)


def test_jensen_routes_vanish_together(pd):
    """Preservation under m_p and the phi route compare the same point after
    the monotone rescaling x to x^p, so the residuals share their zero set
    without being equal as numbers."""
    p = 0.5
    f = trace_power_functional(p)
    phi = phi_of(f, p)

    def both(A, B):
        M = mean(kubo_ando_power(p), A, B)
        res_f = preserver_residual(f, kubo_ando_power(p), A, B)
        res_phi = abs(
            phi(mpow(M, p)) - (phi(mpow(A, p)) + phi(mpow(B, p))) / 2.0
        )
        return res_f, res_phi

    res_f, res_phi = both(pd(np.diag([1.0, 4.0])), pd(np.diag([9.0, 16.0])))
    assert res_f <= VANISH_TOL and res_phi <= VANISH_TOL
    res_f, res_phi = both(*pauli_pair(0.5))
    assert res_f > VANISH_TOL and res_phi > VANISH_TOL


def test_functional_rejects_nonpositive_output():
    bad = ScalarFunctional(lambda X: -1.0, label="negative")
    with pytest.raises(DomainError):
        bad(identity_pd(2))


def test_masa_split_recovers_coordinates():
    t, s, G = masa_split(I2 + 0.5 * SZ.mat)
    assert (t, s) == (1.0, 0.5)
    assert np.array_equal(G.mat, SZ.mat)
    t, s, G = masa_split(I2 - 0.5 * SZ.mat)
    assert (t, s) == (1.0, -0.5)
    assert np.array_equal(G.mat, SZ.mat)


def test_masa_split_of_a_scalar_has_no_direction():
    t, s, G = masa_split(2.0 * I2)
    assert (t, s) == (2.0, 0.0)
    assert G is None


def test_masa_eval_is_the_expected_linear_form():
    m = MasaFunctional(1.0, ((SZ, 1.0),))
    assert masa_eval(m, I2) == pytest.approx(1.0)
    assert masa_eval(m, I2 + 0.5 * SZ.mat) == pytest.approx(1.5)
    # A direction the functional never registered contributes nothing.
    assert masa_eval(m, I2 + 0.5 * SX.mat) == pytest.approx(1.0)


def test_masa_eval_needs_a_cone_point():
    m = MasaFunctional(1.0, ())
    with pytest.raises(NotInCone):
        masa_eval(m, I2 + 2.0 * SZ.mat)


def test_masa_negated_direction_is_the_same_key():
    neg = HermitianMatrix(-SZ.mat)
    m = MasaFunctional(1.0, ((neg, 0.7),))
    assert m.coefficient_for(SZ) == pytest.approx(0.7)


def test_masa_validation():
    with pytest.raises(DomainError):
        MasaFunctional(-0.1, ())
    with pytest.raises(DomainError):
        MasaFunctional(1.0, ((SZ, 1.5),))
    for c in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError):
            MasaFunctional(0.5, ((SZ, c),))
    with pytest.raises(DomainError):
        canonical_direction(HermitianMatrix(I2))
    with pytest.raises(DomainError):
        canonical_direction(
            HermitianMatrix(np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex))
        )


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: canonical_direction(np.eye(3)), DimMismatch, "directions live in M2"),
        (lambda: masa_split(np.eye(3)), DimMismatch, "defined on M2"),
        (lambda: solve_coefficients(HARMONIC), DomainError, "supports m_p and the Wasserstein mean"),
        (lambda: solve_coefficients(GEOMETRIC), DomainError, "supports m_p and the Wasserstein mean"),
    ],
    ids=["direction-outside-m2", "split-outside-m2", "solve-harmonic", "solve-geometric"],
)
def test_preserver_error_branches(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_canonical_direction_fixes_the_sign():
    flipped = canonical_direction(HermitianMatrix(-SX.mat))
    assert np.array_equal(flipped.mat, SX.mat)


def test_solver_at_the_identity_exponent():
    """p = 1 is the one exponent where the second-order row genuinely
    vanishes, so nothing constrains c_I there."""
    rep = solve_coefficients(kubo_ando_power(1.0))
    assert abs(rep.kappa_observed - rep.kappa_expected) <= 1e-6
    row2 = np.asarray(rep.rows[1])
    assert float(np.max(np.abs(row2))) <= 1e-6
    assert rep.null_dim == 3
    assert not rep.c_i_forced
    assert rep.c_i_projection == pytest.approx(1.0, abs=1e-9)


def test_solver_reports_honestly_at_half():
    rep = solve_coefficients(kubo_ando_power(0.5))
    assert abs(rep.kappa_observed - rep.kappa_expected) <= 1e-6
    # The measured second-order coefficient is fit noise, far from the
    # quoted reference; the solver must not manufacture a constraint.
    assert abs(rep.second_order_coefficient) <= 1e-5
    assert rep.second_order_reference == pytest.approx(0.0625)
    assert rep.null_dim == 3
    assert not rep.c_i_forced
    assert rep.c_i_projection == pytest.approx(1.0, abs=1e-9)
    assert rep.masa_crosscheck <= 1e-11


def test_solver_wasserstein_outer_power():
    rep = solve_coefficients(WASSERSTEIN)
    assert rep.outer_power == pytest.approx(0.5)
    assert abs(rep.kappa_observed - rep.kappa_expected) <= 1e-6
    assert not rep.c_i_forced


def test_contract_report_item_pattern():
    rep = solve_coefficients(kubo_ando_power(0.5)).contract_report()
    by_name = {item.name: item for item in rep.items}
    assert by_name["first-order constraint: kappa = 1/sqrt(2)"].passed
    assert by_name["affine model reproduces the sampled residual"].passed
    assert not by_name["c_I forced to zero (null-space projection)"].passed
    assert not rep.all_pass


def _masa_stack():
    # A stored direction and its negation (the sign flip), a scalar (s = 0),
    # a direction not stored (c_G = 0), then random 2x2 PD draws.
    drawn = [random_pd(rng_for(12, i), 2).mat for i in range(12)]
    return np.array([I2 + 0.5 * SZ.mat, I2 - 0.5 * SZ.mat, 2.0 * I2, I2 + 0.3 * SX.mat, *drawn])


def test_stacked_masa_split_and_eval_equal_one_matrix_at_a_time():
    X = _masa_stack()
    m = MasaFunctional(0.7, ((SZ, 0.4), (U, -0.5)))
    t, s, G = masa_split(X)
    for i, Xi in enumerate(X):
        ti, si, Gi = masa_split(Xi)
        assert (t[i], s[i]) == (ti, si)
        assert np.array_equal(G[i], np.zeros((2, 2)) if Gi is None else Gi.mat)
    assert s[1] == -s[0] and s[2] == 0.0
    values = masa_eval(m, X)
    assert np.array_equal(values, [masa_eval(m, Xi) for Xi in X])
    assert values[2] == 0.7 * 2.0 + 0.3
    assert values[3] == 0.7 * 1.0 + 0.3


def test_stacked_masa_eval_raises_not_in_cone_as_the_matrix_alone():
    X = _masa_stack()
    X[5] = I2 + 2.0 * SX.mat
    m = MasaFunctional(1.0, ())
    with pytest.raises(NotInCone) as alone:
        masa_eval(m, X[5])
    with pytest.raises(NotInCone, match=f"^{re.escape(str(alone.value))}$"):
        masa_eval(m, X)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.nan)], ids=str)
def test_masa_split_rejects_entries_that_are_not_finite(bad):
    # Alone and as one matrix of a stack, with no numpy warning on the way:
    # an infinite off-diagonal pair would otherwise split as the scalar I.
    M = np.array([[1.0, bad], [np.conj(bad), 1.0]], dtype=complex)
    X = _masa_stack()
    X[5] = M
    m = MasaFunctional(1.0, ())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: masa_split(M), lambda: masa_eval(m, M), lambda: masa_split(X), lambda: masa_eval(m, X)):
            with pytest.raises(DomainError, match="^matrix entries must be finite$"):
                call()


def test_criterion_5_makes_two_solves_per_coefficient_solve(monkeypatch):
    # Eight solves, each fitting its four coordinates in one lstsq at degree
    # 5 and one at degree 2: 16. One fit per coordinate would make 64.
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda V, b, **k: calls.append(b.shape) or lstsq(V, b, **k))
    CRITERIA[5]()
    assert calls == [(6, 4)] * 16
