"""Series extraction on the perturbed pair and the scalar mean profile.

Closed forms used as oracles here:
  (I + e sz)^(1/2)            = I + (e/2) sz - (e^2/8) I + O(e^3)
  A_e^(-1/2) B_e A_e^(-1/2)   = I + e (sx - sz) + e^2 I + O(e^3)
  harmonic mean of the pair   = (1 - e^2) / (1 - e^2/2) (I + e (sz + sx)/2),
which makes the harmonic c2 exactly -I/2.
"""

import json

import numpy as np
import pytest

from meanlab import (
    CRITERIA,
    DEFAULT_GRID,
    DomainError,
    EpsFamily,
    FitFailure,
    HermitianMatrix,
    IllConditioned,
    WASSERSTEIN,
    check_power_mean_expansion,
    check_unitary_invariance,
    check_wasserstein_expansion,
    commutator_norm,
    fit_series,
    fit_series_general,
    frobenius,
    gp_d1,
    gp_d2,
    gp_eval,
    kubo_ando_power,
    mean,
    mpow,
    pauli_basis,
    pauli_pair,
)
from meanlab import HARMONIC, expansion
from meanlab.matcore import _certified_power, _pow_arr
from meanlab.means import _q_arr
from meanlab.sampling import stacked

SZ, SX, _U = pauli_basis()
I2 = np.eye(2, dtype=complex)

EXACT_TOL = 1e-8
C1_CLOSED_TOL = 1e-6
C2_CLOSED_TOL = 1e-4
P_VALUES = (-0.9, -0.5, -0.1, 0.1, 0.5, 0.9)


def central_second_derivative(f, x, h=1e-4):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def test_exact_polynomial_family_is_recovered():
    fit = fit_series(lambda e: HermitianMatrix(I2 + 3.0 * e * SX.mat), DEFAULT_GRID)
    assert frobenius(fit.c0 - I2) <= EXACT_TOL
    assert frobenius(fit.c1 - 3.0 * SX.mat) <= EXACT_TOL
    assert frobenius(fit.c2) <= EXACT_TOL


def test_square_root_of_the_perturbed_factor():
    def family(e):
        A, _ = pauli_pair(e)
        return mpow(A, 0.5)

    fit = fit_series(family, DEFAULT_GRID)
    assert frobenius(fit.c1 - 0.5 * SZ.mat) <= C1_CLOSED_TOL
    assert frobenius(fit.c2 + 0.125 * I2) <= C2_CLOSED_TOL


def test_conjugated_factor_expansion():
    def family(e):
        A, B = pauli_pair(e)
        Aih = mpow(A, -0.5)
        return HermitianMatrix(Aih.mat @ B.mat @ Aih.mat)

    # The cubic tail of this family is large; halving the grid keeps the
    # truncation bias out of the c1 read.
    fit = fit_series(family, DEFAULT_GRID.scaled(0.5))
    assert frobenius(fit.c1 - (SX.mat - SZ.mat)) <= C1_CLOSED_TOL
    assert frobenius(fit.c2 - I2) <= C2_CLOSED_TOL


def test_harmonic_mean_second_order_closed_form():
    def family(e):
        A, B = pauli_pair(e)
        return mean(HARMONIC, A, B)

    fit = fit_series(family, DEFAULT_GRID)
    assert frobenius(fit.c0 - I2) <= 1e-9
    assert frobenius(fit.c1 - 0.5 * (SZ.mat + SX.mat)) <= C1_CLOSED_TOL
    assert frobenius(fit.c2 + 0.5 * I2) <= C2_CLOSED_TOL


def test_residual_bound_is_quadratic_fit_residual():
    fit = fit_series(lambda e: HermitianMatrix((1.0 + e**3) * I2), DEFAULT_GRID)
    # A pure cubic leaves the degree-2 read with a visible residual even
    # though the reported coefficients absorb it.
    assert fit.residual_bound > 1e-7
    assert frobenius(fit.c2) <= 1e-4


@pytest.mark.parametrize("p", P_VALUES)
def test_gp_normalization_and_slope(p):
    assert gp_eval(p, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert gp_d1(p, 1.0) == 0.5


@pytest.mark.parametrize("p", P_VALUES)
def test_gp_second_derivative_matches_central_differences(p):
    want = central_second_derivative(lambda x: gp_eval(p, x), 1.0)
    assert gp_d2(p, 1.0) == pytest.approx(want, abs=1e-6)


def test_gp_away_from_the_base_point():
    # p = 1/2 at x = 4: closed form ((1 + 2)/2)^2 = 2.25 and its derivatives.
    assert gp_eval(0.5, 4.0) == pytest.approx(2.25)
    h = 1e-6
    slope = (gp_eval(0.5, 4.0 + h) - gp_eval(0.5, 4.0 - h)) / (2.0 * h)
    assert gp_d1(0.5, 4.0) == pytest.approx(slope, abs=1e-8)


def test_gp_rejects_bad_arguments():
    with pytest.raises(DomainError):
        gp_eval(0.0, 1.0)
    with pytest.raises(DomainError):
        gp_eval(0.5, -1.0)
    with pytest.raises(DomainError):
        gp_d2(2.0, 1.0)


def test_grid_needs_enough_points():
    with pytest.raises(DomainError, match="at least 4"):
        EpsFamily((0.01, 0.02))


def test_grid_range_is_enforced():
    with pytest.raises(DomainError):
        EpsFamily((0.01, 0.02, 0.04, 0.3))
    with pytest.raises(DomainError):
        EpsFamily((0.0, 0.02, 0.04, 0.1))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="grid must lie in"):
            EpsFamily((0.01, 0.02, 0.04, bad))


def test_grid_points_must_be_distinct():
    with pytest.raises(DomainError, match="distinct"):
        EpsFamily((0.01, 0.01, 0.02, 0.1))


def test_grid_is_stored_sorted():
    fam = EpsFamily((0.1, 0.01, 0.04, 0.02))
    assert fam.eps_grid == (0.01, 0.02, 0.04, 0.1)


def test_scaled_grid():
    fam = DEFAULT_GRID.scaled(0.5)
    assert fam.eps_grid == tuple(e / 2.0 for e in DEFAULT_GRID.eps_grid)


def test_a_family_whose_shape_changes_is_refused_at_that_grid_point():
    # The grid given as a plain list, in no order, fits as its EpsFamily
    # does; a value of another shape is named by its grid point, by both
    # fits, where stacking the values would raise numpy's ValueError.
    grid = [0.04, 0.01, 0.1, 0.02]
    family = lambda e: HermitianMatrix((1.0 + e + e * e) * I2)  # noqa: E731
    listed, wrapped = fit_series(family, grid), fit_series(family, EpsFamily(tuple(grid)))
    for field in ("c0", "c1", "c2"):
        assert getattr(listed, field).mat.tobytes() == getattr(wrapped, field).mat.tobytes()
    assert listed.residual_bound == wrapped.residual_bound
    grown = lambda e: np.eye(2 if e < 0.03 else 3)  # noqa: E731
    for fit in (fit_series, fit_series_general):
        with pytest.raises(DomainError, match=r"^family value at eps = 0\.04 has shape \(3, 3\), not \(2, 2\)$"):
            fit(grown, grid)


def test_ill_conditioned_grid_is_refused():
    wide = EpsFamily((1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4))
    with pytest.raises(IllConditioned):
        fit_series(lambda e: HermitianMatrix((1.0 + e) * I2), wide)


def test_non_polynomial_family_fails_the_sanity_check():
    with pytest.raises(FitFailure):
        fit_series(
            lambda e: HermitianMatrix((1.0 + np.sin(60.0 * e)) * I2), DEFAULT_GRID
        )


def test_non_hermitian_family_is_routed_to_the_general_fit():
    N = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(DomainError, match="general fit"):
        fit_series(lambda e: I2 + e * N, DEFAULT_GRID)
    fit = fit_series_general(lambda e: I2 + e * N, DEFAULT_GRID)
    assert frobenius(fit.c1 - N) <= EXACT_TOL


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_non_finite_family_is_a_fit_failure(value):
    # A NaN residual must fail the sanity bound, not slip past it.
    with pytest.raises(FitFailure):
        fit_series_general(lambda e: np.full((2, 2), value), DEFAULT_GRID)
    with pytest.raises(DomainError, match="general fit"):
        fit_series(lambda e: np.full((2, 2), value), DEFAULT_GRID)


def test_power_expansion_report_separates_the_two_references():
    rep = check_power_mean_expansion(0.5)
    by_name = {item.name: item for item in rep.items}
    assert by_name["mean c1 deviation from (sigma_z + sigma_x)/2"].passed
    assert by_name["mean c2 deviation from g_p''(1) I = (-0.125000) I (derived)"].passed
    assert not by_name["mean c2 deviation from (+0.000000) I (tabulated)"].passed
    assert by_name["p-th power c2 trace/2 vs composed p(p-1)/2 (derived)"].passed
    assert not rep.all_pass


def test_wasserstein_expansion_report_pattern():
    rep = check_wasserstein_expansion()
    by_name = {item.name: item for item in rep.items}
    assert by_name["mean c2 deviation from -I/8 (derived)"].passed
    assert by_name["sqrt c2 deviation from -I/8 (derived)"].passed
    assert by_name["transport c2 deviation from sigma_x sigma_z / 2 - I/4 (derived)"].passed
    assert not by_name["mean c2 norm (tabulated: vanishes)"].passed
    assert not by_name["sqrt c2 deviation from -I/16 (tabulated)"].passed
    assert not rep.all_pass


@pytest.mark.parametrize("tol_scale", [1.0, 1e6])
def test_criteria_2_and_3_are_expansion_check_items(tol_scale):
    # Each criterion item: (source check item name, criterion name, tolerance).
    crit2 = CRITERIA[2](tol_scale=tol_scale).items
    for k, p in enumerate(P_VALUES):
        source = check_power_mean_expansion(p, tol_scale=tol_scale).items
        pinned = (
            (source[0], "mean c1 deviation from (sigma_z + sigma_x)/2",
             f"c1 = (sigma_z + sigma_x)/2, p = {p:g}", 1e-6),
            (source[1], f"mean c2 deviation from ({p / 2 + 1 / (4 * p) - 0.75:+.6f}) I (tabulated)",
             f"c2 = (p/2 + 1/(4p) - 3/4) I (tabulated), p = {p:g}", 1e-4),
        )
        for item, (src, src_name, name, tol) in zip(crit2[2 * k: 2 * k + 2], pinned):
            assert src.name == src_name
            assert (item.name, item.mode, item.tolerance) == (name, "bound", tol * tol_scale)
            assert (item.observed, item.passed) == (src.observed, src.passed)
    assert len(crit2) == 2 * len(P_VALUES)

    source = check_wasserstein_expansion(tol_scale=tol_scale).items
    pinned = (
        (source[1], "mean c2 norm (tabulated: vanishes)",
         "Wasserstein c2 norm vanishes (tabulated)"),
        (source[4], "sqrt c2 deviation from -I/16 (tabulated)",
         "sqrt-of-Wasserstein c2 = -I/16 (tabulated)"),
        (source[7], "transport c2 deviation from sigma_x sigma_z / 2 (tabulated)",
         "transport-factor c2 = sigma_x sigma_z / 2 (tabulated)"),
    )
    crit3 = CRITERIA[3](tol_scale=tol_scale).items
    assert len(crit3) == len(pinned)
    for item, (src, src_name, name) in zip(crit3, pinned):
        assert src.name == src_name
        assert (item.name, item.mode, item.tolerance) == (name, "bound", 1e-4 * tol_scale)
        assert (item.observed, item.passed) == (src.observed, src.passed)


def test_report_json_shape():
    rep = check_power_mean_expansion(0.9)
    blob = rep.to_json()
    assert blob["title"].startswith("power-mean expansion")
    assert isinstance(blob["all_pass"], bool)
    assert {"name", "observed", "tolerance", "passed", "mode"} <= set(
        blob["items"][0]
    )


# The fit layer: one Vandermonde per grid, several families per solve, and
# every grid family evaluated as one stack.

GRIDS = [DEFAULT_GRID, DEFAULT_GRID.scaled(2.0)]


def _columns(seed, count, g):
    # count smooth scalar families over g, (npoints, count, 1) complex: a
    # random cubic each, plus a little noise so the residuals are not zero.
    rng = np.random.default_rng(seed)
    eps = np.array(g.eps_grid)[:, None]
    coef = rng.standard_normal((4, count))
    values = sum(coef[k] * eps**k for k in range(4)) + 1e-6 * rng.standard_normal((len(eps), count))
    return values.astype(complex)[:, :, None]


@pytest.mark.parametrize("g", GRIDS, ids=["default", "doubled"])
@pytest.mark.parametrize("seed", range(20))
def test_four_columns_in_one_solve_equal_four_lone_fits(seed, g):
    data = _columns(seed, 4, g)
    coeffs, resid = expansion._fit(g, data)
    for j in range(4):
        by_eps = dict(zip(g.eps_grid, data[:, j, 0]))
        lone = fit_series_general(lambda e: [[by_eps[e]]], g)
        assert all(np.array_equal(c[j], lone_c[0]) for c, lone_c in zip(coeffs, (lone.c0, lone.c1, lone.c2)))
        assert resid[j] == lone.residual_bound


@pytest.mark.parametrize("bad", ["nan", "not-polynomial"])
def test_one_failing_column_fails_the_solve(bad):
    data = _columns(3, 4, DEFAULT_GRID)
    expansion._fit(DEFAULT_GRID, data)
    eps = np.array(DEFAULT_GRID.eps_grid)
    data[:, 2, 0] = np.nan if bad == "nan" else 1.0 + np.sin(60.0 * eps)
    with pytest.raises(FitFailure, match="degree-2 residual"):
        expansion._fit(DEFAULT_GRID, data)


@pytest.mark.parametrize("g", GRIDS, ids=["default", "doubled"])
def test_two_families_in_one_solve_equal_two_lone_fits(g):
    kind = kubo_ando_power(-0.5)
    M = np.array([mean(kind, *pauli_pair(e)).mat for e in g.eps_grid])
    P = np.array([mpow(mean(kind, *pauli_pair(e)), -0.5).mat for e in g.eps_grid])
    for fit, S in zip(expansion._fit_stacks(g, [M, P]), (M, P)):
        lone = fit_series(dict(zip(g.eps_grid, S)).__getitem__, g)
        for c, lone_c in zip((fit.c0, fit.c1, fit.c2), (lone.c0, lone.c1, lone.c2)):
            assert np.array_equal(c.mat, lone_c.mat)
        assert fit.residual_bound == lone.residual_bound


@pytest.mark.parametrize("eps", [DEFAULT_GRID.eps_grid, DEFAULT_GRID.scaled(2.0).eps_grid, (0.1, 0.3, 0.5)],
                         ids=["default", "doubled", "criterion-1"])
@pytest.mark.parametrize("kind", [kubo_ando_power(p) for p in P_VALUES] + [WASSERSTEIN],
                         ids=lambda k: k.label)
def test_grid_stacked_families_equal_the_lone_ones(kind, eps):
    # The mean, its p-th power (its square root and the transport map for
    # the Wasserstein mean) and [U, mean] over a grid, bit for bit the
    # values of one pauli_pair at a time.
    (M,) = expansion._grid_means((kind,), eps)
    lone = [mean(kind, *pauli_pair(e)) for e in eps]
    assert np.array_equal(M, [X.mat for X in lone])
    assert np.array_equal(commutator_norm(_U, M), [commutator_norm(_U, X) for X in lone])
    if kind.tag == WASSERSTEIN.tag:
        assert np.array_equal(_pow_arr(M, 0.5), [_pow_arr(X.mat, 0.5) for X in lone])
        A, B = stacked([pauli_pair(e) for e in eps])
        assert np.array_equal(_q_arr(A, B) @ A, [_q_arr(a, b) @ a for a, b in zip(A, B)])
    else:
        want = [mpow(X, kind.p).mat for X in lone]
        assert np.array_equal(_certified_power(M, kind.p), want)
        assert [check_unitary_invariance(kind.p, e) for e in eps] == [commutator_norm(_U, X) for X in lone]


def test_each_vandermonde_is_built_and_conditioned_once(monkeypatch):
    # Criteria 1-5 and 11 fit on DEFAULT_GRID and its doubling, each at
    # degrees 5 and 2: four matrices for the process, however many runs.
    built, conditioned = [], []
    vander, cond = np.vander, np.linalg.cond
    monkeypatch.setattr(np, "vander", lambda *a, **k: built.append(a[1]) or vander(*a, **k))
    monkeypatch.setattr(np.linalg, "cond", lambda V: conditioned.append(V.shape) or cond(V))
    expansion._vandermonde.cache_clear()
    for _ in range(2):
        for n in (1, 2, 3, 4, 5, 11):
            CRITERIA[n]()
    assert sorted(built) == [3, 3, 6, 6]
    assert sorted(conditioned) == [(6, 3), (6, 3), (6, 6), (6, 6)]
    V, _ = expansion._vandermonde(DEFAULT_GRID.eps_grid, 5)
    assert not V.flags.writeable


@pytest.mark.parametrize("grid", [DEFAULT_GRID, DEFAULT_GRID.scaled(2.0)], ids=["default", "doubled"])
def test_stacked_expansions_equal_the_one_p_checks(grid):
    # Criterion 2's stacked check gives each p the report and the fit, bit
    # for bit, that the check of that p alone gives.
    for p, (rep, fit) in zip(P_VALUES, expansion._power_mean_expansions(P_VALUES, grid, 1.0)):
        assert json.dumps(rep.to_json(), sort_keys=True) == json.dumps(
            check_power_mean_expansion(p, grid).to_json(), sort_keys=True
        )
        ((_, lone),) = expansion._power_mean_expansions((p,), grid, 1.0)
        for c, lone_c in zip((fit.c0, fit.c1, fit.c2), (lone.c0, lone.c1, lone.c2)):
            assert np.array_equal(c.mat, lone_c.mat)
        assert fit.residual_bound == lone.residual_bound
