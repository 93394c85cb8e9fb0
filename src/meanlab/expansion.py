"""Series extraction for the perturbed pair A_eps = I + eps sigma_z, B_eps = I + eps sigma_x.

Matrix families indexed by eps are fitted entrywise by least squares on a
scaled Vandermonde system, built with its condition number once per process
for each grid and degree (an lru_cache keyed by the grid's tuple); the
families of one check, or of the power-mean checks of several p, are
evaluated over the grid as one stack and fitted in one solve. Coefficients c0, c1, c2 come from a fit of degree
min(npoints - 1, 5): the extra orders absorb the cubic and higher tail that
would otherwise bias c2 by roughly 0.17 per unit of third-order coefficient
on the default grid, far above the 1e-4 tolerance used here. The quoted
``residual_bound`` is the residual of the plain degree-2 fit, which is the
quantity with the O(eps^3) scaling law.

The check functions compare fitted coefficients both against the tabulated
reference constants carried here (see the README table) and against values
derived independently inside this package (derivatives of g_p, closed forms,
trace identities). The two disagree for several second-order entries; each
check reports both comparisons rather than folding them together.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, FitFailure, IllConditioned
from .matcore import (
    HermitianMatrix, PdMatrix, _certified, _certified_powers, _check_hermitian, _norms, _pow_arr,
    _require, _sym, as_array, commutator_norm, pauli_basis,
)
from .means import WASSERSTEIN, _mean_arr, _means_arr, _q_arr, kubo_ando_power, mean, power_parameter
from .report import CheckItem, CheckReport

EPS_MAX = 0.2
MIN_GRID_POINTS = 4
C1_TOL = 1e-6
C2_TOL = 1e-4
UNITARY_COMM_TOL = 1e-11
COND_LIMIT = 1e8
FIT_DEGREE_CAP = 5
FIT_SANITY = 1e-2


@functools.lru_cache(maxsize=64)
def _pauli_stacks(eps: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    # The pairs (I + e sigma_z, I + e sigma_x), e in eps, as two read-only
    # (N, 2, 2) stacks, built once per process for each tuple eps.
    e = np.array(eps, dtype=float)[:, None, None]
    _require(np.abs(e) < 1.0, DomainError, "the pair stays positive definite only for |eps| < 1, got {}", e)
    sz, sx, _ = pauli_basis()
    I = np.eye(2, dtype=np.complex128)
    stacks = _sym(I + e * sz.mat), _sym(I + e * sx.mat)
    for S in stacks:
        S.setflags(write=False)
    return stacks


def pauli_pair(eps: float) -> tuple[PdMatrix, PdMatrix]:
    """The pair (I + eps sigma_z, I + eps sigma_x) with exact certificates."""
    eps = float(eps)
    cert = 1.0 - abs(eps)
    return tuple(PdMatrix(HermitianMatrix._wrap(X[0]), cert) for X in _pauli_stacks((eps,)))


@dataclass(frozen=True)
class EpsFamily:
    """A validated eps grid for the perturbed pair."""

    eps_grid: tuple[float, ...]

    def __post_init__(self) -> None:
        grid = tuple(sorted(float(e) for e in self.eps_grid))
        if len(grid) < MIN_GRID_POINTS:
            raise DomainError(f"grid needs at least {MIN_GRID_POINTS} points, got {len(grid)}")
        if len(set(grid)) != len(grid):
            raise DomainError("grid points must be distinct")
        # Every point is tested, so that a NaN fails too.
        if not all(0.0 < e <= EPS_MAX for e in grid):
            raise DomainError(f"grid must lie in (0, {EPS_MAX}], got {list(grid)}")
        object.__setattr__(self, "eps_grid", grid)

    def scaled(self, factor: float) -> "EpsFamily":
        return EpsFamily(tuple(factor * e for e in self.eps_grid))


DEFAULT_GRID = EpsFamily((0.01, 0.02, 0.04, 0.06, 0.08, 0.10))


def _coerce_grid(grid) -> EpsFamily:
    if isinstance(grid, EpsFamily):
        return grid
    return EpsFamily(tuple(grid))


@dataclass(frozen=True)
class SeriesFit:
    """Hermitian coefficients through second order plus the degree-2 residual."""

    c0: HermitianMatrix
    c1: HermitianMatrix
    c2: HermitianMatrix
    residual_bound: float


@dataclass(frozen=True, eq=False)
class GeneralSeriesFit:
    """Series coefficients for families that need not stay Hermitian; equal by identity."""

    c0: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    residual_bound: float


@functools.lru_cache(maxsize=64)
def _vandermonde(grid: tuple[float, ...], degree: int) -> tuple[np.ndarray, float]:
    # The read-only Vandermonde matrix of a sorted grid scaled by its largest
    # point, and its 2-norm condition, once per process for each grid and
    # degree; keyed by the tuple, as EpsFamily.scaled makes a new instance.
    eps = np.array(grid)
    V = np.vander(eps / eps.max(), degree + 1, increasing=True)
    V.setflags(write=False)
    return V, float(np.linalg.cond(V))


def _poly_fit(data: np.ndarray, grid: tuple[float, ...], degree: int) -> tuple[np.ndarray, np.ndarray]:
    # Least squares of one degree through data (npoints, F, E), F families
    # of E entries, on the cached V: the coefficients of the scaled abscissa
    # per order, (degree + 1, F, E), and each family's worst Frobenius
    # residual over the grid. One lstsq gives each column the bits a solve
    # of it alone gives; each family's residual takes its own product with
    # V, as a fit of it alone.
    V, cond = _vandermonde(grid, degree)
    if cond > COND_LIMIT:
        raise IllConditioned(f"Vandermonde condition {cond:.3e} exceeds {COND_LIMIT:.0e}")
    n, F, E = data.shape
    coef = np.linalg.lstsq(V, data.reshape(n, F * E), rcond=None)[0].reshape(-1, F, E)
    resid = np.linalg.norm(V @ coef.transpose(1, 0, 2) - data.transpose(1, 0, 2), axis=2).max(axis=1)
    return coef, resid


def _fit(g: EpsFamily, data: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    # The series of each family of data (npoints, F, E) over g: c0, c1 and
    # c2, (F, E) each, from the fit of degree min(npoints - 1, 5) scaled
    # back to eps, and each family's degree-2 residual, checked against
    # FIT_SANITY times the family's largest sample norm.
    degree = min(len(g.eps_grid) - 1, FIT_DEGREE_CAP)
    coef, _ = _poly_fit(data, g.eps_grid, degree)
    _, resid2 = _poly_fit(data, g.eps_grid, 2)
    scale = np.maximum(1.0, _norms(data[:, :, None]).max(axis=0))
    # Written so that a NaN residual fails too.
    ok = resid2 <= FIT_SANITY * scale
    _require(ok, FitFailure, "degree-2 residual {:.3e} exceeds the sanity bound on this grid", resid2)
    smax = g.eps_grid[-1]
    return [coef[k] / smax**k for k in range(3)], resid2


def _fit_stacks(g: EpsFamily, stacks, hermitian: bool = True) -> list:
    # fit_series (fit_series_general without ``hermitian``) of each family of
    # its values over g, (npoints, r, c) stacks of one shape, in one solve.
    if hermitian:
        try:
            with np.errstate(invalid="ignore"):  # a non-finite family fails here, not in a numpy warning
                _check_hermitian(np.array(stacks))
        except ValueError as exc:
            raise DomainError(f"family is not Hermitian on the grid ({exc}); use the general fit") from exc
    coeffs, resid2 = _fit(g, np.stack([S.reshape(len(S), -1) for S in stacks], axis=1))
    fit, wrap = (SeriesFit, HermitianMatrix._wrap) if hermitian else (GeneralSeriesFit, np.asarray)
    shape = stacks[0].shape[1:]
    return [fit(*(wrap(c[f].reshape(shape)) for c in coeffs), float(r)) for f, r in enumerate(resid2)]


def _grid_means(kinds, eps) -> np.ndarray:
    # mean(kind, *pauli_pair(e)).mat for each kind of kinds and e in eps, as
    # one certified (K, N, 2, 2) stack, every m_p from one pencil.
    return _certified(np.stack(_means_arr(kinds, *_pauli_stacks(eps))))


def _fit_family(family: Callable[[float], object], grid, hermitian: bool = True):
    # fit_series, or fit_series_general without ``hermitian``: DomainError at
    # the first grid point whose value changes shape, or, for fit_series, is
    # not a square matrix, before any fit.
    g = _coerce_grid(grid)
    values = [as_array(family(e)) for e in g.eps_grid]
    for e, X in zip(g.eps_grid, values):
        if X.shape != values[0].shape:
            raise DomainError(f"family value at eps = {e!r} has shape {X.shape}, not {values[0].shape}")
        if hermitian and (X.ndim != 2 or X.shape[0] != X.shape[1]):
            raise DomainError(f"family value at eps = {e!r} has shape {X.shape}, not that of a square matrix")
    return _fit_stacks(g, [np.array(values)], hermitian)[0]


def fit_series(family: Callable[[float], object], grid=DEFAULT_GRID) -> SeriesFit:
    """Least-squares series fit of a Hermitian-valued family.

    Parameters
    ----------
    family : callable
        eps -> matrix (HermitianMatrix, PdMatrix or array).
    grid : EpsFamily or iterable of floats
        Fit abscissae; at least 4 distinct points in (0, 0.2].

    Returns
    -------
    SeriesFit
        c0 + c1 eps + c2 eps^2 with Hermitian coefficients;
        ``residual_bound`` is the worst Frobenius residual of the degree-2
        fit over the grid.
    """
    return _fit_family(family, grid)


def fit_series_general(family: Callable[[float], object], grid=DEFAULT_GRID) -> GeneralSeriesFit:
    """As fit_series, for families with non-Hermitian values."""
    return _fit_family(family, grid, hermitian=False)


def _gp_args(p: float, x: float) -> tuple[float, float]:
    p = power_parameter(p)
    x = float(x)
    if not (x > 0.0) or not math.isfinite(x):
        raise DomainError(f"g_p is defined on x > 0, got {x}")
    return p, x


def gp_eval(p: float, x: float) -> float:
    """g_p(x) = ((1 + x^p)/2)^(1/p)."""
    p, x = _gp_args(p, x)
    return ((1.0 + x**p) / 2.0) ** (1.0 / p)


def gp_d1(p: float, x: float) -> float:
    """First derivative of g_p; gp_d1(p, 1) = 1/2 for every admissible p."""
    p, x = _gp_args(p, x)
    h = (1.0 + x**p) / 2.0
    return 0.5 * h ** (1.0 / p - 1.0) * x ** (p - 1.0)


def gp_d2(p: float, x: float) -> float:
    """Second derivative of g_p.

    Differentiating gp_d1 with the inner derivative h'(x) = (p/2) x^(p-1)
    gives

        g_p''(x) = ((1-p)/4) h^(1/p-2) x^(2p-2) + ((p-1)/2) h^(1/p-1) x^(p-2)

    with h = (1 + x^p)/2, so gp_d2(p, 1) = (p - 1)/4. The tabulated anchor
    (1/4)(1/p - 1) + (p - 1)/2 disagrees for p != 1; second central
    differences of gp_eval side with the value computed here, and
    gp_d2_tabulated_anchor keeps the reference available for comparison.
    """
    p, x = _gp_args(p, x)
    h = (1.0 + x**p) / 2.0
    term1 = ((1.0 - p) / 4.0) * h ** (1.0 / p - 2.0) * x ** (2.0 * p - 2.0)
    term2 = ((p - 1.0) / 2.0) * h ** (1.0 / p - 1.0) * x ** (p - 2.0)
    return term1 + term2


def gp_d2_tabulated_anchor(p: float) -> float:
    """The tabulated value for g_p''(1): (1/4)(1/p - 1) + (p - 1)/2."""
    p = power_parameter(p)
    return 0.25 * (1.0 / p - 1.0) + (p - 1.0) / 2.0


def power_mean_c2_tabulated(p: float) -> float:
    """Tabulated eps^2 coefficient of the power-mean family: p/2 + 1/(4p) - 3/4."""
    p = power_parameter(p)
    return p / 2.0 + 1.0 / (4.0 * p) - 3.0 / 4.0


def pth_power_c2_consolidated(p: float) -> float:
    """Tabulated bracket p^2/2 + 1/4 - 3p/4 + p(p-1)/4 for the p-th power family."""
    p = power_parameter(p)
    return p * p / 2.0 + 0.25 - 0.75 * p + p * (p - 1.0) / 4.0


def pth_power_c2_inproof(p: float) -> float:
    """The other tabulated variant, p^2/2 + 1/p - 3p/4 + p(p-1)/4."""
    p = power_parameter(p)
    return p * p / 2.0 + 1.0 / p - 0.75 * p + p * (p - 1.0) / 4.0


def pth_power_c2_composed(p: float) -> float:
    """eps^2 coefficient of (A_eps m_p B_eps)^p obtained by composing series.

    With the mean expanding as I + (eps/2)(sigma_z + sigma_x) + g_p''(1)
    eps^2 I, raising to the p-th power contributes p g_p''(1) plus the
    binomial cross term p(p-1)/4, totalling p(p-1)/2.
    """
    p = power_parameter(p)
    return p * (p - 1.0) / 2.0


def check_unitary_invariance(p: float, eps: float) -> float:
    """Frobenius norm of [U, A_eps m_p B_eps]; an exact identity, near zero."""
    p = power_parameter(p)
    _, _, U = pauli_basis()
    return float(commutator_norm(U, _grid_means((kubo_ando_power(p),), (float(eps),))[0])[0])


def _maxabs(arr: np.ndarray) -> float:
    return float(np.max(np.abs(arr)))


def check_power_mean_expansion(p: float, grid=DEFAULT_GRID, tol_scale: float = 1.0) -> CheckReport:
    """Fit the power-mean family and its p-th power, compare both c2 routes.

    Items ending in "(tabulated)" pin the reference constants; items ending
    in "(derived)" pin the values this package derives independently. The
    second-order entries of the two disagree, so one of each pair fails by
    construction; both are reported on purpose. ``tol_scale`` multiplies
    every tolerance. This is the one-p call of the stacked check that
    criterion 2 runs over the whole family, with the same bits.
    """
    return _power_mean_expansions((p,), grid, tol_scale)[0][0]


def _power_mean_expansions(ps, grid, tol_scale: float) -> list[tuple[CheckReport, SeriesFit]]:
    # Each p's check report together with its fit of the mean family: the
    # means over the grid from one pencil, their p-th powers from one
    # eigendecomposition of each mean, and the 2 |ps| families in one fit.
    ps = [power_parameter(p) for p in ps]
    c1_tol = C1_TOL * tol_scale
    c2_tol = C2_TOL * tol_scale
    g = _coerce_grid(grid)
    sz, sx, _ = pauli_basis()
    w_half = (sz.mat + sx.mat) / 2.0
    eye = np.eye(2)

    means = _grid_means([kubo_ando_power(p) for p in ps], g.eps_grid)
    powers = _certified_powers(means.reshape(-1, 2, 2), ps, np.arange(len(ps) * len(g.eps_grid)).reshape(len(ps), -1))
    fits = _fit_stacks(g, [S for pair in zip(means, powers) for S in pair])
    out = []
    for p, fit_mean, fit_pow in zip(ps, fits[0::2], fits[1::2]):
        tr_half = float(np.trace(fit_pow.c2.mat).real) / 2.0
        tab, d2 = power_mean_c2_tabulated(p), gp_d2(p, 1.0)
        items = (
            CheckItem.bound("mean c1 deviation from (sigma_z + sigma_x)/2", _maxabs(fit_mean.c1.mat - w_half), c1_tol),
            CheckItem.bound(
                f"mean c2 deviation from ({tab:+.6f}) I (tabulated)", _maxabs(fit_mean.c2.mat - tab * eye), c2_tol
            ),
            CheckItem.bound(
                f"mean c2 deviation from g_p''(1) I = ({d2:+.6f}) I (derived)",
                _maxabs(fit_mean.c2.mat - d2 * eye),
                c2_tol,
            ),
            CheckItem.bound("p-th power c2 is a real multiple of I", _maxabs(fit_pow.c2.mat - tr_half * eye), c2_tol),
            *(
                CheckItem.compare(f"p-th power c2 trace/2 vs {name}", reference(p), tr_half, c2_tol)
                for name, reference in (
                    ("consolidated bracket (tabulated)", pth_power_c2_consolidated),
                    ("in-proof bracket (tabulated)", pth_power_c2_inproof),
                    ("composed p(p-1)/2 (derived)", pth_power_c2_composed),
                )
            ),
        )
        out.append((CheckReport(f"power-mean expansion, p = {p:g}", items), fit_mean))
    return out


def check_wasserstein_expansion(grid=DEFAULT_GRID, tol_scale: float = 1.0) -> CheckReport:
    """Fit the Wasserstein family, its square root, and the transport family.

    ``tol_scale`` multiplies every tolerance.
    """
    return _wasserstein_expansion(grid, tol_scale)[0]


def _wasserstein_expansion(grid, tol_scale: float) -> tuple[CheckReport, SeriesFit]:
    # The check's report together with its fit of the mean family.
    c1_tol = C1_TOL * tol_scale
    c2_tol = C2_TOL * tol_scale
    g = _coerce_grid(grid)
    sz, sx, U = pauli_basis()
    w_half = (sz.mat + sx.mat) / 2.0
    eye = np.eye(2)
    sxsz = sx.mat @ sz.mat

    A, B = _pauli_stacks(g.eps_grid)
    means = _certified(_mean_arr(WASSERSTEIN, A, B))
    fit_mean, fit_sqrt = _fit_stacks(g, [means, _pow_arr(means, 0.5)])
    # The transport map T = QA, Q = A^(-1) # B.
    (fit_transport,) = _fit_stacks(g, [_q_arr(A, B) @ A], hermitian=False)

    eps_comm = 0.4
    A, B = pauli_pair(eps_comm)
    comm = commutator_norm(U, mean(WASSERSTEIN, A, B))

    items = (
        CheckItem.bound(
            "mean c1 deviation from (sigma_z + sigma_x)/2",
            _maxabs(fit_mean.c1.mat - w_half),
            c1_tol,
        ),
        CheckItem.bound(
            "mean c2 norm (tabulated: vanishes)",
            float(_norms(fit_mean.c2.mat)),
            c2_tol,
        ),
        CheckItem.bound(
            "mean c2 deviation from -I/8 (derived)",
            _maxabs(fit_mean.c2.mat + eye / 8.0),
            c2_tol,
        ),
        CheckItem.bound(
            "sqrt c1 deviation from (sigma_z + sigma_x)/4",
            _maxabs(fit_sqrt.c1.mat - w_half / 2.0),
            c1_tol,
        ),
        CheckItem.bound(
            "sqrt c2 deviation from -I/16 (tabulated)",
            _maxabs(fit_sqrt.c2.mat + eye / 16.0),
            c2_tol,
        ),
        CheckItem.bound(
            "sqrt c2 deviation from -I/8 (derived)",
            _maxabs(fit_sqrt.c2.mat + eye / 8.0),
            c2_tol,
        ),
        CheckItem.bound(
            "transport c1 deviation from (sigma_z + sigma_x)/2",
            _maxabs(fit_transport.c1 - w_half),
            c1_tol,
        ),
        CheckItem.bound(
            "transport c2 deviation from sigma_x sigma_z / 2 (tabulated)",
            _maxabs(fit_transport.c2 - sxsz / 2.0),
            c2_tol,
        ),
        CheckItem.bound(
            "transport c2 deviation from sigma_x sigma_z / 2 - I/4 (derived)",
            _maxabs(fit_transport.c2 - (sxsz / 2.0 - eye / 4.0)),
            c2_tol,
        ),
        CheckItem.bound(
            f"U commutation with the mean at eps = {eps_comm}",
            comm,
            UNITARY_COMM_TOL * tol_scale,
        ),
    )
    return CheckReport("Wasserstein expansions", items), fit_mean
