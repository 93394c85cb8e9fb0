"""Mean-preserving scalar functionals on the positive definite cone of M2.

A preserver for a mean sigma is a positive functional f with
f(A sigma B) = f(A) sigma f(B), the right side read as the scalar mean. The
machinery here covers the transform phi = (.)^p o f o (.)^(1/p), the affine
model phi(tI + sG) = c_I t + c_G s + (1 - c_I) on the maximal Abelian
subalgebra spanned by I and a traceless self-adjoint unitary G, residual
evaluation, and the small linear solve that extracts the constraints the
perturbed pair (I + eps sigma_z, I + eps sigma_x) imposes on
(c_I, c_sigma_z, c_sigma_x, c_U), for one mean or for several as one stack.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimMismatch, DomainError, NotInCone
from .expansion import DEFAULT_GRID, _fit, _pauli_stacks
from .matcore import (
    HermitianMatrix, PdMatrix, _certified, _certified_power, _certified_powers, _check_hermitian, _check_operands,
    _check_sizes, _norms, _require, _sym, as_array, pauli_basis,
)
from .means import (
    TAG_ARITHMETIC,
    TAG_POWER,
    TAG_WASSERSTEIN,
    MeanKind,
    _mean_arr,
    _means_arr,
    power_parameter,
)
from .report import CheckItem, CheckReport, json_fields, worst

# Entrywise tolerance when matching a derived direction to a stored one.
DIRECTION_MATCH_TOL = 1e-9

# A direction key must be traceless and square to I within this.
DIRECTION_SHAPE_TOL = 1e-9

# |c_I| below this counts as forced to zero; also the row-vanishing threshold.
C_I_FORCE_TOL = 1e-6

FIRST_ORDER_TOL = 1e-6
SECOND_ORDER_TOL = 1e-4
NULLSPACE_RTOL = 1e-9

KAPPA_EXPECTED = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class ScalarFunctional:
    """A positive scalar functional on PD matrices, with a display label.

    ``fn`` takes an array: one matrix, giving one value, or an (N, n, n)
    stack, giving one value per matrix. A call takes a PdMatrix or such an
    array and checks that every value is finite and positive.
    """

    fn: Callable[[np.ndarray], object]
    label: str = "f"

    def __call__(self, A: PdMatrix | np.ndarray) -> float | np.ndarray:
        y = np.asarray(self.fn(as_array(A)), dtype=float)
        _require(np.isfinite(y) & (y > 0.0), DomainError, "functional {} returned non-positive {!r}", self.label, y)
        return float(y) if y.ndim == 0 else y


def constant_functional(c: float) -> ScalarFunctional:
    c = float(c)
    if not (c > 0.0) or not math.isfinite(c):
        raise DomainError(f"constant must be positive, got {c}")
    return ScalarFunctional(lambda X: np.full(X.shape[:-2], c), f"const[{c:g}]")


def linear_functional(W) -> ScalarFunctional:
    """f(A) = tr(W A); positive on the cone when W is PSD and nonzero.

    W is one Hermitian matrix, or an (N, n, n) stack of them that weighs
    the matrices of an (N, n, n) stack one each.
    """
    Warr = as_array(W)
    if Warr.ndim < 2 or Warr.shape[-1] != Warr.shape[-2]:
        raise DimMismatch(f"weight has shape {Warr.shape}, not that of a square matrix or a stack of them")
    _check_hermitian(Warr)
    Warr = _sym(Warr)
    return ScalarFunctional(
        lambda X: np.trace(_check_sizes(Warr, X) @ X, axis1=-2, axis2=-1).real, "linear[tr(W.)]"
    )


def trace_power_functional(p: float) -> ScalarFunctional:
    """f(A) = (tr(A^p)/dim)^(1/p); at p = 1/2 on M2 this is (tr(A^(1/2))/2)^2."""
    p = power_parameter(p)

    def fn(X: np.ndarray):
        traces = np.trace(_certified_power(X, p), axis1=-2, axis2=-1).real
        # The outer power by np.power, as _pow_arr takes the eigenvalue
        # powers, so one value and each value of a stack get the same bits.
        return np.power(traces / X.shape[-1], 1.0 / p)

    return ScalarFunctional(fn, f"trace-power[p={p:g}]")


def phi_of(f: ScalarFunctional, p: float) -> ScalarFunctional:
    """The transform phi(X) = f(X^(1/p))^p.

    Composing back, (.)^(1/p) o phi o (.)^p recovers f on the cone.
    """
    p = power_parameter(p)
    return ScalarFunctional(
        lambda X: np.power(f(_certified_power(X, 1.0 / p)), p),
        f"phi[p={p:g}]({f.label})",
    )


def _canonical(arr: np.ndarray) -> np.ndarray:
    # canonical_direction's shape checks and sign rule for a symmetrized 2x2
    # array or each matrix of an (N, 2, 2) stack.
    if np.any(np.abs(np.trace(arr, axis1=-2, axis2=-1).real) > DIRECTION_SHAPE_TOL):
        raise DomainError("direction must be traceless")
    if np.any(_norms(arr @ arr - np.eye(2)) > DIRECTION_SHAPE_TOL):
        raise DomainError("direction must be a self-adjoint unitary")
    # The parts in row-major order, each real part before its imaginary one.
    parts = np.stack([arr.real, arr.imag], axis=-1).reshape(*arr.shape[:-2], 8)
    big = np.abs(parts) > DIRECTION_SHAPE_TOL
    sign = np.take_along_axis(parts, big.argmax(axis=-1)[..., None], axis=-1)[..., 0]
    flip = big.any(axis=-1) & (sign < 0.0)
    return np.where(flip[..., None, None], -arr, arr)


def canonical_direction(G) -> HermitianMatrix:
    """Validate and sign-normalize a traceless self-adjoint unitary direction.

    The first nonzero entry in row-major order (real part inspected before
    imaginary) is made positive, so G and -G share one canonical key.
    """
    arr = as_array(G)
    if arr.shape != (2, 2):
        raise DimMismatch("directions live in M2")
    return HermitianMatrix._wrap(_canonical(HermitianMatrix(arr).mat))


@dataclass(frozen=True)
class MasaFunctional:
    """The affine candidate phi(tI + sG) = c_I t + c_G s + (1 - c_I).

    ``directions`` maps canonical G keys to their c_G; a direction not stored
    evaluates with c_G = 0, which only matters for exploration (the solver
    registers everything it touches). The defining inequality |c_G| <= c_I is
    enforced at construction.
    """

    c_I: float
    directions: tuple[tuple[HermitianMatrix, float], ...] = ()

    def __post_init__(self) -> None:
        c_I = float(self.c_I)
        if not math.isfinite(c_I) or c_I < 0.0:
            raise DomainError(f"c_I must be a nonnegative real, got {c_I}")
        canon = []
        for G, c in self.directions:
            c = float(c)
            # Written so that a NaN coefficient fails too.
            if not abs(c) <= c_I + 1e-12:
                raise DomainError(f"|c_G| = {abs(c)} exceeds c_I = {c_I}")
            canon.append((canonical_direction(G), c))
        object.__setattr__(self, "c_I", c_I)
        object.__setattr__(self, "directions", tuple(canon))

    def coefficient_for(self, G) -> float:
        """c_G for a direction G, canonicalized first; 0 for one not stored.

        A key that is already canonical, such as the G that masa_split
        returns, is matched by masa_eval without being canonicalized again.
        """
        return float(self._coefficient(canonical_direction(G).mat))

    def _coefficient(self, keys: np.ndarray):
        # The c_G stored for a canonical key, or for each key of a stack,
        # matched entrywise; the first stored match wins, 0 where none does.
        c = np.zeros(keys.shape[:-2])
        for H, c_G in reversed(self.directions):
            c = np.where(np.max(np.abs(H.mat - keys), axis=(-2, -1)) <= DIRECTION_MATCH_TOL, c_G, c)
        return c


def masa_split(X) -> tuple:
    """Coordinates (t, s, G) of X = tI + sG with canonical G; G is None when s = 0.

    The sign convention lives in G: s is signed so that s * G reproduces the
    traceless part exactly. X may be an (N, 2, 2) stack: t and s are then
    (N,) arrays and G an (N, 2, 2) array, zero where s = 0; each matrix
    splits bit for bit as it would alone. DomainError on an entry that is
    not finite, and on a t or s that overflows.
    """
    arr = as_array(X)
    if arr.shape[-2:] != (2, 2) or arr.ndim not in (2, 3):
        raise DimMismatch("the affine model is defined on M2")
    if not np.isfinite(arr).all():
        raise DomainError("matrix entries must be finite")
    stack = arr.reshape(-1, 2, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.trace(stack, axis1=-2, axis2=-1).real / 2.0
        D = stack - t[:, None, None] * np.eye(2)
    s = _norms(D) / math.sqrt(2.0)
    _require(np.isfinite(t) & np.isfinite(s), DomainError, "affine coordinates overflow: t = {:.3e}, s = {:.3e}", t, s)
    split = ~(s <= 1e-13 * np.maximum(1.0, _norms(stack)))
    s = np.where(split, s, 0.0)
    G = np.zeros_like(D)
    if split.any():
        unit = D[split] / s[split, None, None]
        _check_hermitian(unit)
        G[split] = _canonical(_sym(unit))
    sG = s[:, None, None] * G
    s = np.where(np.max(np.abs(D - sG), axis=(-2, -1)) > np.max(np.abs(D + sG), axis=(-2, -1)), -s, s)
    if arr.ndim == 3:
        return t, s, G
    return float(t[0]), float(s[0]), HermitianMatrix._wrap(G[0]) if split[0] else None


def masa_eval(m: MasaFunctional, X):
    """Evaluate the affine model at X = tI + sG; requires X inside the cone.

    X may be an (N, 2, 2) stack, giving one value per matrix. The G that
    masa_split returns is already canonical, so its coefficient is matched
    without canonicalizing G again.
    """
    arr = as_array(X)
    t, s, G = masa_split(arr if arr.ndim == 3 else arr[None])
    lo, hi = t - np.abs(s), t + np.abs(s)
    _require(~(lo <= 0.0), NotInCone, "matrix with eigenvalues {:.3e}, {:.3e}", lo, hi)
    vals = m.c_I * t + m._coefficient(G) * s + (1.0 - m.c_I)
    return vals if arr.ndim == 3 else float(vals[0])


def _scalar_mean(kind: MeanKind, x, y):
    # The scalar mean of each kind _residual_arr admits, for two floats or
    # elementwise for two arrays: arithmetic, m_p, and otherwise Wasserstein.
    # Powers by np.power, as everywhere, the same bits for a float and for
    # each value of an array.
    if kind.tag == TAG_ARITHMETIC:
        return (x + y) / 2.0
    if kind.tag == TAG_POWER:
        p = kind.p
        return np.power((np.power(x, p) + np.power(y, p)) / 2.0, 1.0 / p)
    return np.power((np.sqrt(x) + np.sqrt(y)) / 2.0, 2)


def _residual_arr(f: ScalarFunctional, kind: MeanKind, Aarr: np.ndarray, Barr: np.ndarray):
    # |f(A sigma B) - f(A) sigma f(B)| for one pair, or for each pair of two
    # (N, n, n) stacks, every mean certified as mean() certifies one.
    if kind.tag not in (TAG_ARITHMETIC, TAG_POWER, TAG_WASSERSTEIN):
        raise DomainError(f"preserver residuals support m_p, arithmetic and Wasserstein, not {kind.label}")
    M = _certified(_mean_arr(kind, Aarr, Barr))
    return np.abs(f(M) - _scalar_mean(kind, f(Aarr), f(Barr)))


def preserver_residual(f: ScalarFunctional, kind: MeanKind, A: PdMatrix, B: PdMatrix) -> float:
    """|f(A sigma B) - f(A) sigma f(B)| with the right side the scalar mean."""
    _check_operands(A, B)
    return float(_residual_arr(f, kind, A.mat, B.mat))


@dataclass(frozen=True)
class CoefficientSolveReport:
    """Constraint rows and null space of the sampled preserver equation.

    Unknowns are ordered (c_I, c_sigma_z, c_sigma_x, c_U). ``rows`` holds the
    first-order and second-order constraint rows assembled from fitted series
    of the trace-pairing coordinates. ``c_i_projection`` is the largest |c_I|
    attainable by a unit vector of the null space: 0 means c_I is forced to
    zero, 1 means it is completely unconstrained.
    """

    kind: str
    outer_power: float
    grid: tuple[float, ...]
    unknowns: tuple[str, str, str, str]
    rows: tuple[tuple[float, float, float, float], ...]
    kappa_observed: float
    kappa_expected: float
    second_order_coefficient: float
    second_order_reference: float
    null_dim: int
    null_space: tuple[tuple[float, float, float, float], ...]
    c_i_projection: float
    c_i_forced: bool
    fit_residual: float
    masa_crosscheck: float

    def to_json(self) -> dict:
        return json_fields(self)

    def contract_report(self, tol_scale: float = 1.0) -> CheckReport:
        """The forced-constancy contract as pass/fail items."""
        items = (
            CheckItem.compare(
                "first-order constraint: kappa = 1/sqrt(2)",
                self.kappa_expected,
                self.kappa_observed,
                FIRST_ORDER_TOL * tol_scale,
            ),
            CheckItem.compare(
                "second-order coefficient on c_I vs reference",
                self.second_order_reference,
                self.second_order_coefficient,
                SECOND_ORDER_TOL * tol_scale,
            ),
            CheckItem.bound(
                "c_I forced to zero (null-space projection)",
                self.c_i_projection,
                C_I_FORCE_TOL * tol_scale,
            ),
            CheckItem.bound(
                "affine model reproduces the sampled residual",
                self.masa_crosscheck,
                1e-11 * tol_scale,
            ),
        )
        return CheckReport(f"forced constancy, {self.kind}", items)


@functools.cache
def _masa_probe() -> MasaFunctional:
    # solve_coefficients' cross-check functional, built (and its directions
    # validated) once: it is immutable and the same for every kind.
    sz, sx, U = pauli_basis()
    return MasaFunctional(0.6, ((sz, 0.5), (sx, 0.3), (U, 0.8 / math.sqrt(2.0))))


def solve_coefficients(kind: MeanKind) -> CoefficientSolveReport:
    """Assemble and solve the constraint system on (c_I, c_sigma_z, c_sigma_x, c_U).

    For the power family the equation compares phi((A_eps m_p B_eps)^p)
    against the average of phi(A_eps^p) and phi(B_eps^p); for the Wasserstein
    mean the outer power is 1/2. Each matrix is reduced to trace-pairing
    coordinates t = tr(M)/2 and s = tr(G M)/2 in its own subalgebra, the
    affine model turns the equation into a linear form in the four unknowns,
    and the eps and eps^2 coefficients of that form (fitted over ``DEFAULT_GRID``)
    are the two constraint rows. This is the one-kind call of the stacked
    solve that criterion 5 runs over all its kinds, with the same bits;
    DomainError for any other kind, before any work is done.
    """
    return _coefficient_solves((kind,))[0]


def _coefficient_solves(kinds) -> list[CoefficientSolveReport]:
    # solve_coefficients of each kind of kinds as one stack: the grid's pair
    # once, every m_p from one pencil, the outer powers of the pair and of
    # each kind's means from one eigendecomposition of each matrix, the 4K
    # coordinates in one fit, one masa_eval and one stacked SVD.
    for kind in kinds:
        if kind.tag not in (TAG_POWER, TAG_WASSERSTEIN):
            raise DomainError(f"solve_coefficients supports m_p and the Wasserstein mean, not {kind.label}")
    # The outer power: p for m_p, 1/2 for the Wasserstein mean.
    outers = [float(kind.p) if kind.tag == TAG_POWER else 0.5 for kind in kinds]
    K, N = len(kinds), len(DEFAULT_GRID.eps_grid)
    sz, sx, U = pauli_basis()

    # The grid's pairs as two stacks and each kind's means; then the outer
    # power of each matrix of the pairs and of each kind's means, certified
    # as mpow and mean certify one, and their trace-pairing coordinates,
    # (K, N) each.
    A, B = _pauli_stacks(DEFAULT_GRID.eps_grid)
    M = _certified(np.concatenate(_means_arr(kinds, A, B)))
    # Kind k's outer power takes the 2N rows of the grid's pairs and the N of its own means.
    rows = [[*range(2 * N), *range((k + 2) * N, (k + 3) * N)] for k in range(K)]
    mats = _certified_powers(np.concatenate([A, B, M]), outers, rows).reshape(K, 3, N, 2, 2)
    t_A, t_B, t_L = np.trace(mats, axis1=-2, axis2=-1).real.swapaxes(0, 1) / 2.0
    paulis = np.array([sz.mat, sx.mat, U.mat])[:, None]
    s_A, s_B, s_L = (np.trace(paulis @ mats, axis1=-2, axis2=-1).real / 2.0).swapaxes(0, 1)

    # The four coordinates of each kind as 1x1 families of one solve: each
    # column gets the coefficients and the residual a fit of it alone gets.
    # Their eps and eps^2 coefficients make each kind's two constraint rows.
    delta_t = t_L - (t_A + t_B) / 2.0
    data = np.stack([delta_t, s_L, s_A, s_B], axis=1).reshape(4 * K, N).T.astype(complex)[:, :, None]
    coeffs, resid = _fit(DEFAULT_GRID, data)
    fitted = np.array(coeffs)[:, :, 0].real.reshape(3, K, 4).transpose(1, 2, 0).tolist()
    constraints = [tuple((k[o], -a[o] / 2.0, -b[o] / 2.0, sig[o]) for o in (1, 2)) for k, sig, a, b in fitted]
    _, svals, Vt = np.linalg.svd(np.array(constraints))

    # Cross-check: the affine model evaluated through masa_eval must agree
    # with the linear form assembled from the same trace pairings. The
    # three keys are canonical as given, so the stored coefficients are
    # read in order; the 3KN matrices are evaluated as one stack.
    probe = _masa_probe()
    (_, c_z), (_, c_x), (_, c_u) = probe.directions
    v_A, v_B, v_L = masa_eval(probe, mats.reshape(-1, 2, 2)).reshape(K, 3, N).swapaxes(0, 1)
    via_masa = v_L - (v_A + v_B) / 2.0
    direct = probe.c_I * delta_t + c_u * s_L - (c_z * s_A + c_x * s_B) / 2.0
    gaps = np.abs(via_masa - direct).tolist()
    fit_residuals = resid.reshape(K, 4).max(axis=1).tolist()

    reports = []
    for i, kind in enumerate(kinds):
        k, sig, a, _ = fitted[i]
        smax = float(svals[i][0])
        # Rows are fitted coefficients of order-one trace coordinates; a
        # singular value at or below the row-vanishing threshold is fit
        # noise, not a constraint, so it is cut absolutely rather than
        # relative to smax.
        cut = max(NULLSPACE_RTOL * smax, C_I_FORCE_TOL)
        rank = int(np.sum(svals[i] > cut))
        null = Vt[i][rank:]
        proj = float(np.linalg.norm(null[:, 0])) if null.size else 0.0
        kappa = a[1] / (2.0 * sig[1]) if sig[1] != 0.0 else math.inf
        reports.append(CoefficientSolveReport(
            kind=kind.label,
            outer_power=outers[i],
            grid=DEFAULT_GRID.eps_grid,
            unknowns=("c_I", "c_sigma_z", "c_sigma_x", "c_U"),
            rows=constraints[i],
            kappa_observed=float(kappa),
            kappa_expected=KAPPA_EXPECTED,
            second_order_coefficient=k[2],
            second_order_reference=(outers[i] - 1.0) ** 2 / 4.0 if kind.tag == TAG_POWER else 1.0 / 16.0,
            null_dim=int(null.shape[0]),
            null_space=tuple(tuple(float(x) for x in v) for v in null),
            c_i_projection=proj,
            c_i_forced=proj <= C_I_FORCE_TOL,
            fit_residual=fit_residuals[i],
            masa_crosscheck=worst(gaps[i]),
        ))
    return reports
