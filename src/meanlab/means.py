"""Two-variable operator means on positive definite matrices.

The Kubo-Ando family is evaluated through its representing function: for an
operator monotone f with f(1) = 1,

    A sigma B = A^(1/2) f(A^(-1/2) B A^(-1/2)) A^(1/2),

and f is recovered from the mean by f(t) I = I sigma (t I). Built-in kinds
cover the arithmetic, harmonic and geometric means, the power family
m_p with representing function g_p(x) = ((1 + x^p)/2)^(1/p) for
0 < |p| <= 1, and two means that live outside the Kubo-Ando class: the
spectral geometric mean and the Wasserstein mean

    A sigma_W B = (A + B + A Q + Q A)/4,    Q = A^(-1) # B.

Every public evaluation returns a freshly certified :class:`PdMatrix`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .errors import DimMismatch, DomainError, NotKuboAndo
from .matcore import (
    HermitianMatrix,
    PdMatrix,
    _apply_spectral,
    _certified,
    _certify_stack,
    _check_certificates,
    _check_operands,
    _congruences,
    _norms,
    _order_violation,
    _pow_arr,
    _rel_gap,
    _spectral_values,
    _sym,
    as_array,
    identity_pd,
    loewner_leq,
)
from .report import worst
from .sampling import _invertible_hermitian, _pd_gram, complex_draws

# Power parameters are kept away from 0, where g_p degenerates.
P_MIN = 1e-6


def power_parameter(p: float) -> float:
    """float(p) when P_MIN <= |p| <= 1, the range of the power family; DomainError otherwise."""
    p = float(p)
    if not (P_MIN <= abs(p) <= 1.0):
        raise DomainError(f"power parameter must satisfy {P_MIN} <= |p| <= 1, got {p}")
    return p


# Tolerances for the axiom battery. Equality checks are relative to
# max(1, scale of the matrices involved).
AXIOM_EQ_TOL = 1e-10
AXIOM_NORMALIZATION_TOL = 1e-11
AXIOM_ORDER_TOL = 1e-10

TAG_ARITHMETIC = "arithmetic"
TAG_HARMONIC = "harmonic"
TAG_GEOMETRIC = "geometric"
TAG_POWER = "kubo-ando-power"
TAG_CONVENTIONAL_POWER = "conventional-power"
TAG_SPECTRAL_GEOMETRIC = "spectral-geometric"
TAG_WASSERSTEIN = "wasserstein"
TAG_FROM_FUNCTION = "from-function"

KUBO_ANDO_TAGS = frozenset(
    {TAG_ARITHMETIC, TAG_HARMONIC, TAG_GEOMETRIC, TAG_POWER, TAG_FROM_FUNCTION}
)
NON_KUBO_ANDO_TAGS = frozenset(
    {TAG_CONVENTIONAL_POWER, TAG_SPECTRAL_GEOMETRIC, TAG_WASSERSTEIN}
)
ALL_TAGS = KUBO_ANDO_TAGS | NON_KUBO_ANDO_TAGS
_POWER_TAGS = frozenset({TAG_POWER, TAG_CONVENTIONAL_POWER})


@dataclass(frozen=True)
class RepresentingFunction:
    """A scalar function normalized by f(1) = 1, for from-function means."""

    fn: Callable[[float], float]
    name: str = "f"

    def __post_init__(self) -> None:
        try:
            at_one = float(self.fn(1.0))
        except Exception as exc:
            raise ValueError(f"representing function failed at 1: {exc}") from exc
        if not math.isfinite(at_one) or abs(at_one - 1.0) > 1e-12:
            raise ValueError(f"representing function must satisfy f(1) = 1, got {at_one!r}")

    def __call__(self, x: float) -> float:
        return float(self.fn(x))


@dataclass(frozen=True)
class MeanKind:
    """A mean selector: a tag plus the parameter the tag needs.

    Power tags carry ``p`` with P_MIN <= |p| <= 1; the from-function tag
    carries a :class:`RepresentingFunction`. Other tags take nothing.
    """

    tag: str
    p: float | None = None
    f: RepresentingFunction | None = None

    def __post_init__(self) -> None:
        if self.tag not in ALL_TAGS:
            raise DomainError(f"unknown mean tag {self.tag!r}")
        if self.tag in _POWER_TAGS:
            if self.p is None:
                raise DomainError(f"{self.tag} requires a power parameter")
            object.__setattr__(self, "p", power_parameter(self.p))
        elif self.p is not None:
            raise DomainError(f"{self.tag} takes no power parameter")
        if self.tag == TAG_FROM_FUNCTION:
            if not isinstance(self.f, RepresentingFunction):
                raise DomainError("from-function means require a RepresentingFunction")
        elif self.f is not None:
            raise DomainError(f"{self.tag} takes no representing function")

    @property
    def label(self) -> str:
        if self.tag in _POWER_TAGS:
            return f"{self.tag}(p={self.p:g})"
        if self.tag == TAG_FROM_FUNCTION:
            return f"{self.tag}({self.f.name})"
        return self.tag

    @property
    def is_kubo_ando(self) -> bool:
        return self.tag in KUBO_ANDO_TAGS


ARITHMETIC = MeanKind(TAG_ARITHMETIC)
HARMONIC = MeanKind(TAG_HARMONIC)
GEOMETRIC = MeanKind(TAG_GEOMETRIC)
SPECTRAL_GEOMETRIC = MeanKind(TAG_SPECTRAL_GEOMETRIC)
WASSERSTEIN = MeanKind(TAG_WASSERSTEIN)


def kubo_ando_power(p: float) -> MeanKind:
    """The mean with representing function ((1 + x^p)/2)^(1/p)."""
    return MeanKind(TAG_POWER, p=float(p))


def conventional_power(p: float) -> MeanKind:
    """The entrywise-spectral power mean ((A^p + B^p)/2)^(1/p)."""
    return MeanKind(TAG_CONVENTIONAL_POWER, p=float(p))


def from_function(f: RepresentingFunction | Callable[[float], float], name: str = "f") -> MeanKind:
    if not isinstance(f, RepresentingFunction):
        f = RepresentingFunction(f, name)
    return MeanKind(TAG_FROM_FUNCTION, f=f)


def _normalized_inner(Aarr: np.ndarray, Barr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The Kubo-Ando frame: A^(1/2) and N = A^(-1/2) B A^(-1/2), from one eig of A.
    Ah, Aih = _pow_arr(Aarr, 0.5, -0.5)
    return Ah, _sym(Aih @ Barr @ Aih)


def _geometric_arr(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    Xh, N = _normalized_inner(X, Y)
    return Xh @ _pow_arr(N, 0.5) @ Xh


def _bw_frame(Aarr: np.ndarray, Barr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The transport frame: A^(1/2), A^(-1/2) and S = (A^(1/2) B A^(1/2))^(1/2),
    # from one eig of A and one of A^(1/2) B A^(1/2).
    Ah, Aih = _pow_arr(Aarr, 0.5, -0.5)
    return Ah, Aih, _pow_arr(_sym(Ah @ Barr @ Ah), 0.5)


def _transport_arr(Aarr: np.ndarray, Barr: np.ndarray) -> np.ndarray:
    # T = A^(-1/2) S A^(1/2) on the transport frame.
    Ah, Aih, S = _bw_frame(Aarr, Barr)
    return Aih @ S @ Ah


def _mean_arr(kind: MeanKind, Aarr: np.ndarray, Barr: np.ndarray) -> np.ndarray:
    # The selected mean, unsymmetrized and uncertified, of one pair or of
    # each pair of two stacks (N, n, n).
    tag = kind.tag
    if tag == TAG_ARITHMETIC:
        return (Aarr + Barr) / 2.0
    if tag == TAG_HARMONIC:
        return _pow_arr((_pow_arr(Aarr, -1.0) + _pow_arr(Barr, -1.0)) / 2.0, -1.0)
    if tag == TAG_GEOMETRIC:
        return _geometric_arr(Aarr, Barr)
    if tag == TAG_POWER:
        p = kind.p
        Ah, N = _normalized_inner(Aarr, Barr)
        inner = _sym((np.eye(N.shape[-1]) + _pow_arr(N, p)) / 2.0)
        return Ah @ _pow_arr(inner, 1.0 / p) @ Ah
    if tag == TAG_CONVENTIONAL_POWER:
        p = kind.p
        S = (_pow_arr(Aarr, p) + _pow_arr(Barr, p)) / 2.0
        return _pow_arr(_sym(S), 1.0 / p)
    if tag == TAG_SPECTRAL_GEOMETRIC:
        R = _pow_arr(_sym(_geometric_arr(_pow_arr(Aarr, -1.0), Barr)), 0.5)
        return R @ Aarr @ R
    if tag == TAG_WASSERSTEIN:
        AQ = Aarr @ _geometric_arr(_pow_arr(Aarr, -1.0), Barr)
        return (Aarr + Barr + AQ + AQ.conj().swapaxes(-1, -2)) / 4.0
    if tag == TAG_FROM_FUNCTION:
        Ah, N = _normalized_inner(Aarr, Barr)
        w, vals, V = _spectral_values(N, kind.f)
        for lam, y in zip(w.flat, vals.flat):
            if y <= 0.0:
                raise DomainError(
                    f"representing function must stay positive, got {float(y)!r} at {lam!r}"
                )
        return Ah @ _apply_spectral(vals, V) @ Ah
    raise DomainError(f"unknown mean tag {tag!r}")


def _wasserstein_alt_arr(Aarr: np.ndarray, Barr: np.ndarray) -> np.ndarray:
    # wasserstein_alt, unsymmetrized and uncertified, of one pair or of stacks.
    T = _transport_arr(Aarr, Barr)
    return (Aarr + Barr + T + T.conj().swapaxes(-1, -2)) / 4.0


def mean(kind: MeanKind, A: PdMatrix, B: PdMatrix) -> PdMatrix:
    """Evaluate the selected mean at (A, B).

    Parameters
    ----------
    kind : MeanKind
    A, B : PdMatrix
        Must share a dimension.

    Returns
    -------
    PdMatrix
        The result is re-certified positive definite; a certification failure
        here would indicate a genuine numerical breakdown, not a soft warning.
    """
    _check_operands(A, B)
    out = _mean_arr(kind, A.mat, B.mat)
    return PdMatrix.certify(HermitianMatrix._wrap(out))


def wasserstein_alt(A: PdMatrix, B: PdMatrix) -> PdMatrix:
    """The fixed-point form (A + B + T + T*)/4 with T = A^(-1/2)(A^(1/2) B A^(1/2))^(1/2) A^(1/2).

    Agrees with the Q-form of the Wasserstein mean; kept separate so the two
    routes can be compared against each other.
    """
    _check_operands(A, B)
    return PdMatrix.certify(HermitianMatrix._wrap(_wasserstein_alt_arr(A.mat, B.mat)))


def kubo_ando_from_function(f, A: PdMatrix, B: PdMatrix, name: str = "f") -> PdMatrix:
    """Evaluate the mean induced by a representing function directly."""
    return mean(from_function(f, name), A, B)


def representing_function_of(kind: MeanKind, t: float) -> float:
    """Recover f(t) from the mean via f(t) I = I sigma (t I).

    Raises NotKuboAndo for kinds outside the Kubo-Ando class and DomainError
    for t <= 0.
    """
    if kind.tag in NON_KUBO_ANDO_TAGS:
        raise NotKuboAndo(f"{kind.label} is not a Kubo-Ando mean")
    t = float(t)
    if not (t > 0.0) or not math.isfinite(t):
        raise DomainError(f"representing functions live on t > 0, got {t}")
    I2 = identity_pd(2)
    tI = PdMatrix(HermitianMatrix._wrap(t * np.eye(2, dtype=np.complex128)), t)
    M = mean(kind, I2, tI)
    return float(M.mat[0, 0].real)


@dataclass(frozen=True)
class AxiomCheck:
    """Outcome of one axiom over the sampled battery."""

    axiom: str
    samples: int
    failures: int
    worst_violation: float

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json(self) -> dict:
        return {**asdict(self), "passed": self.passed}


@dataclass(frozen=True)
class AxiomReport:
    """Battery outcome for one mean kind at one dimension."""

    kind: str
    dim: int
    seed: int
    checks: tuple[AxiomCheck, ...] = field(default=())

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {**asdict(self), "all_pass": self.all_pass, "checks": [c.to_json() for c in self.checks]}


def _transforms(M: np.ndarray) -> np.ndarray:
    # The axiom battery's T from their (N, n, n) Gaussian factors, each
    # parity as one stack: random_invertible_hermitian's matrix for even i
    # and random_pd's certified one for odd i.
    T = np.empty(M.shape, dtype=np.complex128)
    T[0::2] = _sym(_invertible_hermitian(M[0::2]))
    T[1::2] = _certified(_pd_gram(M[1::2]))
    return T


def check_kubo_ando_axioms(
    kind: MeanKind,
    samples: int = 50,
    rng_seed: int = 0,
    dim: int = 2,
) -> AxiomReport:
    """Sampled test of the four defining axioms.

    For each draw: (1) normalization I sigma I = I; (2) joint monotonicity,
    A <= B and C <= D imply A sigma C <= B sigma D; (3) the transformer
    property as an equality T (A sigma B) T* = (T A T*) sigma (T B T*) for an
    invertible Hermitian T, alternating with a positive definite T;
    (4) continuity from above along A + I/k for k = 1, 2, 4, ..., 32, checked
    as Loewner-monotone decrease plus norm convergence consistent with a 1/k
    envelope.

    Sample i draws A, C, G1, G2 and T, in that order, from
    ``rng_for(rng_seed, i)``: T is ``random_invertible_hermitian`` for even
    i and ``random_pd`` for odd i. Every sample is drawn first, its five
    factors at once, and each parity's T are built and checked as one
    stack, bit for bit the matrices a draw at a time gives. The nine means of
    each sample (lo = A sigma C, hi = B sigma D, the transformed mean and the
    six shifted means) are then evaluated as one stack over all samples and
    certified as one, and so are the order checks; every matrix a mean or a
    check consumes is certified, as one sample at a time would certify it.
    Each axiom failure, a NaN violation included, counts once per sample;
    worst violations (NaN if any was) are in absolute Frobenius or eigenvalue
    units. Normalization does not depend on the draw, so it is evaluated once
    and counted against every sample. DomainError when ``samples`` < 1, since
    a verdict needs at least one draw, and when ``dim`` < 1.
    """
    samples = int(samples)
    dim = int(dim)
    if samples < 1:
        raise DomainError("at least one sample is required")
    if dim < 1:
        raise DomainError(f"dimension must be at least 1, got {dim}")
    I = np.eye(dim)
    I_pd = identity_pd(dim)
    v = float(_norms(mean(kind, I_pd, I_pd).mat - I))
    checks = [
        AxiomCheck("normalization", samples, 0 if v <= AXIOM_NORMALIZATION_TOL else samples, worst((v,)))
    ]

    F = complex_draws(rng_seed, dim=dim, k=5, count=samples)
    T = _transforms(F[:, 4])
    A, C = _pd_gram(F[:, 0]), _pd_gram(F[:, 1])
    lam_A, lam_C = _certify_stack(np.array([A, C]))
    G1, G2 = F[:, 2], F[:, 3]
    B, D, TA, TC = _certified(np.concatenate([
        A + G1.conj().swapaxes(-1, -2) @ G1 + 0.05 * I,
        C + G2.conj().swapaxes(-1, -2) @ G2 + 0.05 * I,
        *_congruences(T, A, C),
    ])).reshape(4, samples, dim, dim)
    ks = (1, 2, 4, 8, 16, 32)
    As, Cs = [A + I / k for k in ks], [C + I / k for k in ks]
    for Ak, Ck in zip(As, Cs):
        _check_certificates(Ak, lam_A)
        _check_certificates(Ck, lam_C)

    # The nine means of every sample as one stack, certified as one: lo,
    # hi, the transformed mean and the six shifted means. T's invertibility
    # was checked with TA and TC, so lhs = T lo T* is taken directly.
    firsts = np.concatenate([A, B, TA, *As])
    seconds = np.concatenate([C, D, TC, *Cs])
    lo, hi, rhs, *shifts = _certified(_mean_arr(kind, firsts, seconds)).reshape(9, samples, dim, dim)
    trans = _rel_gap(_sym(T @ lo @ T.conj().swapaxes(-1, -2)), rhs)
    # The order checks as one stack: lo <= hi, and each shift below the one before.
    order = _order_violation(
        np.concatenate([lo, *shifts[1:]]), np.concatenate([hi, *shifts[:-1]])
    ).reshape(6, samples)
    mono, mono_bad = order[0], order[1:].max(axis=0)
    dists = [_norms(S - lo) for S in shifts]
    envelope = 10.0 * np.maximum(1.0, _norms(lo)) / ks[-1]
    converged = (dists[-1] <= envelope) & (dists[-1] <= dists[0] / 4.0 + AXIOM_EQ_TOL)
    cont = np.maximum(mono_bad, np.where(converged, 0.0, dists[-1]))

    for name, values, ok in (
        ("monotonicity", mono, mono <= AXIOM_ORDER_TOL * np.maximum(1.0, _norms(hi))),
        ("transformer", trans, trans <= AXIOM_EQ_TOL),
        ("continuity", cont, (mono_bad <= AXIOM_ORDER_TOL * np.maximum(1.0, _norms(shifts[0]))) & converged),
    ):
        checks.append(AxiomCheck(name, samples, int(np.count_nonzero(~ok)), worst(values.tolist())))
    return AxiomReport(kind.label, dim, int(rng_seed), tuple(checks))


def ando_variational_certificate(A: PdMatrix, B: PdMatrix, X) -> bool:
    """Whether the block matrix [[A, X], [X, B]] is positive semidefinite.

    This is the feasibility side of the variational description of the
    geometric mean: A # B is the largest Hermitian X passing this test.
    """
    _check_operands(A, B)
    Xarr = as_array(X)
    if Xarr.shape != A.mat.shape:
        raise DimMismatch(f"block X has shape {Xarr.shape}, expected {A.mat.shape}")
    return loewner_leq(0, np.block([[A.mat, Xarr], [Xarr.conj().T, B.mat]]))
