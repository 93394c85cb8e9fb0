"""Commutation probes linking operator means to centrality in M2.

The hypothesis under test is commutation of a mean with the arithmetic mean:
when it holds for every partner B, the fixed matrix A must be scalar. Each
probe draws random partners; each identity chain evaluates the algebraic
links of the corresponding proof as Frobenius gaps, so that on a commuting
pair every link vanishes and on a generic non-commuting pair every link is
visibly large. The chains report raw gaps and never enforce an
all-or-nothing verdict themselves: specially matched pairs satisfy the
hypothesis link while failing the commutator link, and that separation is
the point.

Remark 1 (the Wasserstein mean) has one chain. Remark 2 (the power means)
shares one form between both signs of 0 < |p| < 1: with K = B^|p|,
L(e) = (I + e K)^(1/p) and R(e) = R0 + e^(1/|p|) D, the resolvent identity
is F(1) = 0 for F = L A R - R A L. The harmonic mean, p = -1, has its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DomainError
from .matcore import PdMatrix, _certified, _check_operands, _norms, _pow_arr, commutator_norm, frobenius
from .means import (
    TAG_HARMONIC,
    TAG_POWER,
    TAG_WASSERSTEIN,
    MeanKind,
    _bw_frame,
    _mean_arr,
    kubo_ando_power,
)
from .report import json_fields, worst
from .sampling import complex_draws, pd_grams, rng_batches

# Separates true identities (observed <= 1e-11) from generic failure
# (observed >= 1e-3) by orders of magnitude.
COMM_TOL_SCALE = 1e-9

# Step for the first-order coefficient extraction inside the chains.
DERIVATIVE_STEP = 1e-4

GENERIC_GAP_FLOOR = 1e-3


def comm_tol(A: PdMatrix, B: PdMatrix) -> float:
    return float(_comm_tol(A.norm(), B.norm()))


def _comm_tol(a_norm: float, b_norms):
    # The commutation tolerance from the Frobenius norms of A and of B, or of each partner.
    return COMM_TOL_SCALE * np.maximum(1.0, a_norm * b_norms)


def _validate_probe_kind(kind: MeanKind) -> None:
    if kind.tag == TAG_WASSERSTEIN or kind.tag == TAG_HARMONIC:
        return
    if kind.tag == TAG_POWER:
        if kind.p is not None and -1.0 <= kind.p < 1.0:
            return
        raise DomainError(
            f"power must lie in [-1, 1) excluding 0, got {kind.p}; "
            "at p = 1 the hypothesis compares the arithmetic mean with itself"
        )
    raise DomainError(f"commutation probes support the Wasserstein mean and m_p, not {kind.label}")


def _arith_commutator_arr(kind: MeanKind, Aarr: np.ndarray, Barr: np.ndarray):
    # ||[(A+B)/2, M(A, B)]||_F with the mean certified, for one pair or for
    # one A against each partner of a stack, A's side of the mean taken once.
    X = (Aarr + Barr) / 2.0
    M = _certified(_mean_arr(kind, Aarr, Barr))
    return _norms(X @ M - M @ X)


def arith_mean_commutator(kind: MeanKind, A: PdMatrix, B: PdMatrix) -> float:
    """Frobenius norm of [(A+B)/2, mean(kind, A, B)], the mean certified."""
    _validate_probe_kind(kind)
    _check_operands(A, B)
    return float(_arith_commutator_arr(kind, A.mat, B.mat))


def _commutes(norm, tol):
    # The verdict rule, for one pair or elementwise for a probe's partners.
    return norm <= tol


def _central(norms, tols) -> bool:
    # The probe's verdict from its partners' norms and tolerances.
    return bool(_commutes(norms, tols).all())


@dataclass(frozen=True)
class CommutatorReport:
    """Single-pair verdict on the mean-vs-arithmetic commutation hypothesis."""

    pair_id: str
    kind: str
    commutator_norm: float
    tolerance: float

    @property
    def verdict(self) -> str:
        return "commutes" if _commutes(self.commutator_norm, self.tolerance) else "does_not_commute"

    def to_json(self) -> dict:
        return {**json_fields(self), "verdict": self.verdict}


def commutator_report(kind: MeanKind, A: PdMatrix, B: PdMatrix, pair_id: str = "pair") -> CommutatorReport:
    return CommutatorReport(
        pair_id=pair_id,
        kind=kind.label,
        commutator_norm=arith_mean_commutator(kind, A, B),
        tolerance=comm_tol(A, B),
    )


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of sampling the hypothesis over random partners; ``pairs`` holds the report for each."""

    kind: str
    samples: int
    seed: int
    failures: int
    worst_gap: float
    central: bool
    pairs: tuple[CommutatorReport, ...]


def _probes(cases, samples: int) -> list:
    # The commutator norms and tolerances of each (A, kind, seed) case's
    # partners, A an array and the partners the random_pd draws on
    # rng_for(seed, i) for i < samples. Every kind is validated before any
    # draw. The partners of each distinct (dim, seed) are drawn once, every
    # stream hashed as one batch, and certified as one stack per dim; each
    # (kind, dim) group of cases then takes one _arith_commutator_arr, A
    # repeated along the stack where the group has more than one case.
    for _, kind, _ in cases:
        _validate_probe_kind(kind)
    if samples < 1:
        raise DomainError("at least one sample is required")
    case_keys = [(A.shape[-1], seed) for A, _, seed in cases]
    keys = list(dict.fromkeys(case_keys))
    batches = dict(zip(keys, rng_batches(*(((seed,), samples) for _, seed in keys))))
    partners = {}
    for dim in dict.fromkeys(d for d, _ in keys):
        mine = [key for key in keys if key[0] == dim]
        (B,) = pd_grams(complex_draws(chain.from_iterable(batches[key] for key in mine), dim, 1))
        shape = (len(mine), samples)
        partners.update(zip(mine, zip(B.reshape(shape + B.shape[1:]), _norms(B).reshape(shape))))
    groups = {}
    for j, ((_, kind, _), (dim, _)) in enumerate(zip(cases, case_keys)):
        groups.setdefault((kind.label, dim), []).append(j)
    out = [None] * len(cases)
    for members in groups.values():
        A = [cases[j][0] for j in members]
        A = A[0] if len(A) == 1 else np.repeat(np.array(A), samples, axis=0)
        B = np.concatenate([partners[case_keys[j]][0] for j in members])
        norms = _arith_commutator_arr(cases[members[0]][1], A, B).reshape(len(members), samples)
        for j, row in zip(members, norms):
            out[j] = row, _comm_tol(_norms(cases[j][0]), partners[case_keys[j]][1])
    return out


def probe_report(A: PdMatrix, kind: MeanKind, samples: int = 50, seed: int = 0) -> ProbeReport:
    """Sample ``samples`` random_pd partners on rng_for(seed, i) and report each commutator.

    The one-case call of the stacked probe: the partners are drawn first
    and evaluated as one stack; each report is the commutator_report of its
    pair, bit for bit.
    """
    ((norms, tols),) = _probes([(A.mat, kind, seed)], samples)
    pairs = tuple(
        CommutatorReport(f"sample-{i}", kind.label, c, t) for i, (c, t) in enumerate(zip(norms.tolist(), tols.tolist()))
    )
    failures = sum(r.verdict != "commutes" for r in pairs)
    return ProbeReport(
        kind=kind.label,
        samples=samples,
        seed=seed,
        failures=failures,
        worst_gap=worst(r.commutator_norm for r in pairs),
        central=failures == 0,
        pairs=pairs,
    )


def centrality_probe(A: PdMatrix, kind: MeanKind, samples: int = 50, seed: int = 0) -> bool:
    """True iff the commutation hypothesis held for every sampled partner.

    In M2 this is a centrality test: scalars pass, and any non-scalar A
    fails against some sampled partner. It is the one-case call of the
    stacked probe that criterion 9 runs over all its cases at once, and
    decides from the stacked norms and tolerances of probe_report, by the
    same rule, with no report.
    """
    return _central(*_probes([(A.mat, kind, seed)], samples)[0])


@dataclass(frozen=True)
class ChainReport:
    """Named Frobenius gaps for each link of a commutation identity chain.

    ``derivative_error`` measures the numerical first-order extraction that
    connects the substituted identity to the next link; it is None when the
    chain has no derivative step. Helpers classify gap profiles; callers
    choose which profile a given pair class must satisfy.
    """

    label: str
    case: str
    gaps: tuple[tuple[str, float], ...]
    derivative_error: float | None
    tolerance: float

    def all_small(self, tol: float | None = None) -> bool:
        t = self.tolerance if tol is None else tol
        return all(g <= t for _, g in self.gaps)

    def all_large(self, threshold: float = GENERIC_GAP_FLOOR) -> bool:
        return all(g > threshold for _, g in self.gaps)

    def gap(self, name: str) -> float:
        for n, g in self.gaps:
            if n == name:
                return g
        raise KeyError(name)

    def to_json(self) -> dict:
        return {**json_fields(self), "gaps": dict(self.gaps)}


def _chain(A: PdMatrix, B: PdMatrix, label: str, case: str, gaps, derivative_error=None) -> ChainReport:
    # A chain report at the pair's own commutation tolerance.
    return ChainReport(label, case, gaps, derivative_error, comm_tol(A, B))


def remark1_identity_chain(A: PdMatrix, B: PdMatrix) -> ChainReport:
    """Links of the Wasserstein-vs-arithmetic commutation argument.

    With S = (A^(1/2) B A^(1/2))^(1/2) and N = A^(-1/2) B A^(-1/2), the
    hypothesis is equivalent to

        (A + S)^2 (I + N) A = A (I + N) (A + S)^2,

    and the chain descends through [A^2, S] = 0 and [A^2, B] = 0 to
    [A, B] = 0. The derivative step substitutes t S and t^2 N, which is the
    polynomial form the substitution B -> t^2 B produces for t >= 0, and
    checks that the central difference at 0 recovers the t-linear
    coefficient S A^2 - A^2 S.
    """
    _check_operands(A, B)
    Aa = A.mat
    Ba = B.mat
    I = np.eye(Aa.shape[0])
    _, Aih, S = _bw_frame(Aa, Ba)
    N = Aih @ Ba @ Aih
    A2 = Aa @ Aa

    def assembled(t: float) -> np.ndarray:
        P = Aa + t * S
        P2 = P @ P
        R = I + t * t * N
        return P2 @ R @ Aa - Aa @ R @ P2

    h = DERIVATIVE_STEP
    diff = (assembled(h) - assembled(-h)) / (2.0 * h)
    target = S @ A2 - A2 @ S

    gaps = (
        ("hypothesis-identity", frobenius(assembled(1.0))),
        ("square-root-commutator", commutator_norm(A2, S)),
        ("square-commutator", commutator_norm(A2, Ba)),
        ("commutator", commutator_norm(Aa, Ba)),
    )
    return _chain(A, B, "wasserstein-vs-arithmetic", "wasserstein", gaps, frobenius(diff - target))


def _remark2_power(A: PdMatrix, B: PdMatrix, kind: MeanKind, label: str) -> ChainReport:
    # The chain of m_p for 0 < |p| < 1; the sign of p picks (R0, D) and the link.
    Aa = A.mat
    Ba = B.mat
    I = np.eye(Aa.shape[0])
    p = kind.p
    q = abs(p)
    K = _pow_arr(Ba, q)
    if p > 0.0:
        case, R0, D, link = "positive-power", I, Ba, K
    else:
        case, R0, D, link = "negative-power", _pow_arr(Ba, -1.0), I, _pow_arr(Ba, p + 1.0)

    def F(e: float) -> np.ndarray:
        L = _pow_arr(I + e * K, 1.0 / p)
        R = R0 + e ** (1.0 / q) * D
        return L @ Aa @ R - R @ Aa @ L

    ident = frobenius(F(1.0))
    hyp = arith_mean_commutator(kind, A, B)
    h = DERIVATIVE_STEP
    # One-sided stencil: the substituted parameter enters through e^(1/|p|),
    # which has no left neighborhood at 0.
    diff = (4.0 * F(h) - F(2.0 * h) - 3.0 * F(0.0)) / (2.0 * h)
    target = (K @ Aa @ R0 - R0 @ Aa @ K) / p

    gaps = (
        ("hypothesis-commutator", hyp),
        ("resolvent-identity", ident),
        ("power-commutator", commutator_norm(Aa, link)),
        ("commutator", commutator_norm(Aa, Ba)),
    )
    return _chain(A, B, label, case, gaps, frobenius(diff - target))


def _remark2_harmonic(A: PdMatrix, B: PdMatrix, label: str) -> ChainReport:
    Aa = A.mat
    Ba = B.mat
    Bi = _pow_arr(Ba, -1.0)
    H = 2.0 * _pow_arr(_pow_arr(Aa, -1.0) + Bi, -1.0)
    gaps = (
        ("hypothesis-commutator", commutator_norm(H, (Aa + Ba) / 2.0)),
        ("inverse-commutator", commutator_norm(Aa, Bi)),
        ("commutator", commutator_norm(Aa, Ba)),
    )
    return _chain(A, B, label, "harmonic", gaps)


def remark2_identity_chain(A: PdMatrix, B: PdMatrix, p: float) -> ChainReport:
    """Links of the power-vs-arithmetic commutation argument at exponent p.

    For 0 < |p| < 1 both signs share one form. With K = B^|p|,
    L(e) = (I + e K)^(1/p), R(e) = R0 + e^(1/|p|) D and
    F(e) = L(e) A R(e) - R(e) A L(e), where (R0, D) = (I, B) for p > 0 and
    (B^(-1), I) for p < 0, the resolvent identity is F(1) = 0; for p > 0 it
    reads (I + B^p)^(1/p) A (I + B) = (I + B) A (I + B^p)^(1/p). The
    one-sided derivative of F at 0 must be (K A R0 - R0 A K)/p, and the
    chain ends at [A, B^p] = 0 for p > 0, [A, B^(p+1)] = 0 for p < 0. At
    p = -1 the harmonic mean commutator and [A, B^(-1)] = 0 carry the
    argument with no derivative step.

    The derivative's accuracy degrades like h^(1/|p| - 1) times the
    commutator norm on non-commuting pairs, so ``derivative_error`` is a
    check on commuting pairs and a raw magnitude elsewhere. ``p`` follows the
    probes' rule for m_p: DomainError unless 1e-6 <= |p| and -1 <= p < 1.
    """
    kind = kubo_ando_power(p)
    _validate_probe_kind(kind)
    _check_operands(A, B)
    label = f"power-vs-arithmetic[p={kind.p:g}]"
    if kind.p == -1.0:
        return _remark2_harmonic(A, B, label)
    return _remark2_power(A, B, kind, label)
