"""Commutation probes and the two identity chains.

Pair classes matter here: commuting pairs must drive every gap to roundoff,
generic pairs must keep every gap visibly large, and the matched family
separates the hypothesis identity from actual commutation.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from meanlab import centrality, verification
from meanlab import (
    ARITHMETIC,
    GEOMETRIC,
    HARMONIC,
    SPECTRAL_GEOMETRIC,
    WASSERSTEIN,
    DomainError,
    PdMatrix,
    arith_mean_commutator,
    centrality_probe,
    comm_tol,
    commutator_norm,
    commutator_report,
    frobenius,
    identity_pd,
    kubo_ando_power,
    mean,
    mpow,
    pauli_basis,
    probe_report,
    random_pd,
    remark1_identity_chain,
    remark2_identity_chain,
    rng_for,
)
from meanlab.sampling import draws, pd_stacks, rng_batch

SZ, SX, U = pauli_basis()
I2 = np.eye(2, dtype=complex)

COMMUTING_GAP_TOL = 1e-11
GENERIC_GAP_FLOOR = 1e-3
DERIVATIVE_TOL = 1e-5


@pytest.fixture
def commuting_pair(pd):
    return pd(np.diag([1.0, 4.0])), pd(np.diag([9.0, 16.0]))


@pytest.fixture
def generic_pair(pd):
    return pd(np.diag([1.0, 4.0])), pd(I2 + 0.6 * SX.mat)


@pytest.fixture
def matched_pair(pd):
    return pd(I2 + 0.5 * SZ.mat), pd(I2 + 0.5 * SX.mat)


def test_comm_tol_has_a_floor(pd):
    tiny = pd(0.01 * np.eye(2))
    assert comm_tol(tiny, tiny) >= 1e-9


def test_commutator_norm_on_paulis(pd):
    A = pd(I2 + 0.5 * SZ.mat)
    B = pd(I2 + 0.5 * SX.mat)
    # [A, B] = 0.25 [sz, sx] and ||[sz, sx]||_F = 2 sqrt(2).
    assert commutator_norm(A, B) == pytest.approx(0.5 * np.sqrt(2.0))


def test_arith_mean_commutator_vanishes_when_commuting(commuting_pair):
    A, B = commuting_pair
    for kind in (HARMONIC, WASSERSTEIN, kubo_ando_power(0.5)):
        assert arith_mean_commutator(kind, A, B) <= COMMUTING_GAP_TOL


def test_arith_mean_commutator_rejects_p_one(commuting_pair):
    A, B = commuting_pair
    with pytest.raises(DomainError, match="arithmetic mean with itself"):
        arith_mean_commutator(kubo_ando_power(1.0), A, B)


def test_scalar_matrices_pass_the_probe():
    lam = identity_pd(2)
    assert centrality_probe(lam, WASSERSTEIN, samples=30, seed=3)
    assert centrality_probe(lam, kubo_ando_power(0.5), samples=30, seed=3)


def test_non_scalar_matrices_fail_the_probe(pd):
    A = pd(np.diag([1.0, 4.0]))
    assert not centrality_probe(A, WASSERSTEIN, samples=30, seed=3)
    assert not centrality_probe(A, kubo_ando_power(-0.5), samples=30, seed=3)


def test_probe_report_carries_the_evidence(pd):
    rep = probe_report(pd(np.diag([1.0, 4.0])), HARMONIC, samples=10, seed=0)
    assert not rep.central
    assert rep.failures > 0
    assert rep.samples == 10
    assert rep.worst_gap > GENERIC_GAP_FLOOR


@pytest.mark.parametrize("kind", [WASSERSTEIN, kubo_ando_power(0.5), HARMONIC], ids=lambda k: k.label)
@pytest.mark.parametrize("dim", [2, 3])
def test_stacked_probe_matches_one_pair_at_a_time(kind, dim):
    # The probe evaluates its partners as one stack; each report must be the
    # commutator_report of its pair exactly, partners drawn as random_pd
    # draws them: the stacked kernels and norms give each pair its lone bits.
    # 10 is criterion 9's sample count.
    A = random_pd(rng_for(17, dim), dim)
    for samples in (10, 12):
        rep = probe_report(A, kind, samples=samples, seed=4)
        partners = draws(lambda rng: random_pd(rng, dim), 4, count=samples)
        singles = [commutator_report(kind, A, B, f"sample-{i}") for i, B in enumerate(partners)]
        assert list(rep.pairs) == singles
        assert rep.failures == sum(r.verdict != "commutes" for r in singles)


def test_probe_counts_a_nan_norm_as_a_failure(monkeypatch):
    # Every partner commutes with a scalar, so one NaN norm is the one
    # failure, in the report and in centrality_probe's stacked verdict.
    real = centrality._arith_commutator_arr

    def nan_at_three(kind, A, B):
        norms = real(kind, A, B)
        norms[3] = math.nan
        return norms

    monkeypatch.setattr(centrality, "_arith_commutator_arr", nan_at_three)
    rep = probe_report(identity_pd(2), WASSERSTEIN, samples=10, seed=0)
    assert rep.failures == 1
    assert math.isnan(rep.worst_gap)
    assert not rep.central
    assert not centrality_probe(identity_pd(2), WASSERSTEIN, samples=10, seed=0)


@pytest.mark.parametrize("kind", [WASSERSTEIN, kubo_ando_power(0.5), HARMONIC], ids=lambda k: k.label)
def test_centrality_probe_decides_as_the_report_with_no_report(kind, monkeypatch):
    # Criterion 9's probes: a scalar, then its ten non-scalar draws. The
    # verdict comes from the stacked norms and tolerances, with no
    # CommutatorReport built, and agrees with the report's.
    drawn = verification._non_scalar_stack(list(rng_batch(0, 90, count=10)))
    As = [identity_pd(2), *map(PdMatrix.certify, drawn)]
    want = [probe_report(A, kind, 50, i).central for i, A in enumerate(As)]
    monkeypatch.setattr(centrality, "CommutatorReport", lambda *a: pytest.fail("built a report"))
    assert [centrality_probe(A, kind, 50, i) for i, A in enumerate(As)] == want
    assert want[0] and not any(want[1:])


@pytest.mark.parametrize("dim", [2, 3])
def test_stacked_probe_equals_each_case_alone(dim):
    # Mixed kinds, a repeated seed, a repeated matrix and a lone-case kind,
    # at dim and at the other dim in the same call: every case's norms and
    # tolerances have the bytes of its one-case call, which probe_report
    # and centrality_probe make.
    other = 5 - dim
    A, B, C = (random_pd(rng_for(18, dim, j), dim).mat for j in range(3))
    D = random_pd(rng_for(18, other), other).mat
    m05, mneg = kubo_ando_power(0.5), kubo_ando_power(-0.5)
    cases = [
        (A, WASSERSTEIN, 3), (B, m05, 3), (C, WASSERSTEIN, 4), (A, m05, 5), (identity_pd(dim).mat, WASSERSTEIN, 3),
        (B, HARMONIC, 4), (D, m05, 3), (C, mneg, 3), (D, m05, 6), (A, WASSERSTEIN, 3),
    ]
    stacked = centrality._probes(cases, 12)
    for case, (norms, tols) in zip(cases, stacked, strict=True):
        ((want_norms, want_tols),) = centrality._probes([case], 12)
        assert norms.tobytes() == want_norms.tobytes() and tols.tobytes() == want_tols.tobytes()
        assert norms.shape == tols.shape == (12,)


@pytest.mark.parametrize("bad", [GEOMETRIC, kubo_ando_power(1.0)], ids=lambda k: k.label)
def test_stacked_probe_refuses_an_unsupported_kind_before_a_draw(bad, monkeypatch):
    # The unsupported kind sits last, after supported cases: nothing is
    # hashed or drawn before the refusal.
    monkeypatch.setattr(centrality, "rng_batches", lambda *a: pytest.fail("drew partners"))
    A = identity_pd(2).mat
    with pytest.raises(DomainError):
        centrality._probes([(A, WASSERSTEIN, 0), (A, kubo_ando_power(0.5), 1), (A, bad, 2)], 5)


def _non_scalar_pd(rng, gap):
    # One draw at a time: random_pd redrawn from rng until it is at least
    # ``gap`` from the scalars.
    A = random_pd(rng, 2)
    while frobenius(A.mat - (A.trace() / 2.0) * np.eye(2)) < gap:
        A = random_pd(rng, 2)
    return A.mat


@pytest.mark.parametrize("redraw", [False, True])
def test_non_scalar_stack_redraws_as_one_draw_at_a_time(redraw, monkeypatch):
    # Criterion 9's ten non-scalar matrices, drawn and certified as one
    # stack, against random_pd draws one at a time. No draw of stream 90
    # at seed 0 falls within 0.05 of the scalars, so a gap of 3.0, past
    # the distance of about a third of the draws, makes the redraws happen.
    gap = 3.0 if redraw else verification._SCALAR_GAP
    monkeypatch.setattr(verification, "_SCALAR_GAP", gap)
    got = verification._non_scalar_stack(list(rng_batch(0, 90, count=10)))
    want = [_non_scalar_pd(rng_for(0, 90, i), gap) for i in range(10)]
    assert got.shape == (10, 2, 2) and all(np.array_equal(g, w) for g, w in zip(got, want))
    first = pd_stacks(0, 90, dim=2, k=1, count=10)[0]
    redrawn = sum(not np.array_equal(g, f) for g, f in zip(got, first))
    assert 0 < redrawn < 10 if redraw else redrawn == 0


def test_probe_kind_validation(pd):
    A = identity_pd(2)
    with pytest.raises(DomainError):
        centrality_probe(A, kubo_ando_power(1.0), samples=5, seed=0)


@pytest.mark.parametrize("kind", [ARITHMETIC, GEOMETRIC, SPECTRAL_GEOMETRIC], ids=lambda k: k.label)
@pytest.mark.parametrize(
    "call",
    [
        lambda kind, A, B: arith_mean_commutator(kind, A, B),
        lambda kind, A, B: probe_report(A, kind, samples=3),
        lambda kind, A, B: centrality_probe(A, kind, samples=3),
    ],
    ids=["commutator", "probe-report", "probe"],
)
def test_probes_refuse_an_unsupported_kind(call, kind, commuting_pair):
    with pytest.raises(DomainError, match="support the Wasserstein mean and m_p"):
        call(kind, *commuting_pair)


def test_commutator_report_verdicts(commuting_pair, generic_pair):
    A, B = commuting_pair
    assert commutator_report(HARMONIC, A, B, pair_id="pair-0").verdict == "commutes"
    C, D = generic_pair
    assert commutator_report(HARMONIC, C, D).verdict == "does_not_commute"


def test_remark1_gap_names(commuting_pair):
    rep = remark1_identity_chain(*commuting_pair)
    assert [name for name, _ in rep.gaps] == [
        "hypothesis-identity",
        "square-root-commutator",
        "square-commutator",
        "commutator",
    ]


def test_remark1_commuting(commuting_pair):
    rep = remark1_identity_chain(*commuting_pair)
    assert rep.all_small(COMMUTING_GAP_TOL)
    assert rep.derivative_error <= DERIVATIVE_TOL


def test_remark1_generic(generic_pair):
    rep = remark1_identity_chain(*generic_pair)
    assert rep.all_large(GENERIC_GAP_FLOOR)
    # The chain differentiates an exact polynomial in t, so the derivative
    # check stays sharp even off the commuting locus.
    assert rep.derivative_error <= DERIVATIVE_TOL


def test_remark1_matched_family_separation(matched_pair):
    rep = remark1_identity_chain(*matched_pair)
    assert rep.gap("hypothesis-identity") <= COMMUTING_GAP_TOL
    assert rep.gap("commutator") > GENERIC_GAP_FLOOR
    assert not rep.all_small(COMMUTING_GAP_TOL)
    assert not rep.all_large(GENERIC_GAP_FLOOR)


@pytest.mark.parametrize("p", [0.5, 0.9])
def test_remark2_positive_case(p, commuting_pair, generic_pair):
    rep = remark2_identity_chain(*commuting_pair, p=p)
    assert rep.case == "positive-power"
    assert rep.all_small(COMMUTING_GAP_TOL)
    assert rep.derivative_error <= DERIVATIVE_TOL
    rep = remark2_identity_chain(*generic_pair, p=p)
    assert rep.all_large(GENERIC_GAP_FLOOR)


@pytest.mark.parametrize("p", [-0.5, -0.9])
def test_remark2_negative_case(p, commuting_pair, generic_pair):
    rep = remark2_identity_chain(*commuting_pair, p=p)
    assert rep.case == "negative-power"
    assert rep.all_small(COMMUTING_GAP_TOL)
    assert rep.derivative_error <= DERIVATIVE_TOL
    rep = remark2_identity_chain(*generic_pair, p=p)
    assert rep.all_large(GENERIC_GAP_FLOOR)
    # Off the commuting locus the fractional-power tail of the one-sided
    # stencil grows as |p| approaches 1, so only an order-of-magnitude
    # bound is stable here.
    assert rep.derivative_error <= 1e-4


@pytest.mark.parametrize("p, case, link", [(0.3, "positive-power", 0.3), (-0.3, "negative-power", 0.7)])
def test_remark2_power_cases_share_one_form(p, case, link, generic_pair):
    # One builder serves both signs; the sign picks the case and the power
    # link, [A, B^p] for p > 0 and [A, B^(p+1)] for p < 0.
    A, B = generic_pair
    rep = remark2_identity_chain(A, B, p=p)
    assert rep.label == f"power-vs-arithmetic[p={p:g}]"
    assert rep.case == case
    assert [name for name, _ in rep.gaps] == [
        "hypothesis-commutator",
        "resolvent-identity",
        "power-commutator",
        "commutator",
    ]
    assert rep.gap("power-commutator") == pytest.approx(commutator_norm(A, mpow(B, link)), rel=1e-12)
    assert rep.gap("commutator") == commutator_norm(A, B)


def test_remark2_harmonic_case(commuting_pair, generic_pair):
    rep = remark2_identity_chain(*commuting_pair, p=-1.0)
    assert rep.case == "harmonic"
    assert rep.derivative_error is None
    assert rep.all_small(COMMUTING_GAP_TOL)
    assert "inverse-commutator" in dict(rep.gaps)
    rep = remark2_identity_chain(*generic_pair, p=-1.0)
    assert rep.all_large(GENERIC_GAP_FLOOR)


def test_remark2_parameter_validation(commuting_pair):
    A, B = commuting_pair
    for bad in (0.0, 1.0, 1.2, -1.5):
        with pytest.raises(DomainError):
            remark2_identity_chain(A, B, p=bad)


def test_chain_report_json(commuting_pair):
    blob = remark1_identity_chain(*commuting_pair).to_json()
    assert set(blob) >= {"label", "case", "gaps", "tolerance"}
    assert isinstance(blob["gaps"], dict)


def test_probe_matches_square_root_transfer(pd, rng):
    """[A, B] = 0 forces [sqrt(A), B] = 0; the probe's tolerance respects
    the scaling used by comm_tol."""
    A = random_pd(rng, 2)
    B = mpow(A, 2.0)
    assert commutator_norm(mpow(A, 0.5), B) <= comm_tol(A, B)
    assert arith_mean_commutator(kubo_ando_power(0.5), A, B) <= comm_tol(A, B)


def test_criterion_9_floor_fails_on_a_nan_gap(monkeypatch):
    # A NaN in the second link of every Wasserstein-route chain: the generic
    # pair's floor must fail instead of taking the minimum of the rest.
    real = verification.remark1_identity_chain

    def nan_second_gap(A, B):
        ch = real(A, B)
        gaps = list(ch.gaps)
        gaps[1] = (gaps[1][0], math.nan)
        return replace(ch, gaps=tuple(gaps))

    monkeypatch.setattr(verification, "remark1_identity_chain", nan_second_gap)
    rep = verification.criterion_9(seed=0)
    item = {i.name: i for i in rep.items}["all gaps large on the generic pair (Wasserstein route)"]
    assert math.isnan(item.observed)
    assert not item.passed
