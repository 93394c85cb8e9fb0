"""Mean constructions and the axiom batteries.

Commuting pairs reduce every mean to a scalar formula, which gives exact
oracles; non-commuting checks lean on structural identities instead.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanlab import (
    ARITHMETIC,
    GEODESIC_BW,
    GEODESIC_TRACE,
    GEOMETRIC,
    HARMONIC,
    SPECTRAL_GEOMETRIC,
    WASSERSTEIN,
    DimMismatch,
    DomainError,
    MeanKind,
    NotKuboAndo,
    PdMatrix,
    RepresentingFunction,
    ando_variational_certificate,
    arith_mean_commutator,
    check_geodesic_metric,
    check_kubo_ando_axioms,
    constant_functional,
    conventional_power,
    d_bw,
    frobenius,
    from_function,
    geodesic,
    gp_eval,
    identity_pd,
    kubo_ando_from_function,
    kubo_ando_power,
    mean,
    mpow,
    pauli_pair,
    phi_of,
    random_pd,
    remark1_identity_chain,
    remark2_identity_chain,
    representing_function_of,
    rng_for,
    trace_power_functional,
    wasserstein_alt,
)
from meanlab import means

COMMUTING_TOL = 1e-10
DUALITY_TOL = 1e-10
ALT_FORM_TOL = 1e-11

ALL_KINDS = (
    ARITHMETIC,
    HARMONIC,
    GEOMETRIC,
    SPECTRAL_GEOMETRIC,
    WASSERSTEIN,
    kubo_ando_power(0.5),
    kubo_ando_power(-0.5),
    conventional_power(0.5),
)


def scalar_power_mean(a, b, p):
    return ((a**p + b**p) / 2.0) ** (1.0 / p)


def test_harmonic_midpoint_of_scalars(pd):
    M = mean(HARMONIC, pd(2.0 * np.eye(2)), pd(6.0 * np.eye(2)))
    assert frobenius(M.mat - 3.0 * np.eye(2)) <= 1e-13


def test_power_mean_on_commuting_diagonals(pd):
    A = pd(np.diag([1.0, 4.0]))
    B = pd(np.diag([9.0, 16.0]))
    for p in (0.5, -0.5, 0.9, -0.9):
        M = mean(kubo_ando_power(p), A, B)
        want = np.diag(
            [scalar_power_mean(1.0, 9.0, p), scalar_power_mean(4.0, 16.0, p)]
        )
        assert frobenius(M.mat - want) <= COMMUTING_TOL


def test_geometric_mean_on_commuting_diagonals(pd):
    M = mean(GEOMETRIC, pd(np.diag([1.0, 4.0])), pd(np.diag([9.0, 16.0])))
    assert frobenius(M.mat - np.diag([3.0, 8.0])) <= COMMUTING_TOL


def test_spectral_geometric_reduces_to_geometric_when_commuting(pd):
    A = pd(np.diag([1.0, 4.0]))
    B = pd(np.diag([9.0, 16.0]))
    left = mean(SPECTRAL_GEOMETRIC, A, B)
    right = mean(GEOMETRIC, A, B)
    assert frobenius(left.mat - right.mat) <= COMMUTING_TOL


def test_wasserstein_mean_of_scalars(pd):
    M = mean(WASSERSTEIN, identity_pd(2), pd(9.0 * np.eye(2)))
    assert frobenius(M.mat - 4.0 * np.eye(2)) <= 1e-13


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label)
def test_idempotence(kind, rng):
    A = random_pd(rng, 2)
    M = mean(kind, A, A)
    assert frobenius(M.mat - A.mat) <= 1e-11


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label)
def test_symmetry_in_the_arguments(kind, rng):
    A = random_pd(rng, 2)
    B = random_pd(rng, 2)
    left = mean(kind, A, B)
    right = mean(kind, B, A)
    assert frobenius(left.mat - right.mat) <= 1e-10


def test_inversion_duality(rng):
    """m_{-p}(A, B) equals (m_p(A^{-1}, B^{-1}))^{-1}."""
    for p in (0.5, 0.9, 0.1):
        A = random_pd(rng, 2)
        B = random_pd(rng, 2)
        direct = mean(kubo_ando_power(-p), A, B)
        dual = mpow(mean(kubo_ando_power(p), mpow(A, -1.0), mpow(B, -1.0)), -1.0)
        assert frobenius(direct.mat - dual.mat) <= DUALITY_TOL * max(
            1.0, direct.norm()
        )


def test_wasserstein_alt_form_agrees(rng):
    for _ in range(20):
        A = random_pd(rng, 2)
        B = random_pd(rng, 2)
        assert (
            frobenius(mean(WASSERSTEIN, A, B).mat - wasserstein_alt(A, B).mat)
            <= ALT_FORM_TOL
        )


def test_wasserstein_matches_conventional_power_half_when_commuting(pd):
    A = pd(np.diag([1.0, 4.0]))
    B = pd(np.diag([9.0, 16.0]))
    left = mean(WASSERSTEIN, A, B)
    right = mean(conventional_power(0.5), A, B)
    assert frobenius(left.mat - right.mat) <= COMMUTING_TOL


def test_representing_function_values():
    assert representing_function_of(ARITHMETIC, 4.0) == pytest.approx(2.5)
    assert representing_function_of(HARMONIC, 3.0) == pytest.approx(1.5)
    assert representing_function_of(GEOMETRIC, 4.0) == pytest.approx(2.0)
    assert representing_function_of(kubo_ando_power(0.5), 9.0) == pytest.approx(4.0)


def test_representing_function_normalization():
    for kind in (ARITHMETIC, HARMONIC, GEOMETRIC, kubo_ando_power(-0.5)):
        assert representing_function_of(kind, 1.0) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "kind", [SPECTRAL_GEOMETRIC, WASSERSTEIN, conventional_power(0.5)],
    ids=lambda k: k.label,
)
def test_representing_function_rejects_non_kubo_ando(kind):
    with pytest.raises(NotKuboAndo):
        representing_function_of(kind, 2.0)


def test_from_function_reproduces_named_means(rng):
    A = random_pd(rng, 2)
    B = random_pd(rng, 2)
    for f, kind in (
        (lambda t: (1.0 + t) / 2.0, ARITHMETIC),
        (lambda t: 2.0 * t / (1.0 + t), HARMONIC),
        (lambda t: t**0.5, GEOMETRIC),
    ):
        built = mean(from_function(f), A, B)
        named = mean(kind, A, B)
        assert frobenius(built.mat - named.mat) <= 1e-10


def test_kubo_ando_from_function_direct(rng):
    A = random_pd(rng, 2)
    B = random_pd(rng, 2)
    M = kubo_ando_from_function(lambda t: t**0.5, A, B)
    assert frobenius(M.mat - mean(GEOMETRIC, A, B).mat) <= 1e-10


@pytest.mark.parametrize(
    "kind",
    [HARMONIC, GEOMETRIC, kubo_ando_power(0.5), kubo_ando_power(-0.5)],
    ids=lambda k: k.label,
)
def test_axiom_battery_clean(kind):
    rep = check_kubo_ando_axioms(kind, samples=25, rng_seed=5, dim=2)
    for check in rep.checks:
        assert check.failures == 0, f"{check.axiom}: worst {check.worst_violation:.3e}"


@pytest.mark.parametrize("samples", [0, -3])
def test_axiom_battery_needs_a_sample(samples):
    with pytest.raises(DomainError):
        check_kubo_ando_axioms(GEOMETRIC, samples=samples)


@pytest.mark.parametrize("dim", [0, -1])
def test_axiom_battery_needs_a_dimension(dim):
    with pytest.raises(DomainError, match="dimension"):
        check_kubo_ando_axioms(GEOMETRIC, samples=3, dim=dim)


def test_axiom_battery_counts_a_nan_violation(monkeypatch):
    # One NaN order violation must fail the battery, not vanish in a max:
    # NaN in the first sample of the first (lo <= hi) stacked order check.
    real = means._order_violation
    calls = []

    def nan_once(M1, M2):
        out = real(M1, M2)
        calls.append(1)
        if len(calls) == 1:
            out[0] = math.nan
        return out

    monkeypatch.setattr(means, "_order_violation", nan_once)
    rep = check_kubo_ando_axioms(GEOMETRIC, samples=5, rng_seed=0, dim=2)
    mono = {c.axiom: c for c in rep.checks}["monotonicity"]
    assert mono.failures == 1
    assert math.isnan(mono.worst_violation)
    assert not rep.all_pass


def test_wasserstein_fails_transformer_axiom():
    """The transport mean is not Kubo-Ando; the battery reports where."""
    rep = check_kubo_ando_axioms(WASSERSTEIN, samples=20, rng_seed=0, dim=2)
    by_name = {c.axiom: c for c in rep.checks}
    assert by_name["transformer"].failures > 0
    assert by_name["transformer"].worst_violation > 1e-3
    assert by_name["normalization"].failures == 0


def test_ando_certificate_accepts_geometric_mean(rng):
    A = random_pd(rng, 2)
    B = random_pd(rng, 2)
    G = mean(GEOMETRIC, A, B)
    assert ando_variational_certificate(A, B, G.mat)


def test_ando_certificate_rejects_inflation(rng):
    A = random_pd(rng, 2)
    B = random_pd(rng, 2)
    G = mean(GEOMETRIC, A, B)
    assert not ando_variational_certificate(A, B, 1.05 * G.mat)


THREE = PdMatrix.certify(3.0 * np.eye(2))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: RepresentingFunction(lambda x: 1.0 / 0.0), ValueError, "failed at 1"),
        (lambda: RepresentingFunction(lambda x: 2.0 * x), ValueError, "must satisfy f\\(1\\) = 1"),
        (lambda: MeanKind("nope"), DomainError, "unknown mean tag"),
        (lambda: MeanKind("kubo-ando-power"), DomainError, "requires a power parameter"),
        (lambda: MeanKind("geometric", p=0.5), DomainError, "takes no power parameter"),
        (lambda: MeanKind("from-function"), DomainError, "require a RepresentingFunction"),
        (
            lambda: MeanKind("geometric", f=RepresentingFunction(lambda x: x)),
            DomainError,
            "takes no representing function",
        ),
        # f(1) = 1, but f(3) = -1 on N = 3I.
        (lambda: mean(from_function(lambda x: 2.0 - x), identity_pd(2), THREE), DomainError, "stay positive"),
        (lambda: representing_function_of(GEOMETRIC, 0.0), DomainError, "t > 0"),
        (lambda: representing_function_of(GEOMETRIC, -1.0), DomainError, "t > 0"),
        (lambda: ando_variational_certificate(THREE, THREE, np.eye(3)), DimMismatch, "block X has shape"),
    ],
    ids=[
        "rep-fn-raises", "rep-fn-not-normalized", "unknown-tag", "power-needs-p", "p-on-a-plain-kind",
        "from-function-needs-f", "f-on-a-plain-kind", "f-goes-non-positive", "rep-at-zero",
        "rep-at-negative", "certificate-block-shape",
    ],
)
def test_means_error_branches(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_power_parameter_validation():
    with pytest.raises(DomainError):
        kubo_ando_power(0.0)
    with pytest.raises(DomainError):
        kubo_ando_power(1.5)
    with pytest.raises(DomainError):
        conventional_power(-2.0)


@pytest.mark.parametrize(
    "entry",
    [
        kubo_ando_power,
        lambda p: gp_eval(p, 1.0),
        trace_power_functional,
        lambda p: phi_of(constant_functional(1.0), p),
    ],
    ids=["kubo_ando_power", "gp_eval", "trace_power_functional", "phi_of"],
)
def test_power_entry_points_share_one_rule(entry):
    want = "power parameter must satisfy 1e-06 <= |p| <= 1, got 2.0"
    with pytest.raises(DomainError, match=re.escape(want)):
        entry(2.0)


def test_mean_rejects_dimension_mismatch(rng):
    with pytest.raises(DimMismatch):
        mean(HARMONIC, random_pd(rng, 2), random_pd(rng, 3))


TWO_OPERAND_CALLS = {
    "mean": lambda A, B: mean(WASSERSTEIN, A, B),
    "wasserstein_alt": wasserstein_alt,
    "ando_variational_certificate": lambda A, B: ando_variational_certificate(A, B, A.mat),
    "arith_mean_commutator": lambda A, B: arith_mean_commutator(HARMONIC, A, B),
    "d_bw": d_bw,
    "geodesic-bw": lambda A, B: geodesic(GEODESIC_BW, A, B, 0.5),
    "geodesic-trace": lambda A, B: geodesic(GEODESIC_TRACE, A, B, 0.5),
    "check_geodesic_metric": lambda A, B: check_geodesic_metric(A, B, [0.0, 1.0]),
    "remark1_identity_chain": remark1_identity_chain,
    "remark2_identity_chain-p0.5": lambda A, B: remark2_identity_chain(A, B, 0.5),
    "remark2_identity_chain-p-0.5": lambda A, B: remark2_identity_chain(A, B, -0.5),
    "remark2_identity_chain-p-1": lambda A, B: remark2_identity_chain(A, B, -1.0),
}


@pytest.mark.parametrize("dims", [(2, 3), (3, 2)])
@pytest.mark.parametrize("call", sorted(TWO_OPERAND_CALLS))
def test_two_operand_calls_name_both_dimensions(rng, call, dims):
    A, B = (random_pd(rng, n) for n in dims)
    with pytest.raises(DimMismatch, match=f"^operands have dimensions {dims[0]} and {dims[1]}$"):
        TWO_OPERAND_CALLS[call](A, B)


def test_mean_output_is_certified_positive(rng):
    A = random_pd(rng, 3)
    B = random_pd(rng, 3)
    for kind in (HARMONIC, GEOMETRIC, WASSERSTEIN):
        M = mean(kind, A, B)
        assert M.min_eigenvalue > 0.0


@settings(max_examples=40, deadline=None)
@given(t=st.floats(min_value=0.05, max_value=20.0))
def test_representing_functions_interlace(t):
    """Pointwise harmonic <= geometric <= arithmetic, the scalar shadow of
    the Loewner ordering of the three means."""
    h = representing_function_of(HARMONIC, t)
    g = representing_function_of(GEOMETRIC, t)
    a = representing_function_of(ARITHMETIC, t)
    assert h <= g + 1e-12
    assert g <= a + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    t=st.floats(min_value=0.1, max_value=10.0),
    p=st.floats(min_value=0.1, max_value=1.0),
)
def test_power_profile_is_monotone_in_p(t, p):
    low = representing_function_of(kubo_ando_power(-p), t)
    high = representing_function_of(kubo_ando_power(p), t)
    assert low <= high + 1e-12
