"""Acceptance batteries: eleven numbered criteria, each a CheckReport.

Every criterion pins its tolerances and seeds here. Items that compare
against tabulated coefficient values carry the "(tabulated)" suffix; where
an independently derived value disagrees with a tabulated one, both appear
so a failing line sits next to the passing dual route. The batteries never
relax a comparison to make it pass.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .centrality import _central, _probes, remark1_identity_chain, remark2_identity_chain
from .expansion import (
    DEFAULT_GRID,
    _fit_stacks,
    _grid_means,
    _power_mean_expansions,
    check_wasserstein_expansion,
    gp_d1,
    gp_d2,
    gp_d2_tabulated_anchor,
    gp_eval,
    pauli_pair,
)
from .geometry import GEODESIC_BW, GEODESIC_TRACE, _accrual, _certified_points, _d_bw_arr, d_bw
from .matcore import (
    PdMatrix, _certified, _check_hermitian, _norms, _sym, commutator_norm, frobenius, identity_pd, pauli_basis,
)
from .means import (
    ARITHMETIC,
    GEOMETRIC,
    HARMONIC,
    WASSERSTEIN,
    _mean_arr,
    _wasserstein_alt_arr,
    check_kubo_ando_axioms,
    conventional_power,
    kubo_ando_power,
)
from .preserver import (
    _coefficient_solves,
    _residual_arr,
    constant_functional,
    linear_functional,
    preserver_residual,
    trace_power_functional,
)
from .report import CheckItem, CheckReport, least, worst
from .sampling import _complex, _unitary_factor, complex_draws, pd_grams, random_pd, rng_batch, rng_batches

P_VALUES = (-0.9, -0.5, -0.1, 0.1, 0.5, 0.9)

# Central-difference steps for the derivative anchors: first differences are
# accurate to ~1e-11 at 1e-5; second differences balance truncation against
# roundoff near 1e-4.
_CD1_STEP = 1e-5
_CD2_STEP = 1e-4


def criterion_1(seed: int = 0, tol_scale: float = 1.0) -> CheckReport:
    """Perturbed means commute with the symmetrizing unitary U.

    Every m_p of ``P_VALUES`` over the pinned pairs comes from one pencil,
    certified and commuted with U as one stack.
    """
    tol = 1e-11 * tol_scale
    _, _, U = pauli_basis()
    gaps = commutator_norm(U, _grid_means([kubo_ando_power(p) for p in P_VALUES], (0.1, 0.3, 0.5))).tolist()
    items = [CheckItem.bound(f"[U, A m_p B] vanishes, p = {p:g}", worst(gap), tol) for p, gap in zip(P_VALUES, gaps)]
    gap = worst(commutator_norm(U, _grid_means((WASSERSTEIN,), (0.1, 0.4))[0]).tolist())
    items.append(CheckItem.bound("[U, Wasserstein mean] vanishes", gap, tol))
    return CheckReport("criterion 1: unitary commutation of perturbed means", tuple(items))


def criterion_2(seed: int = 0, tol_scale: float = 1.0) -> CheckReport:
    """Power-mean expansion coefficients against the tabulated displays.

    Items 0 and 1 of the expansion check, renamed, for every p of
    ``P_VALUES`` from one stacked check: one pencil, one eigendecomposition
    of each mean and one fit of all twelve families.
    """
    items = []
    for p, (check, _) in zip(P_VALUES, _power_mean_expansions(P_VALUES, DEFAULT_GRID, tol_scale)):
        c1, c2 = check.items[:2]
        items.append(replace(c1, name=f"c1 = (sigma_z + sigma_x)/2, p = {p:g}"))
        items.append(replace(c2, name=f"c2 = (p/2 + 1/(4p) - 3/4) I (tabulated), p = {p:g}"))
    return CheckReport("criterion 2: power-mean expansion coefficients", tuple(items))


def criterion_3(seed: int = 0, tol_scale: float = 1.0) -> CheckReport:
    """Wasserstein expansion coefficients against the tabulated displays.

    Items 1, 4 and 7 of the expansion check, renamed.
    """
    check = check_wasserstein_expansion(tol_scale=tol_scale).items
    names = (
        (1, "Wasserstein c2 norm vanishes (tabulated)"),
        (4, "sqrt-of-Wasserstein c2 = -I/16 (tabulated)"),
        (7, "transport-factor c2 = sigma_x sigma_z / 2 (tabulated)"),
    )
    items = tuple(replace(check[i], name=name) for i, name in names)
    return CheckReport("criterion 3: Wasserstein expansion coefficients", items)


def criterion_4(seed: int = 0, tol_scale: float = 1.0) -> CheckReport:
    """Representing-function derivative anchors at x = 1."""
    d1_tol = 1e-8 * tol_scale
    d2_tol = 1e-6 * tol_scale
    items = []
    for p in P_VALUES:
        d1 = gp_d1(p, 1.0)
        h = _CD1_STEP
        cd1 = (gp_eval(p, 1.0 + h) - gp_eval(p, 1.0 - h)) / (2.0 * h)
        h = _CD2_STEP
        cd2 = (gp_eval(p, 1.0 + h) - 2.0 * gp_eval(p, 1.0) + gp_eval(p, 1.0 - h)) / (h * h)
        items.append(CheckItem.compare(f"g_p'(1) formula = 1/2, p = {p:g}", 0.5, d1, 0.0))
        items.append(
            CheckItem.compare(f"g_p'(1) vs central differences, p = {p:g}", cd1, d1, d1_tol)
        )
        items.append(
            CheckItem.compare(
                f"tabulated second-derivative anchor vs central differences, p = {p:g}",
                cd2,
                gp_d2_tabulated_anchor(p),
                d2_tol,
            )
        )
        items.append(
            CheckItem.compare(
                f"g_p''(1) formula vs central differences (derived), p = {p:g}",
                cd2,
                gp_d2(p, 1.0),
                d2_tol,
            )
        )
    return CheckReport("criterion 4: derivative anchors of g_p at 1", tuple(items))


def criterion_5(seed: int = 0, tol_scale: float = 1.0) -> CheckReport:
    """Forced constancy: the coefficient solve must pin c_I to zero.

    The eight solves (each p of ``P_VALUES``, the Wasserstein mean and
    p = 1) run as one stack: one pencil, one eigendecomposition of each
    grid matrix, one fit and one SVD, each report as solve_coefficients
    gives it.
    """
    tol = 1e-6 * tol_scale
    *reps, rep1 = _coefficient_solves([kubo_ando_power(p) for p in P_VALUES] + [WASSERSTEIN, kubo_ando_power(1.0)])
    names = [f"p = {p:g}" for p in P_VALUES] + ["Wasserstein"]
    items = [
        CheckItem.bound(f"c_I forced to zero in the null space, {name}", rep.c_i_projection, tol)
        for name, rep in zip(names, reps)
    ]
    items.append(CheckItem.bound("second-order constraint row vanishes, p = 1", frobenius(np.array(rep1.rows[1])), tol))
    items.append(CheckItem.compare("c_I unconstrained at p = 1 (null-space projection)", 1.0, rep1.c_i_projection, 0.5))
    return CheckReport("criterion 5: forced constancy of the affine model", tuple(items))


def _weighted_pairs(rngs):
    # Criterion 6's 100 linear cases as stacks: a trace-normalized PSD
    # weight W = G*G / tr(G*G) for f = tr(W .), then a certified pair. Draw
    # i takes G, then the pair's factors as random_pd takes them, from the
    # i-th generator of ``rngs``, rng_for(seed, 61, i).
    F = complex_draws(rngs, 2, 3)
    G = F[:, 0]
    W = G.conj().swapaxes(-1, -2) @ G
    return W / np.trace(W, axis1=-2, axis2=-1).real[:, None, None], *pd_grams(F[:, 1:])


def criterion_6(seed: int = 0, tol_scale: float = 1.0) -> CheckReport:
    """Residual separation: constants preserve, a genuine functional does not.

    Its two streams, 60 for the constant cases and 61 for the linear ones,
    are seeded as one batch.
    """
    const_tol = 1e-13 * tol_scale
    linear_tol = 1e-12 * tol_scale
    # Separation thresholds are not tolerances; they stay fixed.
    sep_floor = 1e-4
    f_const = constant_functional(1.7)
    kinds = (
        ("m_0.5", kubo_ando_power(0.5)),
        ("m_-0.5", kubo_ando_power(-0.5)),
        ("Wasserstein", WASSERSTEIN),
    )
    constant, linear = rng_batches(((seed, 60), 100), ((seed, 61), 100))
    A, B = pd_grams(complex_draws(constant, 2, 2))
    items = []
    for name, kind in kinds:
        residual = worst(_residual_arr(f_const, kind, A, B).tolist())
        items.append(CheckItem.bound(f"constants preserve {name} (100 pairs)", residual, const_tol))

    f_tp = trace_power_functional(0.5)
    A5, B5 = pauli_pair(0.5)
    items.append(
        CheckItem.floor(
            "trace-power functional fails to preserve m_0.5",
            preserver_residual(f_tp, kubo_ando_power(0.5), A5, B5),
            sep_floor,
        )
    )

    W, A, B = _weighted_pairs(linear)
    residual = worst(_residual_arr(linear_functional(W), ARITHMETIC, A, B).tolist())
    items.append(
        CheckItem.bound("positive linear functionals preserve the arithmetic mean", residual, linear_tol)
    )
    return CheckReport("criterion 6: preserver residual separation", tuple(items))


def criterion_7(seed: int = 0, tol_scale: float = 1.0) -> CheckReport:
    """Kubo-Ando axiom battery, zero failures allowed."""
    kinds = (
        ("harmonic", HARMONIC),
        ("geometric", GEOMETRIC),
        ("m_0.5", kubo_ando_power(0.5)),
        ("m_-0.5", kubo_ando_power(-0.5)),
    )
    items = []
    for name, kind in kinds:
        for dim in (2, 3):
            rep = check_kubo_ando_axioms(kind, samples=200, rng_seed=seed, dim=dim)
            failures = sum(c.failures for c in rep.checks)
            items.append(
                CheckItem.bound(f"axiom failures, {name}, dim {dim}", float(failures), 0.0)
            )
    return CheckReport("criterion 7: Kubo-Ando axiom battery", tuple(items))


def _commuting_stacks(*batches):
    # For each batch of generators, its commuting pairs
    # (V diag(d1) V*, V diag(d2) V*) as two certified stacks, a pair per
    # generator. Each generator draws V's normals, then d1 and d2; the
    # normals of every batch form their complex matrices at once, as
    # complex_draws forms them, and go through one stacked QR, and every
    # pair is certified in one stack.
    Z, d, ends = [], [], []
    for batch in batches:
        for rng in batch:
            Z.append(rng.standard_normal((2, 2, 2)))
            d.append(rng.uniform(0.5, 3.0, size=(2, 2)))
        ends.append(len(Z))
    V = _unitary_factor(_complex(np.array(Z)))[:, None]
    pairs = (V * np.array(d)[..., None, :]) @ V.conj().swapaxes(-1, -2)
    _check_hermitian(pairs)
    pairs = _certified(_sym(pairs))
    return [tuple(np.ascontiguousarray(P.swapaxes(0, 1))) for P in np.split(pairs, ends[:-1])]


def criterion_8(seed: int = 0, tol_scale: float = 1.0) -> CheckReport:
    """Commuting-case coincidences and the two Wasserstein formulas.

    Its three streams of 100 pairs, 80 and 81 commuting and 82 generic, are
    seeded as one batch and drawn first; the commuting pairs of both
    streams are built and certified as one stack, the generic ones as two.
    The means are taken over the stacks, every result certified as
    ``mean`` does.
    """
    tol_c = 1e-10 * tol_scale
    tol_w = 1e-11 * tol_scale

    def gap(X, Y) -> float:
        return worst(_norms(X - Y).tolist())

    powers, halves, generic = rng_batches(((seed, 80), 100), ((seed, 81), 100), ((seed, 82), 100))
    (A, B), commuting = _commuting_stacks(powers, halves)
    items = []
    for p in (0.5, -0.5):
        ka = _certified(_mean_arr(kubo_ando_power(p), A, B))
        cp = _certified(_mean_arr(conventional_power(p), A, B))
        items.append(
            CheckItem.bound(f"m_p vs conventional power on commuting pairs, p = {p:g}", gap(ka, cp), tol_c)
        )
    A, B = commuting
    W = _certified(_mean_arr(WASSERSTEIN, A, B))
    cp = _certified(_mean_arr(conventional_power(0.5), A, B))
    items.append(
        CheckItem.bound("Wasserstein vs conventional power 1/2 on commuting pairs", gap(W, cp), tol_c)
    )
    A, B = pd_grams(complex_draws(generic, 2, 2))
    W = _certified(_mean_arr(WASSERSTEIN, A, B))
    alt = _certified(_wasserstein_alt_arr(A, B))
    items.append(CheckItem.bound("two Wasserstein formulas agree", gap(W, alt), tol_w))
    return CheckReport("criterion 8: mean coincidences", tuple(items))


# Criterion 9 draws its non-scalar matrices at least this far (Frobenius)
# from the scalars.
_SCALAR_GAP = 0.05


def _scalar_gap(A):
    # ||A - (tr A / 2) I||_F of a 2x2 matrix, or of each matrix of a stack.
    return _norms(A - (np.trace(A, axis1=-2, axis2=-1).real / 2.0)[..., None, None] * np.eye(2))


def _non_scalar_stack(rngs) -> np.ndarray:
    # A 2x2 random_pd draw on each generator of the list ``rngs``, drawn and
    # certified as one stack; a row within _SCALAR_GAP of the scalars is
    # redrawn from its own generator, a random_pd draw at a time, until it
    # is not.
    (A,) = pd_grams(complex_draws(rngs, 2, 1))
    for i in np.flatnonzero(_scalar_gap(A) < _SCALAR_GAP):
        while _scalar_gap(A[i]) < _SCALAR_GAP:
            A[i] = random_pd(rngs[i], 2).mat
    return A


def _chains(A: PdMatrix, B: PdMatrix, ps):
    # (route label, chain) for the Wasserstein chain, then the power chain at
    # each p.
    yield "Wasserstein route", remark1_identity_chain(A, B)
    for p in ps:
        yield f"power route, p = {p:g}", remark2_identity_chain(A, B, p)


def criterion_9(seed: int = 0, tol_scale: float = 1.0) -> CheckReport:
    """Centrality probes and the identity chains on pinned pair classes.

    The twelve probes, a scalar against the partners of ``seed`` for the
    Wasserstein mean and for m_0.5, then ten non-scalar draws of stream 90
    against those of seed + i, the kinds alternating, run as one stacked
    probe: the partners of each distinct seed are drawn and certified
    once, and every verdict is the one centrality_probe gives its case.
    """
    small = 1e-11 * tol_scale
    # Separation threshold, not a tolerance; stays fixed.
    large = 1e-3
    deriv_tol = 1e-5 * tol_scale
    sz, sx, _ = pauli_basis()
    scalar = PdMatrix.certify(3.0 * np.eye(2)).mat
    kinds = (WASSERSTEIN, kubo_ando_power(0.5))
    cases = [(scalar, kind, seed) for kind in kinds]
    drawn = _non_scalar_stack(list(rng_batch(seed, 90, count=10)))
    cases += [(A, kinds[i % 2], seed + i) for i, A in enumerate(drawn)]
    central = [_central(*probe) for probe in _probes(cases, 50)]
    items = [
        CheckItem.bound("scalar passes the probe, Wasserstein", 0.0 if central[0] else 1.0, 0.0),
        CheckItem.bound("scalar passes the probe, m_0.5", 0.0 if central[1] else 1.0, 0.0),
        CheckItem.compare("non-scalar matrices failing the probe (of 10)", 10.0, float(central[2:].count(False)), 0.0),
    ]

    Ac = PdMatrix.certify(np.diag([1.0, 4.0]))
    Bc = PdMatrix.certify(np.diag([9.0, 16.0]))
    for route, ch in _chains(Ac, Bc, (0.5, -0.5, -1.0)):
        gap = worst(g for _, g in ch.gaps)
        items.append(CheckItem.bound(f"chain gaps on a commuting pair ({route})", gap, small))
        if ch.derivative_error is not None:
            name = f"chain derivative step on a commuting pair ({route})"
            items.append(CheckItem.bound(name, ch.derivative_error, deriv_tol))

    # The same A against a partner it does not commute with.
    Bg = PdMatrix.certify(np.eye(2) + 0.6 * sx.mat)
    for route, ch in _chains(Ac, Bg, (0.5, -1.0)):
        gap = least(g for _, g in ch.gaps)
        items.append(CheckItem.floor(f"all gaps large on the generic pair ({route})", gap, large))
        # Only the Wasserstein chain differentiates an exact polynomial, so
        # only its derivative step stays accurate off the commuting locus.
        if ch.case == "wasserstein":
            name = f"derivative step still accurate on the generic pair ({route})"
            items.append(CheckItem.bound(name, ch.derivative_error, deriv_tol))

    Am = PdMatrix.certify(np.eye(2) + 0.5 * sz.mat)
    Bm = PdMatrix.certify(np.eye(2) + 0.5 * sx.mat)
    ch = remark1_identity_chain(Am, Bm)
    items.append(
        CheckItem.bound("matched family satisfies the hypothesis link", ch.gap("hypothesis-identity"), small)
    )
    items.append(
        CheckItem.floor("matched family still fails to commute", ch.gap("commutator"), large)
    )
    return CheckReport("criterion 9: centrality probes and identity chains", tuple(items))


def criterion_10(seed: int = 0, tol_scale: float = 1.0) -> CheckReport:
    """Metric and geodesic properties of the Bures-Wasserstein structure.

    Its three streams, 100 for the triples, 101 for the curve pairs and 102
    for the accrual pairs, are seeded as one batch.
    """
    sym_tol = 1e-11 * tol_scale
    tri_slack = 1e-10 * tol_scale
    end_tol = 1e-11 * tol_scale
    mid_tol = 1e-10 * tol_scale
    add_rtol = 1e-8 * tol_scale
    exact_tol = 1e-12 * tol_scale

    triples, pairs, accrual = rng_batches(((seed, 100), 200), ((seed, 101), 20), ((seed, 102), 50))
    A, B, C = pd_grams(complex_draws(triples, 2, 3))
    dab = _d_bw_arr(A, B)
    sym = np.abs(dab - _d_bw_arr(B, A))
    ident = _d_bw_arr(A, A)
    tri = _d_bw_arr(A, C) - (dab + _d_bw_arr(B, C))
    items = [
        CheckItem.bound("distance symmetry (200 triples)", worst(sym.tolist()), sym_tol),
        CheckItem.bound("self-distance vanishes (200 triples)", worst(ident.tolist()), sym_tol),
        CheckItem.bound("triangle inequality violation (200 triples)", worst(tri.tolist()), tri_slack),
    ]

    # Both curves at t = 0, 1 and 1/2 over the 20 pairs, from one frame or Q per pair.
    A, B = pd_grams(complex_draws(pairs, 2, 2))
    end_gaps, mids = [], []
    for geo, kind, name in (
        (GEODESIC_TRACE, GEOMETRIC, "trace-metric midpoint is the geometric mean"),
        (GEODESIC_BW, WASSERSTEIN, "Bures-Wasserstein midpoint is the Wasserstein mean"),
    ):
        P = _certified_points(geo, A, B, (0.0, 1.0, 0.5))
        end_gaps += [_norms(P[0] - A), _norms(P[1] - B)]
        gap = _norms(P[2] - _certified(_mean_arr(kind, A, B)))
        mids.append(CheckItem.bound(name, worst(gap.tolist()), mid_tol))
    ends = worst(np.concatenate(end_gaps).tolist())
    items.append(CheckItem.bound("geodesic endpoints (both kinds, 20 pairs)", ends, end_tol))
    items += mids

    partition = (0.0, 0.25, 0.5, 0.75, 1.0)
    deviation, total = _accrual(*pd_grams(complex_draws(accrual, 2, 2)), partition)
    ratio = worst((deviation / total).tolist())
    items.append(CheckItem.bound("distance accrues proportionally along the curve", ratio, add_rtol))

    four = PdMatrix.certify(4.0 * np.eye(2))
    items.append(
        CheckItem.compare("d_bw(I, 4I) = sqrt(2)", math.sqrt(2.0), d_bw(identity_pd(2), four), exact_tol)
    )
    return CheckReport("criterion 10: Bures-Wasserstein geometry", tuple(items))


def criterion_11(seed: int = 0, tol_scale: float = 1.0) -> CheckReport:
    """Degree-2 residual scales like eps_max cubed for the power family."""
    kind = kubo_ando_power(0.5)
    base, doubled = (
        _fit_stacks(g, [_grid_means((kind,), g.eps_grid)[0]])[0] for g in (DEFAULT_GRID, DEFAULT_GRID.scaled(2.0))
    )
    factor = doubled.residual_bound / base.residual_bound
    item = CheckItem.compare(
        "log2 of residual growth under grid doubling",
        3.0,
        math.log2(factor),
        0.5 * tol_scale,
    )
    return CheckReport("criterion 11: cubic truncation of the degree-2 fit", (item,))


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
}


def run_all(seed: int = 0, tol_scale: float = 1.0) -> list[CheckReport]:
    return [CRITERIA[n](seed=seed, tol_scale=tol_scale) for n in sorted(CRITERIA)]
