"""Eigendecompositions per public call and per sampled criterion.

Every meanlab module imports ``_eig_array`` by name, so the counter rebinds
it in each loaded module, and ``_eig_values``, the eigenvalues-only entry
that certification and the order and invertibility checks take, with it.
A call on a stack of N matrices counts as N eigendecompositions, whichever
entry it goes through. A matrix frame A^(1/2), A^(-1/2) costs one
eigendecomposition of A, and every result costs one more to certify,
except within a stack at n >= 3: its certificates are proven by a Cholesky
factorization, with no eigendecomposition unless the proof fails.
"""

import json
import sys

import pytest

from meanlab import (
    ARITHMETIC,
    GEODESIC_BW,
    GEODESIC_TRACE,
    GEOMETRIC,
    HARMONIC,
    SPECTRAL_GEOMETRIC,
    WASSERSTEIN,
    check_geodesic_metric,
    check_kubo_ando_axioms,
    conventional_power,
    d_bw,
    geodesic,
    kubo_ando_power,
    matrix_to_json,
    mean,
    probe_report,
    random_pd,
    remark1_identity_chain,
    remark2_identity_chain,
    rng_for,
)
from meanlab import matcore
from meanlab.cli import main
from meanlab.verification import criterion_6, criterion_8, criterion_9, criterion_10


def _count_eigs(monkeypatch, entry, calls):
    # Rebind ``entry`` in every meanlab module that holds it with a wrapper
    # appending the size of each matrix it solves to ``calls``.
    original = getattr(matcore, entry)

    def counting(arr):
        calls.extend([arr.shape[-1]] * (arr.shape[0] if arr.ndim == 3 else 1))
        return original(arr)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "meanlab" and getattr(mod, entry, None) is original:
            monkeypatch.setattr(mod, entry, counting)


@pytest.fixture
def eig_calls(monkeypatch):
    calls = []
    for entry in ("_eig_array", "_eig_values"):
        _count_eigs(monkeypatch, entry, calls)
    return calls


@pytest.fixture
def values_calls(monkeypatch):
    calls = []
    _count_eigs(monkeypatch, "_eig_values", calls)
    return calls


def _pair(dim):
    rng = rng_for(11, dim)
    return random_pd(rng, dim), random_pd(rng, dim)


MEAN_COUNTS = [
    (ARITHMETIC, 1),
    (HARMONIC, 4),
    (conventional_power(0.5), 4),
    (GEOMETRIC, 3),
    (kubo_ando_power(0.5), 4),
    (kubo_ando_power(-0.5), 4),
    (SPECTRAL_GEOMETRIC, 5),
    (WASSERSTEIN, 4),
]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kind, expected", MEAN_COUNTS, ids=lambda x: getattr(x, "label", str(x)))
def test_eigendecompositions_per_mean(kind, expected, dim, eig_calls):
    A, B = _pair(dim)
    eig_calls.clear()
    mean(kind, A, B)
    assert eig_calls == [dim] * expected


@pytest.mark.parametrize("dim", [2, 3])
def test_eigendecompositions_per_distance_and_geodesic(dim, eig_calls):
    A, B = _pair(dim)
    for call, expected in (
        (lambda: d_bw(A, B), 2),
        # A^(-1), then Q = A^(-1) # B (a frame and a square root), one certified point.
        (lambda: geodesic(GEODESIC_BW, A, B, 0.3), 4),
        (lambda: geodesic(GEODESIC_TRACE, A, B, 0.3), 3),
        # d_bw(A, B), Q once, five certified points, four interval distances;
        # at n >= 3 the five points, one stack, are proven without an eig.
        (lambda: check_geodesic_metric(A, B, [0.0, 0.25, 0.5, 0.75, 1.0]), 18 if dim == 2 else 13),
    ):
        eig_calls.clear()
        call()
        assert eig_calls == [dim] * expected


@pytest.mark.parametrize("dim", [2, 3])
def test_eigendecompositions_per_geodesic_check_metric_run(dim, eig_calls, tmp_path, capsys):
    # Both inputs certified (2), the point at t (4) and the accrual (18, or
    # 13 at n >= 3), whose own d_bw(A, B) scales the contract: a second one
    # would make 26 (21).
    paths = []
    for name, M in zip("ab", _pair(dim)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(matrix_to_json(M)))
    eig_calls.clear()
    argv = ["geodesic", "--kind", "bw", "--a", str(paths[0]), "--b", str(paths[1]), "--check-metric"]
    assert main(argv) == 0
    assert eig_calls == [dim] * (24 if dim == 2 else 19)


# 50 partners certified, then per partner the mean's own eigendecompositions
# and its certificate. A's side of the mean is taken once for the whole
# stack: A^(-1) and its frame for the Wasserstein mean (2, then the square
# root per partner), A's frame for m_p (1, then two powers per partner) and
# A^(-1) for the harmonic mean (1, then B^(-1) and the inverse of the sum).
# Taking A's side once per partner would cost 250 for each kind. At n >= 3
# the partners and the means are stacks, so their 100 certificates are
# proven without an eigendecomposition.
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize(
    "kind, expected",
    [(WASSERSTEIN, 152), (kubo_ando_power(0.5), 201), (HARMONIC, 201)],
    ids=lambda x: getattr(x, "label", str(x)),
)
def test_eigendecompositions_per_probe(kind, expected, dim, eig_calls):
    A, _ = _pair(dim)
    eig_calls.clear()
    probe_report(A, kind, samples=50)
    assert eig_calls == [dim] * (expected if dim == 2 else expected - 100)


# Remark 1: A's frame and S. Remark 2, 0 < |p| < 1: B^|p|, F at 1, h, 2h and
# 0, and the m_p hypothesis commutator (4); p < 0 adds B^(-1) and B^(p+1).
# The harmonic chain: A^(-1), B^(-1) and the inverse of their sum.
CHAIN_COUNTS = [
    pytest.param(remark1_identity_chain, (), 2, id="remark1"),
    pytest.param(remark2_identity_chain, (0.5,), 9, id="remark2-p0.5"),
    pytest.param(remark2_identity_chain, (-0.5,), 11, id="remark2-p-0.5"),
    pytest.param(remark2_identity_chain, (-1.0,), 3, id="remark2-p-1"),
]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("chain, args, expected", CHAIN_COUNTS)
def test_eigendecompositions_per_identity_chain(chain, args, expected, dim, eig_calls):
    A, B = _pair(dim)
    eig_calls.clear()
    chain(A, B, *args)
    assert eig_calls == [dim] * expected


# Criterion 6 draws its 100 pairs once for all three kinds, and criterion 8
# its 100 commuting pairs once for both powers; redrawing them per kind or
# per power would cost 2107 and 3900. Criterion 10 divides each accrual
# deviation by the d_bw(A, B) it was measured against; a fresh distance
# per pair would cost 4103. Its curve points at t = 0, 1 and 1/2 share one
# frame (trace, 5 per pair) or one Q (Bures-Wasserstein, 6 per pair); a
# geodesic call per point would cost 4203. Criterion 9's twelve probes, six
# of the Wasserstein mean and six of m_0.5, cost 152 and 201 each (250 each
# with A's side taken per partner, 3057 in all); the chains and the redraws
# of its non-scalar matrices cost the rest.
@pytest.mark.parametrize(
    "criterion, expected",
    [(criterion_6, 1707), (criterion_8, 3700), (criterion_9, 2175), (criterion_10, 4003)],
    ids=lambda x: getattr(x, "__name__", str(x)),
)
def test_eigendecompositions_per_sampled_criterion(criterion, expected, eig_calls):
    criterion(seed=0)
    assert len(eig_calls) == expected


def test_eigendecompositions_per_axiom_battery(eig_calls):
    # Per sample: A, C, B and D certified (4), T drawn (1), lo and hi (3
    # each, as geometric means), the order check (1), the invertibility of T
    # (1), TA and TC certified (2), the transformed mean (3), six shifted
    # means (18) and five order checks between them (5): 41. Normalization
    # adds one mean (3). Evaluating per stack must not add or drop any.
    check_kubo_ando_axioms(GEOMETRIC, samples=8, dim=2)
    assert eig_calls == [2] * (8 * 41 + 3)


def test_eigendecompositions_per_axiom_battery_at_dim_3(eig_calls):
    # At n >= 3 every stacked certificate is proven by Cholesky: B, D, TA
    # and TC (4) and the nine means (9) per sample, and T's for odd samples
    # (4 of 8), leaving 28 per sample. A and C keep their eigenvalues, which
    # the continuity checks read, and normalization's lone mean its 3.
    check_kubo_ando_axioms(GEOMETRIC, samples=8, dim=3)
    assert eig_calls == [3] * (8 * 28 - 4 + 3)


def test_eigenvalues_only_share_of_the_axiom_battery(values_calls):
    # Of the 41 per sample, the certificates of A, C, B, D, TA and TC, of
    # lo, hi, the transformed mean and the six shifted means (15), the
    # invertibility of T (1) and the six order checks (6) need no vectors:
    # 22. So does T's certificate for odd samples (4 of 8). Normalization's
    # mean adds its certificate (1).
    check_kubo_ando_axioms(GEOMETRIC, samples=8, dim=2)
    assert values_calls == [2] * (8 * 22 + 4 + 1)
