"""Eigendecompositions per public call and per sampled criterion.

The counter rebinds each of matcore's eigensolver kernels, which matcore
reaches as module globals: the 2x2 closed form with vectors
(``_eig2_closed``) or without (``_eig2_values``), the 2x2 stack, and the
scalar and stacked Jacobi. So it sees every eigendecomposition, the 2x2
powers that ``_pow_arr`` builds from the values-only closed form included.
A call on a stack of N matrices counts as N eigendecompositions, whichever
kernel solves it. A matrix frame A^(1/2), A^(-1/2) costs one
eigendecomposition of A, and every result or input at n = 2 costs one more
to certify. At n >= 3 a certificate, lone or stacked, a result's or that of
``PdMatrix.certify``, is proven by a Cholesky factorization, with no
eigendecomposition unless the proof fails or its value is read, and so are
the order and invertibility checks of the axiom battery. The
Kubo-Ando means, the Wasserstein mean, both geodesics and the
Bures-Wasserstein distance take no frame of A at n >= 3: the Cholesky
factor A = L L* replaces it, at no eigendecomposition, and the harmonic
mean takes none at all. At n = 2 the geometric, Wasserstein and spectral
geometric means, the Bures-Wasserstein geodesic and distance, and by the
pencil form m_p and the trace-metric geodesic take closed forms with no
eigendecomposition at all, and so does the harmonic mean by its own. The
conventional power mean's three 2x2 powers each take the values-only
closed form, on the matrices' parts.
"""

import json

import pytest

from meanlab import (
    ARITHMETIC,
    GEODESIC_BW,
    GEODESIC_TRACE,
    GEOMETRIC,
    HARMONIC,
    SPECTRAL_GEOMETRIC,
    WASSERSTEIN,
    PdMatrix,
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
from meanlab import matcore, means, sampling
from meanlab.cli import main
from meanlab.verification import CRITERIA, criterion_6, criterion_8, criterion_9, criterion_10


# matcore's eigensolver kernels. The 2x2 kernels take a matrix's entries
# (a, d, b): a lone one's floats, which forms no vectors, or a stack's
# arrays, which forms them unless its fourth argument, ``vectors``, is
# False; the readers _eig2_values and _eig2_stack call them, and so do the
# 2x2 certificate and the powers built on parts. The rest take the matrix
# and always form vectors.
KERNELS = ("_eig2_closed", "_eig2_parts", "_eig2_stack_parts", "_eig_jacobi", "_eig_jacobi_stack")


def _count_eigs(monkeypatch, calls, values_only):
    # Rebind each kernel in matcore with a wrapper appending the size of
    # each matrix it solves to ``calls``; with ``values_only``, only of
    # those it solves without vectors.
    for entry in KERNELS:
        original = getattr(matcore, entry)

        def counting(arr, *rest, original=original, entry=entry):
            if entry.startswith("_eig2_") and entry != "_eig2_closed":
                vectors = entry == "_eig2_stack_parts" and (rest[2] if len(rest) > 2 else True)
                size, count = 2, 1 if entry == "_eig2_parts" else len(arr)
            else:
                vectors, size, count = True, arr.shape[-1], arr.shape[0] if arr.ndim == 3 else 1
            if not (values_only and vectors):
                calls.extend([size] * count)
            return original(arr, *rest)

        monkeypatch.setattr(matcore, entry, counting)


@pytest.fixture
def eig_calls(monkeypatch):
    calls = []
    _count_eigs(monkeypatch, calls, values_only=False)
    return calls


@pytest.fixture
def values_calls(monkeypatch):
    calls = []
    _count_eigs(monkeypatch, calls, values_only=True)
    return calls


def _pair(dim):
    rng = rng_for(11, dim)
    return random_pd(rng, dim), random_pd(rng, dim)


# Per mean at n >= 3, where a Cholesky proof certifies the result with no
# eigendecomposition: the harmonic mean takes the Cholesky factor of A + B
# and its inverse; the geometric mean and m_p one eigendecomposition of
# N = L^(-1) B L^(-*) (m_p both its powers from it); the Wasserstein mean
# one of S = (L* B L)^(1/2); the spectral geometric mean S and the root of
# Q = L^(-*) S L^(-1). The conventional power mean keeps its three powers.
# With an eigenvalue certificate these were one more each, and on the
# A^(+-1/2) frame harmonic 4, geometric 3, m_p 4, spectral geometric 5 and
# Wasserstein 4.
MEAN_COUNTS = [
    (ARITHMETIC, 0),
    (HARMONIC, 0),
    (conventional_power(0.5), 3),
    (GEOMETRIC, 1),
    (kubo_ando_power(0.5), 1),
    (kubo_ando_power(-0.5), 1),
    (SPECTRAL_GEOMETRIC, 2),
    (WASSERSTEIN, 1),
]
# The means that take a closed form at n = 2, where only the certificate
# remains: the spectral geometric mean's is (c^2 A + c (AQ + QA) + B) /
# (tr Q + 2c) on Q's closed form, where the root of Q took one more. The
# conventional power mean keeps its three powers, built on the matrices'
# parts, and its certificate.
CLOSED_AT_DIM_2 = (GEOMETRIC, WASSERSTEIN, HARMONIC, SPECTRAL_GEOMETRIC, kubo_ando_power(0.5), kubo_ando_power(-0.5))


def _per_mean(kind, expected, dim):
    if dim == 2:
        return 1 if kind in CLOSED_AT_DIM_2 else expected + 1
    return expected


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kind, expected", MEAN_COUNTS, ids=lambda x: getattr(x, "label", str(x)))
def test_eigendecompositions_per_mean(kind, expected, dim, eig_calls):
    A, B = _pair(dim)
    eig_calls.clear()
    mean(kind, A, B)
    assert eig_calls == [dim] * _per_mean(kind, expected, dim)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kind, expected", MEAN_COUNTS, ids=lambda x: getattr(x, "label", str(x)))
def test_eigenvalues_only_share_per_mean(kind, expected, dim, values_calls):
    # A 2x2 power is built from the eigenvalues alone, so at dim 2 no
    # eigendecomposition of a mean forms vectors; at dim 3 every one does,
    # since the certificate is proven, and its value left unread. Reading
    # it at dim 3 takes one full eigendecomposition, as Jacobi has no
    # values-only mode.
    A, B = _pair(dim)
    values_calls.clear()
    M = mean(kind, A, B)
    assert values_calls == [dim] * (_per_mean(kind, expected, dim) if dim == 2 else 0)
    M.min_eigenvalue
    M.min_eigenvalue
    assert values_calls == [dim] * (_per_mean(kind, expected, dim) if dim == 2 else 0)


@pytest.mark.parametrize("dim", [2, 3])
def test_eigendecompositions_per_distance_and_geodesic(dim, eig_calls):
    A, B = _pair(dim)
    for call, expected in (
        # The closed form at n = 2; S = (L* B L)^(1/2) on the Cholesky frame
        # at n >= 3. The A^(+-1/2) frame took 2 at both.
        (lambda: d_bw(A, B), 0 if dim == 2 else 1),
        # Q = L^(-*) S L^(-1) (the root S), one point, proven; at n = 2,
        # the point's closed form on Q's leaves its certificate alone.
        (lambda: geodesic(GEODESIC_BW, A, B, 0.3), 1),
        # N^t on the Cholesky frame, one point, proven; at n = 2 the
        # pencil form leaves the point's certificate alone.
        (lambda: geodesic(GEODESIC_TRACE, A, B, 0.3), 1),
        # d_bw(A, B), Q once, five certified points and four interval
        # distances: at n = 2 only the points (15 with the frame's
        # distances); at n >= 3 the five points, one stack, are proven
        # without an eig, and each distance and Q take one (11).
        (lambda: check_geodesic_metric(A, B, [0.0, 0.25, 0.5, 0.75, 1.0]), 5 if dim == 2 else 6),
    ):
        eig_calls.clear()
        call()
        assert eig_calls == [dim] * expected


@pytest.mark.parametrize("dim", [2, 3])
def test_eigendecompositions_per_geodesic_check_metric_run(dim, eig_calls, tmp_path, capsys):
    # Both inputs certified (2 at n = 2; proven, 0, at n >= 3), the point at
    # t (1: its certificate at n = 2, Q's root, proven, at n >= 3) and the
    # accrual (5, or 6 at n >= 3), whose own d_bw(A, B) scales the contract:
    # a second one would make 8 at n >= 3 (at n = 2 a distance takes none).
    # Eigenvalue certificates of the inputs made 9 at n >= 3, and of the
    # point too 10; the A^(+-1/2) frame's distances 18 and 15.
    paths = []
    for name, M in zip("ab", _pair(dim)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(matrix_to_json(M)))
    eig_calls.clear()
    argv = ["geodesic", "--kind", "bw", "--a", str(paths[0]), "--b", str(paths[1]), "--check-metric"]
    assert main(argv) == 0
    assert eig_calls == [dim] * (8 if dim == 2 else 7)


# 50 partners certified, then per partner the mean's own eigendecompositions
# and its certificate. A's side of the mean is taken once for the whole
# stack: A^(-1) and its frame for the Wasserstein mean (2, then the square
# root per partner), A's frame for m_p (1, then two powers per partner) and
# A^(-1) for the harmonic mean (1, then B^(-1) and the inverse of the sum):
# 152, 201 and 201 on the A^(+-1/2) frame. Taking A's side once per partner
# would cost 250 for each kind. At n >= 3 the partners and the means are
# stacks, so their 100 certificates are proven without an
# eigendecomposition, and the Cholesky frame leaves one eigendecomposition
# per partner for the Wasserstein mean (S) and m_p (N), and none for the
# harmonic mean. At n = 2 each kind's closed form drops A's side and the
# rest of the mean's own, leaving 100.
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize(
    "kind, expected",
    [(WASSERSTEIN, 50), (kubo_ando_power(0.5), 50), (HARMONIC, 0)],
    ids=lambda x: getattr(x, "label", str(x)),
)
def test_eigendecompositions_per_probe(kind, expected, dim, eig_calls):
    A, _ = _pair(dim)
    eig_calls.clear()
    probe_report(A, kind, samples=50)
    assert eig_calls == [dim] * (100 if dim == 2 else expected)


# Remark 1: A's frame and S. Remark 2, 0 < |p| < 1: B^|p|, F at 1, h, 2h and
# 0 (5), and the m_p hypothesis commutator, which costs what mean() does
# (1 by the pencil form at n = 2, 1 on the Cholesky frame, its certificate
# proven; 2 with an eigenvalue certificate); p < 0 adds
# B^(-1) and B^(p+1). The harmonic chain: A^(-1), B^(-1) and the inverse of
# their sum.
CHAIN_COUNTS = [
    pytest.param(remark1_identity_chain, (), 2, id="remark1"),
    pytest.param(remark2_identity_chain, (0.5,), 5, id="remark2-p0.5"),
    pytest.param(remark2_identity_chain, (-0.5,), 7, id="remark2-p-0.5"),
    pytest.param(remark2_identity_chain, (-1.0,), 3, id="remark2-p-1"),
]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("chain, args, expected", CHAIN_COUNTS)
def test_eigendecompositions_per_identity_chain(chain, args, expected, dim, eig_calls):
    A, B = _pair(dim)
    eig_calls.clear()
    chain(A, B, *args)
    hypothesis = 1 if chain is remark2_identity_chain and args != (-1.0,) else 0
    assert eig_calls == [dim] * (expected + hypothesis)


# Criterion 6 draws its 100 pairs once for all three kinds, and criterion 8
# its 100 commuting pairs once for both powers; redrawing them per kind or
# per power would cost 2107 and 3900. Criterion 10 divides each accrual
# deviation by the d_bw(A, B) it was measured against; a fresh distance
# per pair would cost 4103. Its curve points at t = 0, 1 and 1/2 share one
# frame (trace, 5 per pair) or one Q (Bures-Wasserstein, 6 per pair); a
# geodesic call per point would cost 4203. Criterion 9's twelve probes, six
# of the Wasserstein mean and six of m_0.5, cost 152 and 201 each (250 each
# with A's side taken per partner, 3057 in all), less 100: the two scalar
# probes and the first non-scalar one all probe against ``seed``, and its
# 50 partners are drawn and certified once, not three times (2175 before);
# the chains and the redraws of its non-scalar matrices cost the rest.
# Those are the counts on the frame route. Every one of these criteria
# works at n = 2, where the closed forms save 3 per Wasserstein mean,
# Bures-Wasserstein Q or m_p, 2 per geometric mean and 2 per pair of the
# trace-metric curve:
# - criterion 6: 100 Wasserstein means and 200 of m_+-0.5, and one lone
#   m_0.5 (903);
# - criterion 8: 200 Wasserstein means and 200 of m_p (1200);
# - criterion 9: six Wasserstein probes (52 each), six m_0.5 probes (101
#   each) and three m_p in the chains (927);
# - criterion 10: 20 midpoint pairs (a geometric mean, a Q, a Wasserstein
#   mean and a trace-metric curve each, 200), 50 accrual pairs (a Q each,
#   150) and 1251 distances by d_bw's closed form (2 each, 2502), which
#   leaves only certificates (1151).
CLOSED_FORM_SAVINGS = {criterion_6: 903, criterion_8: 1200, criterion_9: 927, criterion_10: 2852}


@pytest.mark.parametrize(
    "criterion, expected",
    [(criterion_6, 1707), (criterion_8, 3700), (criterion_9, 2075), (criterion_10, 4003)],
    ids=lambda x: getattr(x, "__name__", str(x)),
)
def test_eigendecompositions_per_sampled_criterion(criterion, expected, eig_calls):
    criterion(seed=0)
    assert len(eig_calls) == expected - CLOSED_FORM_SAVINGS[criterion]


# Each sampled criterion seeds all its streams in one call, one
# SeedSequence hash per entropy length: criteria 6, 8 and 10 have streams
# (seed, stream) only. Criterion 9 hashes its non-scalar draws' stream
# (seed, 90), then the partner streams of its probes' ten distinct seeds,
# one word each at seed 0, in one call. Before, each stream had its own
# hash: 2, 3, 13 and 3.
@pytest.mark.parametrize("criterion, hashes", [(criterion_6, 1), (criterion_8, 1), (criterion_9, 2), (criterion_10, 1)],
                         ids=lambda x: getattr(x, "__name__", str(x)))
def test_seed_hashes_per_sampled_criterion(criterion, hashes, monkeypatch):
    calls = []
    real = sampling._seed_states
    monkeypatch.setattr(sampling, "_seed_states", lambda entropy: calls.append(entropy.shape) or real(entropy))
    criterion(seed=0)
    assert len(calls) == hashes


# The power family's criteria on their grids. Criterion 5's eight solves
# on the 6-point grid certify their 48 means, then take the outer powers of
# the grid's 12 matrices and of those 48 means, one eigendecomposition each
# (108); a solve per kind took 24 each (192). Criterion 2 certifies its 36
# means and takes their p-th powers (72), and criterion 1 certifies its 18
# means of m_p and 2 Wasserstein means (20). Each takes every m_p of its
# kinds from one pencil: criterion 5 has p = 1 besides the six of P_VALUES.
@pytest.mark.parametrize("criterion, eigs, pencil", [(1, 20, 6), (2, 72, 6), (5, 108, 7)])
def test_power_family_criteria_take_one_pencil(criterion, eigs, pencil, eig_calls, monkeypatch):
    sizes = []
    real = means._pencil2
    monkeypatch.setattr(means, "_pencil2", lambda fs, *rest: sizes.append(len(fs)) or real(fs, *rest))
    CRITERIA[criterion]()
    assert len(eig_calls) == eigs
    assert sizes == [pencil]


@pytest.mark.parametrize("n", [3, 4])
def test_pd_matrix_certify_proves_at_n_3_and_up(n, eig_calls):
    # PdMatrix.certify decides as a result's certificate is decided: a PD
    # input is proven with no eigendecomposition. Its min_eigenvalue, read
    # later, takes one, once, and is the least eigenvalue of the full
    # solve, bit for bit. (The inputs the proof refuses or leaves open are
    # in test_matcore's proof tests.)
    X = random_pd(rng_for(12, n), n).mat
    eig_calls.clear()
    P = PdMatrix.certify(X)
    assert eig_calls == [] and "min_eigenvalue" not in vars(P)
    lam, again = P.min_eigenvalue, P.min_eigenvalue
    assert eig_calls == [n] and lam == again == float(matcore._eig_array(X)[0][0])


def test_eigendecompositions_per_axiom_battery(eig_calls):
    # Per sample: A, C, B and D certified (4), T drawn (1), lo and hi (1
    # each: the 2x2 geometric mean's closed form leaves the certificate),
    # the order check (1), the invertibility of T (1), TA and TC certified
    # (2), the transformed mean (1), six shifted means (6) and five order
    # checks between them (5): 23, down from 41 on the frame route.
    # Normalization adds one mean (1). Evaluating per stack must not add or
    # drop any.
    check_kubo_ando_axioms(GEOMETRIC, samples=8, dim=2)
    assert eig_calls == [2] * (8 * 23 + 1)


@pytest.mark.parametrize(
    "kind", [HARMONIC, kubo_ando_power(0.5), kubo_ando_power(-0.5)], ids=lambda k: k.label
)
def test_eigendecompositions_per_axiom_battery_of_the_pencil_kinds(kind, eig_calls):
    # The harmonic mean and m_p take the pencil form at n = 2, so their
    # battery costs what the geometric mean's does.
    check_kubo_ando_axioms(kind, samples=8, dim=2)
    assert eig_calls == [2] * (8 * 23 + 1)


def test_eigendecompositions_per_axiom_battery_at_dim_3(eig_calls):
    # At n >= 3 every stacked certificate is proven by Cholesky: B, D, TA
    # and TC (4) and the nine means (9) per sample, and T's for odd samples
    # (4 of 8). So are A and C, above the tolerance of A + I, which covers
    # every shift A + I/k (2), T's invertibility (1) and the six order
    # checks (6). The geometric mean's Cholesky frame leaves one
    # eigendecomposition (N^(1/2)) per mean, and T's draw one for even
    # samples: 10 per sample, down from 19 with those nine checks by
    # eigenvalues and 28 on the A^(+-1/2) frame. Normalization's lone mean
    # takes 1, its certificate proven (2 before).
    check_kubo_ando_axioms(GEOMETRIC, samples=8, dim=3)
    assert eig_calls == [3] * (8 * 10 - 4 + 1)


def test_eigenvalues_only_share_of_the_axiom_battery(values_calls):
    # Of the 23 per sample and normalization's 1, only the T of even
    # samples (4 of 8), which pushes eigenvalues away from zero, needs
    # vectors. Every other one is a certificate or an order or
    # invertibility check.
    check_kubo_ando_axioms(GEOMETRIC, samples=8, dim=2)
    assert values_calls == [2] * (8 * 23 + 1 - 4)
