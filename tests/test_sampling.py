"""Batched stream seeding and the axiom battery's stacked transforms.

``rng_batches`` runs numpy's SeedSequence hash itself, over every draw index
of several streams at once, and ``rng_batch`` is its one-stream call; each
of their generators must draw what ``rng_for`` draws, for seeds and streams
of one word and of several.
"""

import numpy as np
import pytest

from meanlab import (
    GEOMETRIC, WASSERSTEIN, DomainError, PdMatrix, centrality_probe, check_kubo_ando_axioms, kubo_ando_power,
)
from meanlab import means, rng_for, sampling, verification
from meanlab.sampling import random_invertible_hermitian, random_pd, rng_batch, rng_batches


def _hashes(monkeypatch) -> list:
    # The entropy shape of every SeedSequence hash run from here on.
    calls = []
    real = sampling._seed_states
    monkeypatch.setattr(sampling, "_seed_states", lambda entropy: calls.append(entropy.shape) or real(entropy))
    return calls


# Every count is seeded as one batch; 10 is criterion 9's, the smallest
# batch a check battery draws.
@pytest.mark.parametrize("count", [0, 1, 10, 11, 12, 200])
@pytest.mark.parametrize("stream", [(), (61,), (5, 9), (2**40,)], ids=str)
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 7])
def test_batch_draws_what_rng_for_draws(seed, stream, count):
    got = [rng.standard_normal(6) for rng in rng_batch(seed, *stream, count=count)]
    want = [rng_for(seed, *stream, i).standard_normal(6) for i in range(count)]
    assert len(got) == count
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_batch_mixes_entropy_past_the_pool():
    # Seven words of entropy: four fill the pool, three are mixed in after.
    stream = (3, 2**70, 8)
    got = [rng.standard_normal(6) for rng in rng_batch(2**33, *stream, count=20)]
    assert all(np.array_equal(g, rng_for(2**33, *stream, i).standard_normal(6)) for i, g in enumerate(got))


@pytest.mark.parametrize("args", [(-1,), (0, -2), (3, 4, -5)], ids=str)
def test_batch_rejects_a_negative_argument_as_rng_for_does(args, monkeypatch):
    # Also as the second batch of several, before any hash runs or any
    # generator is built.
    with pytest.raises(ValueError) as expected:
        rng_for(*args, 0)
    with pytest.raises(ValueError, match=f"^{expected.value}$"):
        rng_batch(*args, count=3)
    with pytest.raises(ValueError, match=f"^{expected.value}$"):
        rng_batch(*args, count=0)
    calls = _hashes(monkeypatch)
    monkeypatch.setattr(sampling, "_seed_state_type", lambda: pytest.fail("built a generator"))
    with pytest.raises(ValueError, match=f"^{expected.value}$"):
        rng_batches(((0,), 4), (args, 0))
    assert calls == []


@pytest.mark.parametrize("dim", [0, -1])
def test_samplers_refuse_a_dimension_below_one(dim):
    # As check_kubo_ando_axioms does, in the words it uses, before any draw:
    # the generator's state is where it started.
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    calls = [
        lambda: random_pd(rng, dim),
        lambda: sampling.random_hermitian(rng, dim),
        lambda: sampling.random_unitary(rng, dim),
        lambda: random_invertible_hermitian(rng, dim),
        lambda: sampling.complex_draws([rng], dim, 2),
        lambda: sampling.pd_stacks(0, dim=dim, k=2, count=3),
        lambda: check_kubo_ando_axioms(GEOMETRIC, samples=2, dim=dim),
    ]
    for call in calls:
        with pytest.raises(DomainError, match=f"^dimension must be at least 1, got {dim}$"):
            call()
    assert rng.bit_generator.state == state


def test_batches_draw_what_rng_for_draws(monkeypatch):
    # Seeds on both sides of the one-word boundary, a stream past the pool,
    # a repeated prefix and counts 0 and 1, in one call: one hash per
    # entropy length (prefix words and the word of i), in order of first
    # appearance, over the columns of every batch of that length.
    batches = [
        ((2**32 - 2,), 3), ((2**32 - 1, 7), 2), ((2**32,), 4), ((2**32 + 1, 7), 0),
        ((2**32 - 2,), 1), ((5, 2**70, 8), 2), ((2**32 + 1,), 5),
    ]
    calls = _hashes(monkeypatch)
    got = rng_batches(*batches)
    assert calls == [(2, 4), (3, 11), (4, 0), (6, 2)]
    assert len(got) == len(batches)
    for (prefix, count), batch in zip(batches, got):
        draws = [rng.standard_normal(6) for rng in batch]
        assert len(draws) == count
        assert all(np.array_equal(d, rng_for(*prefix, i).standard_normal(6)) for i, d in enumerate(draws))


def test_criterion_9_across_the_one_word_boundary(monkeypatch):
    # At seed 2**32 - 5 the probe seeds seed + i run past 2**32 - 1, so the
    # partner streams take one word and two: two hashes for the probes
    # after stream 90's. Each verdict is its lone centrality_probe's.
    seed = 2**32 - 5
    calls = _hashes(monkeypatch)
    items = {i.name: i.observed for i in verification.criterion_9(seed=seed).items}
    assert calls == [(3, 10), (2, 250), (3, 250)]
    scalar = PdMatrix.certify(3.0 * np.eye(2))
    kinds = (WASSERSTEIN, kubo_ando_power(0.5))
    assert [items[f"scalar passes the probe, {name}"] for name in ("Wasserstein", "m_0.5")] == [
        0.0 if centrality_probe(scalar, kind, 50, seed) else 1.0 for kind in kinds
    ]
    drawn = verification._non_scalar_stack(list(rng_batch(seed, 90, count=10)))
    fails = [not centrality_probe(PdMatrix.certify(A), kinds[i % 2], 50, seed + i) for i, A in enumerate(drawn)]
    assert items["non-scalar matrices failing the probe (of 10)"] == float(sum(fails)) == 10.0


@pytest.mark.parametrize("samples", [1, 2, 7])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_axiom_battery_transforms_equal_one_draw_at_a_time(dim, samples, monkeypatch):
    # The battery's T stack against random_invertible_hermitian (even i) and
    # random_pd (odd i) drawn after the four factors, bit for bit; one
    # sample leaves no odd-i row.
    built = []
    transforms = means._transforms
    monkeypatch.setattr(means, "_transforms", lambda M: built.append(transforms(M)) or built[-1])
    check_kubo_ando_axioms(GEOMETRIC, samples=samples, rng_seed=3, dim=dim)
    (T,) = built
    assert T.shape == (samples, dim, dim)
    for i in range(samples):
        rng = rng_for(3, i)
        rng.standard_normal((4, 2, dim, dim))
        want = (random_invertible_hermitian if i % 2 == 0 else random_pd)(rng, dim).mat
        assert np.array_equal(T[i], want)
