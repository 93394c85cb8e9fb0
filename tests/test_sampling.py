"""Batched stream seeding and the axiom battery's stacked transforms.

``rng_batch`` runs numpy's SeedSequence hash itself, over every draw index
at once; each of its generators must draw what ``rng_for`` draws, for seeds
and streams of one word and of several.
"""

import numpy as np
import pytest

from meanlab import GEOMETRIC, check_kubo_ando_axioms, means, rng_for
from meanlab.sampling import random_invertible_hermitian, random_pd, rng_batch


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
def test_batch_rejects_a_negative_argument_as_rng_for_does(args):
    with pytest.raises(ValueError) as expected:
        rng_for(*args, 0)
    with pytest.raises(ValueError, match=f"^{expected.value}$"):
        rng_batch(*args, count=3)
    with pytest.raises(ValueError, match=f"^{expected.value}$"):
        rng_batch(*args, count=0)


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
