"""Seeded random matrix generators used by the check batteries.

Every sampled battery draws sample i of a stream on its own generator,
``rng_for(seed, *stream, i)``: numpy's PCG64 seeded by the SeedSequence of
the integers (seed, *stream, i). :func:`rng_batches` builds those generators
for every i < count of several streams at once, and every battery seeds
through it, a criterion all its streams in one call; :func:`rng_batch` is
its one-stream call, and ``rng_for`` stays the public way to build one
generator alone. It runs the SeedSequence algorithm itself, the seed_seq
entropy mixing of O'Neill's PCG paper (hash each 32-bit word of entropy
into a pool of four words, mix every pool word into every other, then hash
the pool out into the generator's state), as uint32 array arithmetic over
the columns (seed, *stream, i), one pass per entropy length. NEP 19 keeps
SeedSequence's output stable across numpy versions, so the batch gives the
bits ``rng_for`` gives; ``tests/test_sampling.py`` checks the draws stream
for stream, across seeds and streams of one and several words.
"""

from __future__ import annotations

import functools
from typing import Iterator

import numpy as np

from .errors import DomainError
from .matcore import HermitianMatrix, PdMatrix, _apply_spectral, _certified, _eig_array, _sym

# Random PD draws get at least this much identity added, keeping condition
# numbers benign across large sample counts.
PD_FLOOR = 0.1


def rng_for(seed, *stream) -> np.random.Generator:
    """Independent generator for (seed, stream...) without sequential coupling."""
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(int(s) for s in stream)))


# SeedSequence's constants (numpy/random/bit_generator.pyx): the multipliers
# of the entropy hash, of the pool mix and of the state hash.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _words(n: int) -> list[int]:
    # The 32-bit words SeedSequence takes from a non-negative integer, least
    # significant first; 0 is one word. Negative integers raise its error.
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


@functools.cache
def _hash_constants(init: int, mult: int, steps: int) -> np.ndarray:
    # The constants of ``steps`` hashes in a row, as a (steps + 1, 1) uint32
    # column: hash k xors its value with entry k and multiplies it by entry
    # k + 1, the constant stepped once.
    consts = [init]
    for _ in range(steps):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hash(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    # Each row of ``values`` hashed with the next row of constants.
    value = (values ^ consts[:-1]) * consts[1:]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> 16)


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    # SeedSequence(words).generate_state(4, np.uint64) for each column of
    # the (L, count) uint32 entropy: the pool of four words hashed from the
    # first words (zeros past the end), each pool word mixed into every
    # other, each word past the fourth mixed into every pool word, then
    # eight words hashed out of the pool and paired little-endian. The hash
    # constants step the same way whatever the data, so they are taken once
    # per entropy length and one pass serves every column, each source
    # word's hashes as one (3, count) or (4, count) step and the eight
    # output words as one (8, count) step; uint32 arithmetic wraps as the C
    # code does.
    extra = max(len(entropy) - _POOL_SIZE, 0)
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + extra))
    pool = np.zeros((_POOL_SIZE, entropy.shape[1]), dtype=np.uint32)
    pool[: len(entropy)] = entropy[:_POOL_SIZE]
    pool = _hash(pool, consts[: _POOL_SIZE + 1])
    at = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [k for k in range(_POOL_SIZE) if k != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], consts[at : at + _POOL_SIZE]))
        at += _POOL_SIZE - 1
    for word in entropy[_POOL_SIZE:]:
        pool = _mix(pool, _hash(word, consts[at : at + _POOL_SIZE + 1]))
        at += _POOL_SIZE
    state = _hash(np.concatenate((pool, pool)), _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE))
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


@functools.cache
def _seed_state_type() -> type:
    # A seed sequence handing PCG64 one row of _seed_states, as a
    # SeedSequence would hand it. Built on first use, so that importing
    # meanlab does not load numpy.random.
    from numpy.random.bit_generator import ISeedSequence

    class SeedState(ISeedSequence):
        def __init__(self, state: np.ndarray) -> None:
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != _POOL_SIZE or np.dtype(dtype) != np.uint64:
                raise ValueError("only PCG64's request, four uint64 words, is served")
            return self.state

    return SeedState


def rng_batches(*batches) -> list[Iterator[np.random.Generator]]:
    """For each (prefix, count) of ``batches``, an iterator of rng_for(*prefix, i) for each i < count.

    The SeedSequence hash runs at the call, once per entropy length over
    the columns of every batch of that length (see the module docstring);
    each generator is built when it is reached, its PCG64 taking its row
    through a seed sequence that serves it, so only the one in use is held.
    Arguments are taken with int() and checked as SeedSequence checks them,
    so a negative one raises its ValueError at the call, before any
    generator is built, even at count 0.
    """
    prefixes = [[w for n in prefix for w in _words(int(n))] for prefix, _ in batches]
    counts = [max(int(count), 0) for _, count in batches]
    states = [None] * len(batches)
    for length in dict.fromkeys(map(len, prefixes)):
        members = [j for j, prefix in enumerate(prefixes) if len(prefix) == length]
        entropy = np.empty((length + 1, sum(counts[j] for j in members)), dtype=np.uint32)
        at = 0
        for j in members:
            entropy[:-1, at : at + counts[j]] = np.array(prefixes[j], dtype=np.uint32)[:, None]
            # i < 2**32 is a single word.
            entropy[-1, at : at + counts[j]] = np.arange(counts[j])
            at += counts[j]
        rows = _seed_states(entropy)
        for j in members:
            states[j], rows = rows[: counts[j]], rows[counts[j] :]
    seeded = _seed_state_type()
    return [(np.random.Generator(np.random.PCG64(seeded(s))) for s in batch) for batch in states]


def rng_batch(seed, *stream, count: int) -> Iterator[np.random.Generator]:
    """Yield rng_for(seed, *stream, i) for each i < count: rng_batches of the one batch."""
    (batch,) = rng_batches(((seed, *stream), count))
    return batch


def random_complex(rng: np.random.Generator, dim: int, *lead: int) -> np.ndarray:
    """Complex Gaussian dim x dim matrices, the real part drawn before the
    imaginary one; with ``lead`` a stack of that shape, drawn in order, so
    each matrix equals the one a call per matrix would draw."""
    return complex_draws([rng], dim, int(np.prod(lead))).reshape(lead + (dim, dim))


def _complex(Z: np.ndarray) -> np.ndarray:
    # Real parts from index 0 of axis -3 of Z, imaginary parts from index 1.
    return Z[..., 0, :, :] + 1j * Z[..., 1, :, :]


def complex_draws(rngs, dim: int, k: int) -> np.ndarray:
    """(count, k, dim, dim): draw i is random_complex(rng, dim, k) on the i-th of the generators ``rngs``.

    Each generator draws its normals as random_complex does, and the complex
    matrices are then formed once for the whole stack, the same bits.
    """
    if dim < 1:
        raise DomainError(f"dimension must be at least 1, got {dim}")
    Z = np.array([rng.standard_normal((k, 2, dim, dim)) for rng in rngs])
    return _complex(Z.reshape(-1, k, 2, dim, dim))


def random_hermitian(rng: np.random.Generator, dim: int) -> HermitianMatrix:
    M = random_complex(rng, dim)
    return HermitianMatrix._wrap((M + M.conj().T) / 2.0)


def draws(make, seed, *stream, count: int) -> list:
    """make(rng_for(seed, *stream, i)) for each i < count, each draw on its own generator."""
    return [make(rng) for rng in rng_batch(seed, *stream, count=count)]


def stacked(drawn: list) -> tuple[np.ndarray, ...]:
    """The matrices at each position of the drawn tuples as one (N, n, n) stack."""
    return tuple(np.array([X.mat for X in column]) for column in zip(*drawn))


def _pd_gram(M: np.ndarray) -> np.ndarray:
    # M*M + PD_FLOOR*I, symmetrized, for one factor M or each factor of a stack.
    return _sym(M.conj().swapaxes(-1, -2) @ M + PD_FLOOR * np.eye(M.shape[-1]))


def random_pd(rng: np.random.Generator, dim: int) -> PdMatrix:
    """Draw M*M + PD_FLOOR*I, certified."""
    return PdMatrix.certify(HermitianMatrix._wrap(_pd_gram(random_complex(rng, dim))))


def pd_grams(F: np.ndarray) -> tuple[np.ndarray, ...]:
    """The k certified (count, dim, dim) stacks of M*M + PD_FLOOR*I over (count, k, dim, dim) factors F.

    With F from complex_draws every matrix is the one random_pd returns on
    its generator, drawn k times; each stack is certified as one.
    """
    return tuple(_certified(_pd_gram(F[:, j])) for j in range(F.shape[1]))


def pd_stacks(seed, *stream, dim: int, k: int, count: int) -> tuple[np.ndarray, ...]:
    """k certified (count, dim, dim) stacks: draw i is k random_pd draws on rng_for(seed, *stream, i)."""
    return pd_grams(complex_draws(rng_batch(seed, *stream, count=count), dim, k))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish unitary from the QR of a complex Gaussian matrix."""
    return _unitary_factor(random_complex(rng, dim))


def _unitary_factor(Z: np.ndarray) -> np.ndarray:
    # The Q of Z = QR with the phases of R's diagonal moved into Q, for one
    # matrix or each matrix of a stack.
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (d / np.abs(d))[..., None, :]


def random_invertible_hermitian(rng: np.random.Generator, dim: int) -> HermitianMatrix:
    """Hermitian with spectrum pushed away from zero on both sides."""
    return HermitianMatrix._wrap(_invertible_hermitian(random_complex(rng, dim)))


def _invertible_hermitian(M: np.ndarray) -> np.ndarray:
    # random_invertible_hermitian's matrix, unsymmetrized, from its Gaussian
    # factor M, or from each factor of a stack: random_hermitian's matrix
    # (M symmetrized, then again as wrapping does) with each eigenvalue
    # pushed 0.2 away from zero.
    w, V = _eig_array(_sym(_sym(M)))
    return _apply_spectral(w + np.where(w >= 0.0, 1.0, -1.0) * 0.2, V)
