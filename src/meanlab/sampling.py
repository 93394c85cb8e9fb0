"""Seeded random matrix generators used by the check batteries."""

from __future__ import annotations

import numpy as np

from .matcore import HermitianMatrix, PdMatrix, _apply_spectral, _certified, _eig_array, _sym

# Random PD draws get at least this much identity added, keeping condition
# numbers benign across large sample counts.
PD_FLOOR = 0.1


def rng_for(seed, *stream) -> np.random.Generator:
    """Independent generator for (seed, stream...) without sequential coupling."""
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(int(s) for s in stream)))


def random_complex(rng: np.random.Generator, dim: int, *lead: int) -> np.ndarray:
    """Complex Gaussian dim x dim matrices, the real part drawn before the
    imaginary one; with ``lead`` a stack of that shape, drawn in order, so
    each matrix equals the one a call per matrix would draw."""
    Z = rng.standard_normal(lead + (2, dim, dim))
    return Z[..., 0, :, :] + 1j * Z[..., 1, :, :]


def random_hermitian(rng: np.random.Generator, dim: int) -> HermitianMatrix:
    M = random_complex(rng, dim)
    return HermitianMatrix._wrap((M + M.conj().T) / 2.0)


def draws(make, seed, *stream, count: int) -> list:
    """make(rng_for(seed, *stream, i)) for each i < count, each draw on its own generator."""
    return [make(rng_for(seed, *stream, i)) for i in range(count)]


def stacked(drawn: list) -> tuple[np.ndarray, ...]:
    """The matrices at each position of the drawn tuples as one (N, n, n) stack."""
    return tuple(np.array([X.mat for X in column]) for column in zip(*drawn))


def _pd_gram(M: np.ndarray) -> np.ndarray:
    # M*M + PD_FLOOR*I, symmetrized, for one factor M or each factor of a stack.
    return _sym(M.conj().swapaxes(-1, -2) @ M + PD_FLOOR * np.eye(M.shape[-1]))


def random_pd(rng: np.random.Generator, dim: int) -> PdMatrix:
    """Draw M*M + PD_FLOOR*I, certified."""
    return PdMatrix.certify(HermitianMatrix._wrap(_pd_gram(random_complex(rng, dim))))


def pd_stacks(seed, *stream, dim: int, k: int, count: int) -> tuple[np.ndarray, ...]:
    """k certified (count, dim, dim) stacks: draw i is k random_pd draws on rng_for(seed, *stream, i).

    Each draw takes its k factors at once with random_complex(rng, dim, k),
    which gives the factors k single draws would, so every matrix is the
    one random_pd returns; each stack is certified as one.
    """
    F = np.array([random_complex(rng_for(seed, *stream, i), dim, k) for i in range(count)])
    return tuple(_certified(_pd_gram(F[:, j])) for j in range(k))


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
    w, V = _eig_array(random_hermitian(rng, dim).mat)
    signs = np.where(w >= 0.0, 1.0, -1.0)
    return HermitianMatrix._wrap(_apply_spectral(w + signs * 0.2, V))
