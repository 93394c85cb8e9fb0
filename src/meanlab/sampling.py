"""Seeded random matrix generators used by the check batteries."""

from __future__ import annotations

import numpy as np

from .matcore import HermitianMatrix, PdMatrix, _apply_spectral, _eig_array

# Random PD draws get at least this much identity added, keeping condition
# numbers benign across large sample counts.
PD_FLOOR = 0.1


def rng_for(seed, *stream) -> np.random.Generator:
    """Independent generator for (seed, stream...) without sequential coupling."""
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(int(s) for s in stream)))


def random_complex(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_hermitian(rng: np.random.Generator, dim: int) -> HermitianMatrix:
    M = random_complex(rng, dim)
    return HermitianMatrix._wrap((M + M.conj().T) / 2.0)


def draws(make, seed, *stream, count: int) -> list:
    """make(rng_for(seed, *stream, i)) for each i < count, each draw on its own generator."""
    return [make(rng_for(seed, *stream, i)) for i in range(count)]


def random_pd(rng: np.random.Generator, dim: int) -> PdMatrix:
    """Draw M*M + PD_FLOOR*I, certified."""
    M = random_complex(rng, dim)
    G = M.conj().T @ M + PD_FLOOR * np.eye(dim)
    return PdMatrix.certify(HermitianMatrix._wrap(G))


def pd_pair(rng: np.random.Generator) -> tuple[PdMatrix, PdMatrix]:
    """Two 2x2 random_pd draws from one generator."""
    return random_pd(rng, 2), random_pd(rng, 2)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish unitary from the QR of a complex Gaussian matrix."""
    Q, R = np.linalg.qr(random_complex(rng, dim))
    d = np.diag(R)
    return Q * (d / np.abs(d))


def random_invertible_hermitian(rng: np.random.Generator, dim: int) -> HermitianMatrix:
    """Hermitian with spectrum pushed away from zero on both sides."""
    w, V = _eig_array(random_hermitian(rng, dim).mat)
    signs = np.where(w >= 0.0, 1.0, -1.0)
    return HermitianMatrix._wrap(_apply_spectral(w + signs * 0.2, V))
