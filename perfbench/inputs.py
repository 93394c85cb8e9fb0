"""Seeded positive-definite pairs for the single-calls workload.

Each matrix is V diag(w) V* with V a Haar unitary and w spread over
[scale, scale * kappa]. kappa and scale are log-uniform. Fixed shares of the
pairs have an exactly repeated eigenvalue in A (at dim 2 that makes A a
multiple of I, whose off-diagonal is exactly zero) or commute (B shares A's
eigenvectors). The rest are generic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOG10_KAPPA = (0.0, 3.0)
LOG10_SCALE = (-2.0, 2.0)
REPEATED_SHARE = 0.2
COMMUTING_SHARE = 0.2


@dataclass(frozen=True)
class Pair:
    dim: int
    a: np.ndarray
    b: np.ndarray
    t: float


def _haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    Z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(Z)
    d = np.diag(R)
    return Q * (d / np.abs(d))


def _spectrum(rng: np.random.Generator, dim: int, repeated: bool) -> np.ndarray:
    kappa = 10.0 ** rng.uniform(*LOG10_KAPPA)
    scale = 10.0 ** rng.uniform(*LOG10_SCALE)
    w = scale * kappa ** rng.uniform(0.0, 1.0, size=dim)
    w[0], w[-1] = scale, scale * kappa
    if repeated:
        w[1] = w[0]
    return np.sort(w)


def _assemble(V: np.ndarray, w: np.ndarray) -> np.ndarray:
    X = (V * w) @ V.conj().T
    return (X + X.conj().T) / 2.0


def make_pairs(rng: np.random.Generator, dim: int, count: int) -> list[Pair]:
    """``count`` pairs at ``dim``; the shares are exact counts, order shuffled."""
    n_rep = round(REPEATED_SHARE * count)
    n_com = round(COMMUTING_SHARE * count)
    flags = [(True, False)] * n_rep + [(False, True)] * n_com
    flags += [(False, False)] * (count - len(flags))
    pairs = []
    for i in rng.permutation(count):
        repeated, commuting = flags[i]
        V = _haar_unitary(rng, dim)
        wa = _spectrum(rng, dim, repeated)
        if repeated and dim == 2:
            a = wa[0] * np.eye(2, dtype=np.complex128)
        else:
            a = _assemble(V, wa)
        W = V if commuting else _haar_unitary(rng, dim)
        b = _assemble(W, _spectrum(rng, dim, False))
        pairs.append(Pair(dim, a, b, float(rng.uniform(0.0, 1.0))))
    return pairs


def _cond(X: np.ndarray) -> float:
    w = np.linalg.eigvalsh(X)
    return float(w[-1] / w[0])


def shares(pairs: list[Pair]) -> dict:
    """Measured properties of a pair set, for the run's log."""
    n = len(pairs)
    repeated = sum(np.min(np.diff(np.linalg.eigvalsh(p.a))) == 0.0 for p in pairs)
    commuting = 0
    for p in pairs:
        C = p.a @ p.b - p.b @ p.a
        commuting += np.linalg.norm(C) <= 1e-13 * np.linalg.norm(p.a) * np.linalg.norm(p.b)
    kappas = sorted(max(_cond(p.a), _cond(p.b)) for p in pairs)
    return {
        "pairs": n,
        "repeated_eigenvalue": repeated / n,
        "commuting": commuting / n,
        "zero_offdiagonal": sum(p.dim == 2 and p.a[0, 1] == 0.0 for p in pairs) / n,
        "kappa_median": kappas[n // 2],
        "kappa_max": kappas[-1],
    }
