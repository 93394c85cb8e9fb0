"""Reference results for the single-calls workload, computed with LAPACK.

Every formula here is evaluated through ``numpy.linalg.eigh``. meanlab never
imports this module, so agreement with it checks meanlab's own eigensolver
and its own assembly of each mean, distance and geodesic.
"""

from __future__ import annotations

import numpy as np


def _herm(X: np.ndarray) -> np.ndarray:
    return (X + X.conj().T) / 2.0


def powm(X: np.ndarray, p: float) -> np.ndarray:
    w, V = np.linalg.eigh(_herm(X))
    return (V * w**p) @ V.conj().T


def _frame(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # A^(1/2) and the congruence A^(-1/2) B A^(-1/2).
    w, V = np.linalg.eigh(A)
    Ah = (V * np.sqrt(w)) @ V.conj().T
    Aih = (V / np.sqrt(w)) @ V.conj().T
    return Ah, _herm(Aih @ B @ Aih)


def geometric(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    Ah, N = _frame(A, B)
    return Ah @ powm(N, 0.5) @ Ah


def kubo_ando_power(A: np.ndarray, B: np.ndarray, p: float) -> np.ndarray:
    Ah, N = _frame(A, B)
    return Ah @ powm((np.eye(len(A)) + powm(N, p)) / 2.0, 1.0 / p) @ Ah


def _transport_q(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # Q = A^(-1) # B, the symmetric factor of the optimal transport map.
    return _herm(geometric(powm(A, -1.0), B))


def wasserstein(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    AQ = A @ _transport_q(A, B)
    return (A + B + AQ + AQ.conj().T) / 4.0


MEANS = {
    "arithmetic": lambda A, B: (A + B) / 2.0,
    "harmonic": lambda A, B: powm((powm(A, -1.0) + powm(B, -1.0)) / 2.0, -1.0),
    "geometric": geometric,
    "kubo-ando-power_p0.5": lambda A, B: kubo_ando_power(A, B, 0.5),
    "kubo-ando-power_p-0.5": lambda A, B: kubo_ando_power(A, B, -0.5),
    "conventional-power_p0.5": lambda A, B: powm((powm(A, 0.5) + powm(B, 0.5)) / 2.0, 2.0),
    "spectral-geometric": lambda A, B: (lambda R: R @ A @ R)(powm(_transport_q(A, B), 0.5)),
    "wasserstein": wasserstein,
}


def d_bw(A: np.ndarray, B: np.ndarray) -> float:
    Ah = powm(A, 0.5)
    cross = np.linalg.eigvalsh(_herm(Ah @ B @ Ah))
    radicand = np.trace(A).real + np.trace(B).real - 2.0 * np.sqrt(cross).sum()
    return float(np.sqrt(max(radicand, 0.0)))


def geodesic_trace(A: np.ndarray, B: np.ndarray, t: float) -> np.ndarray:
    Ah, N = _frame(A, B)
    return Ah @ powm(N, t) @ Ah


def geodesic_bw(A: np.ndarray, B: np.ndarray, t: float) -> np.ndarray:
    Q = _transport_q(A, B)
    return (1.0 - t) ** 2 * A + t**2 * B + t * (1.0 - t) * (A @ Q + Q @ A)


# The single-calls operations by name, each taking (A, B, t).
REFERENCE = {name: (lambda A, B, t, f=f: f(A, B)) for name, f in MEANS.items()}
REFERENCE.update({
    "d_bw": lambda A, B, t: d_bw(A, B),
    "geodesic_trace": geodesic_trace,
    "geodesic_bw": geodesic_bw,
    "wasserstein_alt": lambda A, B, t: wasserstein(A, B),
})
