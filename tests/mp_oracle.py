"""The one high-precision oracle of the tests and ``scripts/oracle_ratio.py``.

``reference(A, B, name, *args)`` is one of QUANTITIES (every mean, Q =
A^(-1) # B, both geodesics' points, d_bw and A^p) at a pair of n x n
matrices, in 50-digit mpmath arithmetic on the A^(+-1/2) frame through
``mp.eighe``, which shares nothing with meanlab's routes. A pair takes one
eigendecomposition each of A, N = A^(-1/2) B A^(-1/2), A^(1/2) B A^(1/2) and
Q; pairs and references are memoized by the inputs' bytes for the session.
No other file under tests/ or scripts/ imports mpmath (test_mp_oracle.py).
"""

import functools
from types import SimpleNamespace

import mpmath as mp
import numpy as np

from meanlab import random_unitary
from meanlab.matcore import _sym

DIGITS = 50
# Pairs kept: more than the tests and one oracle_ratio.py seed ask for.
MEMO_SIZE = 1024


def spectral(rng, eigenvalues):
    """U diag(eigenvalues) U*, made exactly Hermitian, for a random unitary U with complex phases."""
    U = random_unitary(rng, len(eigenvalues))
    return _sym((U * np.asarray(eigenvalues, dtype=float)) @ U.conj().T)


def relative_error(P, ref):
    """||P - ref||_F / ||ref||_F, both scaled by max |ref| first so that no square overflows."""
    s = np.abs(ref).max()
    return np.linalg.norm((P - ref) / s) / np.linalg.norm(ref / s)


def _spectral(M):
    # f -> f(M), from one eigendecomposition of M made exactly Hermitian.
    E, V = mp.eighe((M + M.transpose_conj()) / 2)
    return lambda f: V * mp.diag([f(e) for e in E]) * V.transpose_conj()


@functools.lru_cache(maxsize=MEMO_SIZE)
def _pair(n, a, b):
    # The pair at DIGITS digits, on one eigendecomposition each of A,
    # N = A^(-1/2) B A^(-1/2), A^(1/2) B A^(1/2) and Q; kubo_ando(f) is
    # A^(1/2) f(N) A^(1/2).
    with mp.workdps(DIGITS):
        A, B = (mp.matrix(np.frombuffer(raw, dtype=complex).reshape(n, n).tolist()) for raw in (a, b))
        eig_a = _spectral(A)
        Ah, Aih = eig_a(mp.sqrt), eig_a(lambda e: 1 / mp.sqrt(e))
        S = _spectral(Ah * B * Ah)(mp.sqrt)
        Q = Aih * S * Aih
        eig_n = _spectral(Aih * B * Aih)
        return SimpleNamespace(
            A=A, B=B, a=eig_a, s=S, q=Q, q_root=_spectral(Q)(mp.sqrt), kubo_ando=lambda f: Ah * eig_n(f) * Ah
        )


# Each reference of a pair P, with its parameters as mpf.
QUANTITIES = {
    "arithmetic": lambda P: (P.A + P.B) / 2,
    "harmonic": lambda P: P.kubo_ando(lambda x: 2 * x / (1 + x)),
    "geometric": lambda P: P.kubo_ando(mp.sqrt),
    "kubo-ando-power": lambda P, p: P.kubo_ando(lambda x: ((1 + x**p) / 2) ** (1 / p)),
    # ((A^p + B^p) / 2)^(1/p), on eigendecompositions of B and the inner mean too.
    "conventional-power": lambda P, p: _spectral((P.a(lambda e: e**p) + _spectral(P.B)(lambda e: e**p)) / 2)(
        lambda e: e ** (1 / p)
    ),
    "spectral-geometric": lambda P: P.q_root * P.A * P.q_root,
    "wasserstein": lambda P: (P.A + P.B + P.A * P.q + P.q * P.A) / 4,
    "bw-q": lambda P: P.q,
    "geodesic_trace": lambda P, t: P.kubo_ando(lambda x: x**t),
    "geodesic_bw": lambda P, t: (1 - t) ** 2 * P.A + t**2 * P.B + t * (1 - t) * (P.A * P.q + P.q * P.A),
    # sqrt(tr A + tr B - 2 tr S): at 50 digits the trace form's cancellation costs nothing.
    "d_bw": lambda P: mp.sqrt(max(mp.re(sum(P.A[i, i] + P.B[i, i] - 2 * P.s[i, i] for i in range(P.A.rows))), 0)),
    "power": lambda P, p: P.a(lambda e: e**p),
}


@functools.lru_cache(maxsize=16 * MEMO_SIZE)
def _reference(n, a, b, name, args):
    with mp.workdps(DIGITS):
        value = QUANTITIES[name](_pair(n, a, b), *map(mp.mpf, args))
    if isinstance(value, mp.matrix):
        value = np.array(value.tolist(), dtype=complex)
        value.flags.writeable = False
    return value


def reference(A, B, name, *args):
    """QUANTITIES[name] of (A, B) at args: a read-only complex128 matrix, or d_bw as an mpf."""
    A, B = (np.ascontiguousarray(X, dtype=complex) for X in (A, B))
    return _reference(A.shape[-1], A.tobytes(), B.tobytes(), name, args)
