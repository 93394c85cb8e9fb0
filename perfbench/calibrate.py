"""Machine-speed calibration for the benchmark's timings.

On a shared host the same code runs up to 1.7x slower for stretches of a
minute or more while neighbours load the machine, and CPU time slows with
wall time. So the runner interleaves this fixed kernel with the work, about
every CAL_EVERY_S of measured work, and scales each stretch of work by
REF_S over the kernel's mean time at the two ends of the stretch. Times are
then reported in seconds at the kernel's reference speed.

The kernel never touches meanlab. It mimics meanlab's profile: a 2x2
closed-form Hermitian eigensolver in Python scalars on small numpy arrays,
plus LAPACK ``eigh`` and products on 3x3 and 4x4 matrices.
"""

from __future__ import annotations

import math
import time

import numpy as np

# One calibration sample at the uncontended speed of a 2-vCPU Intel Xeon
# (KVM), Python 3.11, numpy 2.4: the 10th percentile of 300 samples.
REF_S = 1.4e-3
CAL_EVERY_S = 0.1

_rng = np.random.default_rng(20231017)
_SMALL = []
for _ in range(96):
    _Z = _rng.standard_normal((2, 2)) + 1j * _rng.standard_normal((2, 2))
    _SMALL.append(_Z.conj().T @ _Z + 0.1 * np.eye(2))
_LARGE = []
for _d in (3, 4) * 8:
    _Z = _rng.standard_normal((_d, _d)) + 1j * _rng.standard_normal((_d, _d))
    _LARGE.append(_Z.conj().T @ _Z + 0.1 * np.eye(_d))


def _sqrt2(arr: np.ndarray) -> np.ndarray:
    a, d, b = arr[0, 0].real, arr[1, 1].real, arr[0, 1]
    r = math.hypot((a - d) / 2.0, abs(b))
    lam = np.array([(a + d) / 2.0 - r, (a + d) / 2.0 + r])
    t = lam[1] - a
    nrm = math.hypot(abs(b), t)
    V = np.empty((2, 2), dtype=np.complex128)
    V[0, 0], V[1, 0] = -t / nrm, b.conjugate() / nrm
    V[0, 1], V[1, 1] = b / nrm, t / nrm
    return (V * np.sqrt(lam)) @ V.conj().T


def kernel() -> float:
    acc = 0.0
    for X in _SMALL:
        R = _sqrt2(X)
        acc += float(np.linalg.norm(R @ R - X))
    for X in _LARGE:
        w, V = np.linalg.eigh(X)
        acc += float(np.linalg.norm((V * w) @ V.conj().T - X))
    return acc


def sample() -> float:
    """Seconds for one kernel call now: the median of three calls."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]
