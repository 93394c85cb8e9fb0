"""Hermitian and positive definite matrix core.

Value types (:class:`HermitianMatrix`, :class:`PdMatrix`, :class:`Spectrum`)
are frozen dataclasses wrapping complex128 arrays, equal and hashed by
identity; a PdMatrix is a HermitianMatrix carrying its certificate (it has
no ``.matrix`` field). The eigensolver is local to the package. One 2x2 closed form, computed without
cancellation, solves 2x2 matrices outright and is the rotation of the cyclic
complex Jacobi iteration used for larger sizes, which runs on Python complex
scalars and exploits Hermitian symmetry. Eigenvector phases are deterministic: the first
largest-modulus entry of each column is real and positive. Spectral functions,
powers, congruences and the Loewner order test all route through it.

The private array layer also takes stacks of shape (N, n, n), for batteries
that evaluate many samples at once. A stack of 2x2 matrices runs a
vectorized copy of the closed form, a stack of larger ones a stacked Jacobi
that vectorizes over the matrices and matches the scalar one bit for bit; a
2-D input always stays on the scalar kernels, which cost far less than a
stack of one, and so does each matrix of a stack at n >= 3 smaller than a
measured crossover (``_LOOP_BELOW``). Powers and the congruence
invertibility check guard every matrix of a stack.

Jacobi has one mode: it always rotates the vectors. The 2x2 closed form
also has a values-only mode, which ``_eig_values`` takes for the callers
that need no vectors (at other sizes it reads the full solve's
eigenvalues): it forms only m -+ r, keeping the b = 0 sort, the bits
``_eig_array`` returns. Every 2x2 power takes that mode too and forms no
eigenvectors: it is built from the eigenvalues and the closed form's pieces
by the interpolation form f(A) = f(lambda_1) I + f[lambda_1, lambda_2]
(A - lambda_1 I) (``_power2``). Like each closed-form mean of ``means``, it
is one body, run on Python floats for a lone matrix and on arrays for a
stack with the routines of ``_LONE`` or ``_STACK``, whose assembler builds
every 2x2 result from its parts; so a stack gives each matrix the bits it
gets alone. ``_power_parts`` runs the same power from parts to parts, so
that powers compose (the conventional power mean) with no array between
them and the bits of the arrays. Only ``eig``, ``func_calc`` and the ``--via-function`` route
(``_spectral_values``), and ``sampling``'s invertible Hermitian draws,
still form 2x2 vectors, so the spectral route stays an independent
cross-check.

Four checks are decided here and nowhere else, each by one function for a
matrix or a stack: positivity (``pd_tolerance``, ``_check_certificates``,
``_certified``), the Loewner order (``_order_violation``), Hermiticity
(``_check_hermitian``) and relative size (``_rel_gap``). They and every
other Frobenius norm of a matrix in the package go through ``_norms``,
which gives each matrix of a stack the bits it gets alone, and takes a
norm whose squares overflow again with the matrix scaled by a power of
two; every eigenvalue power goes through ``np.power``, as the preserver's
scalar powers do.

Refusals over a value, or over each matrix or pair of a stack, go through
``_require``: a typed MeanlabError (ValueError for a matrix that is not
Hermitian) naming the value, for a stack its first failing entry. Each
predicate fails on a NaN (masa_eval's sees none), and a hot caller tests
``ok is True`` first, so a lone value that passes costs it no call.
``_power_guard``, on the lone power's hot path, and the spectral route's
loop over f keep raises of their own.

Yes/no questions are answered by a proof, and an eigenvalue is read only
when its value is asked for. A certificate that a caller reads
(``PdMatrix.min_eigenvalue``, ``mpow``, ``_certify_stack``) is the exact
lambda_min of the eigensolver. Matrices are certified by ``_certificates``,
through ``_certified`` for a stack and ``_pd_result`` for a lone PdMatrix,
that of ``PdMatrix.certify`` or of a lone ``mean``, ``wasserstein_alt`` or
``geodesic``: a lone 2x2 on the Python floats of its entries
(``_eig2_parts`` and ``_norm2``), read once from the array, or taken from
the parts a 2x2 route built it from (``_pd_parts``). At n >= 3 it, the
Loewner order (``_order_violation``) and the congruence invertibility check
first try a floating-point Cholesky factorization of M - tau I
(``_cholesky_proof``), whose floor includes Jacobi's own error, so a proven
matrix gets the answer its eigenvalues would give; a lone PdMatrix then reads
its lambda_min on first access. Only a matrix the proof leaves open takes
the eigenvalue route, which decides it as before.

That factorization is the one bespoke Cholesky (``_cholesky``): a column
loop on real and imaginary parts, one body run on Python floats for a lone
matrix and on arrays for a stack, so a stack gives each matrix the bits it
gets alone. With a triangular inverse (``_lower_inverse``) it is also the
frame A = L L* of the means at n >= 3 (``_cholesky_frame``), where a pivot
that is not a finite positive number raises PositivityError.

Matrices enter as anything ``np.asarray`` accepts; nested lists work. Arrays
stored on value types are non-writeable copies, so instances can be shared
freely.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimMismatch,
    DomainError,
    PositivityError,
    SingularError,
)

# Relative asymmetry above this rejects construction outright instead of
# silently symmetrizing away real data.
HERMITICITY_RTOL = 1e-8

# lambda_min must exceed PD_TOLERANCE * max(1, ||A||_F) to certify.
PD_TOLERANCE = 1e-12

# Loewner comparisons tolerate eigenvalues this far below zero (scaled).
LOEWNER_TOL = 1e-10

# Jacobi sweep budget and off-diagonal stopping threshold (relative to the
# initial Frobenius norm).
JACOBI_MAX_SWEEPS = 100
JACOBI_OFF_RTOL = 1e-14

# |p * log(lambda)| beyond this would overflow float64 in mpow.
_POW_LOG_LIMIT = 700.0

# The unit roundoff u of float64, for the error bounds of _cholesky_proof.
_UNIT_ROUNDOFF = 2.0**-53


def _require(ok, error: type[Exception], message: str, *values) -> None:
    # The one refusal: raise error(message.format(*values)) unless ok holds,
    # a bool for a lone value or an array with one entry per matrix, pair or
    # pivot of a stack, where each array value is named by its first failing
    # entry.
    ok = np.asarray(ok)
    if not ok.all():
        raise error(message.format(*(np.extract(~ok, v)[0].item() if isinstance(v, np.ndarray) else v for v in values)))


def _to_complex_array(entries) -> np.ndarray:
    arr = np.asarray(entries, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ValueError("matrix entries must be finite")
    return arr


def frobenius(entries) -> float:
    """Frobenius norm of an array or wrapped matrix."""
    return float(_norms(as_array(entries)))


def _norms(X: np.ndarray):
    # The Frobenius norm of one matrix (or vector), or of each matrix of a
    # stack with the bits it gets alone: np.linalg.norm takes one matrix as
    # BLAS dots of its flattened real and imaginary parts. A lone 2x2 runs
    # them on Python floats as OpenBLAS's 4-entry ddot sums, (x0^2 + x2^2) +
    # (x1^2 + x3^2), giving a float; np.vdot runs them for another lone
    # matrix, summed as floats, and a (1, k) @ (k, 1) matmul for a stack
    # with the same strides, numpy's overflow warning off. The squares
    # overflow once an entry passes about 1.3e154; only a norm that came out
    # infinite is taken again, scaled.
    if X.shape == (2, 2):
        return _norm2(X.tolist(), X)
    if X.ndim <= 2:
        x = X.ravel()
        re, im = x.real, x.imag
        norm = np.sqrt(float(np.vdot(re, re)) + float(np.vdot(im, im)))
        return norm if math.isfinite(norm) else _rescaled_norms(X.reshape(1, 1, -1), norm[None])[0]
    with np.errstate(over="ignore"):
        norms = _dot_norms(X)
    return norms if math.isfinite(norms.sum()) else _rescaled_norms(X, norms)


def _norm2(rows, X: np.ndarray) -> float:
    # _norms of a lone 2x2 X from its entries ``rows`` (X.tolist()).
    (a, b), (c, d) = rows
    re = (a.real * a.real + c.real * c.real) + (b.real * b.real + d.real * d.real)
    im = (a.imag * a.imag + c.imag * c.imag) + (b.imag * b.imag + d.imag * d.imag)
    norm = math.sqrt(re + im)
    return norm if math.isfinite(norm) else float(_rescaled_norms(X.reshape(1, 1, -1), [norm])[0])


def _dot_norms(X: np.ndarray) -> np.ndarray:
    # The matmul form of _norms over the last two axes of a stack.
    flat = X.reshape(*X.shape[:-2], 1, X.shape[-2] * X.shape[-1])
    re, im = flat.real, flat.imag
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0])


def _rescaled_norms(X: np.ndarray, norms: np.ndarray) -> np.ndarray:
    # ``norms`` with each infinite one taken again: its matrix scaled by
    # 2**-k, 2**k just above its largest real or imaginary part, normed by
    # _dot_norms and scaled back. Powers of two scale exactly, so a matrix
    # gets the same bits alone or in a stack; a norm past the largest float
    # stays infinite, and so does one of a matrix with an infinite entry.
    norms = np.array(norms, dtype=np.float64)
    over = np.isinf(norms)
    parts = X[over].view(np.float64)
    _, k = np.frexp(np.abs(parts).max(axis=(-2, -1)))
    with np.errstate(over="ignore"):
        norms[over] = np.ldexp(_dot_norms(np.ldexp(parts, -k[:, None, None]).view(np.complex128)), k)
    return norms


def commutator_norm(A, B):
    """Frobenius norm of AB - BA for two arrays or wrapped matrices; per matrix for a stack."""
    X = as_array(A)
    Y = as_array(B)
    _check_sizes(X, Y)
    C = X @ Y - Y @ X
    return frobenius(C) if C.ndim == 2 else _norms(C)


def _check_operands(A, B) -> None:
    # DimMismatch unless the two operands of a two-matrix call share a dimension.
    if A.dim != B.dim:
        raise DimMismatch(f"operands have dimensions {A.dim} and {B.dim}")


def _check_sizes(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    # _check_operands for arrays, a scalar, a matrix or a stack each: two
    # stacks must share a shape. Returns X.
    if X.ndim and Y.ndim and (X.shape[-1] != Y.shape[-1] or (min(X.ndim, Y.ndim) > 2 and X.shape != Y.shape)):
        raise DimMismatch(f"operands have shapes {X.shape} and {Y.shape}")
    return X


def as_array(X) -> np.ndarray:
    """Unwrap a HermitianMatrix (a PdMatrix included) to its ndarray, pass arrays through."""
    if isinstance(X, HermitianMatrix):
        return X.mat
    return np.asarray(X, dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """A validated Hermitian matrix.

    Construction symmetrizes to (M + M*)/2 after checking that the input was
    already Hermitian to within ``HERMITICITY_RTOL`` relative to
    max(1, ||M||_F). The stored array is complex128 and non-writeable.
    Instances compare and hash by identity, as every value type holding an
    array here does: an elementwise ``==`` has no truth value.
    """

    mat: np.ndarray

    def __post_init__(self) -> None:
        arr = _to_complex_array(self.mat)
        _check_hermitian(arr)
        sym = _sym(arr)
        sym.setflags(write=False)
        object.__setattr__(self, "mat", sym)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "HermitianMatrix":
        # Fast path for arrays produced internally; symmetrizes without the
        # asymmetry check.
        sym = _sym(arr)
        sym.setflags(write=False)
        out = object.__new__(cls)
        object.__setattr__(out, "mat", sym)
        return out

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    def norm(self) -> float:
        return float(_norms(self.mat))

    def __add__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        return HermitianMatrix._wrap(self.mat + as_array(other))

    def __sub__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        return HermitianMatrix._wrap(self.mat - as_array(other))

    def __rmul__(self, scalar: float) -> "HermitianMatrix":
        return HermitianMatrix._wrap(float(scalar) * self.mat)


def _sym(arr: np.ndarray) -> np.ndarray:
    # (X + X*)/2 over the last two axes: one matrix or each matrix of a stack.
    return (arr + arr.conj().swapaxes(-1, -2)) / 2.0


def _check_hermitian(arr: np.ndarray) -> None:
    # ValueError unless ||X - X*||_F <= HERMITICITY_RTOL * max(1, ||X||_F)
    # for the matrix, or for each matrix of a stack; a NaN fails.
    asym = _norms(arr - arr.conj().swapaxes(-1, -2))
    ok = asym <= HERMITICITY_RTOL * np.maximum(1.0, _norms(arr))
    _require(ok, ValueError, "matrix is not Hermitian: asymmetry {:.3e} exceeds tolerance", asym)


def pd_tolerance(entries):
    """Certification threshold PD_TOLERANCE * max(1, ||X||_F), for a matrix or each matrix of a stack."""
    # A lone matrix takes Python's max, which costs a fifth of np.maximum's;
    # its norm is a float (np.float64 is one).
    norm = _norms(as_array(entries))
    return PD_TOLERANCE * (max(1.0, float(norm)) if isinstance(norm, float) else np.maximum(1.0, norm))


@dataclass(frozen=True, eq=False)
class PdMatrix(HermitianMatrix):
    """A HermitianMatrix carrying its certificate ``min_eigenvalue``; there is no ``.matrix``.

    A HermitianMatrix passed as ``mat`` is taken as validated, other input is
    validated as HermitianMatrix does. Construction re-checks the certificate
    against the scaled tolerance, so a PdMatrix in hand is always safely
    invertible; :meth:`certify` goes from a plain matrix to a certified one.

    :meth:`certify` and the results of ``mean``, ``wasserstein_alt`` and
    ``geodesic`` take one route, the latter without a second validation. At
    n = 2 they carry their exact lambda_min. At n >= 3 a Cholesky proof
    shows them positive definite, with a margin that covers the
    eigensolver's error, and ``min_eigenvalue`` is computed when first read,
    as the least eigenvalue of the full solve, and kept; a matrix the proof
    leaves open reads it at once.
    """

    min_eigenvalue: float

    def __post_init__(self) -> None:
        if isinstance(self.mat, HermitianMatrix):
            object.__setattr__(self, "mat", self.mat.mat)
        else:
            super().__post_init__()
        object.__setattr__(self, "min_eigenvalue", _check_certificates(self.mat, float(self.min_eigenvalue)))

    def __getattr__(self, name: str):
        # Reached only for an attribute the instance lacks: the
        # min_eigenvalue a proof left unread (_pd_result).
        if name != "min_eigenvalue":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        lam = _certify_stack(self.mat)
        object.__setattr__(self, "min_eigenvalue", lam)
        return lam

    @classmethod
    def certify(cls, matrix) -> "PdMatrix":
        """Validate, then certify as a result is certified, raising PositivityError when not PD."""
        H = matrix if isinstance(matrix, HermitianMatrix) else HermitianMatrix(matrix)
        return _pd_result(H.mat)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues in ascending order with matching orthonormal columns."""

    eigenvalues: np.ndarray
    vectors: np.ndarray


def identity_pd(dim: int) -> PdMatrix:
    """The identity, pre-certified."""
    return PdMatrix(HermitianMatrix._wrap(np.eye(dim, dtype=np.complex128)), 1.0)


def _eig2_closed(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The 2x2 case: _rotation as arrays, with b = 0 (no rotation) apart.
    (a, b), (_, d) = arr.tolist()
    a, d = a.real, d.real
    if b == 0.0:
        V = np.eye(2, dtype=np.complex128)
        return (np.array([a, d]), V) if a <= d else (np.array([d, a]), V[:, ::-1].copy())
    lo, hi, w00, w10, w01, w11 = _rotation(a, d, b)
    return np.array([lo, hi]), np.array([[w00, w01], [w10, w11]], dtype=np.complex128)


def _eig2_values(arr: np.ndarray):
    # _eig2_closed's eigenvalues alone, from the lone matrix's entries
    # (_eig2_parts). A separate name, since perfbench/tracing.py wraps
    # _eig2_closed as a one-argument function.
    (a, b), (_, d) = arr.tolist()
    return _eig2_parts(a.real, d.real, b)


def _eig2_parts(a: float, d: float, b: complex):
    # The eigenvalues of [[a, b], [conj b, d]], m -+ r as _rotation forms
    # them, as a list of two Python floats (the certificate needs no array),
    # with the pieces _power2 builds a power from: (b, h, m, |b|, r, b = 0,
    # a > d), b = 0 taking the sorted diagonal and the stand-in b = 1, as a
    # row of _eig2_stack does.
    h, m = (a - d) / 2.0, (a + d) / 2.0
    if b == 0.0:
        return [a, d] if a <= d else [d, a], (1.0, h, m, 1.0, abs(complex(h, 1.0)), True, a > d)
    babs = abs(b)
    r = abs(complex(h, babs))
    return [m - r, m + r], (b, h, m, babs, r, False, False)


def _rotation(a: float, d: float, b: complex):
    # The 2x2 Hermitian closed form [[a, b], [conj b, d]] for b != 0. With
    # h = (a - d)/2 and r = hypot(h, |b|) the eigenvalues are m -+ r about the
    # diagonal mean m, with eigenvector columns (-t, conj b) and (b, t) over
    # their norm, where t = lam2 - a = r - h >= 0. For h > 0 that difference
    # cancels, so t is taken in the equal form |b|^2 / (r + h), with |b|
    # factored so that |b|^2 cannot underflow (Golub & Van Loan, 4th ed.,
    # 8.5.2). Each column is phased by the rule _eig_jacobi states; equal
    # diagonals give t = |b| exactly, so the tie goes to the first entry.
    # Every hypot is libm's, as abs takes it, so that _rotation_stack can
    # match this bit for bit.
    babs = abs(b)
    h = (a - d) / 2.0
    m = (a + d) / 2.0
    r = abs(complex(h, babs))
    t = babs * (babs / (r + h)) if h > 0.0 else r - h
    nrm = abs(complex(babs, t))
    if t >= babs:
        w00, w10 = t / nrm, -b.conjugate() / nrm
    else:
        w00, w10 = -t * (b / babs) / nrm, babs / nrm
    if babs >= t:
        w01, w11 = babs / nrm, t * (b.conjugate() / babs) / nrm
    else:
        w01, w11 = b / nrm, t / nrm
    return m - r, m + r, w00, w10, w01, w11


def _rotation_stack(a: np.ndarray, d: np.ndarray, re: np.ndarray, im: np.ndarray):
    # _rotation over (N,) arrays: real a and d, b = re + i im != 0, its
    # branches as masks. Every complex product and quotient is formed from
    # real and imaginary parts as Python forms it, and every modulus with
    # hypot, so each row matches _rotation bit for bit (up to the sign of a
    # zero). Returns lo, hi and the rotation as one (8, N) array: the real
    # and imaginary parts of w00, w10, w01 and w11.
    babs = np.hypot(re, im)
    h = (a - d) / 2.0
    m = (a + d) / 2.0
    r = np.hypot(h, babs)
    # r + max(h, 0) is r + h wherever that branch is taken, and never 0.
    t = np.where(h > 0.0, babs * (babs / (r + np.maximum(h, 0.0))), r - h)
    nrm = np.hypot(babs, t)
    tur, tui = t * (re / babs), t * (im / babs)
    zero = np.zeros(t.shape)
    # Row by row: w00 = t or -t b/|b| and w10 = -conj(b) or |b| as
    # t >= |b| or not; w01 = |b| or b and w11 = t conj(b)/|b| or t as
    # |b| >= t or not; each over nrm.
    yes = np.array((t, zero, -re, im, babs, zero, tur, -tui)).reshape(2, 4, -1)
    no = np.array((-tur, -tui, babs, zero, re, im, t, zero)).reshape(2, 4, -1)
    first = np.array((t >= babs, babs >= t))[:, None]
    return m - r, m + r, np.where(first, yes, no).reshape(8, -1) / nrm


# Which part of a rotation W multiplies xr, yr, xi and yi in each of ur, vr,
# ui and vi, for (u, v) = (x w00 + y w10, x w01 + y w11), and its sign:
# Python forms the real part of a product as xr wr - xi wi, which equals
# xr wr + xi (-wi) bit for bit.
_ROTATE_TERMS = np.array([[0, 2, 1, 3], [4, 6, 5, 7], [1, 3, 0, 2], [5, 7, 4, 6]])
_ROTATE_SIGNS = np.array([[1.0, 1.0, -1.0, -1.0]] * 2 + [[1.0] * 4] * 2)[..., None]
# The sign a conjugate puts on (real, imaginary) parts.
_CONJUGATE = np.array([1.0, -1.0])[:, None, None, None]


def _rotate(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    # X = (xr, yr, xi, yi), each (R, N), rotated by W (8, N) from
    # _rotation_stack into (ur, vr, ui, vi): each sum is
    # (x part + x part) + (y part + y part), in Python's order.
    P = X * (W[_ROTATE_TERMS] * _ROTATE_SIGNS)[:, :, None, :]
    P = P[:, :2] + P[:, 2:]
    return P[:, 0] + P[:, 1]


@functools.cache
def _jacobi_plan(n: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    # The cyclic order of the upper pairs (p, q), each with the other indices,
    # built once per n.
    return tuple(
        (p, q, tuple(k for k in range(n) if k != p and k != q))
        for p in range(n - 1)
        for q in range(p + 1, n)
    )


def _eig_jacobi(arr: np.ndarray):
    # Cyclic complex Jacobi on Python scalars: sweep all upper pairs, rotate
    # each embedded 2x2 block onto its closed-form eigenvalues, accumulate the
    # rotations. Like the 2x2 closed form it reads the diagonal and the upper
    # triangle; every rotation keeps the lower triangle the exact conjugate,
    # so only rows and columns p and q outside the block are computed.
    # Quadratic convergence makes the 100 sweep budget generous for the sizes
    # this package touches.
    n = arr.shape[0]
    A = arr.tolist()
    for i in range(n):
        A[i][i] = A[i][i].real
        for j in range(i):
            A[i][j] = A[j][i].conjugate()
    V = [[1.0 + 0j if i == j else 0j for j in range(n)] for i in range(n)]
    # hypot scales, so neither norm overflows or underflows on extreme inputs.
    fro = math.hypot(*[abs(z) for row in A for z in row])
    if fro == 0.0:
        return np.zeros(n), np.eye(n, dtype=np.complex128)
    thresh = JACOBI_OFF_RTOL * fro
    skip = thresh / n
    plan = _jacobi_plan(n)
    for _ in range(JACOBI_MAX_SWEEPS):
        # Summed directly: the difference ||A||^2 - ||diag||^2 cancels
        # catastrophically once the off-diagonal mass nears machine epsilon.
        # The lower triangle mirrors the upper one, hence the sqrt(2).
        off = math.sqrt(2.0) * math.hypot(*[abs(A[p][q]) for p, q, _ in plan])
        if off <= thresh:
            break
        for p, q, rest in plan:
            Ap, Aq = A[p], A[q]
            b = Ap[q]
            if abs(b) <= skip:
                continue
            lo, hi, w00, w10, w01, w11 = _rotation(Ap[p], Aq[q], b)
            for k in rest:
                Ak = A[k]
                x, y = Ak[p], Ak[q]
                Ak[p] = u = x * w00 + y * w10
                Ak[q] = v = x * w01 + y * w11
                Ap[k] = u.conjugate()
                Aq[k] = v.conjugate()
            Ap[p], Aq[q] = lo, hi
            Ap[q] = Aq[p] = 0j
            for Vk in V:
                x, y = Vk[p], Vk[q]
                Vk[p] = x * w00 + y * w10
                Vk[q] = x * w01 + y * w11
    else:
        raise ConvergenceFailure(
            f"Jacobi did not reach the off-diagonal threshold in {JACOBI_MAX_SWEEPS} sweeps"
        )
    # Stable ascending sort, then the phase rule once per column: the first
    # largest-modulus entry is made real and positive.
    order = sorted(range(n), key=lambda i: A[i][i])
    w = np.array([A[j][j] for j in order])
    cols = []
    for j in order:
        col = [Vk[j] for Vk in V]
        piv = max(col, key=abs)
        u = piv.conjugate() / abs(piv)
        cols.append([z * u for z in col])
    return w, np.array(cols).T.copy()


def _eig_jacobi_stack(arr: np.ndarray):
    # _eig_jacobi over a stack (N, n, n), vectorized over the matrices, not
    # the rotations: Z[j, 0 or 1, i] holds the real or imaginary parts of
    # entry (i, j) of A for i < n and of V for i >= n, one (N,) array per
    # entry, with A's lower triangle kept the conjugate of its upper one.
    # Each matrix keeps its own Frobenius threshold, skip rule, convergence
    # test and sweep budget. At each pair only the matrices that rotate
    # there are read and written; the others, the converged ones among
    # them, keep their bits. So each matrix comes out as _eig_jacobi gives
    # it, bit for bit (up to the sign of a zero); only the norms behind its
    # thresholds are np.hypot chains, which can differ from math.hypot in
    # the last bit.
    N, n = arr.shape[0], arr.shape[-1]
    diag, (iu, ju) = np.arange(n), np.triu_indices(n, 1)
    upper = arr[:, iu, ju].T
    Z = np.zeros((n, 2, 2 * n, N))
    Z[diag, 0, diag] = arr[:, diag, diag].real.T
    Z[ju, 0, iu] = Z[iu, 0, ju] = upper.real
    Z[ju, 1, iu], Z[iu, 1, ju] = upper.imag, -upper.imag
    Z[diag, 0, n + diag] = 1.0
    thresh = JACOBI_OFF_RTOL * np.hypot.reduce(np.hypot(Z[:, 0, :n], Z[:, 1, :n]).reshape(n * n, N))
    skip = thresh / n
    for _ in range(JACOBI_MAX_SWEEPS):
        U = Z[ju, :, iu]
        live = ~(math.sqrt(2.0) * np.hypot.reduce(np.hypot(U[:, 0], U[:, 1])) <= thresh)
        if not live.any():
            break
        for p, q, every, some in _stack_plan(n):
            turn = live & (np.hypot(Z[q, 0, p], Z[q, 1, p]) > skip)
            m = np.count_nonzero(turn)
            if not m:
                continue
            # A slice where every matrix turns, which numpy indexes faster.
            rows, ix = (slice(None), every) if m == N else (np.flatnonzero(turn), some)
            cols, rest, mirror, block = (i + (rows,) for i in ix)
            lo, hi, W = _rotation_stack(Z[p, 0, p, rows], Z[q, 0, q, rows], Z[q, 0, p, rows], Z[q, 1, p, rows])
            # Columns p and q of A outside the block and of V, then A's
            # rows p and q as their conjugates, then the block itself.
            Z[cols] = _rotate(Z[cols].reshape(4, -1, m), W).reshape(2, 2, -1, m)
            Z[mirror] = Z[rest] * _CONJUGATE
            Z[p, 0, p, rows], Z[q, 0, q, rows] = lo, hi
            Z[block] = 0.0
    else:
        raise ConvergenceFailure(
            f"Jacobi did not reach the off-diagonal threshold in {JACOBI_MAX_SWEEPS} sweeps"
        )
    # _eig_jacobi's stable sort and phase rule, per matrix: with columns
    # in ascending order, u = conj(piv) / |piv| for the first
    # largest-modulus entry piv of each, and each entry times u.
    w = Z[diag, 0, diag].T
    order = np.argsort(w, axis=1, kind="stable")[:, None, :]
    VR, VI = (np.take_along_axis(Z[:, k, n:].transpose(2, 1, 0), order, axis=2) for k in (0, 1))
    mod = np.hypot(VR, VI)
    piv = np.argmax(mod, axis=1)[:, None, :]
    size = np.take_along_axis(mod, piv, axis=1)
    ur = np.take_along_axis(VR, piv, axis=1) / size
    ui = -np.take_along_axis(VI, piv, axis=1) / size
    V = np.empty((N, n, n), dtype=np.complex128)
    V.real, V.imag = VR * ur - VI * ui, VR * ui + VI * ur
    return np.take_along_axis(w, order[:, 0], axis=1), V


@functools.lru_cache
def _stack_plan(n: int) -> list[tuple]:
    # _jacobi_plan(n) with, per pair, the indices of Z that _eig_jacobi_stack
    # rotates: columns p and q of A's other rows and of V; A's other rows in
    # columns p and q; rows p and q of A in those columns, their mirror; and
    # the off-diagonal of the block. The first three give (part, column, row)
    # axes. Each set comes twice, to be completed by a slice over every
    # matrix and, with a trailing axis, by an index array of some.
    part = np.array([0, 1])[:, None, None]
    plan = []
    for p, q, rest in _jacobi_plan(n):
        pq, k = np.array([p, q])[:, None], np.array(rest)
        rows = np.array(rest + tuple(range(n, 2 * n)))
        every = ((pq, part, rows), (pq, part, k), (k, part, pq), (pq[::-1], part[:, 0, 0], pq))
        plan.append((p, q, every, tuple(tuple(a[..., None] for a in ix) for ix in every)))
    return plan


def _eig2_stack(arr: np.ndarray, vectors: bool = True):
    # _eig2_closed over a stack of 2x2 matrices, from their entries
    # (_eig2_stack_parts).
    return _eig2_stack_parts(arr[:, 0, 0].real, arr[:, 1, 1].real, arr[:, 0, 1], vectors)


def _eig2_stack_parts(a: np.ndarray, d: np.ndarray, b: np.ndarray, vectors: bool = True):
    # The eigenvalues (N, 2) and vectors (N, 2, 2) of the matrices
    # [[a, b], [conj b, d]]: _rotation_stack, with b = 0 (no rotation, a swap
    # when a > d) apart. Rows with b = 0 rotate a stand-in b = 1 that is then
    # dropped. Without ``vectors`` only m -+ r is formed, as _rotation_stack
    # forms it, with the same b = 0 sort, and the eigenvalues come with
    # _eig2_parts' pieces, one array each. Near the largest float they
    # overflow to infinities without numpy's warning, as Python floats do.
    still = b == 0.0
    b = np.where(still, 1.0, b)
    with np.errstate(over="ignore"):
        if vectors:
            lo, hi, W = _rotation_stack(a, d, b.real, b.imag)
        else:
            h, m = (a - d) / 2.0, (a + d) / 2.0
            babs = np.hypot(b.real, b.imag)
            r = np.hypot(h, babs)
            lo, hi = m - r, m + r
    w = np.empty((len(a), 2))
    w[:, 0], w[:, 1] = lo, hi
    swap = a > d
    if still.any():
        w[still] = np.stack((np.where(swap, d, a), np.where(swap, a, d)), axis=-1)[still]
    if not vectors:
        return w, (b, h, m, babs, r, still, swap)
    V = np.empty((len(a), 2, 2), dtype=np.complex128)
    # W's parts, column by column, as V[:, i, j] = (real, imaginary).
    V.view(np.float64).reshape(-1, 2, 2, 2)[:] = W.reshape(2, 2, 2, -1).transpose(3, 1, 0, 2)
    if still.any():
        E = np.eye(2, dtype=np.complex128)
        V[still] = np.where(swap[:, None, None], E[:, ::-1], E)[still]
    return w, V


# Below this many matrices a stack at n >= 3 runs the scalar Jacobi once per
# matrix: the stacked kernel pays a fixed cost per pair and sweep that a
# small stack does not earn back. Measured at n = 3 and 4 (see CHANGES.md).
_LOOP_BELOW = 20


def _eig_array(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # One Hermitian matrix, or a stack (N, n, n) giving (N, n) eigenvalues and
    # (N, n, n) vectors. A lone matrix keeps the scalar kernels, which cost
    # far less than a stack of one; a stack of 2x2s runs the vectorized
    # closed form; a stack of larger ones the stacked Jacobi, or below the
    # crossover the scalar one per matrix. Both routes give the same bits.
    n = arr.shape[-1]
    if n == 1:
        return arr[..., 0].real.copy(), np.ones(arr.shape, dtype=np.complex128)
    if arr.ndim == 2:
        return _eig2_closed(arr) if n == 2 else _eig_jacobi(arr)
    if n == 2:
        return _eig2_stack(arr)
    if len(arr) >= _LOOP_BELOW:
        return _eig_jacobi_stack(arr)
    out = [_eig_jacobi(X) for X in arr]
    return (
        np.array([w for w, _ in out]).reshape(arr.shape[:-1]),
        np.array([V for _, V in out], dtype=np.complex128).reshape(arr.shape),
    )


def _eig_values(arr: np.ndarray) -> np.ndarray:
    # _eig_array's eigenvalues alone, bit for bit: at n = 2 the closed
    # form's values-only mode, which forms no vectors; at any other n the
    # eigenvalues of _eig_array.
    if arr.shape[-1] == 2:
        return np.array(_eig2_values(arr)[0]) if arr.ndim == 2 else _eig2_stack(arr, False)[0]
    return _eig_array(arr)[0]


def eig(X) -> Spectrum:
    """Full spectral decomposition of a Hermitian matrix.

    Parameters
    ----------
    X : HermitianMatrix (a PdMatrix included) or array_like
        Raw arrays are validated (and symmetrized) first.

    Returns
    -------
    Spectrum
        Eigenvalues ascending; ``vectors`` columns orthonormal with
        deterministic phases.
    """
    arr = X.mat if isinstance(X, HermitianMatrix) else HermitianMatrix(X).mat
    w, V = _eig_array(arr)
    return Spectrum(w, V)


def _apply_spectral(fvals: np.ndarray, V: np.ndarray) -> np.ndarray:
    # V diag(f) V*, for one matrix or each matrix of a stack.
    return (V * fvals[..., None, :]) @ V.conj().swapaxes(-1, -2)


def _spectral_values(arr: np.ndarray, f: Callable[[float], float]):
    # One eigendecomposition, then f once per eigenvalue; returns (w, f(w), V).
    # Any exception f raises, or any non-finite value, surfaces as DomainError.
    w, V = _eig_array(arr)
    vals = np.empty(w.shape)
    for i, lam in enumerate(w.flat):
        lam = float(lam)
        try:
            y = float(f(lam))
        except Exception as exc:
            raise DomainError(f"scalar function failed at eigenvalue {lam!r}: {exc}") from exc
        if not math.isfinite(y):
            raise DomainError(f"scalar function returned non-finite value at {lam!r}")
        vals.flat[i] = y
    return w, vals, V


def func_calc(A: PdMatrix, f: Callable[[float], float]) -> HermitianMatrix:
    """Spectral calculus f(A) for a real scalar function.

    ``f`` is evaluated once per eigenvalue. Any exception it raises, or any
    non-finite value it returns, surfaces as DomainError.
    """
    _, vals, V = _spectral_values(A.mat, f)
    return HermitianMatrix._wrap(_apply_spectral(vals, V))


def _power_guard(lo, hi, ps, certify: bool) -> None:
    # Raise when spectra with smallest eigenvalue lo and largest hi (floats
    # for one matrix, arrays for a stack) do not take a power p of ps, in
    # their order: PositivityError for a lambda_min <= 0 under a fractional,
    # negative or certified power, DomainError where |p log lambda| at a
    # positive end would overflow. For positive finite spectra the largest
    # |log lambda|, at the smallest lo or the largest hi, is taken once, so
    # each p costs one product; rounding is monotone, so that decides as
    # each |p log lambda| would. Any other outcome searches the ends as
    # Python floats, (lo, hi) matrix by matrix: the first lambda_min <= 0 (a
    # NaN skipped), else the first positive end whose |p log lambda| overflows.
    lone = not isinstance(lo, np.ndarray)
    bottom, top = (lo, hi) if lone else (float(lo.min()), float(hi.max())) if lo.size else (1.0, 1.0)
    if bottom > 0.0 and top < math.inf:
        reach = max(abs(math.log(bottom)), abs(math.log(top)))
        for p in ps:
            if abs(p) * reach > _POW_LOG_LIMIT:
                break
        else:
            return
    ends = [lo, hi] if lone else np.stack((lo, hi), axis=-1).ravel().tolist()
    low = next((lam for lam in ends[::2] if lam <= 0.0), None)
    for p in ps:
        if low is not None and (certify or p != round(p) or p < 0.0):
            raise PositivityError(f"power {p} of a matrix with minimum eigenvalue {low:.3e}")
        over = [lam for lam in ends if lam > 0.0 and abs(p * math.log(lam)) > _POW_LOG_LIMIT]
        if over:
            raise DomainError(f"power {p} overflows at eigenvalue {over[0]:.3e}")


# A 2x2 power from its eigenvalues alone, lambda_1,2 = m -+ r, by the
# interpolation form f(A) = f_1 I + f[lambda_1, lambda_2] (A - lambda_1 I)
# (Higham, Functions of Matrices, SIAM 2008), f_i = lambda_i ** p:
# - P_00 = (f_1 (r - h) + f_2 (r + h)) / (2r) and P_11 the same with r -+ h
#   swapped, positive combinations; the cancelling one of r -+ h is taken
#   as |b| (|b| / (r + |h|)), as _rotation takes t.
# - P_01 = q b for the divided difference q = (f_2 - f_1) / (2r), the
#   difference plain while lambda_1 < lambda_2 / 2, where it cannot cancel
#   badly, and otherwise without cancellation as
#   2 sqrt(f_1) sqrt(f_2) sinh(p atanh(r / m)) (Higham & Lin, SIAM J.
#   Matrix Anal. Appl. 32, 2011): ``difference``, shared by _end_powers.
# - h, |b|, r and b are first scaled by the power of two that takes r into
#   [1/2, 1). That is exact, so the bits do not move, but f_i (r -+ h) can
#   no longer overflow where the result does not (1e100 I at p = 2 did).
# - b = 0 gives diag(a**p, d**p) exactly, in its diagonal's order, with a
#   zero off the diagonal: outright for a lone matrix, and in a stack by
#   overwriting the form's rows, so a -0.0 eigenvalue keeps its sign.
# _power2 takes everything that does not depend on p once, and returns the
# function that maps f = w**p and p to the power.


def _scaled_lone(h: float, babs: float, r: float, b: complex):
    # h, |b|, r, Re b and Im b times the power of two that takes r into [1/2, 1).
    e = -math.frexp(r)[1]
    return math.ldexp(h, e), math.ldexp(babs, e), math.ldexp(r, e), math.ldexp(b.real, e), math.ldexp(b.imag, e)


def _power_difference_stack(f_lo, f_hi, p: float, near, ath):
    # The difference for each matrix of a stack, the sinh only where near is set.
    d = f_hi - f_lo
    if ath is not None:
        d[near] = 2.0 * np.sqrt(f_lo[near]) * np.sqrt(f_hi[near]) * np.sinh(p * ath)
    return d


_PIVOT = "Cholesky pivot {:.3e} is not a finite positive number"


def _matrix_lone(p: float, q: float, re: float, im: float, im_low: float) -> np.ndarray:
    # [[p, re + i im], [re + i im_low, q]]; im_low is -im, or 0.0 in a
    # diagonal. Built 2-D, with no base array, since a result that a
    # PdMatrix stores read-only must not be writable through a base.
    return np.array([[p, complex(re, im)], [complex(re, im_low), q]])


def _matrix_stack(p, q, re, im, im_low) -> np.ndarray:
    # _matrix_lone for parts that broadcast, as a stack of their shape.
    shape = np.broadcast(p, q, re, im, im_low).shape
    M = np.zeros(shape + (8,))
    M[..., 0], M[..., 2], M[..., 3], M[..., 4], M[..., 5], M[..., 6] = p, re, im, re, im_low, q
    return M.view(np.complex128).reshape(shape + (2, 2))


# The routines a 2x2 body calls, per route: ``columns`` unpacks the columns
# of an (N, 2) stack, or the two floats of a lone 1-D array; ``order`` gives
# (x, y) where c holds, else (y, x); ``difference`` is f_hi - f_lo for
# f = lambda ** p at a spectrum's ends lo <= hi by that rule, with near
# lo >= hi / 2 and ath from ``atanh``, atanh((hi - lo) / (hi + lo)) where
# near is set (None for a stack where it is set nowhere); ``matrix`` is the
# assembler. The Cholesky bodies at any n take two more: ``parts`` splits a
# matrix into nested lists of the real and imaginary parts of its entries,
# with the zero they are padded with, and ``pivot`` is the root of a pivot.
# The lone table takes builtins where one serves: a lone power is on the hot
# path. A table is a class used as a namespace, never instantiated: CPython
# specializes a call of a class's function, not of an instance's.
_LONE = type("_LONE", (), dict(
    columns=np.ndarray.tolist, order=lambda c, x, y: (x, y) if c else (y, x), ldexp=math.ldexp, scaled=_scaled_lone,
    atanh=lambda z, near: float(np.arctanh(z)) if near else 0.0, matrix=_matrix_lone,
    difference=lambda fl, fh, p, near, a: 2.0 * math.sqrt(fl) * math.sqrt(fh) * float(np.sinh(p * a)) if near else fh - fl,
    parts=lambda M: (M.real.tolist(), M.imag.tolist(), 0.0), sqrt=math.sqrt,
    pivot=lambda d: math.sqrt(d) if 0.0 < d < math.inf else _require(False, PositivityError, _PIVOT, d),
))
_STACK = type("_STACK", (), dict(
    columns=operator.attrgetter("T"), order=lambda c, x, y: (np.where(c, x, y), np.where(c, y, x)), ldexp=np.ldexp,
    scaled=lambda h, babs, r, b: np.ldexp(np.array((h, babs, r, b.real, b.imag)), -np.frexp(r)[1]),
    atanh=lambda z, near: np.arctanh(z[near]) if near.any() else None, difference=_power_difference_stack,
    matrix=_matrix_stack,
    parts=lambda M: (*([list(row) for row in X.transpose(1, 2, 0)] for X in (M.real, M.imag)), np.zeros(len(M))),
    pivot=np.sqrt, sqrt=np.sqrt,
))


def _power2(ends, pieces, ops, matrix):
    # The form for one 2x2 matrix or each matrix of a stack, from the ends
    # lo <= hi of the values-only spectrum (floats or arrays) and the pieces
    # of _eig2_parts or _eig2_stack_parts, assembled by ``matrix``: the
    # table's, or _parts for the parts (P, Q, Re, Im, Im of the lower
    # corner) it would be built from. A lone b = 0 matrix takes its diagonal
    # outright; any other lone one carries still = False.
    b, h, m, babs, r, still, swap = pieces
    if still is True:
        return lambda f, p: matrix(*ops.columns(f)[::-1 if swap else 1], 0.0, 0.0, 0.0)
    stills = still is not False and still.any()
    lo, hi = ends
    hs, bs, rs, bre, bim = ops.scaled(h, babs, r, b)
    g = rs + abs(hs)
    x, y = ops.order(h > 0.0, bs * (bs / g), g)
    r2 = 2.0 * rs
    near = lo >= hi / 2.0
    if stills:
        near &= ~still
    ath = ops.atanh(r / m, near)

    def power(f: np.ndarray, p: float) -> np.ndarray:
        f1, f2 = ops.columns(f)
        q = ops.difference(f1, f2, p, near, ath) / r2
        u, v = q * bre, q * bim
        v_low = -v
        P, Q = (f1 * x + f2 * y) / r2, (f1 * y + f2 * x) / r2
        if stills:
            u[still] = v[still] = v_low[still] = 0.0
            P[still], Q[still] = np.where(swap, f2, f1)[still], np.where(swap, f1, f2)[still]
        return matrix(P, Q, u, v, v_low)

    return power


def _end_powers(lo, hi, z, e: float, ops):
    # lo ** e, hi ** e for the ends lo <= hi of a 2x2 spectrum, or of each
    # of a stack, guarded as _pow_arr guards them, and their difference by
    # _power2's rule, z = (hi - lo) / (hi + lo).
    _power_guard(lo, hi, (e,), False)
    f_lo, f_hi = ops.columns(np.power((lo, hi), e).T)
    return f_lo, f_hi, ops.difference(f_lo, f_hi, e, near := lo >= hi / 2.0, ops.atanh(z, near))


def _pow_arr(arr: np.ndarray, *ps: float, certify: bool = False):
    # Powers arr**p, one per p, from a single eigendecomposition of Hermitian
    # data assumed positive definite: one matrix, or each matrix of a stack.
    # At n = 2 that is the values-only closed form and each power is built
    # from the eigenvalues alone (_power2); larger matrices form
    # V diag(lambda ** p) V*. Fractional and negative powers raise when a
    # spectrum computed here says otherwise; with ``certify`` every power
    # does, and each result is paired with its exact certificate
    # min(lambda_i ** p), one per matrix. One p gives one result, several a tuple.
    if arr.shape[-1] == 2:
        lone = arr.ndim == 2
        w, pieces = _eig2_values(arr) if lone else _eig2_stack(arr, False)
        ends, ops = (w, _LONE) if lone else (w.T, _STACK)
        power = _power2(ends, pieces, ops, ops.matrix)
    else:
        w, V = _eig_array(arr)
        ends = w.tolist() if w.ndim == 1 else w.T

        def power(f: np.ndarray, p: float) -> np.ndarray:
            return _apply_spectral(f, V)

    _power_guard(ends[0], ends[-1], ps, certify)
    out = []
    for p in ps:
        vals = np.power(w, p)
        P = power(vals, p)
        out.append((P, vals.min(axis=-1)) if certify else P)
    return out[0] if len(out) == 1 else tuple(out)


def _parts(*parts):
    # _power2's assembler for the parts themselves.
    return parts


def _power_parts(x, p: float):
    # _pow_arr(X, p) of the 2x2 Hermitian X with parts x = (X_00, X_11,
    # Re X_01, Im X_01), Python floats for a lone matrix or arrays for a
    # stack (0-d ones, a lone matrix beside a stack, taken as a stack of
    # one), as the parts that _pow_arr assembles, with its bits: the same
    # values-only spectrum, guard and form, and no array in between.
    a, d, re, im = x
    if isinstance(a, float):
        w, pieces = _eig2_parts(a, d, complex(re, im))
        ends, ops = w, _LONE
    else:
        a, d, re, im = np.atleast_1d(a, d, re, im)
        b = np.empty(re.shape, dtype=np.complex128)
        b.real, b.imag = re, im
        w, pieces = _eig2_stack_parts(a, d, b, False)
        ends, ops = w.T, _STACK
    _power_guard(ends[0], ends[-1], (p,), False)
    return _power2(ends, pieces, ops, _parts)(np.power(w, p), p)


def _check_certificates(arr: np.ndarray, lam, tolerance=None):
    # The certificate rule, which PdMatrix's construction applies: lam, a
    # float for one matrix or an array for a stack, must be finite and clear
    # pd_tolerance(arr), per matrix, or ``tolerance`` where the caller has
    # it. Returns lam.
    ok = (lam > (pd_tolerance(arr) if tolerance is None else tolerance)) & (lam < math.inf)
    if ok is not True:
        _require(ok, PositivityError, "minimum eigenvalue {:.3e} does not clear the positivity tolerance", lam)
    return lam


def _certify_stack(arr: np.ndarray):
    # The eigenvalue certificate of a Hermitian matrix, or of each matrix of
    # a stack with any leading shape: its lambda_min, checked against its
    # own tolerance, a float for a lone matrix. Any stack, a lone matrix as
    # a stack of one, is solved as one (N, n, n) stack.
    n = arr.shape[-1]
    lam = _eig_values(arr.reshape(-1, n, n))[:, 0]
    return _check_certificates(arr, float(lam[0]) if arr.ndim == 2 else lam.reshape(arr.shape[:-2]))


def _cholesky(re, im, zero, ops):
    # The lower factor L of a Hermitian M = L L*, by the outer-product column
    # loop, from M's parts as ``ops.parts`` gives them: nested lists of
    # Python floats for one matrix (_LONE) or of (N,) arrays for each matrix
    # of a stack (_STACK, the caller under np.errstate), which the loop
    # overwrites with L's. Returns the real and imaginary parts of L, the
    # zero its upper triangle holds, and the pivots, the entries whose roots
    # are L's diagonal. Only the real diagonal and the lower triangle are
    # read. Every complex product is formed from real and imaginary parts in
    # one order, so a stack gives each matrix the bits it gets alone. A lone
    # pivot that is not a finite positive number raises PositivityError; a
    # stack's are left to the caller.
    n = len(re)
    pivots = []
    for j in range(n):
        pivots.append(re[j][j])
        s = re[j][j] = ops.pivot(re[j][j])
        im[j][j] = zero
        for i in range(j + 1, n):
            re[i][j], im[i][j] = re[i][j] / s, im[i][j] / s
            re[j][i] = im[j][i] = zero
        # The trailing block less column j times its conjugate transpose.
        for i in range(j + 1, n):
            xr, xi = re[i][j], im[i][j]
            re[i][i] = re[i][i] - (xr * xr + xi * xi)
            for k in range(j + 1, i):
                yr, yi = re[k][j], im[k][j]
                re[i][k], im[i][k] = re[i][k] - (xr * yr + xi * yi), im[i][k] - (xi * yr - xr * yi)
    return re, im, zero, pivots


def _lower_inverse(re, im, zero):
    # X = L^(-1) for a factor of _cholesky, in its layout, row by row:
    # X_ii = 1 / L_ii and X_ij = -(sum over k = j .. i - 1 of L_ik X_kj) / L_ii,
    # summed in order of k, with X_jj real.
    n = len(re)
    xr, xi = [[zero] * n for _ in range(n)], [[zero] * n for _ in range(n)]
    for i in range(n):
        d = re[i][i]
        xr[i][i] = 1.0 / d
        for j in range(i):
            sr, si = re[i][j] * xr[j][j], im[i][j] * xr[j][j]
            for k in range(j + 1, i):
                ar, ai, br, bi = re[i][k], im[i][k], xr[k][j], xi[k][j]
                sr, si = sr + (ar * br - ai * bi), si + (ar * bi + ai * br)
            xr[i][j], xi[i][j] = -(sr / d), -(si / d)
    return xr, xi


def _complex_rows(re, im) -> np.ndarray:
    # The matrix, or the stack, whose entries have the real and imaginary
    # parts of nested lists of Python floats, or of (N,) arrays.
    R, I = np.array(re), np.array(im)
    if R.ndim == 3:
        R, I = R.transpose(2, 0, 1), I.transpose(2, 0, 1)
    out = np.empty(R.shape, dtype=np.complex128)
    out.real, out.imag = R, I
    return out


def _cholesky_frame(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # L and L^(-1) for A = L L*, one matrix or each matrix of a stack:
    # PositivityError where a pivot is not a finite positive number (for a
    # stack, the first such pivot of the first such matrix), never a NaN.
    if arr.ndim == 2:
        re, im, zero, _ = _cholesky(*_LONE.parts(arr), _LONE)
    else:
        with np.errstate(all="ignore"):
            re, im, zero, pivots = _cholesky(*_STACK.parts(arr), _STACK)
        pivots = np.array(pivots).T
        _require((pivots > 0.0) & (pivots < math.inf), PositivityError, _PIVOT, pivots)
    return _complex_rows(re, im), _complex_rows(*_lower_inverse(re, im, zero))


def _cholesky_proof(M: np.ndarray, floor):
    # Whether a proof shows lambda_min(M) > floor + 2 JACOBI_OFF_RTOL tr(M),
    # for a Hermitian matrix (a bool) or for each matrix of a stack (N, n, n)
    # (an array), floor a float or one per matrix. The proof is a
    # floating-point Cholesky factorization of M - tau I (_cholesky) that
    # runs to completion (Rump, "Verification of positive definiteness", BIT
    # 46, 2006; Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    # ed., 10.1). Its factor R has R*R = fl(M - tau I) + E with
    # |E| <= gamma |R*| |R|, so
    # lambda_min(M) > tau - (gamma / (1 - gamma) + u) tr(M), the u for the
    # rounded shift. For real data gamma = gamma_(n+1), with
    # gamma_k = k u / (1 - k u) (Higham, Theorem 10.3); complex data take
    # gamma_(n+3), since a complex product errs by at most
    # sqrt(5) u < gamma_3 (Brent, Percival & Zimmermann, Math. Comp. 76,
    # 2007). Hence tau adds c u tr(M) (1 + 1e-3) with c = 2n + 2, at least
    # the n + 4 needed for n >= 2; the 1e-3 covers the 1 / (1 - gamma) and
    # the rounding of tau. The trace is taken over |m_ii|, equal to it
    # wherever the factorization can succeed. The margin
    # 2 JACOBI_OFF_RTOL tr(M) >= 2 JACOBI_OFF_RTOL ||M||_F is Jacobi's own
    # error, so a proven matrix's eigenvalues clear the floor too. A pivot
    # that is not a finite positive number (NaN, inf, overflow) leaves its
    # matrix unproven: the test fails closed. The shift is made on the parts
    # that _cholesky reads, so M itself is neither copied nor written.
    n = M.shape[-1]
    shift = (2 * n + 2) * _UNIT_ROUNDOFF * (1.0 + 1e-3) + 2.0 * JACOBI_OFF_RTOL
    if M.ndim == 2:
        re, im, zero = _LONE.parts(M)
        tau = floor + shift * sum([abs(re[i][i]) for i in range(n)])
        for i in range(n):
            re[i][i] -= tau
        try:
            _cholesky(re, im, zero, _LONE)
        except PositivityError:
            return False
        return True
    with np.errstate(all="ignore"):
        re, im, zero = _STACK.parts(M)
        diag = np.arange(n)
        tau = floor + shift * np.abs(M[:, diag, diag].real).sum(axis=1)
        for i in range(n):
            re[i][i] = re[i][i] - tau
        pivots = np.array(_cholesky(re, im, zero, _STACK)[3])
    return ((pivots > 0.0) & (pivots < np.inf)).all(axis=0)


def _certificate2(rows, M: np.ndarray) -> float:
    # The certificate of a lone 2x2 M from its entries ``rows``: M.tolist(),
    # or the rows M was built from (_pd_parts), the same numbers. lambda_min
    # (_eig2_parts) and the norm (_norm2) are taken on those Python floats,
    # with no array but M, so a lone 2x2 certificate has one route.
    (a, b), (_, d) = rows
    tolerance = PD_TOLERANCE * max(1.0, _norm2(rows, M))
    return _check_certificates(M, _eig2_parts(a.real, d.real, b)[0][0], tolerance)


def _certificates(M: np.ndarray):
    # The certificate rule for a Hermitian matrix or stack M, each matrix
    # decided as its eigenvalues decide it. At n >= 3 _cholesky_proof goes
    # first, and only a matrix it leaves open reads its eigenvalues
    # (_certify_stack), which raise the same PositivityError; at n <= 2 the
    # closed form costs less than the proof, and a lone 2x2 takes it on the
    # Python floats of one read of its entries (_certificate2). Returns
    # lambda_min where it was read for a lone matrix, else None.
    n = M.shape[-1]
    if M.shape == (2, 2):
        return _certificate2(M.tolist(), M)
    if n <= 2:
        return _certify_stack(M)
    if M.ndim == 2:
        return None if _cholesky_proof(M, pd_tolerance(M)) else _certify_stack(M)
    flat = M.reshape(-1, n, n)
    unproven = ~_cholesky_proof(flat, pd_tolerance(flat))
    if unproven.any():
        _certify_stack(flat[unproven])
    return None


def _certified(M: np.ndarray) -> np.ndarray:
    # A Hermitian result or stack of results, returned with each matrix
    # certified as mean() certifies one (_certificates).
    _certificates(M)
    return M


def _pd_result(M: np.ndarray) -> PdMatrix:
    # The PdMatrix of a lone result that its route returned Hermitian
    # (assembled exactly so, or symmetrized), certified by _certificates
    # with no second validation.
    return _pd_wrap(M, _certificates(M))


def _pd_parts(p: float, q: float, re: float, im: float, im_low: float) -> PdMatrix:
    # _pd_result of a lone 2x2 result given as the parts its route computed:
    # the array _matrix_lone(p, q, re, im, im_low) builds, built from the
    # rows its certificate reads (_certificate2), so it is never read back.
    rows = [[p, complex(re, im)], [complex(re, im_low), q]]
    M = np.array(rows)
    return _pd_wrap(M, _certificate2(rows, M))


def _pd_wrap(M: np.ndarray, lam) -> PdMatrix:
    # M, made read-only, as a PdMatrix with its lambda_min; with None, a
    # proven one, it reads lambda_min on first access (PdMatrix.__getattr__).
    M.setflags(write=False)
    out = object.__new__(PdMatrix)
    object.__setattr__(out, "mat", M)
    if lam is not None:
        object.__setattr__(out, "min_eigenvalue", lam)
    return out


def _certified_power(X: np.ndarray, p: float) -> np.ndarray:
    # X**p for one matrix or each matrix of a stack, Hermitian and certified
    # as mpow certifies it: symmetrized at n >= 3, while a 2x2 power is
    # assembled exactly Hermitian (_power2), which _sym would give back.
    P, cert = _pow_arr(X, p, certify=True)
    P = _sym(P) if X.shape[-1] > 2 else P
    _check_certificates(P, cert)
    return P


def _certified_powers(X: np.ndarray, ps, rows) -> np.ndarray:
    # _certified_power(X[rows[k]], ps[k]) for each k, stacked, from one
    # eigendecomposition of each matrix of the stack X: each distinct p is
    # taken of the whole stack once, and each k gathers its own rows.
    distinct = tuple(dict.fromkeys(ps))
    out = _pow_arr(X, *distinct, certify=True)
    rows = np.asarray(rows)
    if len(distinct) > 1:
        # The powers joined, row r of the d-th distinct p's at d len(X) + r.
        out = [np.concatenate(parts) for parts in zip(*out)]
        rows = rows + len(X) * np.array([distinct.index(p) for p in ps])[:, None]
    P = _sym(out[0][rows]) if X.shape[-1] > 2 else out[0][rows]
    _check_certificates(P, out[1][rows])
    return P


def mpow(A: PdMatrix, p: float) -> PdMatrix:
    """Matrix power A**p through the spectral decomposition.

    The result carries the exact certificate min(lambda_i ** p); DomainError
    fires before float64 overflow can, PositivityError on a spectrum that is
    not positive.
    """
    P, cert = _pow_arr(A.mat, float(p), certify=True)
    return PdMatrix(HermitianMatrix._wrap(P), cert)


def congruence(C, A) -> HermitianMatrix:
    """The transform C A C*.

    ``C`` must be numerically invertible: sigma_min > 1e-12 sigma_max,
    checked on the Gram matrix C*C. SingularError otherwise.
    """
    return HermitianMatrix._wrap(_congruences(C, A)[0])


def _congruences(C, *mats) -> tuple[np.ndarray, ...]:
    # C X C* for each X, unsymmetrized, behind one invertibility check of C:
    # of each matrix of C when C and the X are stacks.
    Carr = as_array(C)
    arrs = [as_array(X) for X in mats]
    for Xarr in arrs:
        if Carr.shape != Xarr.shape:
            raise DimMismatch(
                f"congruence shapes differ: {Carr.shape} vs {Xarr.shape}"
            )
    # Invertible means lambda_min(G) > 1e-24 lambda_max(G) for G = C*C. At
    # n >= 3 a proof of lambda_min(G) > 1e-24 ||G||_F >= 1e-24 lambda_max
    # decides it; only an unproven G with a finite norm reads its
    # eigenvalues, and a NaN or infinite one fails.
    Ch = Carr.conj().swapaxes(-1, -2)
    G = _sym(Ch @ Carr)
    floor = 1e-24 * _norms(G)
    ok = np.array(_cholesky_proof(G, floor) if G.shape[-1] > 2 else np.zeros(np.shape(floor), dtype=bool))
    todo = ~ok & (floor < math.inf)
    if todo.any():
        w = _eig_values(G[todo])
        ok[todo] = w[:, 0] > (1e-12) ** 2 * w[:, -1]
    _require(ok, SingularError, "congruence transform is numerically singular")
    return tuple(Carr @ Xarr @ Ch for Xarr in arrs)


def _order_violation(M1: np.ndarray, M2: np.ndarray):
    # How far M1 <= M2 fails, for one pair or each pair of two stacks: the
    # most negative eigenvalue of M2 - M1, negated; 0 where none is negative,
    # NaN kept. At n >= 3 a difference that _cholesky_proof shows positive
    # definite has 0 with no eigenvalue read, as its eigenvalues would give.
    D = _sym(M2 - M1)
    if D.shape[-1] <= 2:
        return np.maximum(0.0, -_eig_values(D)[..., 0])
    out = np.zeros(D.shape[:-2])
    todo = ~np.array(_cholesky_proof(D, 0.0))
    if todo.any():
        out[todo] = np.maximum(0.0, -_eig_values(D[todo])[:, 0])
    return out


def loewner_leq(A, B) -> bool:
    """Test A <= B in the Loewner order.

    The tolerance is LOEWNER_TOL scaled by max(1, ||B - A||_F); the
    difference may dip that far below zero and still count.
    """
    X, Y = as_array(A), as_array(B)
    _check_sizes(X, Y)
    return bool(_order_violation(X, Y) <= LOEWNER_TOL * max(1.0, frobenius(Y - X)))


def _rel_gap(X: np.ndarray, Y: np.ndarray):
    # ||X - Y||_F / max(1, ||Y||_F) for one pair, or for each pair of two stacks.
    return _norms(X - Y) / np.maximum(1.0, _norms(Y))


@functools.cache
def pauli_basis() -> tuple[HermitianMatrix, HermitianMatrix, HermitianMatrix]:
    """The pair sigma_z, sigma_x and the symmetric unitary (sigma_z + sigma_x)/sqrt(2), built once."""
    sz = HermitianMatrix._wrap(np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128))
    sx = HermitianMatrix._wrap(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128))
    u = HermitianMatrix._wrap((sz.mat + sx.mat) / math.sqrt(2.0))
    return sz, sx, u


def matrix_to_json(X) -> dict:
    """JSON payload {dim, re, im} for a matrix."""
    arr = as_array(X)
    return {
        "dim": int(arr.shape[0]),
        "re": arr.real.tolist(),
        "im": arr.imag.tolist(),
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    """Rebuild a complex matrix from {dim, re, im}; ValueError on bad payloads."""
    if not isinstance(obj, dict):
        raise ValueError("matrix payload must be a JSON object")
    try:
        dim = int(obj["dim"])
        re = np.asarray(obj["re"], dtype=np.float64)
        im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix payload: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError(
            f"matrix payload shapes {re.shape}, {im.shape} do not match dim {dim}"
        )
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise ValueError("matrix payload entries must be finite")
    return re + 1j * im
