"""Hermitian and positive definite matrix core.

Value types (:class:`HermitianMatrix`, :class:`PdMatrix`, :class:`Spectrum`)
are frozen dataclasses wrapping complex128 arrays; a PdMatrix is a
HermitianMatrix carrying its certificate (it has no ``.matrix`` field). The
eigensolver is local to the package. One 2x2 closed form, computed without
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
crossover measured per mode (``_LOOP_BELOW``). Powers and the congruence
invertibility check guard every matrix of a stack.

Every kernel has a values-only mode, reached through ``_eig_values``, for
the callers that need no vectors: certification, the Loewner order and the
congruence invertibility check. The closed forms then form only m -+ r
(keeping the b = 0 sort) and the Jacobi kernels rotate A alone, so the
eigenvalues are the bits ``_eig_array`` returns.

Four checks are decided here and nowhere else, each by one function for a
matrix or a stack: positivity (``pd_tolerance``, ``_check_certificates``,
``_certified``), the Loewner order (``_order_violation``), Hermiticity
(``_check_hermitian``) and relative size (``_rel_gap``). They and every
other Frobenius norm of a matrix in the package go through ``_norms``,
which gives each matrix of a stack the bits it gets alone, and takes a
norm whose squares overflow again with the matrix scaled by a power of
two; every eigenvalue power goes through ``np.power``, as the preserver's
scalar powers do.

A certificate whose value someone reads (``PdMatrix.certify``, ``mpow``,
``_certify_stack``) is the exact lambda_min of the values-only kernels.
``_certified`` checks results whose certificate nobody reads: a stack at
n >= 3 is proven positive definite by a floating-point Cholesky
factorization of M - tau I (``_cholesky_proof``), and only a matrix the
proof leaves open takes the eigenvalue route, which decides it as before.

Matrices enter as anything ``np.asarray`` accepts; nested lists work. Arrays
stored on value types are non-writeable copies, so instances can be shared
freely.
"""

from __future__ import annotations

import functools
import math
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
    # BLAS dots of its flattened real and imaginary parts, and a
    # (1, k) @ (k, 1) matmul runs the same dots with the same strides. The
    # squares overflow once an entry passes about 1.3e154; only a norm that
    # came out infinite is taken again, scaled (numpy has warned by then).
    if X.ndim <= 2:
        norm = np.linalg.norm(X)
        return norm if math.isfinite(norm) else _rescaled_norms(X.reshape(1, 1, -1), norm[None])[0]
    norms = _dot_norms(X)
    return norms if math.isfinite(norms.sum()) else _rescaled_norms(X, norms)


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
    C = X @ Y - Y @ X
    return frobenius(C) if C.ndim == 2 else _norms(C)


def _check_operands(A, B) -> None:
    # DimMismatch unless the two operands of a two-matrix call share a dimension.
    if A.dim != B.dim:
        raise DimMismatch(f"operands have dimensions {A.dim} and {B.dim}")


def as_array(X) -> np.ndarray:
    """Unwrap a HermitianMatrix (a PdMatrix included) to its ndarray, pass arrays through."""
    if isinstance(X, HermitianMatrix):
        return X.mat
    return np.asarray(X, dtype=np.complex128)


@dataclass(frozen=True)
class HermitianMatrix:
    """A validated Hermitian matrix.

    Construction symmetrizes to (M + M*)/2 after checking that the input was
    already Hermitian to within ``HERMITICITY_RTOL`` relative to
    max(1, ||M||_F). The stored array is complex128 and non-writeable.
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
    if not ok.all():
        raise ValueError(
            f"matrix is not Hermitian: asymmetry {np.extract(~ok, asym)[0]:.3e} exceeds tolerance"
        )


def pd_tolerance(entries):
    """Certification threshold PD_TOLERANCE * max(1, ||X||_F), for a matrix or each matrix of a stack."""
    # A lone matrix takes Python's max, which costs a fifth of np.maximum's.
    norm = _norms(as_array(entries))
    return PD_TOLERANCE * (max(1.0, float(norm)) if norm.ndim == 0 else np.maximum(1.0, norm))


@dataclass(frozen=True)
class PdMatrix(HermitianMatrix):
    """A HermitianMatrix carrying its certificate ``min_eigenvalue``; there is no ``.matrix``.

    A HermitianMatrix passed as ``mat`` is taken as validated, other input is
    validated as HermitianMatrix does. Construction re-checks the certificate
    against the scaled tolerance, so a PdMatrix in hand is always safely
    invertible; :meth:`certify` goes from a plain matrix to a certified one.
    """

    min_eigenvalue: float

    def __post_init__(self) -> None:
        if isinstance(self.mat, HermitianMatrix):
            object.__setattr__(self, "mat", self.mat.mat)
        else:
            super().__post_init__()
        lam = float(self.min_eigenvalue)
        if not math.isfinite(lam) or lam <= pd_tolerance(self.mat):
            raise PositivityError(
                f"minimum eigenvalue {lam:.3e} does not clear the positivity tolerance"
            )
        object.__setattr__(self, "min_eigenvalue", lam)

    @classmethod
    def certify(cls, matrix) -> "PdMatrix":
        """Validate, diagonalize and certify, raising PositivityError when not PD."""
        H = matrix if isinstance(matrix, HermitianMatrix) else HermitianMatrix(matrix)
        return cls(H, float(_eig_values(H.mat)[0]))


@dataclass(frozen=True)
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
        if a <= d:
            return np.array([a, d]), V
        return np.array([d, a]), V[:, ::-1].copy()
    lo, hi, w00, w10, w01, w11 = _rotation(a, d, b)
    return np.array([lo, hi]), np.array([[w00, w01], [w10, w11]], dtype=np.complex128)


def _eig2_values(arr: np.ndarray) -> np.ndarray:
    # _eig2_closed's eigenvalues alone, by its arithmetic: the sorted
    # diagonal when b = 0, else m -+ r as _rotation forms them. A separate
    # name, since perfbench/tracing.py wraps _eig2_closed as a one-argument
    # function.
    (a, b), (_, d) = arr.tolist()
    a, d = a.real, d.real
    if b == 0.0:
        return np.array([a, d] if a <= d else [d, a])
    h, m = (a - d) / 2.0, (a + d) / 2.0
    r = abs(complex(h, abs(b)))
    return np.array([m - r, m + r])


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


def _jacobi_plan(n: int) -> list[tuple[int, int, list[int]]]:
    # The cyclic order of the upper pairs (p, q), each with the other indices.
    return [
        (p, q, [k for k in range(n) if k != p and k != q])
        for p in range(n - 1)
        for q in range(p + 1, n)
    ]


def _eig_jacobi(arr: np.ndarray, vectors: bool = True):
    # Cyclic complex Jacobi on Python scalars: sweep all upper pairs, rotate
    # each embedded 2x2 block onto its closed-form eigenvalues, accumulate the
    # rotations. Like the 2x2 closed form it reads the diagonal and the upper
    # triangle; every rotation keeps the lower triangle the exact conjugate,
    # so only rows and columns p and q outside the block are computed.
    # Quadratic convergence makes the 100 sweep budget generous for the sizes
    # this package touches. Without ``vectors`` no rotation is accumulated
    # and only the eigenvalues are returned, the same bits.
    n = arr.shape[0]
    A = arr.tolist()
    for i in range(n):
        A[i][i] = A[i][i].real
        for j in range(i):
            A[i][j] = A[j][i].conjugate()
    V = [[1.0 + 0j if i == j else 0j for j in range(n)] for i in range(n)] if vectors else []
    # hypot scales, so neither norm overflows or underflows on extreme inputs.
    fro = math.hypot(*[abs(z) for row in A for z in row])
    if fro == 0.0:
        return (np.zeros(n), np.eye(n, dtype=np.complex128)) if vectors else np.zeros(n)
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
    if not vectors:
        return w
    cols = []
    for j in order:
        col = [Vk[j] for Vk in V]
        piv = max(col, key=abs)
        u = piv.conjugate() / abs(piv)
        cols.append([z * u for z in col])
    return w, np.array(cols).T.copy()


def _eig_jacobi_stack(arr: np.ndarray, vectors: bool = True):
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
    # the last bit. Without ``vectors`` Z holds A alone, the plan rotates
    # no V rows, and only the eigenvalues are returned.
    N, n = arr.shape[0], arr.shape[-1]
    diag, (iu, ju) = np.arange(n), np.triu_indices(n, 1)
    upper = arr[:, iu, ju].T
    Z = np.zeros((n, 2, 2 * n if vectors else n, N))
    Z[diag, 0, diag] = arr[:, diag, diag].real.T
    Z[ju, 0, iu] = Z[iu, 0, ju] = upper.real
    Z[ju, 1, iu], Z[iu, 1, ju] = upper.imag, -upper.imag
    if vectors:
        Z[diag, 0, n + diag] = 1.0
    thresh = JACOBI_OFF_RTOL * np.hypot.reduce(np.hypot(Z[:, 0, :n], Z[:, 1, :n]).reshape(n * n, N))
    skip = thresh / n
    for _ in range(JACOBI_MAX_SWEEPS):
        U = Z[ju, :, iu]
        live = ~(math.sqrt(2.0) * np.hypot.reduce(np.hypot(U[:, 0], U[:, 1])) <= thresh)
        if not live.any():
            break
        for p, q, every, some in _stack_plan(n, vectors):
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
    if not vectors:
        return np.sort(w, axis=1, kind="stable")
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
def _stack_plan(n: int, vectors: bool) -> list[tuple]:
    # _jacobi_plan(n) with, per pair, the indices of Z that _eig_jacobi_stack
    # rotates: columns p and q of A's other rows and, with ``vectors``, of V;
    # A's other rows in columns p and q; rows p and q of A in those columns,
    # their mirror; and the off-diagonal of the block. The first three give
    # (part, column, row) axes. Each set comes twice, to be completed by a
    # slice over every matrix and, with a trailing axis, by an index array
    # of some.
    part = np.array([0, 1])[:, None, None]
    plan = []
    for p, q, rest in _jacobi_plan(n):
        pq, k = np.array([p, q])[:, None], np.array(rest)
        rows = np.array(rest + (list(range(n, 2 * n)) if vectors else []))
        every = ((pq, part, rows), (pq, part, k), (k, part, pq), (pq[::-1], part[:, 0, 0], pq))
        plan.append((p, q, every, tuple(tuple(a[..., None] for a in ix) for ix in every)))
    return plan


def _eig2_stack(arr: np.ndarray, vectors: bool = True):
    # _eig2_closed over a stack of 2x2 matrices: _rotation_stack, with b = 0
    # (no rotation, a swap when a > d) apart. Rows with b = 0 rotate a
    # stand-in b = 1 that is then dropped. Without ``vectors`` only m -+ r
    # is formed, as _rotation_stack forms it, with the same b = 0 sort.
    a, d = arr[:, 0, 0].real, arr[:, 1, 1].real
    b = arr[:, 0, 1]
    still = b == 0.0
    if vectors:
        lo, hi, W = _rotation_stack(a, d, np.where(still, 1.0, b.real), b.imag)
    else:
        h, m = (a - d) / 2.0, (a + d) / 2.0
        r = np.hypot(h, np.hypot(b.real, b.imag))
        lo, hi = m - r, m + r
    w = np.stack((lo, hi), axis=-1)
    swap = a > d
    if still.any():
        w[still] = np.stack((np.where(swap, d, a), np.where(swap, a, d)), axis=-1)[still]
    if not vectors:
        return w
    V = np.empty(arr.shape, dtype=np.complex128)
    # W's parts, column by column, as V[:, i, j] = (real, imaginary).
    V.view(np.float64).reshape(-1, 2, 2, 2)[:] = W.reshape(2, 2, 2, -1).transpose(3, 1, 0, 2)
    if still.any():
        E = np.eye(2, dtype=np.complex128)
        V[still] = np.where(swap[:, None, None], E[:, ::-1], E)[still]
    return w, V


# Below this many matrices a stack at n >= 3 runs the scalar Jacobi once per
# matrix: the stacked kernel pays a fixed cost per pair and sweep that a
# small stack does not earn back. One crossover per mode, keyed by whether
# vectors are wanted, measured at n = 3 and 4 (see CHANGES.md).
_LOOP_BELOW = {True: 20, False: 32}


def _eig(arr: np.ndarray, vectors: bool):
    # _eig_array, or with ``vectors`` False _eig_values: the kernels in the
    # matching mode. A lone matrix keeps the scalar kernels, which cost far
    # less than a stack of one; a stack of 2x2s runs the vectorized closed
    # form; a stack of larger ones the stacked Jacobi, or below the
    # crossover the scalar one per matrix. Both routes give the same bits.
    n = arr.shape[-1]
    if n == 1:
        w = arr[..., 0].real.copy()
        return (w, np.ones(arr.shape, dtype=np.complex128)) if vectors else w
    if arr.ndim == 2:
        if n == 2:
            return _eig2_closed(arr) if vectors else _eig2_values(arr)
        return _eig_jacobi(arr, vectors)
    if n == 2:
        return _eig2_stack(arr, vectors)
    if len(arr) >= _LOOP_BELOW[vectors]:
        return _eig_jacobi_stack(arr, vectors)
    out = [_eig_jacobi(X, vectors) for X in arr]
    if not vectors:
        return np.array(out).reshape(arr.shape[:-1])
    return (
        np.array([w for w, _ in out]).reshape(arr.shape[:-1]),
        np.array([V for _, V in out], dtype=np.complex128).reshape(arr.shape),
    )


def _eig_array(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # One Hermitian matrix, or a stack (N, n, n) giving (N, n) eigenvalues and
    # (N, n, n) vectors.
    return _eig(arr, True)


def _eig_values(arr: np.ndarray) -> np.ndarray:
    # _eig_array's eigenvalues alone, bit for bit, for callers that would
    # throw the vectors away: no kernel forms or rotates them.
    return _eig(arr, False)


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
        try:
            y = float(f(float(lam)))
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


def _power_guard(w: np.ndarray, p: float, certify: bool) -> None:
    # Raise when the ascending spectrum w (one row per matrix of a stack)
    # does not take the power p: PositivityError for a lambda_min <= 0 under
    # a fractional, negative or certified power, DomainError where
    # |p log lambda| at a positive end would overflow. A lone matrix is
    # checked on its two ends, a stack at once.
    if w.ndim == 1:
        if w[0] <= 0.0 and (certify or p != round(p) or p < 0.0):
            raise PositivityError(f"power {p} of a matrix with minimum eigenvalue {w[0]:.3e}")
        for lam in (w[0], w[-1]):
            if lam > 0.0 and abs(p * math.log(lam)) > _POW_LOG_LIMIT:
                raise DomainError(f"power {p} overflows at eigenvalue {lam:.3e}")
        return
    lows = w[:, 0][w[:, 0] <= 0.0]
    if lows.size and (certify or p != round(p) or p < 0.0):
        raise PositivityError(f"power {p} of a matrix with minimum eigenvalue {lows[0]:.3e}")
    ends = w[:, [0, -1]]
    ends = ends[ends > 0.0]
    over = ends[np.abs(p * np.log(ends)) > _POW_LOG_LIMIT]
    if over.size:
        raise DomainError(f"power {p} overflows at eigenvalue {over[0]:.3e}")


def _pow_arr(arr: np.ndarray, *ps: float, certify: bool = False):
    # Powers arr**p, one per p, from a single eigendecomposition of Hermitian
    # data assumed positive definite: one matrix, or each matrix of a stack.
    # Fractional and negative powers raise when a spectrum computed here says
    # otherwise; with ``certify`` every power does, and each result is paired
    # with its exact certificate min(lambda_i ** p), one per matrix. One p
    # gives one result, several give a tuple.
    w, V = _eig_array(arr)
    out = []
    for p in ps:
        _power_guard(w, p, certify)
        vals = np.power(w, p)
        P = _apply_spectral(vals, V)
        out.append((P, vals.min(axis=-1)) if certify else P)
    return out[0] if len(out) == 1 else tuple(out)


def _check_certificates(arr: np.ndarray, lam: np.ndarray) -> np.ndarray:
    # PdMatrix's construction check for each matrix of a stack: lam[i] must
    # be finite and clear pd_tolerance(arr[i]). Returns lam.
    bad = ~(np.isfinite(lam) & (lam > pd_tolerance(arr)))
    if bad.any():
        raise PositivityError(
            f"minimum eigenvalue {np.extract(bad, lam)[0]:.3e} does not clear the positivity tolerance"
        )
    return lam


def _certify_stack(arr: np.ndarray) -> np.ndarray:
    # PdMatrix.certify for a Hermitian matrix, or for each matrix of a stack
    # with any leading shape: its lambda_min, checked against its own
    # tolerance. A lone matrix keeps the scalar kernel; deeper stacks are
    # solved as one (N, n, n) stack.
    n = arr.shape[-1]
    w = _eig_values(arr if arr.ndim <= 3 else arr.reshape(-1, n, n))
    return _check_certificates(arr, w[..., 0].reshape(arr.shape[:-2]))


def _cholesky_proof(M: np.ndarray) -> np.ndarray:
    # For each matrix of a Hermitian stack (N, n, n): True where a proof
    # shows lambda_min(M) > pd_tolerance(M). The proof is a floating-point
    # Cholesky factorization of M - tau I that runs to completion (Rump,
    # "Verification of positive definiteness", BIT 46, 2006; Higham,
    # Accuracy and Stability of Numerical Algorithms, 2nd ed., 10.1). Its
    # factor R has R*R = fl(M - tau I) + E with |E| <= gamma |R*| |R|, so
    # lambda_min(M) > tau - (gamma / (1 - gamma) + u) tr(M), the u for the
    # rounded shift. For real data gamma = gamma_(n+1), with
    # gamma_k = k u / (1 - k u) (Higham, Theorem 10.3); complex data take
    # gamma_(n+3), since a complex product errs by at most
    # sqrt(5) u < gamma_3 (Brent, Percival & Zimmermann, Math. Comp. 76,
    # 2007). Hence tau = pd_tolerance(M) + c u tr(M) (1 + 1e-3) with
    # c = 2n + 2, at least the n + 4 needed for n >= 2; the 1e-3 covers the
    # 1 / (1 - gamma) and the rounding of tau. The trace is taken over
    # |m_ii|, equal to it wherever the factorization can succeed. A pivot
    # that is not a finite positive number (NaN, inf, overflow) leaves its
    # matrix unproven: the test fails closed.
    N, n = M.shape[0], M.shape[-1]
    diag = np.arange(n)
    trace = np.abs(M[:, diag, diag].real).sum(axis=1)
    tau = pd_tolerance(M) + (2 * n + 2) * _UNIT_ROUNDOFF * (1.0 + 1e-3) * trace
    pivots = np.empty((N, n))
    with np.errstate(all="ignore"):
        A = M.copy()
        A[:, diag, diag] -= tau[:, None]
        for j in range(n):
            # Column j of the lower factor, then the outer-product update
            # of the trailing block.
            pivots[:, j] = d = A[:, j, j].real
            col = A[:, j + 1:, j] / np.sqrt(d)[:, None]
            A[:, j + 1:, j + 1:] -= col[:, :, None] * col[:, None, :].conj()
        return ((pivots > 0.0) & (pivots < np.inf)).all(axis=1)


def _certified(arr: np.ndarray) -> np.ndarray:
    # A result or a stack of results, symmetrized, with each matrix
    # certified as mean() certifies one. No caller reads the certificate,
    # so a stack at n >= 3 first takes _cholesky_proof, and only the
    # matrices it leaves unproven go to _certify_stack, whose eigenvalues
    # decide them as before: one that is not PD raises the same
    # PositivityError. A lone matrix and a stack of 2x2s keep the
    # eigenvalue route, which costs less there than the proof.
    M = _sym(arr)
    n = M.shape[-1]
    if M.ndim == 2 or n <= 2:
        _certify_stack(M)
        return M
    flat = M.reshape(-1, n, n)
    unproven = ~_cholesky_proof(flat)
    if unproven.any():
        _certify_stack(flat[unproven])
    return M


def _certified_power(X: np.ndarray, p: float) -> np.ndarray:
    # X**p for one matrix or each matrix of a stack, symmetrized and
    # certified as mpow certifies it.
    P, cert = _pow_arr(X, p, certify=True)
    P = _sym(P)
    _check_certificates(P, cert)
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
    Ch = Carr.conj().swapaxes(-1, -2)
    w = _eig_values(_sym(Ch @ Carr))
    if np.any(w[..., 0] <= (1e-12) ** 2 * w[..., -1]):
        raise SingularError("congruence transform is numerically singular")
    return tuple(Carr @ Xarr @ Ch for Xarr in arrs)


def _order_violation(M1: np.ndarray, M2: np.ndarray):
    # How far M1 <= M2 fails, for one pair or each pair of two stacks: the
    # most negative eigenvalue of M2 - M1, negated; 0 where none is negative,
    # NaN kept.
    w = _eig_values(_sym(M2 - M1))
    return np.maximum(0.0, -w[..., 0])


def loewner_leq(A, B) -> bool:
    """Test A <= B in the Loewner order.

    The tolerance is LOEWNER_TOL scaled by max(1, ||B - A||_F); the
    difference may dip that far below zero and still count.
    """
    X, Y = as_array(A), as_array(B)
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
