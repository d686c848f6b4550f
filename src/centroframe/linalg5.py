"""Small dense linear algebra over floats *or* Taylor jets.

A matrix of jets is a coefficient array C of shape (rows, cols, n), C[i, j]
the coefficients of entry (i, j) and n = n_terms(degree) for a working
degree that the array functions take explicitly:

* `jet_matmul` is a truncated jet-matrix product: one dense matmul with the
  left factor gathered, through the `_mul_table` coefficient pairs, into
  the matrix of left multiplication on stacked coefficients;
* `jet_mul` is the elementwise product of two arrays of jets;
* `jet_solve` factors the constant part A0 once (LU with partial pivoting,
  in Python floats) and handles the nilpotent rest by a Neumann series,
  exact after `degree` steps.  Pivoting and singularity decisions look
  only at constant terms, which is the right notion over the jet ring: an
  element is invertible there iff its constant term is nonzero.

The frame pipeline tracks its own degrees (see :mod:`centroframe.adaptation`).
`solve` is the float entry point: nested lists in, `jet_solve` at degree 0,
Python floats out.

``expm5`` adapts `scipy.linalg.expm`, imported on first call, to a matrix and a time t.
"""

import numpy as np

from . import taylor
from .errors import SingularMatrix

__all__ = [
    "solve",
    "jet_matmul",
    "jet_mul",
    "jet_solve",
    "expm5",
]

_PIVOT_TOL = 1e-12


def resize(C, n):
    """Coefficient array C (..., m) truncated or zero-padded to n coefficients."""
    if C.shape[-1] >= n:
        return C[..., :n]
    out = np.zeros(C.shape[:-1] + (n,))
    out[..., : C.shape[-1]] = C
    return out


# degree -> (n, n) table `shift` with shift[o, b] = a for the multi-indices
# a + b = o of `_mul_table`, and n (a zero slot) where no such a exists, so
# the coefficients of a jet product a b are resize(a, n + 1)[shift] @ b.
_SHIFT_CACHE = {}


def _shift_index(degree):
    shift = _SHIFT_CACHE.get(degree)
    if shift is None:
        ia, ib, iout = taylor._mul_table(degree)
        n = taylor.n_terms(degree)
        shift = np.full((n, n), n, dtype=np.intp)
        shift[iout, ib] = ia
        _SHIFT_CACHE[degree] = shift
    return shift


# ((r, k, n), degree) -> (r n, k n) index of `_operator` into resize(A, n + 1).ravel()
_OPERATOR_CACHE = {}


def _operator(A, degree):
    """Left multiplication by a coefficient array A of shape (r, k, n).

    Returns T of shape (r n, k n) with _flat(A B) = T @ _flat(B), so a
    truncated jet-matrix product is one dense matmul.  T is one gather:
    T[i n + o, t n + b] is coefficient shift[o, b] of A[i, t].
    """
    r, k, n = A.shape
    index = _OPERATOR_CACHE.get((A.shape, degree))
    if index is None:
        cell = (np.arange(r)[:, None, None, None] * k + np.arange(k)[:, None]) * (n + 1)
        index = (cell + _shift_index(degree)[:, None, :]).reshape(r * n, k * n)
        _OPERATOR_CACHE[A.shape, degree] = index
    return resize(A, n + 1).reshape(-1)[index]


def _flat(B):
    """(k, m, n) coefficient array as a (k n, m) matrix, coefficients inner."""
    k, m, n = B.shape
    return B.transpose(0, 2, 1).reshape(k * n, m)


def _unflat(X, rows):
    """Inverse of `_flat` (contiguous, so each entry's coefficients are too)."""
    return np.ascontiguousarray(X.reshape(rows, -1, X.shape[1]).transpose(0, 2, 1))


def jet_matmul(A, B, degree):
    """Truncated product of coefficient arrays A (r, k, n) and B (k, m, n)."""
    return _unflat(_operator(A, degree) @ _flat(B), A.shape[0])


def jet_mul(a, b, degree):
    """Elementwise truncated product of coefficient arrays (leading axes broadcast)."""
    return (resize(a, a.shape[-1] + 1)[..., _shift_index(degree)] @ b[..., None])[..., 0]


def jet_solve(A, B, degree):
    """Solve A X = B for coefficient arrays A (k, k, n) and B (k, m, n).

    The constant part A0 is factored once, P A0 = L D U with unit triangular
    L and U, pivoting on the first row of largest |entry| (as LAPACK's `dgetrf`).
    With A = A0 (I + M), where M = A0^-1 (A - A0) has no constant term, the
    solution X = (I + M)^-1 A0^-1 B is the Neumann fixed point X = Y - M X
    with Y = A0^-1 B; each step fixes one more order, so `degree` steps are
    exact.  M and Y come from one forward and back substitution of [N | B].

    Raises
    ------
    SingularMatrix
        If a pivot of the constant part is NaN or at most _PIVOT_TOL times
        the largest constant entry (so an all-zero, NaN or inf A0 fails).
    """
    k, _, n = A.shape
    tol = _PIVOT_TOL * float(np.abs(A[:, :, 0]).max())  # NaN or inf with such an entry
    lu = A[:, :, 0].tolist()
    perm = list(range(k))
    for j in range(k):
        p = max(range(j, k), key=lambda i: abs(lu[i][j]))  # the first largest, as idamax
        lu[j], lu[p], perm[j], perm[p] = lu[p], lu[j], perm[p], perm[j]
        top = lu[j]
        if not abs(top[j]) > tol:  # a NaN pivot is unusable too
            raise SingularMatrix("no usable pivot in column %d" % j)
        for row in lu[j + 1 :]:
            f = row[j] = row[j] / top[j]
            if f:
                row[j + 1 :] = [x - f * y for x, y in zip(row[j + 1 :], top[j + 1 :])]
    for j, row in enumerate(lu):  # D^-1 U above the diagonal
        row[j + 1 :] = [x / row[j] for x in row[j + 1 :]]
    LU = np.array(lu)
    sol = np.concatenate([A.reshape(k, -1), B.reshape(k, -1)], axis=1)[perm]
    sol[:, : k * n : n] = 0.0  # the constant terms of N = A - A0
    for i in range(1, k):  # forward with L, then back with D^-1 U; zero rows skipped
        if any(lu[i][:i]):
            sol[i] -= LU[i, :i] @ sol[:i]
    sol /= LU.diagonal()[:, None]
    for i in range(k - 2, -1, -1):
        if any(lu[i][i + 1 :]):
            sol[i] -= LU[i, i + 1 :] @ sol[i + 1 :]
    T = _operator(sol[:, : k * n].reshape(A.shape), degree)
    Y = _flat(sol[:, k * n :].reshape(B.shape))
    X = Y
    for _ in range(degree):
        X = Y - T @ X
    return _unflat(X, k)


def solve(A, B):
    """Solve A X = B for a float matrix A and a float vector or matrix B.

    A and B are nested lists (A square, size 2..5; B a flat vector or a
    matrix of columns); X has the shape of B, with Python float entries.
    Raises SingularMatrix as `jet_solve` does, which it runs at degree 0.
    """
    B = np.array(B, dtype=float)
    X = jet_solve(np.array(A, dtype=float)[:, :, None], B.reshape(len(B), -1, 1), 0)
    return X.reshape(B.shape).tolist()


def expm5(M, t=1.0):
    """Matrix exponential exp(t*M) of a float matrix (`scipy.linalg.expm`)."""
    from scipy.linalg import expm  # the package's one use of scipy
    return expm(np.asarray(M, dtype=float) * float(t))
