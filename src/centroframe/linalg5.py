"""Small dense linear algebra over floats *or* Taylor jets.

A matrix of jets is a coefficient array C of shape (..., rows, cols, n),
C[..., i, j] the coefficients of entry (i, j) and n = n_terms(degree) for a
working degree that the array functions take explicitly.  Leading axes are
a batch: every function runs on each point of it with the same kernels, so
a point's result does not depend on the batch around it.

* `jet_matmul` is a truncated jet-matrix product: one dense matmul per
  point with the left factor gathered, through the `taylor._shift_index`
  table of the jet product, into the matrix of left multiplication on
  stacked coefficients;
* `jet_mul` is the elementwise product of two arrays of jets
  (`taylor.product`);
* `jet_solve` factors the constant part A0 once per point (LU with partial
  pivoting) and then solves order by order: the part of X of total degree
  d follows from the parts of lower degree by one forward substitution,
  which is exact, so `degree` graded steps give X.
  Pivoting and singularity decisions look only at constant terms, which is
  the right notion over the jet ring: an element is invertible there iff
  its constant term is nonzero.

The frame pipeline tracks its own degrees (see :mod:`centroframe.adaptation`).
`solve` is the float entry point: nested lists in, `jet_solve` at degree 0,
Python floats out.

``expm5`` adapts `scipy.linalg.expm`, imported on first call, to a matrix and a time t.
"""

import functools

import numpy as np

from . import taylor
from .errors import SingularMatrix, raise_each
from .taylor import _shift_index, resize  # noqa: F401  (resize is part of this module's API)
from .taylor import product as jet_mul

__all__ = [
    "solve",
    "jet_matmul",
    "jet_mul",
    "jet_solve",
    "expm5",
]

_PIVOT_TOL = 1e-12


@functools.cache
def _operator_index(r, k, n, degree):
    """(r n, k n) index of `_operator` into one point's resize(A, n + 1),
    flattened, for A of shape (r, k, n); the batch size is not part of the
    key.  Entry [i n + o, t n + b] is coefficient shift[o, b] of A[i, t]."""
    cell = (np.arange(r)[:, None, None, None] * k + np.arange(k)[:, None]) * (n + 1)
    return (cell + _shift_index(degree)[:, None, :]).reshape(r * n, k * n)


def _operator(A, degree):
    """Left multiplication by coefficient arrays A of shape (..., r, k, n).

    Returns T of shape (..., r n, k n) with _flat(A B) = T @ _flat(B), so a
    truncated jet-matrix product is one dense matmul per point.  T is one
    contiguous gather through `_operator_index`.
    """
    *batch, r, k, n = A.shape
    index = _operator_index(r, k, n, degree)
    return resize(A, n + 1).reshape(*batch, -1).take(index, axis=-1)


@functools.cache
def _graded_blocks(k, n, degree):
    """(index, steps) of the graded steps of `jet_solve` for (k, k, n) matrices.

    The operator of M in coefficient-major order (row o k + i and column
    b k + t is coefficient shift[o, b] of M[i, t]) is `_operator_index`
    with both axes transposed.  `index` gathers, from one point's
    resize(M, n + 1) flattened, the blocks of that operator that the graded
    steps use, one after another, and steps[d - 1] = (lo, hi, start, stop)
    says that rows lo:hi of the coefficient-major solution hold its
    coefficients of total degree d and that the block mapping rows :lo to
    them is index[start:stop], row-major.
    """
    index = _operator_index(k, k, n, degree).reshape(k, n, k, n).transpose(1, 0, 3, 2)
    index = index.reshape(n * k, n * k)
    steps, parts, start = [], [np.zeros(0, dtype=np.intp)], 0
    for d in range(1, degree + 1):
        lo, hi = k * taylor.n_terms(d - 1), k * taylor.n_terms(d)
        parts.append(index[lo:hi, :lo].ravel())
        steps.append((lo, hi, start, start + parts[-1].size))
        start += parts[-1].size
    return np.concatenate(parts), tuple(steps)


def _flat(B):
    """(..., k, m, n) coefficient array as a (..., k n, m) matrix, coefficients inner."""
    *batch, k, m, n = B.shape
    return B.swapaxes(-1, -2).reshape(*batch, k * n, m)


def _unflat(X, rows):
    """Inverse of `_flat` (contiguous, so each entry's coefficients are too)."""
    *batch, _, m = X.shape
    return np.ascontiguousarray(X.reshape(*batch, rows, -1, m).swapaxes(-1, -2))


def jet_matmul(A, B, degree):
    """Truncated product of coefficient arrays A (..., r, k, n) and B (..., k, m, n)."""
    return _unflat(_operator(A, degree) @ _flat(B), A.shape[-3])


def _factor(A0, tol):
    """P A0 = L D U of one point's constant part (nested lists of floats):
    (the rows of L below and of D^-1 U above the diagonal of D, the row
    permutation, and the first column without a usable pivot or None).

    Pivots on the first row of largest |entry| in each column, as LAPACK's
    `idamax`; the pivot of column j is usable when it is above `tol[j]`.
    `tol[0]` is NaN when A0 has a NaN or inf entry, so that fails column 0.
    """
    k = len(A0)
    lu, perm = A0, list(range(k))
    for j in range(k):
        column = [abs(row[j]) for row in lu[j:]]
        p = j + column.index(max(column))  # the first largest
        lu[j], lu[p], perm[j], perm[p] = lu[p], lu[j], perm[p], perm[j]
        top = lu[j]
        pivot = top[j]
        if not abs(pivot) > tol[j]:  # a NaN pivot is unusable too
            return lu, perm, j
        right = top[j + 1 :]
        for row in lu[j + 1 :]:
            f = row[j] = row[j] / pivot
            if f:
                row[j + 1 :] = [x - f * y for x, y in zip(row[j + 1 :], right)]
    for j, row in enumerate(lu):  # D^-1 U above the diagonal
        d = row[j]
        row[j + 1 :] = [x / d for x in row[j + 1 :]]
    return lu, perm, None


def jet_solve(A, B, degree):
    """Solve A X = B for coefficient arrays A (..., k, k, n) and B (..., k, m, n).

    The constant part A0 of each point is factored once in Python floats
    (`_factor`), P A0 = L D U with unit triangular L and U, pivoting on the
    first row of largest |entry| (as LAPACK's `dgetrf`); the substitutions
    and graded steps then run on the whole batch.  With A = A0 + N, where
    N has no constant term, one forward and back substitution of [N | B]
    gives M = A0^-1 N and Y = A0^-1 B, and X = Y - M X.  M raises the total
    degree, so the part X_d of total degree d is Y_d - (M X_<d)_d: one
    graded step per degree, in order, each exact.

    Raises
    ------
    SingularMatrix
        If a pivot of a point's constant part is NaN or at most _PIVOT_TOL
        times the largest |entry| of its column of A0, so column scalings do
        not change the decision; a NaN or inf in A0 fails column 0.  With a
        batch axis, as PointFailures.
    """
    *batch, k, _, n = A.shape
    m = B.shape[-2]
    A = A.reshape(-1, k, k, n)
    N = len(A)
    A0 = A[..., 0]
    tol = _PIVOT_TOL * np.abs(A0).max(axis=1)  # relative, per point and column
    tol[~np.isfinite(A0).all(axis=(1, 2)), 0] = np.nan
    factors = [_factor(a, t) for a, t in zip(A0.tolist(), tol.tolist())]
    failed = {i: SingularMatrix("no usable pivot in column %d" % f[2])
              for i, f in enumerate(factors) if f[2] is not None}
    raise_each(failed, batch)
    lu = np.array([f[0] for f in factors])
    pivoted = [i * k + p for i, f in enumerate(factors) for p in f[1]]
    sol = np.concatenate([A.reshape(N * k, k * n), B.reshape(N * k, m * n)], axis=1)
    sol = sol.take(pivoted, axis=0).reshape(N, k, -1)
    sol[:, :, : k * n : n] = 0.0  # the constant terms of N
    for i in range(1, k):  # forward with L, then back with D^-1 U
        sol[:, i : i + 1] -= lu[:, i : i + 1, :i] @ sol[:, :i]
    sol /= lu.diagonal(0, 1, 2)[:, :, None]
    for i in range(k - 2, -1, -1):
        sol[:, i : i + 1] -= lu[:, i : i + 1, i + 1 :] @ sol[:, i + 1 :]
    M = resize(sol[:, :, : k * n].reshape(N, k, k, n), n + 1).reshape(N, -1)
    X = np.ascontiguousarray(sol[:, :, k * n :].reshape(N, k, m, n).transpose(0, 3, 1, 2))
    X = X.reshape(N, n * k, m)  # coefficient-major: row o k + i is coefficient o of row i
    index, steps = _graded_blocks(k, n, degree)
    M = M.take(index, axis=-1)  # the blocks of every graded step
    for lo, hi, start, stop in steps:  # one total degree, from those below
        X[:, lo:hi] -= M[:, start:stop].reshape(N, hi - lo, lo) @ X[:, :lo]
    X = X.reshape(N, n, k, m).transpose(0, 2, 3, 1)
    return np.ascontiguousarray(X).reshape(*batch, k, m, n)


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
