"""Small dense linear algebra over floats *or* Taylor jets.

A matrix of jets is a coefficient array C of shape (rows, cols, n), C[i, j]
the coefficients of entry (i, j) and n = n_terms(degree) for a working
degree that the array functions take explicitly:

* `jet_matmul` is a truncated jet-matrix product: one dense matmul with the
  left factor gathered, through the `_mul_table` coefficient pairs, into
  the matrix of left multiplication on stacked coefficients;
* `jet_mul` is the elementwise product of two arrays of jets;
* `jet_solve` factors the constant part A0 once (LU with partial pivoting)
  and handles the nilpotent rest by a Neumann series, exact after `degree`
  steps.  Pivoting and singularity decisions look only at constant terms,
  which is the right notion over the jet ring: an element is invertible
  there iff its constant term is nonzero.

The frame pipeline tracks its own degrees (see :mod:`centroframe.adaptation`).
`mat_mul`, `mat_vec`, `solve` and `inverse` are nested-list entry points:
they `pack` floats and jets (a float is a constant of unbounded degree), run
the array functions and `unpack` with the per-entry degrees that scalar jet
arithmetic gives: entry (i, j) of A B has degree min over t of
min(deg A[i][t], deg B[t][j]); column j of the solution of A X = B has
degree min(deg A, deg B[:, j]), deg A the lowest entry degree of A; an entry
whose inputs are all floats stays a float.

The module also carries the symmetric-2x2 toolbox used by the frame
adaptation: the quadratic form Q(h) = -det(h) on symmetric matrices, its
polarization, Q-orthogonal complements of 2-planes, a closed-form positive
square root, and a deterministic null basis for indefinite forms.

``expm5`` is a scaling-and-squaring matrix exponential for plain float
matrices (series kernel after scaling the 1-norm below 0.5); it is
deliberately hand-rolled so the homogeneous-model layer has no runtime
dependency on an external implementation.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from . import taylor
from .errors import NotIndefinite, NotPositiveDefinite, SingularMatrix
from .taylor import TaylorScalar

__all__ = [
    "identity",
    "transpose",
    "mat_mul",
    "mat_vec",
    "solve",
    "inverse",
    "jet_matmul",
    "jet_mul",
    "jet_solve",
    "expm5",
    "SymMat2T",
    "congruence",
    "q_form",
    "q_polar",
    "q_complement",
    "spd2_sqrt",
    "null_basis2",
]

_PIVOT_TOL = 1e-12


def _const(x):
    """Constant term of a jet, or the float itself."""
    return x.const if isinstance(x, TaylorScalar) else float(x)


def _sqrt(x):
    return taylor.sqrt(x) if isinstance(x, TaylorScalar) else math.sqrt(x)


def identity(n):
    """n x n identity with float entries (mixes freely with jet entries)."""
    return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]


def transpose(A):
    return [list(row) for row in zip(*A)]


def degrees_of(M):
    """Per-entry degrees of a nested-list matrix; floats count as inf."""
    return np.array(
        [[x.degree if isinstance(x, TaylorScalar) else math.inf for x in row] for row in M]
    )


def _working_degree(degrees):
    """Highest finite entry degree (0 when every entry is a float)."""
    finite = degrees[np.isfinite(degrees)]
    return int(finite.max()) if finite.size else 0


def pack(M, degree):
    """Coefficient array (rows, cols, n_terms(degree)) of a nested-list matrix.

    Jets above `degree` are truncated and jets below it are zero-padded; a
    float x becomes the constant jet x.
    """
    n = taylor.n_terms(degree)
    out = np.zeros((len(M), len(M[0]), n))
    for i, row in enumerate(M):
        for j, x in enumerate(row):
            if isinstance(x, TaylorScalar):
                c = x.coeffs[:n]
                out[i, j, : c.size] = c
            else:
                out[i, j, 0] = x
    return out


def unpack(C, degrees):
    """Nested-list matrix from a coefficient array and per-entry degrees.

    An entry of degree inf becomes the float C[i, j, 0]; any other entry the
    jet of its first n_terms(degree) coefficients.
    """
    return [
        [
            float(c[0]) if math.isinf(d) else TaylorScalar(c[: taylor.n_terms(int(d))])
            for c, d in zip(crow, drow)
        ]
        for crow, drow in zip(C, degrees)
    ]


def resize(C, n):
    """Coefficient array C (..., m) truncated or zero-padded to n coefficients."""
    if C.shape[-1] >= n:
        return C[..., :n]
    out = np.zeros(C.shape[:-1] + (n,))
    out[..., : C.shape[-1]] = C
    return out


# degree -> (n, n) table `shift` with shift[o, b] = a for the multi-indices
# a + b = o of `_mul_table`, and n (a zero slot) where no such a exists.
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


def _mul_matrices(A, degree):
    """Left-multiplication matrices of the jets in A (..., n) at `degree`.

    M[..., o, b] is the coefficient a = o - b of the jet (zero where no
    such a exists), so the coefficients of a jet product are a b = M @ b.
    """
    return resize(A, A.shape[-1] + 1)[..., _shift_index(degree)]


def _operator(A, degree):
    """Left multiplication by a coefficient array A of shape (r, k, n).

    Returns T of shape (r n, k n) with _flat(A B) = T @ _flat(B), so a
    truncated jet-matrix product is one dense matmul.
    """
    r, k, n = A.shape
    return _mul_matrices(A, degree).transpose(0, 2, 1, 3).reshape(r * n, k * n)


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
    return (_mul_matrices(a, degree) @ b[..., None])[..., 0]


def jet_solve(A, B, degree):
    """Solve A X = B for coefficient arrays A (k, k, n) and B (k, m, n).

    The constant part A0 is factored once (LU with partial pivoting).  With
    A = A0 (I + M), where M = A0^-1 (A - A0) has no constant term, the
    solution X = (I + M)^-1 A0^-1 B is the Neumann fixed point X = Y - M X
    with Y = A0^-1 B; each step fixes one more order, so `degree` steps are
    exact.

    Raises
    ------
    SingularMatrix
        If a pivot of the constant part is NaN or at most _PIVOT_TOL times
        the largest constant entry (or 1).
    """
    k = A.shape[0]
    A0 = A[:, :, 0]
    lu, piv, _ = dgetrf(A0)
    tol = _PIVOT_TOL * max(1.0, float(np.abs(A0).max()))
    small = np.flatnonzero(~(np.abs(np.diag(lu)) > tol))  # a NaN pivot is unusable too
    if small.size:
        raise SingularMatrix("no usable pivot in column %d" % small[0])
    N = A.copy()
    N[:, :, 0] = 0.0
    rhs = np.concatenate([N.reshape(k, -1), B.reshape(k, -1)], axis=1)
    sol = dgetrs(lu, piv, rhs)[0]
    T = _operator(sol[:, : N[0].size].reshape(N.shape), degree)
    Y = _flat(sol[:, N[0].size :].reshape(B.shape))
    X = Y
    for _ in range(degree):
        X = Y - T @ X
    return _unflat(X, k)


def mat_mul(A, B):
    """Matrix product of nested-list matrices (entries float or jet).

    Entry (i, j) has degree min over t of min(deg A[i][t], deg B[t][j]),
    and is a float when every one of those entries is a float.
    """
    dA, dB = degrees_of(A), degrees_of(B)
    degrees = np.minimum(dA[:, :, None], dB[None, :, :]).min(axis=1)
    degree = _working_degree(degrees)
    return unpack(jet_matmul(pack(A, degree), pack(B, degree), degree), degrees)


def mat_vec(A, x):
    """Matrix times column vector (vector as a flat list)."""
    return [row[0] for row in mat_mul(A, [[xi] for xi in x])]


def solve(A, B):
    """Solve A X = B over the jet ring (nested-list entry point of `jet_solve`).

    A is a square matrix of floats and jets (size 2..5) and B a flat vector
    or a matrix of columns; X has the shape of B.  Column j of X has degree
    min(deg A, deg B[:, j]), deg A the lowest entry degree of A, and is a
    float column when all of those entries are floats.  Raises
    SingularMatrix as `jet_solve` does.
    """
    vector_rhs = not isinstance(B[0], (list, tuple))
    if vector_rhs:
        B = [[b] for b in B]
    dB = degrees_of(B)
    degrees = np.broadcast_to(np.minimum(degrees_of(A).min(), dB.min(axis=0)), dB.shape)
    degree = _working_degree(degrees)
    X = unpack(jet_solve(pack(A, degree), pack(B, degree), degree), degrees)
    return [x[0] for x in X] if vector_rhs else X


def inverse(A):
    """Matrix inverse via `solve` against the identity."""
    return solve(A, identity(len(A)))


def expm5(M, t=1.0):
    """Matrix exponential exp(t*M) for a float 5x5 (scaling and squaring).

    The argument is halved until its 1-norm is at most 0.5, the exponential
    series is summed to machine precision, and the result is squared back.
    """
    A = np.asarray(M, dtype=float) * float(t)
    norm = np.linalg.norm(A, 1)
    squarings = 0
    if norm > 0.5:
        squarings = int(math.ceil(math.log2(norm / 0.5)))
        A = A / (2.0**squarings)
    X = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, 60):
        term = term @ A / k
        X = X + term
        if np.linalg.norm(term, 1) <= 1e-17 * np.linalg.norm(X, 1):
            break
    for _ in range(squarings):
        X = X @ X
    return X


# ---------------------------------------------------------------------------
# Symmetric 2x2 matrices and the quadratic form Q = -det
# ---------------------------------------------------------------------------


@dataclass
class SymMat2T:
    """Symmetric 2x2 matrix [[a, b], [b, c]] with float or jet entries."""

    a: object
    b: object
    c: object

    def as_matrix(self):
        return [[self.a, self.b], [self.b, self.c]]

    def const(self):
        """Constant-term triple (a0, b0, c0) as floats."""
        return (_const(self.a), _const(self.b), _const(self.c))

    def __add__(self, other):
        return SymMat2T(self.a + other.a, self.b + other.b, self.c + other.c)

    def __sub__(self, other):
        return SymMat2T(self.a - other.a, self.b - other.b, self.c - other.c)

    def scaled(self, s):
        return SymMat2T(self.a * s, self.b * s, self.c * s)


def congruence(h, A):
    """Congruence transform A^T h A of a symmetric 2x2 form."""
    a, b, c = h.a, h.b, h.c
    p, q = A[0][0], A[0][1]
    r, s = A[1][0], A[1][1]
    # columns of A are (p, r) and (q, s)
    new_a = a * p * p + 2.0 * (b * p * r) + c * r * r
    new_b = a * p * q + b * (p * s + q * r) + c * r * s
    new_c = a * q * q + 2.0 * (b * q * s) + c * s * s
    return SymMat2T(new_a, new_b, new_c)


def q_form(h):
    """Quadratic form Q(h) = -det(h) = b^2 - a c (signature (2,1))."""
    return h.b * h.b - h.a * h.c


def q_polar(h1, h2):
    """Polarization of Q: B(h1, h2) = b1 b2 - (a1 c2 + a2 c1)/2."""
    return h1.b * h2.b - (h1.a * h2.c + h2.a * h1.c) * 0.5


def q_complement(h3, h4):
    """A Q-orthogonal complement of span(h3, h4) inside Sym^2.

    In the coordinates (a, b, c) the polarization is v1^T G v2 with
    G = [[0, 0, -1/2], [0, 1, 0], [-1/2, 0, 0]], so the cross product of
    G h3 and G h4 is B-orthogonal to both.  The result is unnormalized and
    smooth in the inputs; it vanishes iff h3, h4 are linearly dependent.
    """

    def g_apply(h):
        return (h.c * -0.5, h.b, h.a * -0.5)

    x1, y1, z1 = g_apply(h3)
    x2, y2, z2 = g_apply(h4)
    return SymMat2T(
        y1 * z2 - z1 * y2,
        z1 * x2 - x1 * z2,
        x1 * y2 - y1 * x2,
    )


def spd2_sqrt(h):
    """Positive square root of a positive-definite symmetric 2x2 form.

    Uses the closed form S = (h + sqrt(det) I) / sqrt(tr + 2 sqrt(det)),
    which is exact by Cayley-Hamilton and stays within jet arithmetic.

    Raises
    ------
    NotPositiveDefinite
        If the constant part of h is not positive definite.
    """
    a0, b0, c0 = h.const()
    scale = max(1.0, a0 * a0, b0 * b0, c0 * c0)
    if a0 <= 0 or a0 * c0 - b0 * b0 <= _PIVOT_TOL * scale:
        raise NotPositiveDefinite(
            "constant part [[%g, %g], [%g, %g]] is not positive definite"
            % (a0, b0, b0, c0)
        )
    root_det = _sqrt(h.a * h.c - h.b * h.b)
    denom = _sqrt(h.a + h.c + 2.0 * root_det)
    inv = 1.0 / denom
    return SymMat2T((h.a + root_det) * inv, h.b * inv, (h.c + root_det) * inv)


def _apply_form(h, w1, w2):
    """Bilinear value w1^T [[a,b],[b,c]] w2."""
    return (
        h.a * w1[0] * w2[0]
        + h.b * (w1[0] * w2[1] + w1[1] * w2[0])
        + h.c * w1[1] * w2[1]
    )


_SQRT_HALF = math.sqrt(0.5)


def null_basis2(h):
    """Deterministic null basis (w1, w2) of an indefinite symmetric 2x2 form.

    Both vectors satisfy w^T h w = 0 and the cross pairing w1^T h w2 = 1.
    The basis is canonical: each direction is scaled so its leading nonzero
    component at the constant level is the pivot, vectors are ordered by
    pivot position (ties broken by the second component, descending), and
    the pairing normalization is split evenly between the two vectors so
    that re-running downstream gauge chains on already-normalized data
    reproduces the identity.

    Raises
    ------
    NotIndefinite
        If the constant part of h is not indefinite.
    """
    a0, b0, c0 = h.const()
    scale = max(1.0, a0 * a0, b0 * b0, c0 * c0)
    if b0 * b0 - a0 * c0 <= _PIVOT_TOL * scale:
        raise NotIndefinite(
            "constant part [[%g, %g], [%g, %g]] is not indefinite" % (a0, b0, b0, c0)
        )

    rotated = max(abs(a0), abs(c0)) < 1e-8 * abs(b0)
    work = h
    if rotated:
        # rotate coordinates by 45 degrees so a diagonal coefficient is large
        work = SymMat2T(
            (h.a + h.c) * 0.5 + h.b, (h.c - h.a) * 0.5, (h.a + h.c) * 0.5 - h.b
        )

    wa, wb, wc = work.a, work.b, work.c
    disc_root = _sqrt(wb * wb - wa * wc)
    ca = abs(_const(wa))
    cc = abs(_const(wc))
    if cc >= ca:
        # parametrize w = (1, s): c s^2 + 2 b s + a = 0
        pair = [
            (1.0, (disc_root - wb) / wc),
            (1.0, ((disc_root + wb) / wc) * -1.0),
        ]
    else:
        # parametrize w = (s, 1): a s^2 + 2 b s + c = 0
        pair = [
            ((disc_root - wb) / wa, 1.0),
            (((disc_root + wb) / wa) * -1.0, 1.0),
        ]
    if rotated:
        pair = [
            (
                (w[0] - w[1]) * _SQRT_HALF,
                (w[0] + w[1]) * _SQRT_HALF,
            )
            for w in pair
        ]

    canon = []
    for w in pair:
        mags = [abs(_const(w[0])), abs(_const(w[1]))]
        lead = 0 if mags[0] > 1e-10 * max(mags[1], 1.0) else 1
        inv = 1.0 / w[lead]
        canon.append(((w[0] * inv, w[1] * inv), lead))
    canon.sort(key=lambda item: (item[1], -_const(item[0][1])))
    w1, w2 = canon[0][0], canon[1][0]

    pairing = _apply_form(h, w1, w2)
    p0 = _const(pairing)
    if abs(p0) <= _PIVOT_TOL:
        raise NotIndefinite("null directions are numerically degenerate")
    sign = 1.0 if p0 > 0 else -1.0
    inv_root = 1.0 / _sqrt(pairing * sign)
    w1 = (w1[0] * inv_root, w1[1] * inv_root)
    w2 = (w2[0] * (inv_root * sign), w2[1] * (inv_root * sign))
    return w1, w2
