"""Moving-frame adaptation for surfaces in R^5 minus the origin.

A frame along a surface is an invertible 5x5 matrix field F whose columns
are (e0, ..., e4) with e0 the position vector.  Its Maurer-Cartan form
Omega = F^-1 dF satisfies de_j = sum_i e_i Omega[i][j].  The adaptation
chain produced here:

* level 1: e1, e2 span the tangent plane (so omega^1_0, omega^2_0 restrict
  to a coframe and omega^0_0 = omega^3_0 = omega^4_0 = 0);
* level 2: the three symmetric matrices (h0, h3, h4) given by Cartan's
  lemma are brought to normal form.  Which normal form applies is decided
  by the sign of the quadratic form Q = -det restricted to the plane
  spanned by (h3, h4): positive definite (space-like) gives
  h3 = diag(1, -1), h4 = offdiag(1), h0 = epsilon*I; indefinite
  (time-like) gives h3 = E11, h4 = E22, h0 = offdiag(1);
* level 3: the translational gauge freedom is used to remove the
  semi-basic parts of omega^0_3 and omega^0_4.

Every reduction step is deterministic, so re-running the chain on an
already-adapted frame returns the identity gauge; cross-point comparisons
of non-invariant quantities are still only meaningful through the
fiber-invariant scalars in :mod:`centroframe.invariants`.

All computations run over truncated Taylor jets held as coefficient arrays
(see :mod:`centroframe.linalg5`) from `frame1` to the invariants, so the
output frame is itself a jet field and further differentiation (for
connection forms and curvature) costs one degree per level.  Every stage
takes one point, or a batch of N points as arrays with a leading axis
(frames (N, 5, 5, n), forms (N, 2, 5, 5, n), ...), and runs the same code
either way.  A check that fails raises the point's error; in a batch, the
failing points raise together as `PointFailures` (`errors.raise_where`),
before any arithmetic that depends on what failed.

A frame has one degree per column (the rules are in `apply_gauge`,
`maurer_cartan` and `MCField`); the position column e0 keeps one order
more than the others from level 2 on, since no gauge changes it.  Levels
2 and 3 are gauges K, and the frames G K that `adapt2_*` and `adapt3`
return state K once, as their `source` (G, K): `maurer_cartan(frame,
base)` takes their forms from the form `base` of G by the gauge law, with
K^-1 in closed form, so after level 1 no frame is multiplied out and no
5x5 system is solved.  The level-2 data are arrays too: `FundamentalData`
holds (h0, h3, h4) as one (..., 3, 3, n) array of their (a, b, c)
entries, and the reduction works on symmetric forms as (..., 3, n)
arrays and on 2x2 jet matrices as (..., 2, 2, n) arrays.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    ArithmeticFailure,
    Degenerate,
    DegenerateOffdiagComponent,
    DegenerateTraceComponent,
    IndependenceFailure,
    NotImmersed,
    NotIndefinite,
    NotPositiveDefinite,
    NotTransversal,
    raise_where,
)
from .linalg5 import (  # noqa: F401  (bench/workloads.py traces adaptation.solve)
    _PIVOT_TOL,
    jet_matmul,
    jet_mul,
    jet_solve,
    solve,
)
from .taylor import apply, constant, degree_of, gradient, n_terms, resize, stack

__all__ = [
    "Frame5T",
    "MCField",
    "FundamentalData",
    "GaugeTransform",
    "SurfaceType",
    "frame1",
    "maurer_cartan",
    "fundamental_matrices",
    "classify_plane",
    "adapt2_spacelike",
    "adapt2_timelike",
    "adapt3",
    "apply_gauge",
]


def _scalar(x):
    """A per-point value as a Python scalar for one point; a batch's array as is."""
    return x.item() if np.ndim(x) == 0 else x


class Frame5T:
    """Jet-valued frame field with columns (e0, ..., e4).

    `coeffs` is the (..., 5, 5, n) coefficient array of the frame matrix
    and `degrees[j]` the degree of column j; coefficients above a column's
    degree carry no meaning.  A frame G K made by `apply_gauge` keeps
    `source` = (G, K), where `maurer_cartan` reads K, and multiplies it out
    when `coeffs` is first read; `const`, the (..., 5, 5) constant part,
    is a float product.  `surface_type` is the case of a frame from
    `adapt2_*` ("SpaceLike" or "TimeLike"), which the level-3 frame keeps,
    and "" for a level-1 frame.
    """

    def __init__(self, coeffs, degrees, surface_type="", source=None):
        self._coeffs = coeffs
        self.degrees = degrees
        self.surface_type = surface_type
        self.source = source

    @property
    def coeffs(self):
        if self._coeffs is None:
            (frame, gauge), w = self.source, max(self.degrees)
            self._coeffs = jet_matmul(resize(frame.coeffs, n_terms(w)), resize(gauge.coeffs, n_terms(w)), w)
        return self._coeffs

    @property
    def const(self):
        if self._coeffs is None:
            frame, gauge = self.source
            return frame.const @ np.ascontiguousarray(gauge.coeffs[..., 0])
        return self._coeffs[..., 0]


@dataclass(eq=False)
class MCField:
    """Maurer-Cartan coefficients: omega^i_j = omega[..., 0, i, j] du + omega[..., 1, i, j] dv.

    `omega` is a (..., 2, 5, 5, n) coefficient array, omega[..., 0, :, :]
    the du parts and omega[..., 1, :, :] the dv parts; `degrees[j]` is the
    degree of column j.

    `projection` expresses all 25 entries in the coframe (omega^1_0,
    omega^2_0) by one 2x2 jet solve: omega^i_j = x1 omega^1_0 + x2 omega^2_0
    with x1 = projection[..., 0, i, j] and x2 = projection[..., 1, i, j];
    column j has degree `projection_degrees[j]` = min(degrees[0], degrees[j]).
    A linear combination of entries projects to the same combination of
    projections.  `project(rows, cols)` projects only the entries in those
    rows and columns, at the highest projection degree of `cols`.
    """

    omega: np.ndarray
    degrees: tuple

    @cached_property
    def projection_degrees(self):
        return tuple(min(self.degrees[0], d) for d in self.degrees)

    @cached_property
    def projection(self):
        return self.project(range(5), range(5))

    def project(self, rows, cols):
        # cu du + cv dv = x1 omega^1_0 + x2 omega^2_0 means C^T (x1, x2) = (cu, cv)
        pd = self.projection_degrees
        degree = max(pd[j] for j in cols)
        n = n_terms(degree)
        batch = self.omega.shape[:-4]
        Ct = resize(self.omega[..., 1:3, 0, :], n)
        rhs = resize(self.omega[..., _axis_index(rows), :, :][..., _axis_index(cols), :], n)
        X = jet_solve(Ct, rhs.reshape(*batch, 2, -1, n), degree)
        return X.reshape(*batch, 2, len(rows), len(cols), n)


def _axis_index(ix):
    """Rows or columns to pick: a range of step 1 as a slice, which takes a
    view, anything else as a list."""
    return slice(ix.start, ix.stop) if isinstance(ix, range) and ix.step == 1 else list(ix)


class SymMat2T(NamedTuple):
    """Entries of a symmetric 2x2 jet matrix [[a, b], [b, c]] of one point,
    as (n,) coefficient arrays."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def const(self):
        """Constant-term triple (a0, b0, c0) as floats."""
        return (float(self.a[0]), float(self.b[0]), float(self.c[0]))


@dataclass(eq=False)
class FundamentalData:
    """Cartan-lemma matrices of a 1-adapted frame.

    `coeffs` is a (..., 3, 3, n) coefficient array: rows h0, h3, h4, the
    symmetric 2x2 coefficient matrices of omega^k_1,2 against the coframe
    (k = 0, 3, 4), and columns their (a, b, c) entries [[a, b], [b, c]], all
    of degree `degree`.  `h0`, `h3` and `h4` are the `SymMat2T` of one
    point.  `asymmetry` is the largest violation of Cartan-lemma symmetry
    (a numerical diagnostic), per point.
    """

    coeffs: np.ndarray
    degree: int
    asymmetry: float

    def _form(self, k):
        return SymMat2T(*self.coeffs[k])

    h0 = property(lambda self: self._form(0))
    h3 = property(lambda self: self._form(1))
    h4 = property(lambda self: self._form(2))


@dataclass
class SurfaceType:
    """Classification of span(h3, h4) by the restriction of Q = -det.

    `gram` is the 2x2 Gram matrix of that restriction in the basis
    (h3, h4) and `det` its determinant, whose sign decides `tag`.  For a
    batch, `tag` is an array of tags and the rest have a leading axis.
    """

    tag: str  # "SpaceLike" | "TimeLike" | "Null"
    gram: np.ndarray
    det: float


@dataclass(eq=False)
class GaugeTransform:
    """A frame change F -> F K, tangent-preserving for K = [[1, 0, r0], [0, A, r], [0, 0, B]].

    `coeffs` is the (..., 5, 5, n) coefficient array of K and `degrees` its
    (5, 5) per-entry degrees, inf for a float entry (the same at every
    point of a batch).  `from_blocks` builds a float gauge from its blocks,
    and `A`, `B` and r = ((r03, r04), (r13, r14), (r23, r24)) read them back
    as Python floats.  They read only the constant part, so they describe
    float gauges, the only kind their readers (the acceptance tests) build.
    The frame F K that `apply_gauge` makes keeps K in its `source`, the
    one place where the gauge of a frame is stated.
    """

    coeffs: np.ndarray
    degrees: np.ndarray

    @classmethod
    def from_blocks(cls, A=None, B=None, r03=0.0, r04=0.0, r13=0.0, r14=0.0, r23=0.0, r24=0.0):
        K = np.eye(5)
        K[1:3, 1:3] = np.eye(2) if A is None else A
        K[3:5, 3:5] = np.eye(2) if B is None else B
        K[0:3, 3:5] = [[r03, r04], [r13, r14], [r23, r24]]
        return cls(K[:, :, None], np.full((5, 5), np.inf))

    A = property(lambda self: self.coeffs[1:3, 1:3, 0].tolist())
    B = property(lambda self: self.coeffs[3:5, 3:5, 0].tolist())
    r = property(lambda self: tuple(map(tuple, self.coeffs[0:3, 3:5, 0].tolist())))

    @cached_property
    def _pattern(self):
        """What K's float entries (the same at every point) say, worked out
        once per gauge: `used[t, j]` unless K[t][j] is the float 0, and
        `unipotent` when A and B are the float identity."""
        is_float = np.isinf(self.degrees)
        K0 = self.coeffs[(0,) * (self.coeffs.ndim - 3)][:, :, 0]
        return ~(is_float & (K0 == 0.0)), bool((is_float & (K0 == _EYE5))[_AB_BLOCKS].all())


_EYE5 = np.eye(5)
_AB_BLOCKS = np.zeros((5, 5), dtype=bool)  # where A and B sit in a gauge
_AB_BLOCKS[1:3, 1:3] = _AB_BLOCKS[3:5, 3:5] = True


def apply_gauge(frame, gauge):
    """New frame F K, with the frame's `surface_type`.

    Column j of F K has degree min over the rows t that it uses (K[t][j]
    not the float 0) of min(deg F[:, t], deg K[t][j]).  A float unit column
    e_j so keeps deg F[:, j], and a block gauge [[1, 0, r0], [0, A, r],
    [0, 0, B]] keeps e0's degree.  The new frame keeps (F, K) as its
    `source`, and the product, one jet product at its largest column
    degree, is taken when its `coeffs` are first read.
    """
    used, _ = gauge._pattern
    bounds = np.where(used, np.minimum(np.array(frame.degrees)[:, None], gauge.degrees), np.inf)
    degrees = tuple(int(d) for d in bounds.min(axis=0).tolist())
    return Frame5T(None, degrees, surface_type=frame.surface_type, source=(frame, gauge))


# ---------------------------------------------------------------------------
# Level 1
# ---------------------------------------------------------------------------


# Each check compares a ratio that row and column scalings of its data do not
# change with one of four tolerances, and has no absolute floor: this one, where
# a ratio reads as dependent, _PIVOT_TOL (linalg5), _NULL_TOL and _ROTATE_TOL
_DEPENDENT_TOL = 1e-10
# largest |surface jet coefficient| that frame1 takes: 2^24 below the float
# range leaves room for two derivative orders and the five-entry norms
_JET_MAX = 2.0**1000
# largest ratio of |f|, |f_u|, |f_v| that frame1 takes, so level 2's products stay finite
_SPREAD_MAX = 2.0**64


def _norm(x, axis):
    """The 2-norm along `axis` (Frobenius for two axes), as np.linalg.norm
    computes it, without its argument handling, but scaled as LAPACK's dnrm2
    is: the entries are divided by the power of two of their largest |entry|
    before squaring, so no square overflows, and the root is scaled back.  A
    power of two is exact, so wherever no square under- or overflowed the
    result is the unscaled one to the bit."""
    _, e = np.frexp(np.maximum.reduce(np.abs(x), axis=axis, keepdims=True))
    y = np.ldexp(x, -e)
    return np.squeeze(np.ldexp(np.sqrt(np.add.reduce(y * y, axis=axis, keepdims=True)), e), axis)


def frame1(jet5):
    """Initial adapted frame from the 1-jet of the position vector.

    `jet5` is the five surface jets of one point, or their (5, n)
    coefficients, or (N, 5, n) for a batch (`eval_surface`).  Columns are e0 = f,
    e1 = f_u, e2 = f_v, and two constant columns: the last two columns of
    the complete QR factor of [e0 e1 e2] at the base point, an orthonormal
    basis of the complement of their span, scaled by |f(p)|.  So
    frame1(c f) = c frame1(f) for any scalar c, and the frame stays as well
    conditioned as its first three columns.  Every column has degree d - 1
    for surface jets of lowest degree d.

    Raises
    ------
    NotImmersed
        If f_u, f_v are dependent at the base point.
    NotTransversal
        If the position vector lies in the tangent plane at the base point.
    ArithmeticFailure
        If a surface jet coefficient exceeds _JET_MAX in size, where the
        derivatives and norms of the frame would overflow, or if |f|, |f_u|
        and |f_v| differ by more than _SPREAD_MAX.
    """
    if isinstance(jet5, np.ndarray):
        degree = degree_of(jet5.shape[-1]) - 1
        f = jet5
    else:
        degree = min(j.degree for j in jet5) - 1
        f = np.array([j.coeffs[: n_terms(degree + 1)] for j in jet5])
    raise_where(np.abs(f).max(axis=(-2, -1)) > _JET_MAX, lambda i: ArithmeticFailure(
        "surface jets are too large to differentiate at the base point"))
    coeffs = np.zeros(f.shape[:-2] + (5, 5, n_terms(degree)))
    coeffs[..., 0, :] = f[..., : n_terms(degree)]
    coeffs[..., 1:3, :] = gradient(f, degree + 1)

    P = coeffs[..., :3, 0]
    norms = _norm(P, -2)
    _, e = np.frexp(np.maximum(norms[..., 1], norms[..., 2]))
    # the tangent columns over the power of two of their larger norm: the
    # Gram is of order one, its determinant test free of overflow at any scale
    P12 = np.ldexp(P[..., 1:], -e[..., None, None])
    P12t = P12.swapaxes(-1, -2)
    gram = P12t @ P12
    # det over its Hadamard bound g11 g22 is the squared sine of their angle
    raise_where(np.linalg.det(gram) <= _DEPENDENT_TOL ** 2 * gram[..., 0, 0] * gram[..., 1, 1],
                lambda i: NotImmersed("tangent vectors are dependent at the base point"))
    # rejection of e0 from span(e1, e2)
    coeff = np.linalg.solve(gram, P12t @ P[..., 0, None])
    resid = _norm(P[..., 0, None] - P12 @ coeff, (-2, -1))
    raise_where(resid <= _DEPENDENT_TOL * norms[..., 0],
                lambda i: NotTransversal("position vector lies in the tangent plane"))
    raise_where(norms.max(axis=-1) > _SPREAD_MAX * norms.min(axis=-1), lambda i: ArithmeticFailure(
        "position and tangent vectors differ in size beyond the float range of the frame"))

    # complete with an orthonormal basis of the complement, scaled by |f(p)|
    Q, _ = np.linalg.qr(np.ascontiguousarray(P), mode="complete")
    coeffs[..., 3:, 0] = Q[..., 3:] * norms[..., 0, None, None]
    return Frame5T(coeffs=coeffs, degrees=(degree,) * 5)


_ADJUGATE = np.array([3, 1, 2, 0])  # (a, b, c, d) -> (d, b, c, a), then b and c negated


def _inverses2(A, B, degree):
    """A^-1 and B^-1 of 2x2 jet matrices A, B (..., 2, 2, n), as adjugates
    over determinants that share one reciprocal: 1/det A = det B / (det A det B)."""
    M = stack([A, B], axis=-4)
    M = M.reshape(M.shape[:-3] + (4, M.shape[-1]))  # the (a, b, c, d) of A and of B
    ad_bc = jet_mul(M[..., 0:2, :], M[..., 3:1:-1, :], degree)
    det = ad_bc[..., 0, :] - ad_bc[..., 1, :]
    both = apply("reciprocal", jet_mul(det[..., 0, :], det[..., 1, :], degree), degree)
    inv_det = jet_mul(det[..., ::-1, :], both[..., None, :], degree)
    adj = M.take(_ADJUGATE, axis=-2)  # (d, -b, -c, a)
    np.negative(adj[..., 1:3, :], out=adj[..., 1:3, :])
    inverses = jet_mul(adj, inv_det[..., None, :], degree).reshape(A.shape[:-3] + (2, 2, 2, -1))
    return inverses[..., 0, :, :, :], inverses[..., 1, :, :, :]


def _times(X, M, degree):
    """X M for coefficient arrays X (..., r, k, n) and M (..., k, m, n), as
    (M^T X^T)^T: the jet operator is built from the smaller factor M."""
    Y = jet_matmul(M.swapaxes(-3, -2), X.swapaxes(-3, -2), degree)
    return Y.swapaxes(-3, -2)


def _gauge_law(Og, gauge, degree):
    """Omega = K^-1 (Omega_G K + dK) for K = [[1, 0, r0], [0, A, r], [0, 0, B]].

    Omega_G (..., 2, 5, 5, n) is the form of G, and the result is the form
    of G K at `degree`.  K^-1 goes block by block, with 2x2 adjugate
    inverses: for R = (r0; r) and Z = Omega_G K + dK, the rows of K^-1 Z
    are W = B^-1 Z_34 (rows 3-4), Z_0 - r0 W and A^-1 (Z_12 - r W).  When
    A and B are the float identity, as at level 3, nothing is inverted.
    """
    K = resize(gauge.coeffs, n_terms(degree + 1))
    batch = K.shape[:-3]
    Z = gradient(K.reshape(*batch, 25, -1), degree + 1).swapaxes(-3, -2)
    Z = Z.reshape(*batch, 2, 5, 5, -1)  # (dK/du, dK/dv)
    K, O = resize(K, n_terms(degree)), resize(Og, n_terms(degree))
    # at level 3 A = B = I are floats: K = I + N with N^2 = 0, so K^-1 = I - N
    _, unipotent = gauge._pattern
    # Omega_G K by column blocks: K keeps e0, takes (e1, e2) to A and
    # (e3, e4) to its columns 3-4
    Z[..., 0, :] += O[..., 0, :]
    Z[..., 1:3, :] += O[..., 1:3, :] if unipotent else _times(
        O[..., 1:3, :], K[..., None, 1:3, 1:3, :], degree)
    Z[..., 3:5, :] += _times(O, K[..., None, :, 3:5, :], degree)
    W = Z[..., 3:5, :, :]
    if not unipotent:
        Ai, Bi = _inverses2(K[..., 1:3, 1:3, :], K[..., 3:5, 3:5, :], degree)
        W = jet_matmul(Bi[..., None, :, :, :], W, degree)
    V = Z[..., 0:3, :, :] - jet_matmul(K[..., None, 0:3, 3:5, :], W, degree)
    if not unipotent:
        V[..., 1:3, :, :] = jet_matmul(Ai[..., None, :, :, :], V[..., 1:3, :, :], degree)
    return np.concatenate([V, W], axis=-3)


def maurer_cartan(frame, base=None):
    """Maurer-Cartan coefficients Omega = F^-1 dF of a jet frame field.

    One solve of F against [dF/du | dF/dv] on coefficient arrays.  For a
    frame G K made by `apply_gauge` (its `source` is (G, K)), `base`, the
    MCField of G, gives Omega by the gauge law K^-1 (Omega_G K + dK)
    instead, in closed form (`_gauge_law`), with K read from the frame, and
    only the frame's degrees are read.  Near a null point the adapted
    frames are badly conditioned and solving against them loses up to
    eight digits, while the gauges are block triangular and inverting them
    does not.  Column j of Omega has degree min(min deg F, deg F[:, j] - 1)
    either way; a frame column of degree 0 has no known derivative, and a
    `base` for a frame without a `source` has no gauge: both raise
    ValueError.
    """
    low = min(frame.degrees)
    if low < 1:
        raise ValueError("the Maurer-Cartan form needs frame columns of degree >= 1")
    if base is not None and frame.source is None:
        raise ValueError("a base form needs a frame made by apply_gauge")
    degrees = tuple(int(min(low, d - 1)) for d in frame.degrees)
    w = max(degrees)
    n = n_terms(w)
    if base is None:
        M = resize(frame.coeffs, n_terms(w + 1))
        batch = M.shape[:-3]
        dM = gradient(M, w + 1).swapaxes(-3, -2).reshape(*batch, 5, 10, -1)  # [dM/du | dM/dv]
        X = jet_solve(resize(M, n), dM, w)
        omega = X.reshape(*batch, 5, 2, 5, n).swapaxes(-4, -3)
    else:
        omega = _gauge_law(base.omega, frame.source[1], w)
    return MCField(omega=np.ascontiguousarray(omega), degrees=degrees)


# ---------------------------------------------------------------------------
# Level 1 -> 2
# ---------------------------------------------------------------------------


def fundamental_matrices(mc):
    """Cartan-lemma matrices h0, h3, h4 of a 1-adapted frame.

    For k in {0, 3, 4} solves omega^k_j = h^k_j1 omega^1_0 + h^k_j2 omega^2_0
    against the coframe and symmetrizes the result (the off-diagonal entries
    agree up to roundoff; the observed gap is reported as `asymmetry`).  The
    matrices get the lower of the degrees of projection columns 1 and 2.

    Raises
    ------
    Degenerate
        If the triple (h0, h3, h4) fails the 3x3 independence test at the
        base point.
    """
    d = mc.projection_degrees
    degree = min(d[1], d[2])
    # X[..., i, k, j] is the omega^(i+1)_0 coefficient of omega^(0, 3, 4)[k]_(j+1)
    X = mc.project([0, 3, 4], range(1, 3))[..., : n_terms(degree)]
    x1, x2 = X[..., 0, :, :, :], X[..., 1, :, :, :]
    H = stack([x1[..., 0, :], (x2[..., 0, :] + x1[..., 1, :]) * 0.5, x2[..., 1, :]], axis=-2)
    asym = np.abs(x2[..., 0, 0] - x1[..., 1, 0]).max(axis=-1)
    # over a power of two, so no product overflows, against Hadamard's bound both ways
    _, e = np.frexp(np.abs(H[..., 0]).max(axis=(-2, -1)))
    T = np.ldexp(H[..., 0], -e[..., None, None])
    bound = np.minimum(np.hypot.reduce(T, axis=-1).prod(axis=-1), np.hypot.reduce(T, axis=-2).prod(axis=-1))
    raise_where(np.abs(np.linalg.det(T)) <= _DEPENDENT_TOL * bound,
                lambda i: Degenerate("second-order data span less than three dimensions"))
    return FundamentalData(coeffs=H, degree=degree, asymmetry=_scalar(asym))


# Polarization of Q(h) = -det(h) = b^2 - a c on (a, b, c) triples:
# B(h1, h2) = h1 . _Q_POLAR h2, so Q(h) = B(h, h).  Q has signature (2, 1).
_Q_POLAR = np.array([[0.0, 0.0, -0.5], [0.0, 1.0, 0.0], [-0.5, 0.0, 0.0]])


_TAGS = np.array(["SpaceLike", "TimeLike", "Null"])  # the tags by index, for `classify_plane`
_NULL_TOL = 1e-8  # a Gram determinant within this share of its larger term is null
_ROTATE_TOL = 1e-8  # a form whose diagonal is below this share of |b| is rotated first


def classify_plane(fund):
    """Type of the plane spanned by (h3, h4) under Q = -det.

    The Gram matrix V G V^T of the restriction of Q (V the constant triples
    of h3 and h4, G the polarization matrix of Q) decides: positive
    determinant means space-like, negative means time-like, and a
    determinant within _NULL_TOL max(|g11 g22|, g12^2) sin^2 is null, sin
    the sine of the angle of h3 and h4, so that a basis close to dependent
    (an anisotropic GL(5) image) does not read as null.  Each test is a
    ratio that scalings of h3 and h4 do not change, so it runs on the
    triples over the powers of two of their largest |entries|, where
    nothing over- or underflows; `gram` and `det` are scaled back, exactly
    wherever they are in the float range.

    Raises
    ------
    IndependenceFailure
        If h3 and h4 are linearly dependent at the base point: their cross
        product within _DEPENDENT_TOL times the product of their norms.
    """
    _, e = np.frexp(np.abs(fund.coeffs[..., 1:, :, 0]).max(axis=-1))
    V = np.ldexp(fund.coeffs[..., 1:, :, 0], -e[..., None])
    norms = _norm(V, -1)
    h3, h4 = V[..., 0, :], V[..., 1, :]
    cross = np.sqrt(sum(np.square(h3[..., i] * h4[..., j] - h3[..., j] * h4[..., i])
                        for i, j in ((1, 2), (2, 0), (0, 1))))
    raise_where(cross <= _DEPENDENT_TOL * norms[..., 0] * norms[..., 1],
                lambda i: IndependenceFailure("h3 and h4 are linearly dependent"))
    gram = V @ _Q_POLAR @ V.swapaxes(-1, -2)
    det = np.linalg.det(gram)
    sin2 = np.square(cross / (norms[..., 0] * norms[..., 1]))
    null = np.abs(det) <= _NULL_TOL * sin2 * np.maximum(np.abs(gram[..., 0, 0] * gram[..., 1, 1]),
                                                        np.square(gram[..., 0, 1]))
    tag = _TAGS[np.where(null, 2, ~(det > 0))]  # a NaN det is time-like
    with np.errstate(over="ignore"):  # a det beyond the float range reads as inf
        gram = np.ldexp(gram, e[..., :, None] + e[..., None, :])
        det = np.ldexp(det, 2 * (e[..., 0] + e[..., 1]))
    return SurfaceType(tag=_scalar(tag), gram=gram, det=_scalar(det))


# ---------------------------------------------------------------------------
# Symmetric 2x2 jet forms for level 2
#
# A form [[a, b], [b, c]] is a coefficient array (..., 3, n) of its (a, b, c)
# entries, and a 2x2 jet matrix is a coefficient array (..., 2, 2, n);
# `degree` is the working degree, n = n_terms(degree).
# ---------------------------------------------------------------------------


def _entries(h):
    """The (a, b, c) entries of forms h (..., 3, n)."""
    return h[..., 0, :], h[..., 1, :], h[..., 2, :]


def _q_polar(h1, h2, degree):
    """Polarization B(h1, h2) of two forms as a jet; Q(h) = B(h, h)."""
    x, y, z = _entries(jet_mul(h1, _Q_POLAR @ h2, degree))
    return x + y + z


# The terms of a cross product g3 x g4 for `_q_complement`: g3_i g4_j for
# (i, j) = (1, 2), (2, 0), (0, 1), then g3_j g4_i.
_CROSS_LEFT = np.array([1, 2, 0, 2, 0, 1])
_CROSS_RIGHT = np.array([2, 0, 1, 1, 2, 0])


def _q_complement(h3, h4, degree):
    """A Q-orthogonal complement of span(h3, h4) inside Sym^2.

    The cross product of G h3 and G h4 (G = _Q_POLAR) is B-orthogonal to
    both.  It is unnormalized and smooth in the inputs, and vanishes iff
    h3, h4 are linearly dependent.
    """
    g3, g4 = _Q_POLAR @ h3, _Q_POLAR @ h4
    z = jet_mul(g3.take(_CROSS_LEFT, axis=-2), g4.take(_CROSS_RIGHT, axis=-2), degree)
    return z[..., :3, :] - z[..., 3:, :]


# The symmetric square of A = [[p, q], [r, s]] for `_congruence`: the factors
# of the ten products pp, pr, rr, pq, ps, qr, rs, qq, qs, ss as indices into
# (p, q, r, s); then 2 pr, 2 qs and ps + qr are appended as 10, 11 and 12,
# and S, with rows (pp, 2 pr, rr), (pq, ps + qr, rs), (qq, 2 qs, ss), is read.
_SQUARE_LEFT = np.array([0, 0, 2, 0, 0, 1, 2, 1, 1, 3])
_SQUARE_RIGHT = np.array([0, 2, 2, 1, 3, 2, 3, 1, 3, 3])
_SQUARE = np.array([0, 10, 2, 3, 12, 6, 7, 11, 9])


def _congruence(H, A, degree):
    """Congruences A^T h A of the forms h in H (..., k, 3, n), as (..., k, 3, n).

    (a, b, c) -> A^T h A is linear with the symmetric square S of A as its
    matrix, so the k forms take one jet product by S^T.
    """
    pqrs = A.reshape(A.shape[:-3] + (4, A.shape[-1]))
    z = jet_mul(pqrs.take(_SQUARE_LEFT, axis=-2), pqrs.take(_SQUARE_RIGHT, axis=-2), degree)
    z = np.concatenate([z, z[..., 1:9:7, :] * 2.0, z[..., 4:5, :] + z[..., 5:6, :]], axis=-2)
    S = z.take(_SQUARE, axis=-2).reshape(z.shape[:-2] + (3, 3, z.shape[-1]))
    # S^T as a view: the jet product's BLAS call depends on the layout
    return jet_matmul(H, S.swapaxes(-3, -2), degree)


def _constant_part(h, sign):
    """The constant terms (a0, b0, c0) of forms h, which must be positive
    definite (`sign` 1: a0 > 0) or indefinite (`sign` -1), with
    sign (a0 c0 - b0^2) above _PIVOT_TOL max(|a0 c0|, b0^2), the larger of
    its terms, which no diagonal change of basis changes."""
    a0, b0, c0 = (x[..., 0] for x in _entries(h))
    bad = sign * (a0 * c0 - b0 * b0) <= _PIVOT_TOL * np.maximum(np.abs(a0 * c0), b0 * b0)
    if sign > 0:
        bad |= a0 <= 0
        error, kind = NotPositiveDefinite, "positive definite"
    else:
        error, kind = NotIndefinite, "indefinite"
    raise_where(bad, lambda i: error(
        "constant part [[%g, %g], [%g, %g]] is not %s" % (a0[i], b0[i], b0[i], c0[i], kind)))
    return a0, b0, c0


def _spd_inverse_sqrt(h, degree):
    """Inverse of the positive square root of a positive-definite form.

    The root is S = (h + sqrt(det) I) / sqrt(tr + 2 sqrt(det)) by
    Cayley-Hamilton, so S^-1 = (adj h + sqrt(det) I) / (sqrt(det)
    sqrt(tr + 2 sqrt(det))).  The two factors of the denominator are kept
    apart so that each series sees a constant term bounded away from zero.

    Raises
    ------
    NotPositiveDefinite
        If the constant part of h is not positive definite.
    """
    _constant_part(h, 1.0)
    a, b, c = _entries(h)
    root_det = apply("sqrt", -_q_polar(h, h, degree), degree)
    r = apply(("reciprocal", "rsqrt"), stack([root_det, a + c + 2.0 * root_det], axis=-2), degree)
    k = jet_mul(r[..., 0, :], r[..., 1, :], degree)
    minus_b = -b
    adj = stack([c + root_det, minus_b, minus_b, a + root_det], axis=-2)
    return jet_mul(adj, k[..., None, :], degree).reshape(h.shape[:-2] + (2, 2, h.shape[-1]))


_SQRT_HALF = math.sqrt(0.5)


def _null_basis(h, degree):
    """Deterministic null basis of an indefinite form, as the columns (w1, w2)
    of a 2x2 jet matrix A.

    Both vectors satisfy w^T h w = 0 and the cross pairing w1^T h w2 = 1,
    so A^T h A = offdiag(1).  The basis is canonical: each direction is
    scaled so its leading nonzero component at the constant level is 1,
    vectors are ordered by the position of that component (ties broken by
    the second component, descending), and the pairing normalization is
    split evenly between the two vectors so that re-running downstream
    gauge chains on already-normalized data reproduces the identity.  The
    choices are made per point, and each point divides only by the entry
    it chose.

    Raises
    ------
    NotIndefinite
        If the constant part of h is not indefinite.
    """
    a0, b0, c0 = _constant_part(h, -1.0)

    # where both diagonal coefficients are below _ROTATE_TOL |b|, rotate the
    # coordinates by 45 degrees so that a diagonal coefficient is large
    rotated = (np.maximum(np.abs(a0), np.abs(c0)) < _ROTATE_TOL * np.abs(b0))[..., None, None]
    a, b, c = _entries(h)
    work = np.where(rotated, stack([(a + c) * 0.5 + b, (c - a) * 0.5, (a + c) * 0.5 - b],
                                      axis=-2), h)
    disc_root = apply("sqrt", _q_polar(work, work, degree), degree)
    a, b, c = _entries(work)
    # the roots s of c s^2 + 2 b s + a = 0, for w = (1, s), when |c| >= |a|;
    # else of a s^2 + 2 b s + c = 0, for w = (s, 1)
    free = (np.abs(c[..., 0]) >= np.abs(a[..., 0]))[..., None, None]
    roots = stack([disc_root - b, -(disc_root + b)], axis=-2)
    s = jet_mul(roots, apply("reciprocal", np.where(free[..., 0], c, a), degree)[..., None, :],
                degree)
    one = constant(1.0, degree)
    W = stack([np.where(free, one, s), np.where(free, s, one)], axis=-2)  # W[..., k] = w_k
    W = np.where(rotated[..., None], stack([W[..., 0, :] - W[..., 1, :],
                                               W[..., 0, :] + W[..., 1, :]], axis=-2) * _SQRT_HALF,
                 W)

    # each w_k's lead is its first component unless that is within _DEPENDENT_TOL of its second
    m0, m1 = np.abs(W[..., :, 0, 0]), np.abs(W[..., :, 1, 0])
    lead = np.where(m0 > _DEPENDENT_TOL * m1, 0, 1)
    leads = np.where((lead == 0)[..., None], W[..., 0, :], W[..., 1, :])
    w = jet_mul(W, apply(("reciprocal", "reciprocal"), leads, degree)[..., None, :], degree)
    lead0, lead1, key0, key1 = lead[..., 0], lead[..., 1], -w[..., 0, 1, 0], -w[..., 1, 1, 0]
    w0, w1 = w[..., 0, :, :], w[..., 1, :, :]
    swap = ((lead1 < lead0) | ((lead1 == lead0) & (key1 < key0)))[..., None, None]
    A = stack([np.where(swap, w1, w0), np.where(swap, w0, w1)], axis=-2)

    A0 = A[..., 0]  # the pairing is +-sqrt(-det h) det A: it fails only where w1 || w2
    raise_where(np.abs(np.linalg.det(A0)) <= _DEPENDENT_TOL * np.hypot.reduce(A0, axis=-2).prod(axis=-1),
                lambda i: NotIndefinite("null directions are numerically degenerate"))
    pairing = _congruence(h[..., None, :, :], A, degree)[..., 0, 1, :]
    p0 = pairing[..., 0]
    sign = np.where(p0 > 0, 1.0, -1.0)[..., None]
    inv_root = apply("rsqrt", pairing * sign, degree)
    return jet_mul(A, stack([inv_root, inv_root * sign], axis=-2)[..., None, :, :], degree)


_LEVEL2_CELLS = _AB_BLOCKS.copy()  # the jet entries of a level-2 gauge: A, B and r0
_LEVEL2_CELLS[0, 3:5] = True
_COLUMNS = np.array([0, 1, 0, 1, 0, 1])  # the column of each entry of a 2x2 block, then of a pair


def _level2_gauge(A1, B, r0, s, degree):
    """Closed form of the level-2 gauge K(A1) K(B) K(r0) K(diag s, diag s^2).

    The four block gauges compose to [[1, 0, r0], [0, A1, 0], [0, 0, B]]
    with its columns scaled by (1, s1, s2, s1^2, s2^2): A = A1 diag(s),
    B diag(s^2) and r0 diag(s^2).  A1 and B are (..., 2, 2, n) coefficient
    arrays, r0 and s are (..., 2, n), all of degree `degree`.
    """
    batch, n = s.shape[:-2], s.shape[-1]
    K = np.zeros(batch + (5, 5, n))
    K[..., 0, 0, 0] = 1.0
    # (A1 diag(s), s^2), then (B diag(s^2), r0 diag(s^2)), each as one
    # product: the four entries of a 2x2 block and then the pair
    x = jet_mul(np.concatenate([A1.reshape(batch + (4, n)), s], axis=-2), s.take(_COLUMNS, axis=-2), degree)
    K[..., 1:3, 1:3, :] = x[..., :4, :].reshape(batch + (2, 2, n))
    s2 = x[..., 4:, :]
    x = jet_mul(np.concatenate([B.reshape(batch + (4, n)), r0], axis=-2), s2.take(_COLUMNS, axis=-2), degree)
    K[..., 3:5, 3:5, :] = x[..., :4, :].reshape(batch + (2, 2, n))
    K[..., 0, 3:5, :] = x[..., 4:, :]
    return GaugeTransform(K, np.where(_LEVEL2_CELLS, float(degree), np.inf))


def _adapt2(frame, fund, surface_type):
    """Level 2 of either case, as (frame2, gauge, epsilon).

    A1 takes the Q-complement n of span(h3, h4) to I (by its inverse square
    root) or to offdiag(1) (by a null basis), so that of the forms
    (p0, p3, p4) = A1^T (h0, h3, h4) A1, (p3, p4) lie in the trace-free or
    in the diagonal plane.  B, their coordinates there ((a - c)/2 and b, or
    a and c), maps them to the plane's reference basis; r0, those of p0,
    subtracts p0's part in the plane; and the rest, s I or s offdiag(1), is
    scaled to epsilon I or offdiag(1) by lam = |s|^-1/2 on e1 and lam or
    sign(s) lam on e2.

    Raises
    ------
    IndependenceFailure
        If |det B| is within _DEPENDENT_TOL of its Hadamard bound.
    DegenerateTraceComponent, DegenerateOffdiagComponent
        If |s| is within _DEPENDENT_TOL of |p0| (the scale is undetermined).
    """
    spacelike = surface_type == "SpaceLike"
    d = fund.degree
    n = _q_complement(fund.coeffs[..., 1, :, :], fund.coeffs[..., 2, :, :], d)
    if spacelike:  # n's sign: a positive trace
        negative = n[..., 0, 0] + n[..., 2, 0] < 0
        to_normal, plane, error, part = _spd_inverse_sqrt, "trace-free", DegenerateTraceComponent, "pure-trace"
    else:  # a positive entry of largest |entry|
        lead = np.expand_dims(np.argmax(np.abs(n[..., 0]), axis=-1), -1)
        negative = np.take_along_axis(n[..., 0], lead, -1)[..., 0] < 0
        to_normal, plane, error, part = _null_basis, "diagonal", DegenerateOffdiagComponent, "off-diagonal"
    A1 = to_normal(np.where(negative[..., None, None], -n, n), d)
    P = _congruence(fund.coeffs, A1, d)  # the forms (p0, p3, p4)
    if spacelike:
        a, b, c = _entries(P)
        coords, s = stack([(a - c) * 0.5, b], axis=-2), (a[..., 0, :] + c[..., 0, :]) * 0.5
    else:
        coords, s = P[..., ::2, :], P[..., 0, 1, :]
    r0, B = coords[..., 0, :, :], coords[..., 1:, :, :]
    det_B = B[..., 0, 0, 0] * B[..., 1, 1, 0] - B[..., 0, 1, 0] * B[..., 1, 0, 0]
    raise_where(np.abs(det_B) <= _DEPENDENT_TOL * np.hypot.reduce(B[..., 0], axis=-1).prod(axis=-1),
                lambda i: IndependenceFailure("normalized pair does not span the %s plane" % plane))
    raise_where(np.abs(s[..., 0]) <= _DEPENDENT_TOL * np.hypot.reduce(P[..., 0, :, 0], axis=-1),
                lambda i: error("%s part of h0 vanishes" % part))
    positive = s[..., 0] > 0
    sign = np.where(positive, 1.0, -1.0)[..., None]
    lam = apply("rsqrt", s * sign, d)
    gauge = _level2_gauge(A1, B, r0, stack([lam, lam if spacelike else lam * sign], axis=-2), d)
    epsilon = np.where(positive, 1, -1) if spacelike else np.zeros(positive.shape, dtype=int)
    frame2 = apply_gauge(frame, gauge)
    frame2.surface_type = surface_type
    return frame2, gauge, _scalar(epsilon)


def adapt2_spacelike(frame, fund):
    """Reduce a 1-adapted frame over a space-like point to level 2.

    Returns (frame2, gauge, epsilon) where the new frame satisfies
    h3 = diag(1, -1), h4 = offdiag(1), h0 = epsilon * I; see `_adapt2`.
    """
    return _adapt2(frame, fund, "SpaceLike")


def adapt2_timelike(frame, fund):
    """Reduce a 1-adapted frame over a time-like point to level 2.

    Returns (frame2, gauge, 0) where the new frame satisfies h3 = E11,
    h4 = E22, h0 = offdiag(1); see `_adapt2`.  The 0 is epsilon, which the
    time-like case does not have (per point for a batch).
    """
    return _adapt2(frame, fund, "TimeLike")


# ---------------------------------------------------------------------------
# Level 2 -> 3
# ---------------------------------------------------------------------------


def _check_case(surface_type, epsilon):
    """Raise ValueError unless the case is known and a space-like epsilon is +1 or -1."""
    if surface_type not in ("SpaceLike", "TimeLike"):
        raise ValueError("surface_type must be SpaceLike or TimeLike")
    if surface_type == "SpaceLike" and not (
            (np.abs(epsilon) == 1).all() if isinstance(epsilon, np.ndarray) else abs(epsilon) == 1):
        raise ValueError("space-like epsilon must be +1 or -1")


def adapt3(frame, mc, surface_type, epsilon=0):
    """Remove the semi-basic parts of omega^0_3 and omega^0_4.

    The gauge is [[1, 0, 0], [0, I, r], [0, 0, I]] with r read off the
    coframe projection of omega^0_3 and omega^0_4, so only columns 3-4 of
    the frame change.

    Parameters
    ----------
    frame : Frame5T
        A 2-adapted frame.
    mc : MCField
        Maurer-Cartan field of that frame.
    surface_type : str
        "SpaceLike" or "TimeLike".
    epsilon : int
        Sign of h0 for the space-like case (per point for a batch), +1 or
        -1 there; the time-like case does not read it.

    Returns
    -------
    (Frame5T, GaugeTransform)
    """
    _check_case(surface_type, epsilon)
    # h[..., k, c] is the omega^(k+1)_0 coefficient of omega^0_(3+c)
    h = mc.project(range(1), range(3, 5))[..., 0, :, :]
    if surface_type == "SpaceLike":
        r = h * -np.asarray(epsilon, dtype=float)[..., None, None, None]
    else:
        r = -h[..., ::-1, :, :]
    d = mc.projection_degrees[3:5]
    K = constant(np.broadcast_to(_EYE5, h.shape[:-3] + (5, 5)), max(d))
    K[..., 1:3, 3:5, :] = resize(r, K.shape[-1])
    degrees = np.full((5, 5), np.inf)
    degrees[1:3, 3:5] = d
    gauge = GaugeTransform(K, degrees)
    return apply_gauge(frame, gauge), gauge
