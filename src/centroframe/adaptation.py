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
connection forms and curvature) costs one degree per level.  A frame has
one degree per column (the rules are in `apply_gauge`, `maurer_cartan` and
`MCField`); the position column e0 keeps one order more than the others
from level 2 on, since no gauge changes it.  The level-2 data are arrays
too: `FundamentalData` holds (h0, h3, h4) as one (3, 3, n) array of their
(a, b, c) entries, and the reduction works on symmetric forms as (3, n)
arrays and on 2x2 jet matrices as (2, 2, n) arrays.  Nested lists of
TaylorScalar entries are built on demand only.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    Degenerate,
    DegenerateOffdiagComponent,
    DegenerateTraceComponent,
    IndependenceFailure,
    NotImmersed,
    NotIndefinite,
    NotPositiveDefinite,
    NotTransversal,
)
from .linalg5 import (  # noqa: F401  (bench/workloads.py traces adaptation.solve)
    _PIVOT_TOL,
    _working_degree,
    degrees_of,
    identity,
    jet_matmul,
    jet_mul,
    jet_solve,
    pack,
    resize,
    solve,
    unpack,
)
from .taylor import TaylorScalar, apply, derivative, n_terms

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


def _jet(c, degree):
    """TaylorScalar of the first n_terms(degree) coefficients of c."""
    return TaylorScalar(c[: n_terms(degree)])


def _nested(C, degrees):
    """Nested list of jets from a (5, 5, n) array with one degree per column."""
    return unpack(C, np.broadcast_to(degrees, (5, 5)))


@dataclass(eq=False)
class Frame5T:
    """Jet-valued frame field with columns (e0, ..., e4).

    `coeffs` is the (5, 5, n) coefficient array of the frame matrix and
    `degrees[j]` the degree of column j; coefficients above a column's
    degree carry no meaning.  `matrix` is the nested list of TaylorScalar
    entries, built on first use.
    """

    coeffs: np.ndarray
    degrees: tuple
    level: int
    surface_type: str = ""
    epsilon: int = 0

    @cached_property
    def matrix(self):
        return _nested(self.coeffs, self.degrees)


@dataclass(eq=False)
class MCField:
    """Maurer-Cartan coefficients: omega^i_j = du[i][j] du + dv[i][j] dv.

    `omega` is a (2, 5, 5, n) coefficient array, omega[0] the du parts and
    omega[1] the dv parts; `degrees[j]` is the degree of column j.  `du` and
    `dv` are nested lists of TaylorScalar entries, built on first use.

    `projection` expresses all 25 entries in the coframe (omega^1_0,
    omega^2_0) by one 2x2 jet solve: omega^i_j = x1 omega^1_0 + x2 omega^2_0
    with x1 = projection[0, i, j] and x2 = projection[1, i, j]; column j has
    degree `projection_degrees[j]` = min(degrees[0], degrees[j]).  A linear
    combination of entries projects to the same combination of projections.
    """

    omega: np.ndarray
    degrees: tuple

    du = cached_property(lambda self: _nested(self.omega[0], self.degrees))
    dv = cached_property(lambda self: _nested(self.omega[1], self.degrees))

    def coframe(self):
        """Rows are the (du, dv) coefficients of omega^1_0 and omega^2_0."""
        d = self.degrees[0]
        return [[_jet(self.omega[a, k, 0], d) for a in (0, 1)] for k in (1, 2)]

    @property
    def projection_degrees(self):
        return tuple(min(self.degrees[0], d) for d in self.degrees)

    @cached_property
    def projection(self):
        # cu du + cv dv = x1 omega^1_0 + x2 omega^2_0 means C^T (x1, x2) = (cu, cv)
        degree = max(self.projection_degrees)
        n = n_terms(degree)
        Ct = resize(self.omega[:, 1:3, 0], n)
        rhs = resize(self.omega, n).reshape(2, 25, n)
        return jet_solve(Ct, rhs, degree).reshape(2, 5, 5, n)

    def in_coframe(self, i, j):
        """Coefficients (x1, x2) with omega^i_j = x1 omega^1_0 + x2 omega^2_0."""
        d = self.projection_degrees[j]
        return _jet(self.projection[0, i, j], d), _jet(self.projection[1, i, j], d)


class SymMat2T(NamedTuple):
    """Entries of a symmetric 2x2 jet matrix [[a, b], [b, c]]."""

    a: TaylorScalar
    b: TaylorScalar
    c: TaylorScalar

    def const(self):
        """Constant-term triple (a0, b0, c0) as floats."""
        return (self.a.const, self.b.const, self.c.const)


@dataclass(eq=False)
class FundamentalData:
    """Cartan-lemma matrices of a 1-adapted frame.

    `coeffs` is a (3, 3, n) coefficient array: rows h0, h3, h4, the
    symmetric 2x2 coefficient matrices of omega^k_1,2 against the coframe
    (k = 0, 3, 4), and columns their (a, b, c) entries [[a, b], [b, c]], all
    of degree `degree`.  `h0`, `h3` and `h4` are read-only views with
    TaylorScalar entries, built on each access.  `nondeg_det` is the 3x3
    determinant of the constant triples and `asymmetry` the largest
    violation of Cartan-lemma symmetry (a numerical diagnostic).
    """

    coeffs: np.ndarray
    degree: int
    nondeg_det: float
    asymmetry: float

    def _form(self, k):
        return SymMat2T(*(_jet(c, self.degree) for c in self.coeffs[k]))

    h0 = property(lambda self: self._form(0))
    h3 = property(lambda self: self._form(1))
    h4 = property(lambda self: self._form(2))


@dataclass
class SurfaceType:
    """Classification of span(h3, h4) by the restriction of Q = -det."""

    tag: str  # "SpaceLike" | "TimeLike" | "Null"
    gram: np.ndarray
    det: float
    trace: float


class GaugeTransform:
    """A frame change F -> F K, tangent-preserving for K = [[1, 0, r0], [0, A, r], [0, 0, B]].

    Built from a nested-list K of floats and jets, or from its (5, 5, n)
    coefficient array and per-entry `degrees` (inf for a float entry).
    `K`, `A`, `B` and `r` give nested lists, built on first use.
    """

    def __init__(self, K, degrees=None):
        if degrees is None:
            degrees = degrees_of(K)
            K = pack(K, _working_degree(degrees))
        self.coeffs = K
        self.degrees = degrees

    @cached_property
    def K(self):
        return unpack(self.coeffs, self.degrees)

    @classmethod
    def from_blocks(cls, A=None, B=None, r03=0.0, r04=0.0, r13=0.0, r14=0.0, r23=0.0, r24=0.0):
        (a11, a12), (a21, a22) = identity(2) if A is None else A
        (b11, b12), (b21, b22) = identity(2) if B is None else B
        return cls([
            [1.0, 0.0, 0.0, r03, r04],
            [0.0, a11, a12, r13, r14],
            [0.0, a21, a22, r23, r24],
            [0.0, 0.0, 0.0, b11, b12],
            [0.0, 0.0, 0.0, b21, b22],
        ])

    @property
    def A(self):
        return [row[1:3] for row in self.K[1:3]]

    @property
    def B(self):
        return [row[3:5] for row in self.K[3:5]]

    @property
    def r(self):
        """((r03, r04), (r13, r14), (r23, r24))."""
        return tuple(tuple(row[3:5]) for row in self.K[0:3])


def apply_gauge(frame, gauge, level=None, surface_type=None, epsilon=None):
    """New frame F K with bookkeeping tags updated.

    A column of K that is the float unit vector e_j keeps column j of F.
    The other columns come from one product of F and K over the rows t that
    they use (K[t][j] not the float 0), so a block gauge
    [[1, 0, r0], [0, A, r], [0, 0, B]] keeps e0 and maps (e1, e2) to F12 A
    and (e3, e4) to F0 r0 + F12 r + F34 B.  Column j then has degree
    min over those rows of min(deg F[:, t], deg K[t][j]).
    """
    K, dK = gauge.coeffs, gauge.degrees
    is_float = np.isinf(dK)
    used = ~(is_float & (K[:, :, 0] == 0.0))
    kept = (is_float & (K[:, :, 0] == np.eye(5))).all(axis=0)
    bound = np.where(used, np.minimum(np.array(frame.degrees)[:, None], dK), np.inf)
    degrees = np.where(kept, frame.degrees, bound.min(axis=0)).astype(int)
    n = n_terms(degrees.max())
    coeffs = resize(frame.coeffs, n).copy()
    cols = np.flatnonzero(~kept)
    if cols.size:
        rows = np.flatnonzero(used[:, cols].any(axis=1))
        w = int(degrees[cols].max())
        m = n_terms(w)
        product = jet_matmul(resize(frame.coeffs[:, rows], m), resize(K[np.ix_(rows, cols)], m), w)
        coeffs[:, cols] = resize(product, n)
    return Frame5T(
        coeffs=coeffs,
        degrees=tuple(int(d) for d in degrees),
        level=frame.level if level is None else level,
        surface_type=frame.surface_type if surface_type is None else surface_type,
        epsilon=frame.epsilon if epsilon is None else epsilon,
    )


# ---------------------------------------------------------------------------
# Level 1
# ---------------------------------------------------------------------------


def frame1(jet5, tol=1e-10):
    """Initial adapted frame from the 1-jet of the position vector.

    Columns are e0 = f, e1 = f_u, e2 = f_v, and two constant columns: the
    last two columns of the complete QR factor of [e0 e1 e2] at the base
    point, an orthonormal basis of the complement of their span, scaled by
    |f(p)|.  So frame1(c f) = c frame1(f) for any scalar c, and the frame
    stays as well conditioned as its first three columns.  Every column has
    degree d - 1 for surface jets of lowest degree d.

    Raises
    ------
    NotImmersed
        If f_u, f_v are dependent at the base point.
    NotTransversal
        If the position vector lies in the tangent plane at the base point.
    """
    degree = min(j.degree for j in jet5) - 1
    f = np.array([j.coeffs[: n_terms(degree + 1)] for j in jet5])
    coeffs = np.zeros((5, 5, n_terms(degree)))
    coeffs[:, 0] = f[:, : n_terms(degree)]
    coeffs[:, 1] = derivative(f, degree + 1, 0)
    coeffs[:, 2] = derivative(f, degree + 1, 1)

    P = coeffs[:, :3, 0]
    scale = max(np.linalg.norm(P[:, 1]), np.linalg.norm(P[:, 2]), 1e-300)
    gram12 = P[:, 1:].T @ P[:, 1:]
    if np.linalg.det(gram12) <= (tol * scale * scale) ** 2:
        raise NotImmersed("tangent vectors are dependent at the base point")
    # rejection of e0 from span(e1, e2)
    coeff = np.linalg.solve(gram12, P[:, 1:].T @ P[:, 0])
    resid = P[:, 0] - P[:, 1:] @ coeff
    if np.linalg.norm(resid) <= tol * max(np.linalg.norm(P[:, 0]), 1e-300):
        raise NotTransversal("position vector lies in the tangent plane")

    # complete with an orthonormal basis of the complement, scaled by |f(p)|
    Q, _ = np.linalg.qr(P, mode="complete")
    coeffs[:, 3:, 0] = Q[:, 3:] * np.linalg.norm(P[:, 0])
    return Frame5T(coeffs=coeffs, degrees=(degree,) * 5, level=1)


def maurer_cartan(frame, gauged=None):
    """Maurer-Cartan coefficients Omega = F^-1 dF of a jet frame field.

    One solve of F against [dF/du | dF/dv] on coefficient arrays.  When
    `frame` is G K for a frame G and a gauge K, `gauged` = (mc of G, K)
    gives Omega by the gauge law K^-1 (Omega_G K + dK) instead, one solve
    against K.  Near a null point the adapted frames are badly conditioned
    and solving against them loses up to eight digits, while the gauges are
    block triangular and solving against them does not.  Column j of Omega
    has degree min(min deg F, deg F[:, j] - 1) either way; a frame column of
    degree 0 has no known derivative and raises ValueError.
    """
    d = np.array(frame.degrees)
    if d.min() < 1:
        raise ValueError("the Maurer-Cartan form needs frame columns of degree >= 1")
    degrees = np.minimum(d.min(), d - 1)
    w = int(degrees.max())
    n = n_terms(w)
    M = resize(frame.coeffs if gauged is None else gauged[1].coeffs, n_terms(w + 1))
    dM = np.concatenate([derivative(M, w + 1, 0), derivative(M, w + 1, 1)], axis=1)
    if gauged is not None:  # [Omega_G,u K | Omega_G,v K] + [dK/du | dK/dv]
        # Omega_G K as (K^T Omega_G^T)^T: the jet operator is built from K's 25 entries
        OgT = resize(gauged[0].omega, n).reshape(10, 5, n).transpose(1, 0, 2)
        Y = jet_matmul(resize(M, n).transpose(1, 0, 2), OgT, w).transpose(1, 0, 2)
        dM += Y.reshape(2, 5, 5, n).transpose(1, 0, 2, 3).reshape(5, 10, n)
    X = jet_solve(resize(M, n), dM, w)  # M = F, or M = K for the gauge law
    return MCField(
        omega=X.reshape(5, 2, 5, -1).transpose(1, 0, 2, 3),
        degrees=tuple(int(x) for x in degrees),
    )


# ---------------------------------------------------------------------------
# Level 1 -> 2
# ---------------------------------------------------------------------------


def fundamental_matrices(mc, tol=1e-10):
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
    # X[i, k, j] is the omega^(i+1)_0 coefficient of omega^(0, 3, 4)[k]_(j+1)
    X = mc.projection[:, [0, 3, 4], 1:3, : n_terms(degree)]
    H = np.stack([X[0, :, 0], (X[1, :, 0] + X[0, :, 1]) * 0.5, X[1, :, 1]], axis=1)
    asym = float(np.abs(X[1, :, 0, 0] - X[0, :, 1, 0]).max())
    triples = H[:, :, 0]
    det = float(np.linalg.det(triples))
    scale = max(1.0, float(np.abs(triples).max()))
    if abs(det) <= tol * scale**3:
        raise Degenerate("second-order data span less than three dimensions")
    return FundamentalData(coeffs=H, degree=degree, nondeg_det=det, asymmetry=asym)


# Polarization of Q(h) = -det(h) = b^2 - a c on (a, b, c) triples:
# B(h1, h2) = h1 . _Q_POLAR h2, so Q(h) = B(h, h).  Q has signature (2, 1).
_Q_POLAR = np.array([[0.0, 0.0, -0.5], [0.0, 1.0, 0.0], [-0.5, 0.0, 0.0]])


def classify_plane(fund, tol=1e-8):
    """Type of the plane spanned by (h3, h4) under Q = -det.

    The Gram matrix V G V^T of the restriction of Q (V the constant triples
    of h3 and h4, G the polarization matrix of Q) decides: positive
    determinant means space-like, negative means time-like, and a
    determinant within `tol` times the squared Gram norm is null.

    Raises
    ------
    IndependenceFailure
        If h3 and h4 are linearly dependent at the base point.
    """
    V = fund.coeffs[1:, :, 0]
    cross = np.linalg.norm(np.cross(V[0], V[1]))
    scale = max(np.linalg.norm(V[0]) * np.linalg.norm(V[1]), 1e-300)
    if cross <= 1e-10 * scale:
        raise IndependenceFailure("h3 and h4 are linearly dependent")
    gram = V @ _Q_POLAR @ V.T
    det = float(np.linalg.det(gram))
    trace = float(np.trace(gram))
    norm2 = float(np.sum(gram * gram))
    if abs(det) <= tol * max(norm2, 1e-300):
        tag = "Null"
    elif det > 0:
        tag = "SpaceLike"
    else:
        tag = "TimeLike"
    return SurfaceType(tag=tag, gram=gram, det=det, trace=trace)


# ---------------------------------------------------------------------------
# Symmetric 2x2 jet forms for level 2
#
# A form [[a, b], [b, c]] is a coefficient array (3, n) of its (a, b, c)
# entries, and a 2x2 jet matrix is a coefficient array (2, 2, n); `degree`
# is the working degree, n = n_terms(degree).
# ---------------------------------------------------------------------------


def _q_polar(h1, h2, degree):
    """Polarization B(h1, h2) of two forms as a jet; Q(h) = B(h, h)."""
    return jet_mul(h1, _Q_POLAR @ h2, degree).sum(axis=0)


def _q_complement(h3, h4, degree):
    """A Q-orthogonal complement of span(h3, h4) inside Sym^2.

    The cross product of G h3 and G h4 (G = _Q_POLAR) is B-orthogonal to
    both.  It is unnormalized and smooth in the inputs, and vanishes iff
    h3, h4 are linearly dependent.
    """
    g3, g4 = _Q_POLAR @ h3, _Q_POLAR @ h4
    i, j = [1, 2, 0], [2, 0, 1]
    return jet_mul(g3[i], g4[j], degree) - jet_mul(g3[j], g4[i], degree)


def _congruence(H, A, degree):
    """Congruences A^T h A of the forms h in H (k, 3, n), as (k, 3, n).

    (a, b, c) -> A^T h A is linear with the symmetric square S of A as its
    matrix, so the k forms take one jet product by S^T.
    """
    (p, q), (r, s) = A
    x = np.stack([p, p, r, p, p, q, r, q, q, s])
    y = np.stack([p, r, r, q, s, r, s, q, s, s])
    pp, pr, rr, pq, ps, qr, rs, qq, qs, ss = jet_mul(x, y, degree)
    S = np.stack([[pp, 2.0 * pr, rr], [pq, ps + qr, rs], [qq, 2.0 * qs, ss]])
    return jet_matmul(H, S.transpose(1, 0, 2), degree)


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
    a0, b0, c0 = h[:, 0]
    scale = max(1.0, a0 * a0, b0 * b0, c0 * c0)
    if a0 <= 0 or a0 * c0 - b0 * b0 <= _PIVOT_TOL * scale:
        raise NotPositiveDefinite(
            "constant part [[%g, %g], [%g, %g]] is not positive definite"
            % (a0, b0, b0, c0)
        )
    a, b, c = h
    root_det = apply("sqrt", -_q_polar(h, h, degree), degree)
    k = jet_mul(
        apply("reciprocal", root_det, degree),
        apply("rsqrt", a + c + 2.0 * root_det, degree),
        degree,
    )
    return jet_mul(np.stack([[c + root_det, -b], [-b, a + root_det]]), k, degree)


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
    gauge chains on already-normalized data reproduces the identity.

    Raises
    ------
    NotIndefinite
        If the constant part of h is not indefinite.
    """
    a0, b0, c0 = h[:, 0]
    scale = max(1.0, a0 * a0, b0 * b0, c0 * c0)
    if b0 * b0 - a0 * c0 <= _PIVOT_TOL * scale:
        raise NotIndefinite(
            "constant part [[%g, %g], [%g, %g]] is not indefinite" % (a0, b0, b0, c0)
        )

    rotated = max(abs(a0), abs(c0)) < 1e-8 * abs(b0)
    work = h
    if rotated:
        # rotate coordinates by 45 degrees so a diagonal coefficient is large
        a, b, c = h
        work = np.stack([(a + c) * 0.5 + b, (c - a) * 0.5, (a + c) * 0.5 - b])
    disc_root = apply("sqrt", _q_polar(work, work, degree), degree)
    a, b, c = work
    # the roots s of c s^2 + 2 b s + a = 0, for w = (1, s), when |c| >= |a|;
    # else of a s^2 + 2 b s + c = 0, for w = (s, 1)
    free = 1 if abs(c[0]) >= abs(a[0]) else 0
    roots = np.stack([disc_root - b, -(disc_root + b)])
    W = np.zeros((2, 2, roots.shape[-1]))
    W[:, free] = jet_mul(roots, apply("reciprocal", c if free else a, degree), degree)
    W[:, 1 - free, 0] = 1.0
    if rotated:
        W = np.stack([W[:, 0] - W[:, 1], W[:, 0] + W[:, 1]], axis=1) * _SQRT_HALF

    canon = []
    for w in W:
        m0, m1 = abs(w[0, 0]), abs(w[1, 0])
        lead = 0 if m0 > 1e-10 * max(m1, 1.0) else 1
        w = jet_mul(w, apply("reciprocal", w[lead], degree), degree)
        canon.append(((lead, -w[1, 0]), w))
    canon.sort(key=lambda item: item[0])
    A = np.stack([w for _, w in canon], axis=1)

    pairing = _congruence(h[None], A, degree)[0, 1]
    p0 = pairing[0]
    if abs(p0) <= _PIVOT_TOL:
        raise NotIndefinite("null directions are numerically degenerate")
    sign = 1.0 if p0 > 0 else -1.0
    inv_root = apply("rsqrt", pairing * sign, degree)
    return jet_mul(A, np.stack([inv_root, inv_root * sign]), degree)


def _level2_gauge(A1, B, r0, s, degree):
    """Closed form of the level-2 gauge K(A1) K(B) K(r0) K(diag s, diag s^2).

    The four block gauges compose to [[1, 0, r0], [0, A1, 0], [0, 0, B]]
    with its columns scaled by (1, s1, s2, s1^2, s2^2): A = A1 diag(s),
    B diag(s^2) and r0 diag(s^2).  A1 and B are (2, 2, n) coefficient
    arrays, r0 and s are (2, n), all of degree `degree`.
    """
    K = np.zeros((5, 5, n_terms(degree)))
    K[0, 0, 0] = 1.0
    K[1:3, 1:3] = jet_mul(A1, s, degree)
    s2 = jet_mul(s, s, degree)
    K[3:5, 3:5] = jet_mul(B, s2, degree)
    K[0, 3:5] = jet_mul(r0, s2, degree)
    degrees = np.full((5, 5), np.inf)
    degrees[1:3, 1:3] = degrees[3:5, 3:5] = degrees[0, 3:5] = degree
    return GaugeTransform(K, degrees)


def adapt2_spacelike(frame, fund, tol=1e-10):
    """Reduce a 1-adapted frame over a space-like point to level 2.

    Returns (frame2, gauge, epsilon) where the new frame satisfies
    h3 = diag(1, -1), h4 = offdiag(1), h0 = epsilon * I.

    Raises
    ------
    DegenerateTraceComponent
        If the pure-trace part of h0 vanishes after the plane is normalized
        (the scaling gauge is then undetermined).
    """
    d = fund.degree
    # 1) rotate/scale tangent directions so the Q-complement becomes the
    #    identity matrix; the (h3, h4)-plane is then trace-free
    n = _q_complement(fund.coeffs[1], fund.coeffs[2], d)
    if n[0, 0] + n[2, 0] < 0:
        n = -n
    A1 = _spd_inverse_sqrt(n, d)
    p0, p3, p4 = _congruence(fund.coeffs, A1, d)

    # 2) move (p3, p4) to the reference basis (T1, T2) of the trace-free
    #    plane by the normal-space gauge B
    B = np.stack([[(p3[0] - p3[2]) * 0.5, p3[1]], [(p4[0] - p4[2]) * 0.5, p4[1]]])
    if abs(B[0, 0, 0] * B[1, 1, 0] - B[0, 1, 0] * B[1, 0, 0]) <= tol:
        raise IndependenceFailure("normalized pair does not span the trace-free plane")

    # 3) subtract the trace-free part of h0 via the translational gauge
    r0 = np.stack([(p0[0] - p0[2]) * 0.5, p0[1]])
    s = (p0[0] + p0[2]) * 0.5
    if abs(s[0]) <= tol:
        raise DegenerateTraceComponent("pure-trace part of h0 vanishes")
    epsilon = 1 if s[0] > 0 else -1

    # 4) scale by lam = |s|^-1/2 to make h0 = epsilon * I
    lam = apply("rsqrt", s * float(epsilon), d)
    gauge = _level2_gauge(A1, B, r0, np.stack([lam, lam]), d)
    frame2 = apply_gauge(frame, gauge, level=2, surface_type="SpaceLike", epsilon=epsilon)
    return frame2, gauge, epsilon


def adapt2_timelike(frame, fund, tol=1e-10):
    """Reduce a 1-adapted frame over a time-like point to level 2.

    Returns (frame2, gauge) where the new frame satisfies h3 = E11,
    h4 = E22, h0 = offdiag(1).

    Raises
    ------
    DegenerateOffdiagComponent
        If the off-diagonal part of h0 vanishes after the plane is
        normalized (the scaling gauge is then undetermined).
    """
    d = fund.degree
    # 1) null directions of the Q-complement diagonalize the plane
    n = _q_complement(fund.coeffs[1], fund.coeffs[2], d)
    lead = int(np.argmax(np.abs(n[:, 0])))
    if n[lead, 0] < 0:
        n = -n
    A1 = _null_basis(n, d)
    p0, p3, p4 = _congruence(fund.coeffs, A1, d)

    # 2) map (p3, p4) (now diagonal) to (E11, E22)
    B = np.stack([[p3[0], p3[2]], [p4[0], p4[2]]])
    if abs(B[0, 0, 0] * B[1, 1, 0] - B[0, 1, 0] * B[1, 0, 0]) <= tol:
        raise IndependenceFailure("normalized pair does not span the diagonal plane")

    # 3) subtract the diagonal part of h0
    r0 = np.stack([p0[0], p0[2]])
    s = p0[1]
    if abs(s[0]) <= tol:
        raise DegenerateOffdiagComponent("off-diagonal part of h0 vanishes")

    # 4) scale by diag(a11, a22) to make h0 = offdiag(1); a11 > 0,
    #    sign(a22) = sign(s)
    sign = 1.0 if s[0] > 0 else -1.0
    a11 = apply("rsqrt", s * sign, d)
    gauge = _level2_gauge(A1, B, r0, np.stack([a11, a11 * sign]), d)
    frame2 = apply_gauge(frame, gauge, level=2, surface_type="TimeLike")
    return frame2, gauge


# ---------------------------------------------------------------------------
# Level 2 -> 3
# ---------------------------------------------------------------------------


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
        Sign of h0 for the space-like case.

    Returns
    -------
    (Frame5T, GaugeTransform)
    """
    # h[k, c] is the omega^(k+1)_0 coefficient of omega^0_(3+c)
    h = mc.projection[:, 0, 3:5]
    if surface_type == "SpaceLike":
        r = h * -float(epsilon)
    elif surface_type == "TimeLike":
        r = -h[::-1]
    else:
        raise ValueError("surface_type must be SpaceLike or TimeLike")
    d = mc.projection_degrees[3:5]
    K = np.zeros((5, 5, n_terms(max(d))))
    K[range(5), range(5), 0] = 1.0
    K[1:3, 3:5] = resize(r, K.shape[-1])
    degrees = np.full((5, 5), np.inf)
    degrees[1:3, 3:5] = d
    gauge = GaugeTransform(K, degrees)
    return apply_gauge(frame, gauge, level=3), gauge
