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

All computations run over truncated Taylor jets, so the output frame is
itself a jet field and further differentiation (for connection forms and
curvature) costs one degree per level.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    Degenerate,
    DegenerateOffdiagComponent,
    DegenerateTraceComponent,
    IndependenceFailure,
    NotImmersed,
    NotTransversal,
)
from .linalg5 import (
    SymMat2T,
    _const,
    congruence,
    identity,
    inverse,
    mat_mul,
    mat_vec,
    null_basis2,
    q_complement,
    q_form,
    q_polar,
    solve,
    spd2_sqrt,
    transpose,
)
from .taylor import TaylorScalar, rsqrt

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

_T1 = SymMat2T(1.0, 0.0, -1.0)  # diag(1, -1)
_T2 = SymMat2T(0.0, 1.0, 0.0)  # offdiag(1)


@dataclass
class Frame5T:
    """Jet-valued frame field: columns of `matrix` are (e0, ..., e4)."""

    matrix: list
    level: int
    surface_type: str = ""
    epsilon: int = 0


@dataclass
class MCField:
    """Maurer-Cartan coefficients: omega^i_j = du[i][j] du + dv[i][j] dv."""

    du: list
    dv: list

    def coframe(self):
        """Rows are the (du, dv) coefficients of omega^1_0 and omega^2_0."""
        return [
            [self.du[1][0], self.dv[1][0]],
            [self.du[2][0], self.dv[2][0]],
        ]

    @cached_property
    def _coframe_inverse(self):
        return inverse(transpose(self.coframe()))

    def to_coframe(self, cu, cv):
        """Coefficients (x1, x2) with cu du + cv dv = x1 omega^1_0 + x2 omega^2_0."""
        return mat_vec(self._coframe_inverse, [cu, cv])

    def in_coframe(self, i, j):
        """Coefficients (x1, x2) with omega^i_j = x1 omega^1_0 + x2 omega^2_0."""
        return self.to_coframe(self.du[i][j], self.dv[i][j])


@dataclass
class FundamentalData:
    """Cartan-lemma matrices of a 1-adapted frame.

    h0, h3, h4 are the symmetric 2x2 coefficient matrices of omega^k_1,2
    against the coframe (k = 0, 3, 4); `nondeg_det` is the 3x3 determinant
    of their coefficient triples at the base point and `asymmetry` the
    largest violation of Cartan-lemma symmetry (a numerical diagnostic).
    """

    h0: SymMat2T
    h3: SymMat2T
    h4: SymMat2T
    nondeg_det: float
    asymmetry: float


@dataclass
class SurfaceType:
    """Classification of span(h3, h4) by the restriction of Q = -det."""

    tag: str  # "SpaceLike" | "TimeLike" | "Null"
    gram: np.ndarray
    det: float
    trace: float


@dataclass
class GaugeTransform:
    """A tangent-preserving frame change, stored as its full 5x5 matrix K.

    K has the block pattern [[1, 0, r0], [0, A, r], [0, 0, B]] mapping a
    frame F to F K; entries may be jets.  Block accessors return nested
    lists; `lam` and `theta` describe the constant part of A as a scaled
    rotation (meaningful for space-like stabilizer elements).
    """

    K: list

    @classmethod
    def from_blocks(cls, A=None, B=None, r03=0.0, r04=0.0, r13=0.0, r14=0.0, r23=0.0, r24=0.0):
        K = identity(5)
        if A is not None:
            for i in range(2):
                for j in range(2):
                    K[1 + i][1 + j] = A[i][j]
        if B is not None:
            for i in range(2):
                for j in range(2):
                    K[3 + i][3 + j] = B[i][j]
        K[0][3], K[0][4] = r03, r04
        K[1][3], K[1][4] = r13, r14
        K[2][3], K[2][4] = r23, r24
        return cls(K)

    @property
    def A(self):
        return [[self.K[1][1], self.K[1][2]], [self.K[2][1], self.K[2][2]]]

    @property
    def B(self):
        return [[self.K[3][3], self.K[3][4]], [self.K[4][3], self.K[4][4]]]

    @property
    def r(self):
        """((r03, r04), (r13, r14), (r23, r24))."""
        return (
            (self.K[0][3], self.K[0][4]),
            (self.K[1][3], self.K[1][4]),
            (self.K[2][3], self.K[2][4]),
        )

    def compose(self, other):
        """Gauge acting first by self, then by other (K_total = K1 K2)."""
        return GaugeTransform(mat_mul(self.K, other.K))

    @property
    def lam(self):
        A0 = [[_const(self.A[i][j]) for j in range(2)] for i in range(2)]
        det = A0[0][0] * A0[1][1] - A0[0][1] * A0[1][0]
        return abs(det) ** 0.5

    @property
    def theta(self):
        A0 = [[_const(self.A[i][j]) for j in range(2)] for i in range(2)]
        return float(np.arctan2(A0[0][1], A0[0][0]))


def apply_gauge(frame, gauge, level=None, surface_type=None, epsilon=None):
    """New frame F K with bookkeeping tags updated."""
    return Frame5T(
        matrix=mat_mul(frame.matrix, gauge.K),
        level=frame.level if level is None else level,
        surface_type=frame.surface_type if surface_type is None else surface_type,
        epsilon=frame.epsilon if epsilon is None else epsilon,
    )


# ---------------------------------------------------------------------------
# Level 1
# ---------------------------------------------------------------------------


def frame1(jet5, tol=1e-10):
    """Initial adapted frame from the 1-jet of the position vector.

    Columns are e0 = f, e1 = f_u, e2 = f_v, and two standard basis vectors
    chosen by largest Euclidean rejection from span(e0, e1, e2) (ties go to
    the lower index), which keeps the completion deterministic.

    Raises
    ------
    NotImmersed
        If f_u, f_v are dependent at the base point.
    NotTransversal
        If the position vector lies in the tangent plane at the base point.
    """
    degree = min(j.degree for j in jet5) - 1
    e0 = [j.truncate(degree) for j in jet5]
    e1 = [j.deriv_u().truncate(degree) for j in jet5]
    e2 = [j.deriv_v().truncate(degree) for j in jet5]

    P = np.array([[c.const for c in e0], [c.const for c in e1], [c.const for c in e2]]).T
    scale = max(np.linalg.norm(P[:, 1]), np.linalg.norm(P[:, 2]), 1e-300)
    gram12 = P[:, 1:].T @ P[:, 1:]
    if np.linalg.det(gram12) <= (tol * scale * scale) ** 2:
        raise NotImmersed("tangent vectors are dependent at the base point")
    # rejection of e0 from span(e1, e2)
    coeff = np.linalg.solve(gram12, P[:, 1:].T @ P[:, 0])
    resid = P[:, 0] - P[:, 1:] @ coeff
    if np.linalg.norm(resid) <= tol * max(np.linalg.norm(P[:, 0]), 1e-300):
        raise NotTransversal("position vector lies in the tangent plane")

    # complete with the two standard basis vectors farthest from the span
    Q, _ = np.linalg.qr(P)
    rejections = 1.0 - np.sum(Q * Q, axis=1)  # |e_i - proj e_i|^2 for unit e_i
    picks = sorted(np.argsort(-rejections, kind="stable")[:2])
    cols = [e0, e1, e2]
    for p in picks:
        cols.append(
            [TaylorScalar.constant(1.0 if i == p else 0.0, degree) for i in range(5)]
        )
    matrix = [[cols[j][i] for j in range(5)] for i in range(5)]
    return Frame5T(matrix=matrix, level=1)


def maurer_cartan(frame):
    """Maurer-Cartan coefficients Omega = F^-1 dF of a jet frame field."""
    F = frame.matrix
    n = len(F)
    X = solve(F, [[x.deriv_u() for x in row] + [x.deriv_v() for x in row] for row in F])
    return MCField(du=[row[:n] for row in X], dv=[row[n:] for row in X])


# ---------------------------------------------------------------------------
# Level 1 -> 2
# ---------------------------------------------------------------------------


def fundamental_matrices(mc, tol=1e-10):
    """Cartan-lemma matrices h0, h3, h4 of a 1-adapted frame.

    For k in {0, 3, 4} solves omega^k_j = h^k_j1 omega^1_0 + h^k_j2 omega^2_0
    against the coframe and symmetrizes the result (the off-diagonal entries
    agree up to roundoff; the observed gap is reported as `asymmetry`).

    Raises
    ------
    Degenerate
        If the triple (h0, h3, h4) fails the 3x3 independence test at the
        base point.
    """
    rows = {}
    asym = 0.0
    for k in (0, 3, 4):
        x11, x12 = mc.in_coframe(k, 1)
        x21, x22 = mc.in_coframe(k, 2)
        asym = max(asym, abs(_const(x12) - _const(x21)))
        rows[k] = SymMat2T(x11, (x12 + x21) * 0.5, x22)
    triples = np.array([rows[k].const() for k in (0, 3, 4)])
    det = float(np.linalg.det(triples))
    scale = max(1.0, float(np.abs(triples).max()))
    if abs(det) <= tol * scale**3:
        raise Degenerate("second-order data span less than three dimensions")
    return FundamentalData(
        h0=rows[0], h3=rows[3], h4=rows[4], nondeg_det=det, asymmetry=asym
    )


def classify_plane(fund, tol=1e-8):
    """Type of the plane spanned by (h3, h4) under Q = -det.

    The Gram matrix of the restriction of Q decides: positive determinant
    means space-like, negative means time-like, and a determinant within
    `tol` times the squared Gram norm is null.

    Raises
    ------
    IndependenceFailure
        If h3 and h4 are linearly dependent at the base point.
    """
    v3 = np.array(fund.h3.const())
    v4 = np.array(fund.h4.const())
    cross = np.linalg.norm(np.cross(v3, v4))
    scale = max(np.linalg.norm(v3) * np.linalg.norm(v4), 1e-300)
    if cross <= 1e-10 * scale:
        raise IndependenceFailure("h3 and h4 are linearly dependent")
    q33 = _const(q_form(fund.h3))
    q44 = _const(q_form(fund.h4))
    q34 = _const(q_polar(fund.h3, fund.h4))
    gram = np.array([[q33, q34], [q34, q44]])
    det = float(np.linalg.det(gram))
    trace = float(q33 + q44)
    norm2 = float(np.sum(gram * gram))
    if abs(det) <= tol * max(norm2, 1e-300):
        tag = "Null"
    elif det > 0:
        tag = "SpaceLike"
    else:
        tag = "TimeLike"
    return SurfaceType(tag=tag, gram=gram, det=det, trace=trace)


def _sym2_inverse(s):
    det = s.a * s.c - s.b * s.b
    inv = 1.0 / det
    return [[s.c * inv, s.b * -1.0 * inv], [s.b * -1.0 * inv, s.a * inv]]


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
    # 1) rotate/scale tangent directions so the Q-complement becomes the
    #    identity matrix; the (h3, h4)-plane is then trace-free
    n = q_complement(fund.h3, fund.h4)
    if _const(n.a) + _const(n.c) < 0:
        n = n.scaled(-1.0)
    A1 = _sym2_inverse(spd2_sqrt(n))
    p3 = congruence(fund.h3, A1)
    p4 = congruence(fund.h4, A1)
    p0 = congruence(fund.h0, A1)

    # 2) move (p3, p4) to the reference basis (T1, T2) of the trace-free
    #    plane by the normal-space gauge B
    B = [[(p3.a - p3.c) * 0.5, p3.b], [(p4.a - p4.c) * 0.5, p4.b]]
    detB = B[0][0] * B[1][1] - B[0][1] * B[1][0]
    if abs(_const(detB)) <= tol:
        raise IndependenceFailure("normalized pair does not span the trace-free plane")

    # 3) subtract the trace-free part of h0 via the translational gauge
    r03 = (p0.a - p0.c) * 0.5
    r04 = p0.b
    s = (p0.a + p0.c) * 0.5
    s0 = _const(s)
    if abs(s0) <= tol:
        raise DegenerateTraceComponent("pure-trace part of h0 vanishes")
    epsilon = 1 if s0 > 0 else -1

    # 4) scale to make h0 = epsilon * I
    lam = rsqrt(s * float(epsilon)) if isinstance(s, TaylorScalar) else (s * epsilon) ** -0.5
    lam2 = lam * lam
    gauge = GaugeTransform.from_blocks(A=A1)
    gauge = gauge.compose(GaugeTransform.from_blocks(B=B))
    gauge = gauge.compose(GaugeTransform.from_blocks(r03=r03, r04=r04))
    gauge = gauge.compose(
        GaugeTransform.from_blocks(
            A=[[lam, 0.0], [0.0, lam]], B=[[lam2, 0.0], [0.0, lam2]]
        )
    )
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
    # 1) null directions of the Q-complement diagonalize the plane
    n = q_complement(fund.h3, fund.h4)
    triple = [abs(x) for x in n.const()]
    lead = int(np.argmax(triple))
    if n.const()[lead] < 0:
        n = n.scaled(-1.0)
    w1, w2 = null_basis2(n)
    A1 = [[w1[0], w2[0]], [w1[1], w2[1]]]
    p3 = congruence(fund.h3, A1)
    p4 = congruence(fund.h4, A1)
    p0 = congruence(fund.h0, A1)

    # 2) map (p3, p4) (now diagonal) to (E11, E22)
    B = [[p3.a, p3.c], [p4.a, p4.c]]
    detB = B[0][0] * B[1][1] - B[0][1] * B[1][0]
    if abs(_const(detB)) <= tol:
        raise IndependenceFailure("normalized pair does not span the diagonal plane")

    # 3) subtract the diagonal part of h0
    r03, r04 = p0.a, p0.c
    s = p0.b
    s0 = _const(s)
    if abs(s0) <= tol:
        raise DegenerateOffdiagComponent("off-diagonal part of h0 vanishes")

    # 4) scale to make h0 = offdiag(1); a11 > 0, sign(a22) = sign(s)
    if isinstance(s, TaylorScalar):
        root = rsqrt(s * (1.0 if s0 > 0 else -1.0))
    else:
        root = abs(s) ** -0.5
    a11 = root
    a22 = root * (1.0 if s0 > 0 else -1.0)
    gauge = GaugeTransform.from_blocks(A=A1)
    gauge = gauge.compose(GaugeTransform.from_blocks(B=B))
    gauge = gauge.compose(GaugeTransform.from_blocks(r03=r03, r04=r04))
    gauge = gauge.compose(
        GaugeTransform.from_blocks(
            A=[[a11, 0.0], [0.0, a22]],
            B=[[a11 * a11, 0.0], [0.0, a22 * a22]],
        )
    )
    frame2 = apply_gauge(frame, gauge, level=2, surface_type="TimeLike")
    return frame2, gauge


# ---------------------------------------------------------------------------
# Level 2 -> 3
# ---------------------------------------------------------------------------


def adapt3(frame, mc, surface_type, epsilon=0):
    """Remove the semi-basic parts of omega^0_3 and omega^0_4.

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
    h031, h032 = mc.in_coframe(0, 3)
    h041, h042 = mc.in_coframe(0, 4)
    if surface_type == "SpaceLike":
        e = float(epsilon)
        gauge = GaugeTransform.from_blocks(
            r13=h031 * -e, r14=h041 * -e, r23=h032 * -e, r24=h042 * -e
        )
    elif surface_type == "TimeLike":
        gauge = GaugeTransform.from_blocks(
            r13=h032 * -1.0, r14=h042 * -1.0, r23=h031 * -1.0, r24=h041 * -1.0
        )
    else:
        raise ValueError("surface_type must be SpaceLike or TimeLike")
    frame3 = apply_gauge(frame, gauge, level=3)
    return frame3, gauge
