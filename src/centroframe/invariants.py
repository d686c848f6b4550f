"""Differential invariants of a 3-adapted frame.

The Maurer-Cartan form of a 3-adapted frame is
Omega = M0 alpha + M1 omega^1 + M2 omega^2, with alpha the connection form,
omega^k = omega^k_0 the coframe, M0 constant, and M1, M2 holding pinned
values and the differential invariants.  This module keeps that layout per
case (`LAYOUTS`; `homogeneous.model_omega` fills it with constants), reads
the invariants off it, evaluates the six linear relations among them and
the algebraic Gauss curvature from the structure equation, computes the
curvature a second way (d(alpha) against the area form), and assembles the
induced metrics.

A layout table has one line per row i, M0 | M1 | M2, one token per column
j.  A token of M_k (k = 1, 2) says what the cell holds:

    h<ijk>     the invariant h<ijk>: the coefficient of omega^k in the
               semi-basic part of omega^i_j
    1 0 -1 e   a value the adaptation pins (e = epsilon, the sign of h0),
               checked as vanishing["fix_w<ij>_<k>"]
    *          an entry killed on Omega: vanishing["w<ij>_du"], ["w<ij>_dv"]
    !          an entry killed on the coframe: vanishing["w<ij>_<k>"]
    =x         a copy of x that holds by construction (not read)
    ~x         a copy of invariant x by Cartan-lemma symmetry, checked as
               vanishing["sym_w<ij>"]; h231~h132 is an invariant and a copy

The semi-basic part is S = P - M0 (x) alpha, with P the coframe projection
(`MCField.projection`) and alpha = sum over i, j in {1, 2} of
M0[i, j] omega^i_j / 2: (omega^1_2 - omega^2_1)/2 when space-like,
(omega^1_1 - omega^2_2)/2 when time-like.  A cell of S has the jet degree
of its column of P, lowered to alpha's where M0 is nonzero.

With Omega = P1 omega^1 + P2 omega^2, d(Omega) + Omega ^ Omega = 0 needs
only C = [P1, P2] (`structure_terms`; Fels & Olver, "Moving coframes I"):
the six cells with both entries pinned are the relations R1-R6, and
d(alpha) = K omega^1 ^ omega^2 gives K = -1/2 sum M0[i, j] C_ij, i, j in {1, 2}.
"""

from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .adaptation import (
    Frame5T,
    FundamentalData,
    MCField,
    _check_case,
    _scalar,
    adapt2_spacelike,
    adapt2_timelike,
    adapt3,
    classify_plane,
    frame1,
    fundamental_matrices,
    maurer_cartan,
)
from .errors import ArithmeticFailure, NullTypeUnsupported, PointFailures, raise_where
from .linalg5 import jet_matmul, jet_mul, solve  # noqa: F401  (bench/workloads.py traces invariants.solve)
from .surfaces import eval_surface
from .taylor import TaylorScalar, apply, degree_of, gradient, n_terms, stack

__all__ = [
    "InvariantSet",
    "MetricData",
    "Layout",
    "LAYOUTS",
    "H_NAMES",
    "H_ALL",
    "H_COLUMNS_OF",
    "RELATION_CELLS",
    "extract_invariants",
    "structure_terms",
    "relation_residuals",
    "gauss_from_invariants",
    "gauss_from_connection",
    "metric_at",
    "fiber_invariant_scalars",
    "AnalysisResult",
    "AnalysisBatch",
    "analyze_point",
    "effective_degree",
]


@dataclass(eq=False)
class InvariantSet:
    """Named invariant coefficients of a 3-adapted frame at a point.

    Every jet is held as its (n,) coefficient array.  `h_coeffs` maps
    coefficient names to jets; `alpha_coeffs` (2, n) is the (du, dv) pair of
    the connection form; `vanishing_coeffs` collects everything that
    adaptation forces to zero (kept as jets so tests can check the whole
    neighborhood).  `coframe` is the (2, 2, n) array of omega^1_0 and
    omega^2_0 (rows) in du and dv (columns).  `projection` is P (2, 5, 5, n)
    at its lowest column degree; `structure`, its `structure_terms`, is
    shared by the relations and the curvature.  For a batch of N points of
    one type every array, and `epsilon`, has a leading axis.  `h` is the
    read-only view of one point with TaylorScalar entries, built on each
    access.
    """

    surface_type: str
    epsilon: int
    h_coeffs: dict
    alpha_coeffs: np.ndarray
    coframe: np.ndarray
    vanishing_coeffs: dict
    projection: np.ndarray

    h = property(lambda self: {k: TaylorScalar(c) for k, c in self.h_coeffs.items()})

    @cached_property
    def structure(self):
        return structure_terms(self.projection, self.surface_type, self.epsilon)


@dataclass
class MetricData:
    """Induced metrics in the surface coordinates.

    `first_coeffs` (3, n) holds the (E, F, G) jets with
    I = E du^2 + 2 F du dv + G dv^2.  `normal_gram` is the ambient 5x5
    Gram matrix of the normal-bundle metric at the base point: for an
    ambient vector X it evaluates to x3^2 + x4^2 (space-like) or 2 x3 x4
    (time-like), where (x3, x4) are the components of X along (e3, e4).
    For a batch, (N, 3, n) and (N, 5, 5).
    """

    first_coeffs: np.ndarray
    normal_gram: np.ndarray
    signature: str


# Row i of M0 | M1 | M2 per case; the tokens are explained above.
_LAYOUT_TABLES = {
    "SpaceLike": """
        0  0  0  0  0 | *   e      0     !          !         | *   0      e     !     !
        0  0  1  0  0 | =1  h111   h121  h131       h141      | =0  h112   h122  h132  h142
        0 -1  0  0  0 | =0  =h121  h221  h231~h132  h241~h142 | =1  =h122  h222  h232  h242
        0  0  0  0  2 | *   1      0     h331       h341      | *   0      -1    h332  h342
        0  0  0 -2  0 | *   0      1     h431       h441      | *   1      0     h432  h442
        """,
    "TimeLike": """
        0  0  0  0  0 | *   0     1      !     !     | *   1      0      !      !
        0  1  0  0  0 | =1  h111  h121   h131  h141  | =0  =h222  h122   h132   h142
        0  0 -1  0  0 | =0  h211  =h111  h231  h241  | =1  h212   h222   ~h131  ~h141
        0  0  0  2  0 | *   1     0      h331  h341  | *   0      0      h332   h342
        0  0  0  0 -2 | *   0     0      h431  h441  | *   0      1      h432   h442
        """,
}


class Layout(NamedTuple):
    """One case of the layout, parsed from its table.

    `M0` is the (5, 5) matrix of alpha coefficients and `fill` a (2, 5, 5)
    array of what the cells of (M1, M2) hold once every check is met: an
    invariant name or "1", "0", "-1", "e".  `names` are the invariants,
    sorted; h<ijk> sits in cell (k - 1, i, j).  `constants` are the names
    that stay free in a homogeneous model, sorted: those outside columns
    1-2 that are not symmetric copies (columns 1-2 hold the level-1
    coefficients, which the six relations determine there).  The read
    plan: `reads` and `killed` list (key, k, i, j) read off S and off
    Omega, `sym` lists (key, cell, copy cell), and the pinned values are
    pinned[0] + epsilon * pinned[1].
    """

    M0: np.ndarray
    fill: np.ndarray
    names: tuple
    constants: tuple
    reads: tuple
    killed: tuple
    sym: tuple
    pinned: np.ndarray


def _parse_layout(table):
    rows = [[half.split() for half in line.split("|")] for line in table.strip().splitlines()]
    fill = np.empty((2, 5, 5), dtype=object)
    pinned = np.zeros((2, 2, 5, 5))
    reads, killed, sym = [], [], []
    for k, i, j in np.ndindex(fill.shape):
        tok = rows[i][k + 1][j]
        name, _, copy = tok.partition("~")
        cell = "w%d%d" % (i, j)
        fill[k, i, j] = "0" if tok in ("*", "!") else copy or name.lstrip("=")
        if tok == "*":
            killed.append((cell + ("_du", "_dv")[k], k, i, j))
        elif tok == "!":
            reads.append((cell + "_%d" % (k + 1), k, i, j))
        elif tok[0] in "h~":
            reads += [(name, k, i, j)] if name else []
            sym += [("sym_" + cell, (k, i, j), copy)] if copy else []
        elif tok[0] != "=":
            reads.append(("fix_%s_%d" % (cell, k + 1), k, i, j))
            pinned[:, k, i, j] = (0.0, 1.0) if tok == "e" else (float(tok), 0.0)
    where = {key: (k, i, j) for key, k, i, j in reads if key[0] == "h"}
    sym = tuple((key, at, where[copy]) for key, at, copy in sym)
    copied = {at for _, at, _ in sym}
    constants = [n for n, at in where.items() if at[2] > 2 and at not in copied]
    M0 = np.array([row[0] for row in rows], dtype=float)
    return Layout(M0, fill, tuple(sorted(where)), tuple(sorted(constants)), tuple(reads),
                  tuple(killed), sym, pinned)


LAYOUTS = {case: _parse_layout(table) for case, table in _LAYOUT_TABLES.items()}

# Names of the invariants `extract_invariants` returns, sorted, per type;
# the sorted union of both, which are the `h` columns of an AnalysisBatch;
# and per type, the (name, column) pairs of its names there.
H_NAMES = {case: layout.names for case, layout in LAYOUTS.items()}
H_ALL = tuple(sorted(set().union(*H_NAMES.values())))
H_COLUMNS_OF = {case: tuple((k, H_ALL.index(k)) for k in names) for case, names in H_NAMES.items()}


def _alpha(terms, F, n=None):
    """alpha's coefficients, sum of M0[i, j] F[..., :, i, j] / 2 over i, j in
    {1, 2}, from the terms (M0[i, j] / 2, i, j) where M0[i, j] is nonzero."""
    return sum(c * F[..., :, i, j, :n] for c, i, j in terms)


@cache
def _read_plan(surface_type, pd, od):
    """What `extract_invariants` reads of a case at projection degrees `pd`
    and column degrees `od`, worked out once: the cells (I, J) of M0 with
    their values, the killed entries, the reads and the symmetric copies,
    each with its number of coefficients, the terms of alpha (`_alpha`),
    and the numbers of coefficients of alpha, of the coframe and of the
    stored projection.

    A cell of S has the degree of its column of P, lowered to alpha's where
    M0 is nonzero; alpha reads columns 1 and 2 in both cases.
    """
    layout = LAYOUTS[surface_type]
    M0 = layout.M0
    I, J = np.nonzero(M0)
    terms = tuple((M0[i, j] / 2.0, i, j) for i in (1, 2) for j in (1, 2) if M0[i, j])
    degree = np.tile(pd, (5, 1))
    degree[I, J] = np.minimum(degree[I, J], min(pd[1:3]))
    sizes = n_terms(degree).tolist()
    killed = tuple((key, k, i, j, n_terms(od[j])) for key, k, i, j in layout.killed)
    reads = tuple((key, k, i, j, sizes[i][j]) for key, k, i, j in layout.reads)
    sym = tuple((key, k, i, j, kc, ic, jc, min(sizes[i][j], sizes[ic][jc]))
                for key, (k, i, j), (kc, ic, jc) in layout.sym)
    lengths = n_terms(min(od[1:3])), n_terms(od[0]), n_terms(min(pd))
    return (I, J, M0[I, J, None]), terms, killed, reads, sym, lengths


def extract_invariants(mc, surface_type, epsilon=0):
    """Name the invariant coefficients of a 3-adapted Maurer-Cartan field.

    `mc` is the Maurer-Cartan field of a 3-adapted frame, `surface_type`
    "SpaceLike" or "TimeLike" and `epsilon` the sign of h0 (space-like
    only, where it must be +1 or -1; per point for a batch).  The layout of
    the case is read off S = P - M0 (x) alpha, P the coframe projection
    (`MCField.projection`), except for the entries killed on Omega, which
    are read off `MCField.omega`.
    """
    _check_case(surface_type, epsilon)
    layout = LAYOUTS[surface_type]
    P, omega = mc.projection, mc.omega
    (I, J, m0), terms, killed, reads, sym, (n_alpha, n_coframe, n_projection) = _read_plan(
        surface_type, tuple(mc.projection_degrees), tuple(mc.degrees))
    eps = np.asarray(epsilon, dtype=float)[..., None, None, None]
    S = P.copy()
    S[..., I, J, :] -= m0 * _alpha(terms, P)[..., None, :]
    S[..., 0] -= layout.pinned[0] + eps * layout.pinned[1]
    vanish = {key: omega[..., k, i, j, :n].copy() for key, k, i, j, n in killed}
    vanish.update((key, S[..., k, i, j, :n]) for key, k, i, j, n in reads)
    h = {key: vanish.pop(key) for key in layout.names}
    for key, k, i, j, kc, ic, jc, n in sym:
        vanish[key] = S[..., k, i, j, :n] - S[..., kc, ic, jc, :n]
    return InvariantSet(
        surface_type=surface_type,
        epsilon=epsilon if np.ndim(epsilon) else int(epsilon),
        h_coeffs=h,
        alpha_coeffs=_alpha(terms, omega, n_alpha),
        coframe=omega[..., 1:3, 0, :n_coframe].swapaxes(-3, -2),
        vanishing_coeffs=vanish,
        projection=P[..., :n_projection],
    )


# The six relations as the pinned cells (i, j) of the structure equation,
# with the sign that gives R1-R6: (label, (i, j), sign).
RELATION_CELLS = {
    "SpaceLike": (("R1", (3, 1), 1.0), ("R2", (3, 2), 1.0), ("R3", (4, 1), -1.0),
                  ("R4", (4, 2), 1.0), ("R5", (0, 1), -1.0), ("R6", (0, 2), -1.0)),
    "TimeLike": (("R1", (3, 1), 1.0), ("R2", (3, 2), 1.0), ("R3", (4, 1), -1.0),
                 ("R4", (4, 2), -1.0), ("R5", (0, 1), -1.0), ("R6", (0, 2), 1.0)),
}


@cache
def _readouts(surface_type):
    """(3, 7, 25) maps from the flattened commutator C to K and the six
    cells, for epsilon = -1, 0 and 1."""
    layout = LAYOUTS[surface_type]
    W = np.zeros((3, 7, 5, 5))
    W[:, 0, 1:3, 1:3] = -0.5 * layout.M0[1:3, 1:3]
    for r, (_, (i, j), _) in enumerate(RELATION_CELLS[surface_type], 1):
        W[:, r, i, j] = 1.0
        for e, epsilon in enumerate((-1.0, 0.0, 1.0)):
            W[e, r, 1:3, 0] = -(layout.pinned[0][:, i, j] + epsilon * layout.pinned[1][:, i, j])
    return W.reshape(3, 7, 25)


def structure_terms(P, surface_type, epsilon):
    """Curvature and relation cells of the structure equation on the coframe.

    `P` is the coframe projection (..., 2, 5, 5, n) at one jet degree (n = 1
    for floats) and C = [P1, P2].  Returns K (..., n) and R (..., 6, n):
    C_ij - c1 C_10 - c2 C_20 at the cells of `RELATION_CELLS`, unsigned,
    (c1, c2) the pinned values; d(omega^k) = -C_k0 omega^1 ^ omega^2 makes R
    vanish.  `epsilon` is one sign, or one per point of a batch.
    """
    # C = [P1, -P2] [P2; P1] as one product
    P1, P2 = P[..., 0, :, :, :], P[..., 1, :, :, :]
    C = jet_matmul(np.concatenate([P1, -P2], axis=-2), np.concatenate([P2, P1], axis=-3),
                   degree_of(P.shape[-1]))
    W = np.take(_readouts(surface_type), np.asarray(epsilon, dtype=int) + 1, axis=0)
    KR = W @ C.reshape(*C.shape[:-3], 25, C.shape[-1])
    return KR[..., 0, :], KR[..., 1:, :]


def relation_residuals(inv):
    """Signed residuals of the six linear relations among the invariants.

    All six are identically zero on 3-adapted frames; the returned jets,
    as coefficient arrays, measure how well a computed frame satisfies them.
    """
    R = inv.structure[1]
    return {
        label: sign * R[..., r, :]
        for r, (label, _, sign) in enumerate(RELATION_CELLS[inv.surface_type])
    }


def gauss_from_invariants(inv):
    """Gauss curvature from the structure equation, no derivatives (a jet's
    coefficient array)."""
    return inv.structure[0]


def gauss_from_connection(inv):
    """Gauss curvature from d(alpha) = K omega^1 wedge omega^2 (a jet's
    coefficient array).

    Needs the connection form to carry at least one derivative order,
    which requires the surface jets to start at degree >= 4 (each frame
    level consumes one order; alpha sits three levels down).
    """
    degree = degree_of(inv.alpha_coeffs.shape[-1])
    if degree < 1:
        raise ValueError(
            "connection-route curvature needs jets of degree >= 1 at the "
            "connection level; evaluate the surface at degree >= 4"
        )
    C = inv.coframe
    w = min(degree - 1, degree_of(C.shape[-1]))
    n = n_terms(w)
    C = C[..., :n].reshape(C.shape[:-3] + (4, n))
    z = jet_mul(C[..., 0:2, :], C[..., 3:1:-1, :], w)  # C00 C11 and C01 C10 as one product
    area = z[..., 0, :] - z[..., 1, :]
    d = gradient(inv.alpha_coeffs, degree)  # d[..., j, axis]: of alpha_du (j = 0) and alpha_dv
    d_alpha = d[..., 1, 0, :n] - d[..., 0, 1, :n]
    return jet_mul(d_alpha, apply("reciprocal", area, w), w)


# (E, F, G) of the induced metric as sums of products of coframe entries
# (c00, c01, c10, c11) = (omega^1_0 du, omega^1_0 dv, omega^2_0 du, omega^2_0 dv):
# per case, the two factor lists of one stacked product, the two lists of
# the products that sum to (E, F, G) (a time-like 2 x is x + x), the normal
# metric S and the signature.
_METRIC_FACTORS = {
    "SpaceLike": (np.array([0, 2, 0, 2, 1, 3]), np.array([0, 2, 1, 3, 1, 3]),
                  (np.array([0, 2, 4]), np.array([1, 3, 5])), np.eye(2), "Riemannian"),
    "TimeLike": (np.array([0, 0, 1, 1]), np.array([2, 3, 2, 3]),
                 (np.array([0, 1, 3]), np.array([0, 2, 3])), np.array([[0.0, 1.0], [1.0, 0.0]]), "Lorentzian"),
}


def metric_at(frame, mc):
    """Induced first fundamental form and ambient normal-metric Gram.

    Parameters
    ----------
    frame : Frame5T
        A 2- or 3-adapted frame (its `surface_type` tag selects the case);
        only its constant part is read.
    mc : MCField
        Maurer-Cartan field of that frame.
    """
    d = mc.degrees[0]
    C = mc.omega[..., 1:3, 0, : n_terms(d)]  # (du, dv) x (omega^1_0, omega^2_0)
    c = C.swapaxes(-3, -2).reshape(*C.shape[:-3], 4, -1)
    left, right, (first, second), S, signature = _METRIC_FACTORS[frame.surface_type]
    x = jet_mul(c.take(left, axis=-2), c.take(right, axis=-2), d)
    N = np.ascontiguousarray(np.linalg.inv(frame.const)[..., 3:5, :])
    return MetricData(first_coeffs=x.take(first, axis=-2) + x.take(second, axis=-2),
                      normal_gram=N.swapaxes(-1, -2) @ S @ N, signature=signature)


def fiber_invariant_scalars(inv):
    """Scalars unchanged under the residual frame freedom at a point.

    These are the quantities that may be compared across points (or across
    re-runs with different gauges): the Gauss curvature plus, per case, the
    combinations of level-2/3 coefficients that the stabilizer leaves
    fixed.  Values are constant terms, per point for a batch.
    """
    h = {k: v[..., 0] for k, v in inv.h_coeffs.items()}
    K = gauss_from_invariants(inv)[..., 0]
    if inv.surface_type == "SpaceLike":
        shape = (h["h331"] + h["h342"]) ** 2 + (h["h332"] - h["h341"]) ** 2
        return {
            "K": K,
            "epsilon": np.asarray(inv.epsilon, dtype=float),
            "normal_shape": shape,
        }
    return {
        "K": K,
        "p3344": h["h332"] * h["h441"],
        "p3443": h["h341"] * h["h432"],
        "level3_sum": h["h132"] + h["h241"],
        "level3_prod": h["h132"] * h["h241"],
    }


# ---------------------------------------------------------------------------
# Point pipeline
# ---------------------------------------------------------------------------


@dataclass
class AnalysisResult:
    """Everything the adaptation chain produces at one parameter point.

    Inside `analyze_point` the same record holds a batch of points of one
    surface type, every field but `surface_type` with a leading axis.
    `frame` is built from the level-1 frame and the gauges when its
    coefficients are read.  The records hold coefficient arrays.
    """

    u: float
    v: float
    surface_type: str
    epsilon: int
    invariants: InvariantSet
    gauss_invariants: float
    gauss_connection: float
    metric: MetricData
    frame: Frame5T
    mc: MCField
    gram: np.ndarray
    residual_max: float


@dataclass(eq=False)
class AnalysisBatch:
    """`analyze_point` at N points, as columns with one row per point.

    `errors` maps the index of each point that failed to the exception it
    raises alone.  The other rows hold the constant terms of the results:
    `surface_type` and `signature` (None where failed), `epsilon`, the two
    curvatures, `metric` (N, 3) (E, F, G), `alpha` (N, 2) (du, dv),
    `residual_max`, and `h` (N, len(H_ALL)), one column per invariant name
    of `H_ALL` (NaN where the name is not of the point's type).  In a row
    that did not fail, every other result but `residual_max` is finite.  Each
    sub-batch is written into the columns as it completes, and its frames,
    Maurer-Cartan fields and jets are dropped: for those of one point, call
    `analyze_point` on that point, which gives the same values.
    """

    u: np.ndarray
    v: np.ndarray
    errors: dict
    surface_type: list
    signature: list
    epsilon: np.ndarray
    gauss_invariants: np.ndarray
    gauss_connection: np.ndarray
    metric: np.ndarray
    alpha: np.ndarray
    residual_max: np.ndarray
    h: np.ndarray

    @classmethod
    def of(cls, U, V, errors, parts):
        """The columns of the (indices, batch AnalysisResult) `parts`, read
        one at a time as `_analyze` yields them."""
        N = U.size
        nan = np.full(N, np.nan)
        out = cls(
            u=U, v=V, errors=errors, surface_type=[None] * N, signature=[None] * N,
            epsilon=np.zeros(N, dtype=int), gauss_invariants=nan.copy(),
            gauss_connection=nan.copy(), metric=np.full((N, 3), np.nan),
            alpha=np.full((N, 2), np.nan), residual_max=nan, h=np.full((N, len(H_ALL)), np.nan),
        )
        for rows, part in parts:
            for i in rows.tolist():
                out.surface_type[i], out.signature[i] = part.surface_type, part.metric.signature
            out.epsilon[rows] = part.epsilon
            out.gauss_invariants[rows] = part.gauss_invariants
            out.gauss_connection[rows] = part.gauss_connection
            out.metric[rows] = part.metric.first_coeffs[..., 0]
            out.alpha[rows] = part.invariants.alpha_coeffs[..., 0]
            out.residual_max[rows] = part.residual_max
            names, columns = zip(*H_COLUMNS_OF[part.surface_type])
            h = part.invariants.h_coeffs
            out.h[rows[:, None], columns] = stack([h[k][..., 0] for k in names], axis=-1)
        return out


def effective_degree(degree):
    """Jet degree at which `analyze_point` evaluates the surface.

    The connection-route curvature needs degree >= 4; requests below 5 are
    raised to 5, which keeps one order of margin.
    """
    return max(degree, 5)


# Points per batch.  Chosen on `analyze --surface h2 --grid -1:1:41` in
# process (2 vCPUs): per point 0.63 ms at 16, 0.54 at 32, 0.29-0.46 at 64,
# 0.27-0.30 at 128 and 256, while the peak RSS grows with the batch's jet
# operators, about (5n)^2 floats per point: +1.5 MB over the per-point code
# at 64 and +9 MB at 256 for degree 5, +6 MB at 64 and +18 MB at 128 for
# degree 7.
MAX_BATCH = 64


def analyze_point(spec, u0, v0, degree=4):
    """Run the full adaptation chain on a surface at one parameter point,
    or at a batch of points.

    Parameters
    ----------
    spec : SurfaceSpec
        Parsed surface.
    u0, v0 : float, or 1-D arrays of N points
        Parameter point(s).
    degree : int
        Requested jet degree for the surface evaluation; the degree used is
        `effective_degree(degree)`.

    Returns
    -------
    AnalysisResult, or AnalysisBatch for arrays
        A point runs as itself, every array without a batch axis.  A batch
        runs in sub-batches of at most MAX_BATCH points, each stage once per
        sub-batch and per surface type, and each sub-batch's results go into
        the columns as it completes, so memory is bounded by MAX_BATCH, not
        by N; a point's results do not depend on the batch it runs in.

    Raises
    ------
    NullTypeUnsupported
        If the point classifies as Null (for a batch, that point's entry in
        `AnalysisBatch.errors`).
    ArithmeticFailure
        If a result of the point is not finite (see `_tail`), so no ok row
        of an AnalysisBatch holds one; `residual_max` may be NaN.
    """
    U, V = np.asarray(u0, dtype=float), np.asarray(v0, dtype=float)
    if U.ndim == 0:
        fr1, mc1, fund1, stype = _front(spec, U, V, effective_degree(degree))
        return _tail(stype.tag, U, V, fr1, mc1, fund1, stype.gram)
    errors = {}
    return AnalysisBatch.of(U, V, errors, _analyze(spec, U, V, degree, errors))


def _settle(run, index, errors):
    """`run(pos)` on the points at positions `pos` of `index`, dropping the
    points that fail until it completes.

    A failing point leaves with its error, recorded in `errors` under its
    entry of `index`, and `run` goes again on the rest.  Returns the entries
    of `index` that completed and run's result (None if none did).
    """
    pos = np.arange(index.size)
    while pos.size:
        try:
            return index[pos], run(pos)
        except PointFailures as exc:
            errors.update((int(index[pos[i]]), e) for i, e in exc.errors.items())
            pos = np.delete(pos, list(exc.errors))
    return index[pos], None


def _front(spec, U, V, degree):
    """Surface jets to the type of each point: the stages every type shares."""
    fr1 = frame1(eval_surface(spec, U, V, degree))
    mc1 = maurer_cartan(fr1)
    fund1 = fundamental_matrices(mc1)
    stype = classify_plane(fund1)
    raise_where(stype.tag == "Null", lambda i: NullTypeUnsupported(
        "normal plane is null at (u, v) = (%g, %g)" % (U[i], V[i])))
    return fr1, mc1, fund1, stype


# The results that must be finite at a point, but for the invariants of its
# type, in the order a non-finite one is named
_RESULT_NAMES = ("gauss_invariants", "gauss_connection", "E", "F", "G", "alpha_du", "alpha_dv")


def _tail(tag, U, V, fr1, mc1, fund1, gram):
    """Levels 2 and 3 and the invariants of one point, or of a batch of
    points of one type.

    Raises
    ------
    ArithmeticFailure
        If a curvature, a metric entry, alpha or an invariant of the type is
        not finite; the message names each one.  `residual_max` may be NaN.
    """
    fr2, _, epsilon = (adapt2_spacelike if tag == "SpaceLike" else adapt2_timelike)(fr1, fund1)
    mc2 = maurer_cartan(fr2, mc1)
    fr3, _ = adapt3(fr2, mc2, tag, epsilon)
    mc3 = maurer_cartan(fr3, mc2)
    inv = extract_invariants(mc3, tag, epsilon)
    k_inv = gauss_from_invariants(inv)[..., 0]
    k_conn = gauss_from_connection(inv)[..., 0]
    metric = metric_at(fr3, mc3)
    # one row per result, in the order of _RESULT_NAMES and the type's names
    bad = ~np.isfinite(np.array([k_inv, k_conn, *metric.first_coeffs[..., 0].T, *inv.alpha_coeffs[..., 0].T,
                                 *[inv.h_coeffs[k][..., 0] for k in H_NAMES[tag]]]))
    raise_where(bad.any(axis=0), lambda i: ArithmeticFailure("non-finite result: " + ", ".join(
        k for k, b in zip(_RESULT_NAMES + H_NAMES[tag], bad.T[i]) if b)))
    residuals = [x[..., 0] for x in inv.vanishing_coeffs.values()]
    residuals += [x[..., 0] for x in relation_residuals(inv).values()]
    return AnalysisResult(
        u=_scalar(U), v=_scalar(V), surface_type=tag, epsilon=epsilon, invariants=inv,
        gauss_invariants=_scalar(k_inv), gauss_connection=_scalar(k_conn), metric=metric,
        frame=fr3, mc=mc3, gram=gram, residual_max=_scalar(np.max(np.abs(residuals), axis=0)),  # NaN propagates
    )


def _analyze(spec, U, V, degree, errors):
    """Yield the (indices, batch AnalysisResult) part of each sub-batch of
    one type, for the points (U, V), recording the errors in `errors` by
    point index."""
    d = effective_degree(degree)
    for lo in range(0, U.size, MAX_BATCH):
        index = np.arange(lo, min(lo + MAX_BATCH, U.size))
        index, front = _settle(lambda pos: _front(spec, U[index[pos]], V[index[pos]], d),
                               index, errors)
        if front is None:
            continue
        fr1, mc1, fund1, stype = front
        tags = np.atleast_1d(stype.tag).tolist()
        for tag in ("SpaceLike", "TimeLike"):
            sel = np.array([k for k, t in enumerate(tags) if t == tag], dtype=int)
            if not sel.size:
                continue

            def run(pos, sel=sel):
                k = sel[pos]
                if k.size == index.size:  # every point of the batch: no copies
                    return _tail(tag, U[index], V[index], fr1, mc1, fund1, stype.gram)
                return _tail(tag, U[index[k]], V[index[k]],
                             Frame5T(fr1.coeffs[k], fr1.degrees),
                             MCField(mc1.omega[k], mc1.degrees),
                             FundamentalData(fund1.coeffs[k], fund1.degree, fund1.asymmetry[k]),
                             stype.gram[k])

            rows, part = _settle(run, index[sel], errors)
            if part is not None:
                yield rows, part
