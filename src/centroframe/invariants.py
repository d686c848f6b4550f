"""Differential invariants of a 3-adapted frame.

The Maurer-Cartan form of a 3-adapted frame is
Omega = M0 alpha + M1 omega^1 + M2 omega^2, with alpha the connection form,
omega^k = omega^k_0 the coframe, M0 constant, and M1, M2 holding pinned
values and the differential invariants.  This module keeps that layout per
case (`LAYOUTS`; `homogeneous.model_omega` fills it with constants), reads
the invariants off it, evaluates the linear relations among them (as
signed residuals), computes the Gauss curvature by two independent routes
(the algebraic formula and d(alpha) against the area form), and assembles
the induced metrics.

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
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .adaptation import (
    Frame5T,
    MCField,
    adapt2_spacelike,
    adapt2_timelike,
    adapt3,
    classify_plane,
    frame1,
    fundamental_matrices,
    maurer_cartan,
)
from .errors import NullTypeUnsupported
from .linalg5 import solve  # noqa: F401  (bench/workloads.py traces invariants.solve)
from .surfaces import eval_surface
from .taylor import TaylorScalar, n_terms

__all__ = [
    "InvariantSet",
    "MetricData",
    "Layout",
    "LAYOUTS",
    "H_NAMES",
    "extract_invariants",
    "relation_residuals",
    "gauss_formula",
    "gauss_from_invariants",
    "gauss_from_connection",
    "metric_at",
    "fiber_invariant_scalars",
    "AnalysisResult",
    "analyze_point",
    "effective_degree",
]


@dataclass
class InvariantSet:
    """Named invariant coefficients of a 3-adapted frame at a point.

    `h` maps coefficient names to jets; `alpha` is the (du, dv) pair of the
    connection form; `vanishing` collects everything that adaptation forces
    to zero (kept as jets so tests can check the whole neighborhood).
    """

    surface_type: str
    epsilon: int
    h: dict
    alpha: tuple
    coframe: list
    vanishing: dict


@dataclass
class MetricData:
    """Induced metrics in the surface coordinates.

    `first` holds (E, F, G) jets with I = E du^2 + 2 F du dv + G dv^2.
    `normal_gram` is the ambient 5x5 Gram matrix of the normal-bundle
    metric at the base point: for an ambient vector X it evaluates to
    x3^2 + x4^2 (space-like) or 2 x3 x4 (time-like), where (x3, x4) are the
    components of X along (e3, e4).
    """

    first: tuple
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

# Names of the invariants `extract_invariants` returns, sorted, per type.
H_NAMES = {case: layout.names for case, layout in LAYOUTS.items()}


def _alpha(M0, F, n=None):
    """alpha's coefficients, sum of M0[i, j] F[:, i, j] / 2 over i, j in {1, 2}."""
    return sum(M0[i, j] / 2.0 * F[:, i, j, :n] for i in (1, 2) for j in (1, 2) if M0[i, j])


def extract_invariants(mc, surface_type, epsilon=0):
    """Name the invariant coefficients of a 3-adapted Maurer-Cartan field.

    `mc` is the Maurer-Cartan field of a 3-adapted frame, `surface_type`
    "SpaceLike" or "TimeLike" and `epsilon` the sign of h0 (space-like
    only).  The layout of the case is read off S = P - M0 (x) alpha, P the
    coframe projection (`MCField.projection`), except for the entries
    killed on Omega, which are read off `MCField.omega`.
    """
    if surface_type not in LAYOUTS:
        raise ValueError("surface_type must be SpaceLike or TimeLike")
    layout = LAYOUTS[surface_type]
    M0, P, pd = layout.M0, mc.projection, mc.projection_degrees
    I, J = np.nonzero(M0)
    S = P.copy()
    S[:, I, J] -= M0[I, J, None] * _alpha(M0, P)[:, None]
    S[..., 0] -= layout.pinned[0] + float(epsilon) * layout.pinned[1]
    # alpha reads columns 1 and 2 in both cases
    degree = np.tile(pd, (5, 1))
    degree[I, J] = np.minimum(degree[I, J], min(pd[1:3]))
    sizes = n_terms(degree).tolist()
    omega, od = mc.omega, mc.degrees
    vanish = {key: TaylorScalar(omega[k, i, j, : n_terms(od[j])].copy()) for key, k, i, j in layout.killed}
    vanish.update((key, TaylorScalar(S[k, i, j, : sizes[i][j]])) for key, k, i, j in layout.reads)
    h = {key: vanish.pop(key) for key in layout.names}
    for key, (k, i, j), (kc, ic, jc) in layout.sym:
        n = min(sizes[i][j], sizes[ic][jc])
        vanish[key] = TaylorScalar(S[k, i, j, :n] - S[kc, ic, jc, :n])
    alpha = _alpha(M0, omega, n_terms(min(od[1:3])))
    return InvariantSet(
        surface_type=surface_type,
        epsilon=int(epsilon),
        h=h,
        alpha=(TaylorScalar(alpha[0]), TaylorScalar(alpha[1])),
        coframe=mc.coframe(),
        vanishing=vanish,
    )


def relation_residuals(inv):
    """Signed residuals of the six linear relations among the invariants.

    All six are identically zero on 3-adapted frames; the returned jets
    measure how well a computed frame satisfies them.
    """
    h = inv.h
    v = inv.vanishing
    if inv.surface_type == "SpaceLike":
        e = float(inv.epsilon)
        return {
            "R1": h["h112"] * 2.0 - h["h332"] + h["h341"],
            "R2": h["h221"] * 2.0 - h["h331"] - h["h342"],
            "R3": h["h111"] - h["h122"] * 2.0 + h["h221"] + h["h432"] - h["h441"],
            "R4": h["h112"] - h["h121"] * 2.0 + h["h222"] - h["h431"] - h["h442"],
            "R5": v["w03_2"] - v["w04_1"] + (h["h121"] - h["h112"]) * (2.0 * e),
            "R6": v["w03_1"] + v["w04_2"] + (h["h221"] - h["h122"]) * (2.0 * e),
        }
    return {
        "R1": h["h222"] * 2.0 - h["h121"] - h["h332"],
        "R2": h["h122"] + h["h341"],
        "R3": h["h211"] + h["h432"],
        "R4": h["h111"] * 2.0 - h["h212"] - h["h441"],
        "R5": h["h111"] * 2.0 - h["h212"] * 2.0 + v["w03_2"],
        "R6": h["h222"] * 2.0 - h["h121"] * 2.0 + v["w04_1"],
    }


def gauss_formula(h, surface_type, epsilon):
    """Algebraic curvature formula over a name -> value mapping.

    The values may be floats or jets; the result has the same kind.  Both
    the point pipeline (`gauss_from_invariants`) and the homogeneous models
    (`homogeneous.gauss_constant`, and the quadratic form of K in their
    structure residual) evaluate K through this one function.
    """
    if surface_type == "SpaceLike":
        quad = (
            h["h332"] * h["h431"] * -1.0
            - h["h441"] * h["h342"]
            + h["h341"] * h["h442"]
            - h["h332"] * h["h442"]
            + h["h432"] * h["h331"]
            + h["h432"] * h["h342"]
            - h["h441"] * h["h331"]
            + h["h341"] * h["h431"]
        )
        return (quad + h["h131"] - h["h232"] + h["h142"] * 2.0) * 0.5 - float(epsilon)
    return (
        h["h341"] * h["h432"]
        - h["h332"] * h["h441"]
        + (h["h132"] + h["h241"]) * 0.5
        - 1.0
    )


def gauss_from_invariants(inv):
    """Gauss curvature from the algebraic curvature formula (a jet)."""
    return gauss_formula(inv.h, inv.surface_type, inv.epsilon)


def gauss_from_connection(inv):
    """Gauss curvature from d(alpha) = K omega^1 wedge omega^2 (a jet).

    Needs the connection form to carry at least one derivative order,
    which requires the surface jets to start at degree >= 4 (each frame
    level consumes one order; alpha sits three levels down).
    """
    a_du, a_dv = inv.alpha
    if a_du.degree < 1:
        raise ValueError(
            "connection-route curvature needs jets of degree >= 1 at the "
            "connection level; evaluate the surface at degree >= 4"
        )
    C = inv.coframe
    area = C[0][0] * C[1][1] - C[0][1] * C[1][0]
    return (a_dv.deriv_u() - a_du.deriv_v()) / area


def metric_at(frame, mc):
    """Induced first fundamental form and ambient normal-metric Gram.

    Parameters
    ----------
    frame : Frame5T
        A 2- or 3-adapted frame (its `surface_type` tag selects the case).
    mc : MCField
        Maurer-Cartan field of that frame.
    """
    C = mc.coframe()
    if frame.surface_type == "SpaceLike":
        E = C[0][0] * C[0][0] + C[1][0] * C[1][0]
        F = C[0][0] * C[0][1] + C[1][0] * C[1][1]
        G = C[0][1] * C[0][1] + C[1][1] * C[1][1]
        S = np.eye(2)
        signature = "Riemannian"
    else:
        E = (C[0][0] * C[1][0]) * 2.0
        F = C[0][0] * C[1][1] + C[0][1] * C[1][0]
        G = (C[0][1] * C[1][1]) * 2.0
        S = np.array([[0.0, 1.0], [1.0, 0.0]])
        signature = "Lorentzian"
    N = np.linalg.inv(frame.coeffs[:, :, 0])[3:5, :]
    return MetricData(first=(E, F, G), normal_gram=N.T @ S @ N, signature=signature)


def fiber_invariant_scalars(inv):
    """Scalars unchanged under the residual frame freedom at a point.

    These are the quantities that may be compared across points (or across
    re-runs with different gauges): the Gauss curvature plus, per case, the
    combinations of level-2/3 coefficients that the stabilizer leaves
    fixed.  Values are floats (constant terms).
    """
    h = {k: v.const for k, v in inv.h.items()}
    K = gauss_from_invariants(inv).const
    if inv.surface_type == "SpaceLike":
        shape = (h["h331"] + h["h342"]) ** 2 + (h["h332"] - h["h341"]) ** 2
        return {
            "K": K,
            "epsilon": float(inv.epsilon),
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
    """Everything the adaptation chain produces at one parameter point."""

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


def effective_degree(degree, want_connection=True):
    """Jet degree at which `analyze_point` evaluates the surface.

    The connection-route curvature needs degree >= 4; requests below 5 are
    raised to 5 when that route is wanted, which keeps one order of margin.
    Without it, requests below 4 are raised to 4: each frame level costs one
    order, and at degree 3 columns 3-4 of the level-3 frame are constants,
    so their derivatives in omega (and the invariants read off them) would
    be lost.
    """
    return max(degree, 5 if want_connection else 4)


def analyze_point(spec, u0, v0, degree=4, want_connection=True):
    """Run the full adaptation chain on a surface at one parameter point.

    Parameters
    ----------
    spec : SurfaceSpec
        Parsed surface.
    u0, v0 : float
        Parameter point.
    degree : int
        Requested jet degree for the surface evaluation; the degree used is
        `effective_degree(degree, want_connection)`.
    want_connection : bool
        Compute the d(alpha) curvature route (needs degree >= 5).

    Returns
    -------
    AnalysisResult

    Raises
    ------
    NullTypeUnsupported
        If the point classifies as Null.
    """
    jets = eval_surface(spec, u0, v0, effective_degree(degree, want_connection))
    fr1 = frame1(jets)
    mc1 = maurer_cartan(fr1)
    fund1 = fundamental_matrices(mc1)
    stype = classify_plane(fund1)
    if stype.tag == "Null":
        raise NullTypeUnsupported(
            "normal plane is null at (u, v) = (%g, %g)" % (u0, v0)
        )
    if stype.tag == "SpaceLike":
        fr2, gauge2, epsilon = adapt2_spacelike(fr1, fund1)
    else:
        fr2, gauge2 = adapt2_timelike(fr1, fund1)
        epsilon = 0
    mc2 = maurer_cartan(fr2, (mc1, gauge2))
    fr3, gauge3 = adapt3(fr2, mc2, stype.tag, epsilon)
    mc3 = maurer_cartan(fr3, (mc2, gauge3))
    inv = extract_invariants(mc3, stype.tag, epsilon)
    k_inv = gauss_from_invariants(inv).const
    k_conn = gauss_from_connection(inv).const if want_connection else float("nan")
    metric = metric_at(fr3, mc3)
    residuals = [abs(x.const) for x in inv.vanishing.values()]
    residuals += [abs(x.const) for x in relation_residuals(inv).values()]
    return AnalysisResult(
        u=u0,
        v=v0,
        surface_type=stype.tag,
        epsilon=epsilon,
        invariants=inv,
        gauss_invariants=k_inv,
        gauss_connection=k_conn,
        metric=metric,
        frame=fr3,
        mc=mc3,
        gram=stype.gram,
        residual_max=max(residuals),
    )
