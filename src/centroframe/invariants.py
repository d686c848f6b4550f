"""Differential invariants of a 3-adapted frame.

Once the frame is 3-adapted, every Maurer-Cartan entry is either a fixed
multiple of the coframe, the connection form alpha, or semi-basic with
coefficient functions that are differential invariants of the surface.
This module names those coefficients, evaluates the linear relations that
the structure equations impose on them (as signed residuals), computes the
Gauss curvature by two independent routes (the algebraic curvature formula
and d(alpha) against the area form), and assembles the induced metrics.

Naming: h<i><j><k> is the coefficient of omega^k_0 in the semi-basic part
of omega^i_j, after any alpha-part is removed.  The connection form is
alpha = (omega^1_2 - omega^2_1)/2 in the space-like case and
(omega^1_1 - omega^2_2)/2 in the time-like case.
"""

from dataclasses import dataclass

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


def _combination(P, degrees, terms, offset=(0.0, 0.0)):
    """Jets (x1, x2) of sum c P[:, i, j] over terms (c, i, j), minus `offset`.

    P is a coefficient array whose column j has degree degrees[j]; the
    result has the lowest degree among the columns it reads.
    """
    d = min(degrees[j] for _, _, j in terms)
    n = n_terms(d)
    c = sum(coef * P[:, i, j, :n] for coef, i, j in terms)
    c[:, 0] -= offset
    return TaylorScalar(c[0]), TaylorScalar(c[1])


# Names of the invariants `extract_invariants` returns, sorted, per type.
H_NAMES = {
    "SpaceLike": (
        "h111", "h112", "h121", "h122", "h131", "h132", "h141", "h142",
        "h221", "h222", "h231", "h232", "h241", "h242",
        "h331", "h332", "h341", "h342", "h431", "h432", "h441", "h442",
    ),
    "TimeLike": (
        "h111", "h121", "h122", "h131", "h132", "h141", "h142",
        "h211", "h212", "h222", "h231", "h241",
        "h331", "h332", "h341", "h342", "h431", "h432", "h441", "h442",
    ),
}


def extract_invariants(mc, surface_type, epsilon=0):
    """Name the invariant coefficients of a 3-adapted Maurer-Cartan field.

    Every name is a linear combination of Maurer-Cartan entries, read off
    the coframe projection (`MCField.projection`) after combining there.

    Parameters
    ----------
    mc : MCField
        Maurer-Cartan field of a 3-adapted frame.
    surface_type : str
        "SpaceLike" or "TimeLike".
    epsilon : int
        Sign of h0 (space-like case only).

    Returns
    -------
    InvariantSet
    """
    P, dP = mc.projection, mc.projection_degrees

    def combo(*terms):
        return _combination(P, dP, terms)

    def pair(i, j, offset=(0.0, 0.0)):
        return _combination(P, dP, ((1.0, i, j),), offset)

    h = {}
    vanish = {}

    # entries that adaptation kills outright
    for (i, j), label in (((0, 0), "w00"), ((3, 0), "w30"), ((4, 0), "w40")):
        vanish[label + "_du"], vanish[label + "_dv"] = _combination(
            mc.omega, mc.degrees, ((1.0, i, j),)
        )
    vanish["w03_1"], vanish["w03_2"] = pair(0, 3)
    vanish["w04_1"], vanish["w04_2"] = pair(0, 4)

    if surface_type == "SpaceLike":
        e = float(epsilon)
        fixed = {(3, 1): (1.0, 0.0), (3, 2): (0.0, -1.0), (4, 1): (0.0, 1.0),
                 (4, 2): (1.0, 0.0), (0, 1): (e, 0.0), (0, 2): (0.0, e)}
        alpha = ((0.5, 1, 2), (-0.5, 2, 1))  # (omega^1_2 - omega^2_1)/2
        h["h111"], h["h112"] = pair(1, 1)
        h["h221"], h["h222"] = pair(2, 2)
        # omega^1_2 and omega^2_1 share one semi-basic part around +-alpha
        h["h121"], h["h122"] = combo((0.5, 1, 2), (0.5, 2, 1))
        h["h331"], h["h332"] = pair(3, 3)
        h["h441"], h["h442"] = pair(4, 4)
        # omega^3_4 - 2 alpha and omega^4_3 + 2 alpha
        h["h341"], h["h342"] = combo((1.0, 3, 4), (-1.0, 1, 2), (1.0, 2, 1))
        h["h431"], h["h432"] = combo((1.0, 4, 3), (1.0, 1, 2), (-1.0, 2, 1))
        h["h131"], h["h132"] = pair(1, 3)
        h["h141"], h["h142"] = pair(1, 4)
        h["h231"], h["h232"] = pair(2, 3)
        h["h241"], h["h242"] = pair(2, 4)
        vanish["sym_w23"] = h["h231"] - h["h132"]
        vanish["sym_w24"] = h["h241"] - h["h142"]
    elif surface_type == "TimeLike":
        fixed = {(3, 1): (1.0, 0.0), (3, 2): (0.0, 0.0), (4, 1): (0.0, 0.0),
                 (4, 2): (0.0, 1.0), (0, 1): (0.0, 1.0), (0, 2): (1.0, 0.0)}
        alpha = ((0.5, 1, 1), (-0.5, 2, 2))  # (omega^1_1 - omega^2_2)/2
        h["h111"], h["h222"] = combo((0.5, 1, 1), (0.5, 2, 2))
        h["h121"], h["h122"] = pair(1, 2)
        h["h211"], h["h212"] = pair(2, 1)
        # omega^3_3 - 2 alpha and omega^4_4 + 2 alpha
        h["h331"], h["h332"] = combo((1.0, 3, 3), (-1.0, 1, 1), (1.0, 2, 2))
        h["h441"], h["h442"] = combo((1.0, 4, 4), (1.0, 1, 1), (-1.0, 2, 2))
        h["h341"], h["h342"] = pair(3, 4)
        h["h431"], h["h432"] = pair(4, 3)
        h["h131"], h["h132"] = pair(1, 3)
        h["h141"], h["h142"] = pair(1, 4)
        h["h231"], c2 = pair(2, 3)
        vanish["sym_w23"] = c2 - h["h131"]
        h["h241"], c2 = pair(2, 4)
        vanish["sym_w24"] = c2 - h["h141"]
    else:
        raise ValueError("surface_type must be SpaceLike or TimeLike")

    # residuals of the pinned coframe multiples (2-adaptedness witnesses)
    for (i, j), target in fixed.items():
        vanish["fix_w%d%d_1" % (i, j)], vanish["fix_w%d%d_2" % (i, j)] = pair(i, j, offset=target)

    return InvariantSet(
        surface_type=surface_type,
        epsilon=int(epsilon),
        h=h,
        alpha=_combination(mc.omega, mc.degrees, alpha),
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
