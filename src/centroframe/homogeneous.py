"""Homogeneous models: surfaces whose named invariants are all constant.

When every invariant of a 3-adapted frame is constant on the surface, the
Maurer-Cartan form collapses to

    Omega = M0 * alpha + M1 * omega^1 + M2 * omega^2

with constant matrices that fill the layout `invariants.LAYOUTS`, the one
the point pipeline reads, with the invariant values: fourteen per case are
free, and the six level-1 values follow from the linear relations.  The
structure equation d(Omega) = -Omega ^ Omega reduces to three identities:

* space-like:  [M0, M1] + M2 = 0,   [M2, M0] + M1 = 0,   [M1, M2] + K*M0 = 0
* time-like:   [M0, M1] - M1 = 0,   [M2, M0] - M2 = 0,   [M1, M2] + K*M0 = 0

with K the Gauss curvature expressed in the constants.  Solutions make
(M0, M1, M2) span a three-dimensional matrix Lie algebra, and the surface
is an orbit of the corresponding group: exponentials of the generators
parametrize it.  This module builds the matrices, evaluates the reduced
residual system, searches for all constant solutions from random starts,
and exposes the built-in solutions together with their exponential-product
parametrizations, quadric equations, and closed-form induced metrics.

The matrices are affine in the fourteen constants x (M0 does not depend on
them) and K is quadratic, so each of the 75 entries of the three identities
is an exact quadratic r(x) = c + L.x + x.Q.x.  The coefficients (c, L, Q)
are built once per case from the affine parts of `model_omega` and the
quadratic form of `invariants.gauss_formula`.  The independent equations
are chosen exactly from the coefficient rows: all-zero rows are dropped,
and so is any row that equals or negates an earlier kept row.  The search
runs Levenberg-Marquardt with the analytic Jacobian L + 2 Q x.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import expm
from scipy.optimize import least_squares

from .errors import CaseMismatch, DegenerateCoframe, UnknownModel
from .invariants import LAYOUTS, gauss_formula
from .surfaces import builtin_surface

__all__ = [
    "MODEL_NAMES",
    "SPACELIKE_NAMES",
    "TIMELIKE_NAMES",
    "ConstantInvariantVector",
    "HomogeneousModel",
    "builtin_model",
    "model_omega",
    "gauss_constant",
    "bracket_check",
    "structure_residual",
    "structure_jacobian",
    "residual_dimension",
    "SearchCluster",
    "search_constant_solutions",
    "model_generators",
    "exp_product_point",
    "quadric_residual",
    "model_metric",
]

SPACELIKE_NAMES = LAYOUTS["SpaceLike"].constants
TIMELIKE_NAMES = LAYOUTS["TimeLike"].constants


def invariant_names(surface_type):
    """Component order of the constant-invariant vector for a case."""
    if surface_type not in LAYOUTS:
        raise CaseMismatch("surface_type must be SpaceLike or TimeLike")
    return LAYOUTS[surface_type].constants


@dataclass(frozen=True)
class ConstantInvariantVector:
    """Fourteen free invariant constants of one case, in a fixed order.

    The component order is `SPACELIKE_NAMES` or `TIMELIKE_NAMES`; the
    level-1 coefficients are not stored because the linear relations
    express them through these fourteen.
    """

    surface_type: str
    epsilon: int
    values: tuple

    def __post_init__(self):
        invariant_names(self.surface_type)
        if len(self.values) != 14:
            raise ValueError("expected 14 components, got %d" % len(self.values))
        if self.surface_type == "SpaceLike" and self.epsilon not in (1, -1):
            raise CaseMismatch("space-like vectors need epsilon = +1 or -1")
        if self.surface_type == "TimeLike" and self.epsilon != 0:
            raise CaseMismatch("time-like vectors have no epsilon")
        object.__setattr__(self, "values", tuple(float(x) for x in self.values))

    @classmethod
    def from_mapping(cls, surface_type, mapping, epsilon=0):
        """Build from a name -> value mapping; missing names default to 0.

        Names outside the component order (for example the level-1
        coefficients that the relations determine) are ignored.
        """
        names = invariant_names(surface_type)
        return cls(
            surface_type=surface_type,
            epsilon=epsilon,
            values=tuple(float(mapping.get(n, 0.0)) for n in names),
        )

    @property
    def names(self):
        return invariant_names(self.surface_type)

    def value(self, name):
        return self.values[self.names.index(name)]

    def as_dict(self):
        return dict(zip(self.names, self.values))

    def as_array(self):
        return np.array(self.values)


def _level1(d, surface_type):
    """The six level-1 values that the linear relations force on a model.

    Solved by hand from `invariants.relation_residuals` with every
    vanishing entry zero, in terms of the fourteen constants in `d`.
    """
    if surface_type == "SpaceLike":
        tp, tm = (d["h331"] + d["h342"]) / 2.0, (d["h332"] - d["h341"]) / 2.0
        return {"h111": tp - d["h432"] + d["h441"], "h112": tm, "h121": tm, "h122": tp,
                "h221": tp, "h222": tm + d["h431"] + d["h442"]}
    return {"h111": d["h441"], "h121": d["h332"], "h122": -d["h341"],
            "h211": -d["h432"], "h212": d["h441"], "h222": d["h332"]}


def model_omega(vector):
    """Reduced Maurer-Cartan matrices (M0, M1, M2) of a constant vector.

    Returns three float arrays with
    Omega = M0*alpha + M1*omega^1 + M2*omega^2: M0 is the layout's, and
    M1, M2 fill the layout's cells from the constants and the level-1
    values the relations force.
    """
    layout = LAYOUTS[vector.surface_type]
    d = {"1": 1.0, "0": 0.0, "-1": -1.0, "e": float(vector.epsilon), **vector.as_dict()}
    d.update(_level1(d, vector.surface_type))
    M1, M2 = np.array([d[x] for x in layout.fill.flat]).reshape(2, 5, 5)
    return layout.M0.copy(), M1, M2


def gauss_constant(vector):
    """Gauss curvature of a constant-invariant vector (algebraic formula)."""
    return gauss_formula(vector.as_dict(), vector.surface_type, vector.epsilon)


def _comm(A, B):
    return A @ B - B @ A


def _affine_parts(surface_type, epsilon):
    """Affine parts of `model_omega`: M_i(x) = A_i + sum_k x_k B_ik.

    Returns N of shape (3, 15, 5, 5) with N[i, 0] = A_i and N[i, k] = B_ik
    for k = 1..14, read off at x = 0 and at the unit vectors.  This is exact
    because every entry of M_i is affine in x with dyadic coefficients.
    """
    def omega(x):
        return np.array(model_omega(ConstantInvariantVector(surface_type, epsilon, x)))

    A = omega((0.0,) * 14)
    N = np.empty((3, 15, 5, 5))
    N[:, 0] = A
    for k, e in enumerate(np.eye(14), 1):
        N[:, k] = omega(tuple(e)) - A
    return N


def _gauss_form(surface_type, epsilon):
    """Symmetric G of shape (15, 15) with K(x) = (1, x) G (1, x)^T.

    K is a quadratic polynomial in x, so its coefficients follow exactly
    from `gauss_formula` at 0, at the unit vectors e_k and at e_k + e_l:
    Q_kl = (K(e_k + e_l) - K(e_k) - K(e_l) + K(0)) / 2, diagonal included.
    """
    names = invariant_names(surface_type)

    def K(x):
        return gauss_formula(dict(zip(names, x)), surface_type, epsilon)

    E = np.eye(14)
    k0 = K(np.zeros(14))
    unit = np.array([K(e) for e in E])
    pair = np.array([[K(a + b) for b in E] for a in E])
    Q = (pair - unit[:, None] - unit[None, :] + k0) / 2.0
    g = unit - k0 - np.diag(Q)
    G = np.empty((15, 15))
    G[0, 0] = k0
    G[0, 1:] = G[1:, 0] = g / 2.0
    G[1:, 1:] = Q
    return G


@lru_cache(maxsize=8)
def _residual_tensors(surface_type, epsilon):
    """Exact coefficients (c, L, Q) of the 75 raw structure residuals.

    Entry i is r_i(x) = c[i] + L[i] . x + x . Q[i] . x with Q[i] symmetric.
    The tensors are built in homogeneous coordinates y = (1, x): a product
    of affine matrices M_a M_b has the form sum_pq y_p y_q N_ap N_bq, a
    linear term M_a is sum_q y_0 y_q N_aq, and K*M0 is the quadratic form
    of K times the constant M0.
    """
    N = _affine_parts(surface_type, epsilon)

    def comm(a, b):
        return np.einsum("pij,qjk->pqik", N[a], N[b]) - np.einsum(
            "pij,qjk->pqik", N[b], N[a]
        )

    def linear(a):
        T = np.zeros((15, 15, 5, 5))
        T[0] = N[a]  # y_0 y_q N_aq, split over [0, q] and [q, 0] below
        return T

    if surface_type == "SpaceLike":
        E1 = comm(0, 1) + linear(2)
        E2 = comm(2, 0) + linear(1)
    else:
        E1 = comm(0, 1) - linear(1)
        E2 = comm(2, 0) - linear(2)
    # M0 is constant in both cases (N[0, 1:] = 0), so K*M0 stays quadratic.
    E3 = comm(1, 2) + _gauss_form(surface_type, epsilon)[:, :, None, None] * N[0, 0]
    T = np.concatenate(
        [E.transpose(2, 3, 0, 1).reshape(25, 15, 15) for E in (E1, E2, E3)]
    )
    T = (T + T.transpose(0, 2, 1)) / 2.0
    return T[:, 0, 0], 2.0 * T[:, 0, 1:], T[:, 1:, 1:]


def _raw_residual(vector):
    """All 75 entries of the three reduced structure identities."""
    c, L, Q = _residual_tensors(vector.surface_type, vector.epsilon)
    x = vector.as_array()
    return c + (L + Q @ x) @ x


@lru_cache(maxsize=8)
def _residual_support(surface_type, epsilon):
    """Indices of one representative per independent residual entry.

    Many of the 75 raw entries are identically zero or equal or negated
    copies of each other as polynomials in the fourteen constants.  The
    rule is exact on the coefficient rows (c, L, Q): drop all-zero rows,
    and drop a row that equals or negates an earlier kept row, so the
    first of each family in index order is kept.
    """
    c, L, Q = _residual_tensors(surface_type, epsilon)
    rows = np.concatenate([c[:, None], L, Q.reshape(len(c), -1)], axis=1)
    keep = []
    for j, row in enumerate(rows):
        if not row.any():
            continue
        if any(
            np.array_equal(row, rows[k]) or np.array_equal(row, -rows[k]) for k in keep
        ):
            continue
        keep.append(j)
    return tuple(keep)


@lru_cache(maxsize=8)
def _support_tensors(surface_type, epsilon):
    """The (c, L, Q) rows of the independent residual entries."""
    rows = list(_residual_support(surface_type, epsilon))
    return tuple(t[rows] for t in _residual_tensors(surface_type, epsilon))


def structure_residual(vector):
    """Independent residuals of the reduced structure equations.

    Zero exactly on constant-invariant solutions.  Duplicate and
    identically-zero entries of the three matrix identities are removed,
    so the result has one component per independent polynomial equation.
    Each component is the quadratic c + L.x + x.Q.x in the constants.
    """
    c, L, Q = _support_tensors(vector.surface_type, vector.epsilon)
    x = vector.as_array()
    return c + (L + Q @ x) @ x


def structure_jacobian(vector):
    """Exact Jacobian of `structure_residual`, L + 2 Q x, of shape (m, 14)."""
    _, L, Q = _support_tensors(vector.surface_type, vector.epsilon)
    return L + 2.0 * (Q @ vector.as_array())


def residual_dimension(surface_type, epsilon=0):
    """Number of independent residual components for a case."""
    return len(_residual_support(surface_type, epsilon))


@dataclass(frozen=True)
class HomogeneousModel:
    """A built-in constant-invariant solution and its parametrized surface."""

    name: str
    surface_type: str
    epsilon: int
    constants: ConstantInvariantVector
    gauss: float


_MODEL_TABLE = {
    "h2": ("SpaceLike", 1, {"h131": 1.0 / 3, "h142": 1.0 / 3, "h232": -1.0 / 3}),
    "sphere": ("SpaceLike", -1, {"h131": -1.0 / 3, "h142": -1.0 / 3, "h232": 1.0 / 3}),
    "s21": ("TimeLike", 0, {"h132": 2.0 / 3, "h241": 2.0 / 3}),
}

MODEL_NAMES = tuple(sorted(_MODEL_TABLE))


def builtin_model(name):
    """Constant-invariant data of a built-in surface ("h2", "sphere", "s21")."""
    if name not in _MODEL_TABLE:
        raise UnknownModel(
            "unknown model %r; available: %s" % (name, ", ".join(sorted(_MODEL_TABLE)))
        )
    surface_type, epsilon, mapping = _MODEL_TABLE[name]
    civ = ConstantInvariantVector.from_mapping(surface_type, mapping, epsilon)
    return HomogeneousModel(
        name=name,
        surface_type=surface_type,
        epsilon=epsilon,
        constants=civ,
        gauss=gauss_constant(civ),
    )


def bracket_check(model):
    """Max-norm residuals of the three bracket identities at a model.

    The labels name the identity being tested; every value is zero (to
    roundoff) when the model solves the reduced structure equations.
    """
    M0, M1, M2 = model_omega(model.constants)
    K = model.gauss
    if model.surface_type == "SpaceLike":
        rel = {
            "[M0,M1]+M2": _comm(M0, M1) + M2,
            "[M2,M0]+M1": _comm(M2, M0) + M1,
            "[M1,M2]+K*M0": _comm(M1, M2) + K * M0,
        }
    else:
        rel = {
            "[M0,M1]-M1": _comm(M0, M1) - M1,
            "[M2,M0]-M2": _comm(M2, M0) - M2,
            "[M1,M2]+K*M0": _comm(M1, M2) + K * M0,
        }
    return {label: float(np.max(np.abs(E))) for label, E in rel.items()}


# ---------------------------------------------------------------------------
# Search for all constant solutions
# ---------------------------------------------------------------------------


@dataclass
class SearchCluster:
    """One distinct solution found by the random-start search."""

    surface_type: str
    epsilon: int
    values: np.ndarray
    residual: float
    hits: int
    gauss: float


def _search_plan(case):
    if case == "spacelike":
        return (("SpaceLike", 1), ("SpaceLike", -1))
    if case == "spacelike+":
        return (("SpaceLike", 1),)
    if case == "spacelike-":
        return (("SpaceLike", -1),)
    if case == "timelike":
        return (("TimeLike", 0),)
    raise CaseMismatch(
        "case must be one of: spacelike, spacelike+, spacelike-, timelike"
    )


# Half-width of the uniform start box of the constant-solution search.
SEARCH_BOX = 3.0
# Max-norm distance below which two converged solutions share a cluster.
CLUSTER_TOL = 1e-6


def search_constant_solutions(case="spacelike", restarts=200, seed=0, tol=1e-10):
    """Find all constant-invariant solutions from random starts.

    Runs Levenberg-Marquardt least squares on the reduced residual system,
    with its exact Jacobian, from `restarts` uniform random starts in
    [-SEARCH_BOX, SEARCH_BOX]^14 (alternating epsilon for the umbrella case
    "spacelike") and greedily clusters converged solutions closer than
    `CLUSTER_TOL` in max norm.

    Parameters
    ----------
    case : str
        "spacelike" (both signs), "spacelike+", "spacelike-", "timelike".
    restarts : int
        Number of random starts.
    seed : int
        Seed for the start-point generator; results are deterministic.
    tol : float
        Max-norm residual below which a run counts as converged.

    Returns
    -------
    list of SearchCluster
        Sorted by case, then hit count (descending), then values.
    """
    plan = _search_plan(case)
    rng = np.random.default_rng(seed)
    clusters = []
    for i in range(restarts):
        surface_type, epsilon = plan[i % len(plan)]

        def fun(x, _st=surface_type, _eps=epsilon):
            return structure_residual(ConstantInvariantVector(_st, _eps, tuple(x)))

        def jac(x, _st=surface_type, _eps=epsilon):
            return structure_jacobian(ConstantInvariantVector(_st, _eps, tuple(x)))

        x0 = rng.uniform(-SEARCH_BOX, SEARCH_BOX, size=14)
        sol = least_squares(
            fun, x0, jac=jac, method="lm", xtol=1e-13, ftol=1e-13, gtol=1e-13,
            max_nfev=4000,
        )
        resid = float(np.max(np.abs(fun(sol.x))))
        if resid >= tol:
            continue
        placed = False
        for c in clusters:
            if (
                c.surface_type == surface_type
                and c.epsilon == epsilon
                and np.max(np.abs(c.values - sol.x)) < CLUSTER_TOL
            ):
                c.hits += 1
                if resid < c.residual:
                    c.values = sol.x.copy()
                    c.residual = resid
                placed = True
                break
        if not placed:
            civ = ConstantInvariantVector(surface_type, epsilon, tuple(sol.x))
            clusters.append(
                SearchCluster(
                    surface_type=surface_type,
                    epsilon=epsilon,
                    values=sol.x.copy(),
                    residual=resid,
                    hits=1,
                    gauss=gauss_constant(civ),
                )
            )
    clusters.sort(
        key=lambda c: (
            c.surface_type,
            -c.epsilon,
            -c.hits,
            tuple(np.round(c.values, 8)),
        )
    )
    return clusters


# ---------------------------------------------------------------------------
# Exponential-product parametrization, quadrics, closed-form metrics
# ---------------------------------------------------------------------------


def model_generators(name):
    """Lie-algebra generators (G0, G1, G2) of a built-in model.

    Scaled so that exp(u*G1) exp(v*G2) exp(t*G0) applied to the base point
    reproduces the built-in parametrization in the same (u, v).
    """
    model = builtin_model(name)
    M0, M1, M2 = model_omega(model.constants)
    if model.surface_type == "SpaceLike":
        s = math.sqrt(3.0)
        return M0, s * M1, s * M2
    s = math.sqrt(1.5)
    return M0, s * (M1 - M2), s * (M1 + M2)


def exp_product_point(name, t, u, v):
    """Surface point exp(u*G1) exp(v*G2) exp(t*G0) e0 of a built-in model.

    The first column of the group element is the position vector; it is
    independent of t because exp(t*G0) stabilizes the base point.
    """
    G0, G1, G2 = model_generators(name)
    g = expm(u * G1) @ expm(v * G2) @ expm(t * G0)
    return g[:, 0]


def quadric_residual(name, point):
    """Values of the defining quadric polynomials of a model at a point.

    Zero (to roundoff) on the model surface; order-one away from it.
    """
    x0, x1, x2, x3, x4 = (float(x) for x in point)
    if name == "h2":
        return np.array(
            [
                x1 * (x0 - x3 - 1.0) - x2 * x4,
                x2 * (x0 + x3 - 1.0) - x1 * x4,
                (4.0 * x0 - 1.0) ** 2 - 12.0 * x1 * x1 - 12.0 * x2 * x2 - 9.0,
            ]
        )
    if name == "sphere":
        return np.array(
            [
                x1 * (x0 + x3 - 1.0) + x2 * x4,
                x2 * (x0 - x3 - 1.0) + x1 * x4,
                (4.0 * x0 - 1.0) ** 2 + 12.0 * x1 * x1 + 12.0 * x2 * x2 - 9.0,
            ]
        )
    if name == "s21":
        return np.array(
            [
                3.0 * x2 * x2 - x4 * (4.0 * x0 + 2.0),
                3.0 * x1 * x1 - x3 * (4.0 * x0 + 2.0),
                2.0 * x0 * x0 - x0 - 3.0 * x1 * x2 - 1.0,
            ]
        )
    raise UnknownModel("no quadric table for model %r" % name)


def model_metric(name, u, v, tol=1e-9):
    """Closed-form induced metric (E, F, G) of a built-in model at (u, v).

    Raises
    ------
    DegenerateCoframe
        For "sphere" where cos(v) vanishes: the parametrization breaks
        down along those circles.
    """
    if name == "h2":
        return (3.0 * math.cosh(v) ** 2, 0.0, 3.0)
    if name == "sphere":
        c = math.cos(v)
        if abs(c) <= tol:
            raise DegenerateCoframe(
                "parametrization is singular where cos(v) = 0 (v = %g)" % v
            )
        return (3.0 * c * c, 0.0, 3.0)
    if name == "s21":
        return (-3.0 * math.cosh(v) ** 2, 0.0, 3.0)
    raise UnknownModel("no closed-form metric for model %r" % name)
