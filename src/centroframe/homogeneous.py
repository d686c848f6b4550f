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

with K and the six relation cells (solved for the level-1 values) from
`invariants.structure_terms` on the filled layout.  Solutions make
(M0, M1, M2) span a three-dimensional matrix Lie algebra, and the surface
is an orbit of the corresponding group: exponentials of the generators
parametrize it.  This module builds the matrices, evaluates the reduced
residual system, searches for all constant solutions from random starts,
and exposes the built-in solutions together with their exponential-product
parametrizations, quadric equations, and closed-form induced metrics.

The matrices are affine in the fourteen constants x (M0 does not depend on
them) and K is quadratic, so each of the 75 entries of the three identities
is an exact quadratic r(x) = c + L.x + x.Q.x.  The identities are written
once, in `_identities`; the coefficients (c, L, Q) are read off it once per
case by polarization at exact probes of the affine parts of `model_omega`.
The independent equations are chosen exactly from the coefficient rows:
all-zero rows are dropped, and so is any row that equals or negates an
earlier kept row.  One evaluator, `_residual_stack`, serves both
`structure_residual` and the search.  The search
runs all starts of one case together through `least_squares`, a batched
Levenberg-Marquardt in plain numpy: one GEMM with Q gives the residuals and
the exact Jacobians L + 2 Q x of the whole stack, and one batched solve
gives every damped Gauss-Newton step.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CaseMismatch, DegenerateCoframe, UnknownModel
from .invariants import LAYOUTS, structure_terms
from .linalg5 import expm5

__all__ = [
    "MODEL_NAMES",
    "SPACELIKE_NAMES",
    "TIMELIKE_NAMES",
    "invariant_names",
    "ConstantInvariantVector",
    "HomogeneousModel",
    "builtin_model",
    "model_omega",
    "gauss_constant",
    "bracket_check",
    "structure_residual",
    "residual_dimension",
    "SearchCluster",
    "least_squares",
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


def _fill(surface_type, epsilon, values):
    """(M1, M2) of the layout, its tokens looked up in `values` and the pins."""
    d = {"1": 1.0, "0": 0.0, "-1": -1.0, "e": float(epsilon), **values}
    return np.array([d[x] for x in LAYOUTS[surface_type].fill.flat]).reshape(2, 5, 5)


@lru_cache(maxsize=8)
def _level1(surface_type, epsilon):
    """Level-1 names and the linear map that the six relations force.

    The relation cells of `invariants.structure_terms` are affine in the
    values of the fill, with dyadic coefficients read exactly at 0 and at
    unit vectors; they are solved in Fractions for the level-1 names (the
    fill's names outside `constants`).  Row r lists the pairs (k, w), w
    nonzero, with name r = sum of w * y_k over them, y = (1, x).
    """
    layout = LAYOUTS[surface_type]
    names = tuple(sorted(set(layout.fill.flat) & set(layout.names) - set(layout.constants)))
    n, unknowns = len(names), names + layout.constants

    def cells(z):
        P = _fill(surface_type, epsilon, dict(zip(unknowns, z)))
        return structure_terms(P[..., None], surface_type, epsilon)[1][:, 0]

    r0 = cells(np.zeros(len(unknowns)))
    A = np.array([cells(e) - r0 for e in np.eye(len(unknowns))]).T
    # Gauss-Jordan on [A_level1 | r0 | A_constants]: level1 = -row[n:] . y
    M = [[Fraction(v) for v in row] for row in np.column_stack([A[:, :n], r0, A[:, n:]])]
    for c in range(n):
        M[c:] = sorted(M[c:], key=lambda row: row[c] == 0)  # a nonzero pivot first
        M[c] = [v / M[c][c] for v in M[c]]
        M = [row if r == c or not row[c] else [a - row[c] * b for a, b in zip(row, M[c])]
             for r, row in enumerate(M)]
    return names, tuple(tuple((k, float(-v)) for k, v in enumerate(row[n:]) if v) for row in M)


def model_omega(vector):
    """Reduced Maurer-Cartan matrices (M0, M1, M2) of a constant vector.

    Returns three float arrays with
    Omega = M0*alpha + M1*omega^1 + M2*omega^2: M0 is the layout's, and
    M1, M2 fill the layout's cells from the constants and the level-1
    values the relations force.
    """
    names, rows = _level1(vector.surface_type, vector.epsilon)
    values, y = vector.as_dict(), (1.0,) + vector.values
    for name, row in zip(names, rows):
        values[name] = -0.0  # adding to -0.0 keeps the sign of a zero sum
        for k, w in row:
            values[name] += w * y[k]
    M1, M2 = _fill(vector.surface_type, vector.epsilon, values)
    return LAYOUTS[vector.surface_type].M0.copy(), M1, M2


def gauss_constant(vector):
    """Gauss curvature of a constant-invariant vector, from [M1, M2]."""
    _, M1, M2 = model_omega(vector)
    K, _ = structure_terms(np.array([M1, M2])[..., None], vector.surface_type, vector.epsilon)
    return float(K[0])


# The two identities of each case linear in (M1, M2), [M_a, M_b] + s*M_c = 0,
# as (label, a, b, c, s); the third, [M1, M2] + K*M0 = 0, is shared.
_IDENTITIES = {
    "SpaceLike": (("[M0,M1]+M2", 0, 1, 2, 1.0), ("[M2,M0]+M1", 2, 0, 1, 1.0)),
    "TimeLike": (("[M0,M1]-M1", 0, 1, 1, -1.0), ("[M2,M0]-M2", 2, 0, 2, -1.0)),
}


def _comm(A, B):
    return A @ B - B @ A


def _identities(M, surface_type, epsilon):
    """The three reduced structure identities at stacked matrices M (..., 3, 5, 5).

    Returns (..., 3, 5, 5): the two `_IDENTITIES` of the case, then
    [M1, M2] + K*M0 with K from `invariants.structure_terms`.
    """
    E = [_comm(M[..., a, :, :], M[..., b, :, :]) + s * M[..., c, :, :]
         for _, a, b, c, s in _IDENTITIES[surface_type]]
    K, _ = structure_terms(M[..., 1:, :, :, None], surface_type, epsilon)
    E.append(_comm(M[..., 1, :, :], M[..., 2, :, :]) + K[..., None] * M[..., 0, :, :])
    return np.stack(E, axis=-3)


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


@lru_cache(maxsize=8)
def _residual_tensors(surface_type, epsilon):
    """Exact coefficients (c, L, Q) of the 75 raw structure residuals.

    Entry i is r_i(x) = c[i] + L[i] . x + x . Q[i] . x with Q[i] symmetric:
    the matrices are affine in x and M0 is constant (N[0, 1:] = 0), so K
    and every identity are quadratic.  The coefficients are read off one
    `_identities` call by polarization, c = r(0), L_k and Q_kk from
    r(+-e_k), and 2 Q_kl = r(e_k + e_l) - r(e_k) - r(e_l) + c.  At these
    probes the matrices of `_affine_parts` have dyadic entries, so every
    value and every difference is a short sum of dyadic products, and exact.
    """
    N = _affine_parts(surface_type, epsilon)
    n = N.shape[1] - 1
    p, q = np.triu_indices(n, 1)
    unit = np.eye(n)
    X = np.concatenate([np.zeros((1, n)), unit, -unit, unit[p] + unit[q]])
    M = N[:, 0] + np.einsum("pk,ikab->piab", X, N[:, 1:])
    r = _identities(M, surface_type, epsilon).reshape(len(X), -1)
    c, plus, minus, mixed = r[0], r[1 : n + 1], r[n + 1 : 2 * n + 1], r[2 * n + 1 :]
    Q = np.empty((len(c), n, n))
    Q[:, range(n), range(n)] = ((plus + minus) / 2.0 - c).T
    Q[:, p, q] = Q[:, q, p] = ((mixed - plus[p] - plus[q] + c) / 2.0).T
    return c, ((plus - minus) / 2.0).T, Q


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
    Each component is the quadratic c + L.x + x.Q.x in the constants,
    evaluated as a one-row `_residual_stack`.
    """
    R, _ = _residual_stack(*_support_tensors(vector.surface_type, vector.epsilon),
                           vector.as_array()[None])
    return R[0]


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
    E = _identities(np.array(model_omega(model.constants)), model.surface_type, model.epsilon)
    labels = [label for label, *_ in _IDENTITIES[model.surface_type]] + ["[M1,M2]+K*M0"]
    return {label: float(np.max(np.abs(e))) for label, e in zip(labels, E)}


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


# The search cases: the (type, epsilon) groups that their starts alternate over.
SEARCH_CASES = {
    "spacelike": (("SpaceLike", 1), ("SpaceLike", -1)),
    "spacelike+": (("SpaceLike", 1),),
    "spacelike-": (("SpaceLike", -1),),
    "timelike": (("TimeLike", 0),),
}

# Half-width of the uniform start box of the constant-solution search.
SEARCH_BOX = 3.0
# Max-norm residual below which a start counts as converged.
CONVERGED_TOL = 1e-10
# Max-norm distance below which two converged solutions share a cluster,
# and a cluster matches a built-in model.
CLUSTER_TOL = 1e-6
# Levenberg-Marquardt: iteration cap, initial damping, the damping range
# (below it the shift is lost to roundoff on the unit diagonal, past it a
# step is pure roundoff), and the relative size of a negligible step.
LM_MAX_ITER = 100
LM_LAMBDA0 = 1e-3
LM_LAMBDA_MIN = 1e-12
LM_LAMBDA_MAX = 1e16
LM_XTOL = 1e-15


def _residual_stack(c, L, Q, X):
    """Residuals (k, m) and Jacobians (k, m, 14) at the k rows of X.

    One GEMM with Q reshaped to (m*14, 14) gives Q[i] x for every row and
    entry; then r = c + (L + Q x) . x and J = L + 2 Q x.
    """
    QX = (X @ Q.reshape(-1, X.shape[1]).T).reshape(len(X), len(c), X.shape[1])
    LQ = L + QX
    R = c + (LQ @ X[:, :, None])[..., 0]
    LQ += QX  # J in place; a third (k, m, 14) temporary costs page faults every step
    return R, LQ


def _normal_equations(c, L, Q, X):
    """(ok, max|r|, |r|^2, J^T J, J^T r) at the rows of X; `ok` marks the
    rows where all of them are finite."""
    R, J = _residual_stack(c, L, Q, X)
    JT = J.transpose(0, 2, 1)
    H, g = JT @ J, (JT @ R[:, :, None])[..., 0]
    f = np.einsum("km,km->k", R, R)
    ok = np.isfinite(f) & np.isfinite(H).all(axis=(1, 2)) & np.isfinite(g).all(axis=1)
    return ok, np.abs(R).max(axis=1), f, H, g


def least_squares(c, L, Q, X0):
    """Levenberg-Marquardt on r(x) = c + L.x + x.Q.x from every row of X0.

    Marquardt's damped Gauss-Newton step with Jacobian-diagonal scaling
    (More, "The Levenberg-Marquardt algorithm: implementation and theory",
    LNM 630, 1978): with D = diag(J^T J), each active row solves
    (J^T J + lam D) dx = -J^T r, scaled by D^(1/2) to unit diagonal, and all
    rows share one batched solve.  The damping lam is kept per row: a step
    that lowers |r|^2 is taken and lam falls tenfold, otherwise lam rises
    tenfold.  A row stops when its step is negligible, its residual is
    zero or lam passes `LM_LAMBDA_MAX`; no row runs past `LM_MAX_ITER`
    iterations.  A row whose step or residual turns non-finite stops at
    once, as not converged, before it reaches the batched solve.

    Returns the final points X (n, 14) and the max-norm residual at each;
    it is inf for a row that stopped on a non-finite value.
    """
    X = np.array(X0, dtype=float)
    diag = (slice(None),) + np.diag_indices(X.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        ok, rmax, f, H, g = _normal_equations(c, L, Q, X)
    rmax[~ok] = np.inf
    lam = np.full(len(X), LM_LAMBDA0)
    active = np.flatnonzero(ok)
    for _ in range(LM_MAX_ITER):
        if not len(active):
            break
        Ha, la = H[active], lam[active]
        # a zero column of J gets a tiny scale, so its diagonal is lam
        d = np.sqrt(np.maximum(Ha[diag], np.finfo(float).tiny))
        A = Ha / (d[:, :, None] * d[:, None, :])
        A[diag] += la[:, None]
        y = np.linalg.solve(A, -(g[active] / d)[:, :, None])[..., 0]
        with np.errstate(over="ignore", invalid="ignore"):
            step = y / d
            Xt = X[active] + step
            okt, rt, ft, Ht, gt = _normal_equations(c, L, Q, Xt)
        better = okt & (ft < f[active])
        take = active[better]
        X[take], rmax[take], f[take], H[take], g[take] = (
            Xt[better], rt[better], ft[better], Ht[better], gt[better]
        )
        rmax[active[~okt]] = np.inf
        lam[active] = np.where(better, np.maximum(la / 10.0, LM_LAMBDA_MIN), la * 10.0)
        small = np.abs(step).max(axis=1) <= LM_XTOL * (LM_XTOL + np.abs(X[active]).max(axis=1))
        done = ~okt | small | (f[active] == 0.0) | (lam[active] > LM_LAMBDA_MAX)
        active = active[~done]
    return X, rmax


def search_constant_solutions(case="spacelike", restarts=200, seed=0, tol=CONVERGED_TOL):
    """Find all constant-invariant solutions from random starts.

    Draws `restarts` uniform random starts in [-SEARCH_BOX, SEARCH_BOX]^14;
    start i belongs to the case `plan[i % len(plan)]` (alternating epsilon
    for the umbrella case "spacelike").  The starts of each (type, epsilon)
    group run together through one batched `least_squares` on the reduced
    residual system.  Converged solutions are then clustered greedily in
    start order, closer than `CLUSTER_TOL` in max norm; each cluster keeps
    the vector with the smallest residual, and reports its residual and K
    recomputed there by `structure_residual` and `gauss_constant`.

    Parameters
    ----------
    case : str
        A key of `SEARCH_CASES`: "spacelike" (both signs), "spacelike+",
        "spacelike-", "timelike".
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
    if case not in SEARCH_CASES:
        raise CaseMismatch("case must be one of: %s" % ", ".join(SEARCH_CASES))
    plan = SEARCH_CASES[case]
    rng = np.random.default_rng(seed)
    starts = rng.uniform(-SEARCH_BOX, SEARCH_BOX, size=(max(restarts, 0), 14))
    runs = [
        least_squares(*_support_tensors(*key), starts[g::len(plan)])
        for g, key in enumerate(plan)
    ]
    clusters = []
    for i in range(restarts):
        j, g = divmod(i, len(plan))
        surface_type, epsilon = plan[g]
        X, rmax = runs[g]
        x, resid = X[j], rmax[j]
        if not resid < tol:
            continue
        for c in clusters:
            if (
                c.surface_type == surface_type
                and c.epsilon == epsilon
                and np.max(np.abs(c.values - x)) < CLUSTER_TOL
            ):
                c.hits += 1
                if resid < c.residual:
                    c.values, c.residual = x, resid
                break
        else:
            clusters.append(
                SearchCluster(surface_type, epsilon, x, resid, hits=1, gauss=math.nan)
            )
    for c in clusters:
        civ = ConstantInvariantVector(c.surface_type, c.epsilon, tuple(c.values))
        c.residual = float(np.max(np.abs(structure_residual(civ))))
        c.gauss = gauss_constant(civ)
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
    g = expm5(G1, u) @ expm5(G2, v) @ expm5(G0, t)
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


_SPHERE_POLE_TOL = 1e-9  # |cos v| at or below it is a singular circle of "sphere"


def model_metric(name, u, v):
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
        if abs(c) <= _SPHERE_POLE_TOL:
            raise DegenerateCoframe(
                "parametrization is singular where cos(v) = 0 (v = %g)" % v
            )
        return (3.0 * c * c, 0.0, 3.0)
    if name == "s21":
        return (-3.0 * math.cosh(v) ** 2, 0.0, 3.0)
    raise UnknownModel("no closed-form metric for model %r" % name)
