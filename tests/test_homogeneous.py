"""Tests for constant-invariant models and the reduced structure system.

Oracles: the frozen constant vectors of the built-in models, closure of
their bracket tables, agreement of the exponential-product parametrization
with the direct one, quadric equations, and the adaptation pipeline run on
the built-in surfaces.
"""

from collections import defaultdict

import numpy as np
import pytest

from centroframe.errors import CaseMismatch, DegenerateCoframe, UnknownModel
from centroframe.homogeneous import (
    CLUSTER_TOL,
    SEARCH_BOX,
    SPACELIKE_NAMES,
    TIMELIKE_NAMES,
    ConstantInvariantVector,
    _comm,
    _residual_stack,
    _residual_support,
    _residual_tensors,
    _support_tensors,
    bracket_check,
    builtin_model,
    exp_product_point,
    gauss_constant,
    least_squares,
    model_generators,
    model_metric,
    model_omega,
    quadric_residual,
    residual_dimension,
    search_constant_solutions,
    structure_residual,
)
from centroframe.invariants import H_NAMES, InvariantSet, analyze_point, relation_residuals
from centroframe.surfaces import builtin_surface, eval_surface


def test_builtin_model_constants():
    h2 = builtin_model("h2")
    assert h2.surface_type == "SpaceLike" and h2.epsilon == 1
    assert h2.constants.as_dict()["h131"] == pytest.approx(1 / 3)
    assert h2.constants.as_dict()["h142"] == pytest.approx(1 / 3)
    assert h2.constants.as_dict()["h232"] == pytest.approx(-1 / 3)
    assert h2.gauss == pytest.approx(-1 / 3)

    sphere = builtin_model("sphere")
    assert sphere.epsilon == -1
    assert sphere.gauss == pytest.approx(1 / 3)
    assert np.allclose(sphere.constants.as_array(), -h2.constants.as_array())

    s21 = builtin_model("s21")
    assert s21.surface_type == "TimeLike" and s21.epsilon == 0
    assert s21.constants.as_dict()["h132"] == pytest.approx(2 / 3)
    assert s21.constants.as_dict()["h241"] == pytest.approx(2 / 3)
    assert s21.gauss == pytest.approx(-1 / 3)

    with pytest.raises(UnknownModel):
        builtin_model("torus")


def test_constant_vector_validation():
    with pytest.raises(CaseMismatch):
        ConstantInvariantVector("Null", 0, (0.0,) * 14)
    with pytest.raises(CaseMismatch):
        ConstantInvariantVector("SpaceLike", 0, (0.0,) * 14)
    with pytest.raises(CaseMismatch):
        ConstantInvariantVector("TimeLike", 1, (0.0,) * 14)
    with pytest.raises(ValueError):
        ConstantInvariantVector("TimeLike", 0, (0.0,) * 13)
    # extra names (e.g. relation-determined level-1 values) are ignored
    civ = ConstantInvariantVector.from_mapping(
        "TimeLike", {"h132": 0.5, "h111": 9.0}, 0
    )
    assert civ.as_dict()["h132"] == 0.5
    assert civ.as_dict()["h241"] == 0.0
    assert civ.names == TIMELIKE_NAMES
    assert len(SPACELIKE_NAMES) == len(TIMELIKE_NAMES) == 14


@pytest.mark.parametrize(
    "names, surface_type",
    [(SPACELIKE_NAMES, "SpaceLike"), (TIMELIKE_NAMES, "TimeLike")],
)
def test_constant_names_follow_h_names(names, surface_type):
    """The 14 constant-invariant names are a sorted subset of the h-names."""
    assert len(names) == 14
    assert set(names) <= set(H_NAMES[surface_type])
    assert names == tuple(n for n in H_NAMES[surface_type] if n in names)
    assert names == tuple(sorted(names))


# The constant-vector component orders, listed by hand as the reference for
# the orders the layout tables yield.
SPACELIKE_REFERENCE = (
    "h131", "h132", "h141", "h142", "h232", "h242",
    "h331", "h332", "h341", "h342", "h431", "h432", "h441", "h442",
)
TIMELIKE_REFERENCE = (
    "h131", "h132", "h141", "h142", "h231", "h241",
    "h331", "h332", "h341", "h342", "h431", "h432", "h441", "h442",
)


def test_constant_names_derived_from_layouts():
    assert SPACELIKE_NAMES == SPACELIKE_REFERENCE
    assert TIMELIKE_NAMES == TIMELIKE_REFERENCE


def test_model_omega_templates():
    rng = np.random.default_rng(0)
    vec = ConstantInvariantVector("SpaceLike", 1, tuple(rng.uniform(-1, 1, 14)))
    d = vec.as_dict()
    M0, M1, M2 = model_omega(vec)
    assert np.allclose(M0[3, 4], 2.0) and np.allclose(M0[4, 3], -2.0)
    assert np.allclose(M1[3], [0, 1, 0, d["h331"], d["h341"]])
    assert np.allclose(M2[3], [0, 0, -1, d["h332"], d["h342"]])
    assert np.allclose(M1[0], [0, 1, 0, 0, 0])  # epsilon = +1
    # the level-1 entries are tied by the linear relations
    assert M1[2, 1] == pytest.approx((d["h332"] - d["h341"]) / 2)
    assert M2[1, 2] == pytest.approx((d["h331"] + d["h342"]) / 2)

    vec = ConstantInvariantVector("TimeLike", 0, tuple(rng.uniform(-1, 1, 14)))
    d = vec.as_dict()
    M0, M1, M2 = model_omega(vec)
    assert np.allclose(M0, np.diag([0.0, 1.0, -1.0, 2.0, -2.0]))
    assert M1[1, 1] == pytest.approx(d["h441"])
    assert M2[1, 1] == pytest.approx(d["h332"])
    assert M1[2, 1] == pytest.approx(-d["h432"])
    assert M2[1, 2] == pytest.approx(-d["h341"])
    assert np.allclose(M2[2], [1, d["h441"], d["h332"], d["h131"], d["h141"]])


def test_bracket_tables_of_models():
    for name in ("h2", "sphere", "s21"):
        for label, resid in bracket_check(builtin_model(name)).items():
            assert resid < 1e-13, (name, label)


def test_bracket_span_coefficients():
    # the three-dimensional algebras close with the expected coefficients
    M0, M1, M2 = model_omega(builtin_model("h2").constants)
    assert np.allclose(M1 @ M2 - M2 @ M1, M0 / 3, atol=1e-14)
    M0, M1, M2 = model_omega(builtin_model("sphere").constants)
    assert np.allclose(M1 @ M2 - M2 @ M1, -M0 / 3, atol=1e-14)
    M0, M1, M2 = model_omega(builtin_model("s21").constants)
    assert np.allclose(M0 @ M1 - M1 @ M0, M1, atol=1e-14)
    assert np.allclose(M2 @ M0 - M0 @ M2, M2, atol=1e-14)
    assert np.allclose(M1 @ M2 - M2 @ M1, M0 / 3, atol=1e-14)


def test_structure_residual_at_models_and_nearby():
    for name in ("h2", "sphere", "s21"):
        model = builtin_model(name)
        assert np.max(np.abs(structure_residual(model.constants))) < 1e-14
        bumped = np.array(model.constants.values)
        bumped[6] += 0.05  # h331
        off = ConstantInvariantVector(
            model.surface_type, model.epsilon, tuple(bumped)
        )
        assert np.max(np.abs(structure_residual(off))) > 1e-3


CASES = (("SpaceLike", 1), ("SpaceLike", -1), ("TimeLike", 0))


def test_residual_dimensions():
    assert residual_dimension("SpaceLike", 1) == 29
    assert residual_dimension("SpaceLike", -1) == 29
    assert residual_dimension("TimeLike", 0) == 23
    # the index tuples that random probing of the raw residual gave
    spacelike = (
        6, 7, 8, 9, 12, 13, 14, 18, 19, 23, 24, 37, 38, 39, 43,
        44, 48, 49, 56, 57, 58, 59, 62, 63, 64, 68, 69, 73, 74,
    )
    timelike = (
        6, 7, 8, 9, 11, 13, 18, 19, 23, 34, 44, 49,
        56, 57, 58, 59, 61, 63, 64, 68, 69, 73, 74,
    )
    assert _residual_support("SpaceLike", 1) == spacelike
    assert _residual_support("SpaceLike", -1) == spacelike
    assert _residual_support("TimeLike", 0) == timelike


def _matrix_route_residual(vector):
    # reference: the three identities built from the model_omega matrices
    M0, M1, M2 = model_omega(vector)
    K = gauss_constant(vector)
    if vector.surface_type == "SpaceLike":
        E1 = _comm(M0, M1) + M2
        E2 = _comm(M2, M0) + M1
    else:
        E1 = _comm(M0, M1) - M1
        E2 = _comm(M2, M0) - M2
    E3 = _comm(M1, M2) + K * M0
    return np.concatenate([E1.ravel(), E2.ravel(), E3.ravel()])


def _raw_residual(vector):
    # all 75 entries of the identities, from the coefficients (c, L, Q)
    c, L, Q = _residual_tensors(vector.surface_type, vector.epsilon)
    x = vector.as_array()
    return c + (L + Q @ x) @ x


def test_raw_residual_matches_matrix_route():
    rng = np.random.default_rng(31)
    for st, eps in CASES:
        for _ in range(20):
            vec = ConstantInvariantVector(st, eps, tuple(rng.uniform(-3, 3, 14)))
            want = _matrix_route_residual(vec)
            got = _raw_residual(vec)
            assert got.shape == (75,)
            assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("st, eps", CASES)
def test_coefficients_are_exact_at_dyadic_points(st, eps):
    """At dyadic x the quadratic and the matrix route are both exact, so
    they agree to the bit: (c, L, Q) are the identities' own coefficients."""
    rng = np.random.default_rng(33)
    for _ in range(20):
        vec = ConstantInvariantVector(st, eps, tuple(rng.integers(-24, 25, 14) / 8))
        assert np.all(_raw_residual(vec) == _matrix_route_residual(vec))


def test_structure_jacobian_matches_central_differences():
    rng = np.random.default_rng(32)
    h = 1e-4
    for st, eps in CASES:

        def residual(x):
            return structure_residual(ConstantInvariantVector(st, eps, tuple(x)))

        for _ in range(5):
            x = rng.uniform(-2, 2, 14)
            _, (J,) = _residual_stack(*_support_tensors(st, eps), x[None])
            assert J.shape == (residual_dimension(st, eps), 14)
            fd = np.empty_like(J)
            for k, step in enumerate(h * np.eye(14)):
                fd[:, k] = (residual(x + step) - residual(x - step)) / (2 * h)
            assert np.max(np.abs(J - fd)) < 1e-8 * np.max(np.abs(fd))


def test_residual_dedup_covers_all_entries():
    # every nonzero raw entry equals +- some kept component
    rng = np.random.default_rng(123)
    for st, eps in CASES:
        vec = ConstantInvariantVector(st, eps, tuple(rng.uniform(-1, 1, 14)))
        raw = _raw_residual(vec)
        kept = structure_residual(vec)
        for x in raw:
            if abs(x) < 1e-11:
                continue
            assert np.min(np.abs(kept - x)) < 1e-9 or np.min(np.abs(kept + x)) < 1e-9


def test_gauss_constant_matches_pipeline():
    for name in ("h2", "sphere", "s21"):
        res = analyze_point(builtin_surface(name), 0.3, -0.2, degree=5)
        civ = ConstantInvariantVector.from_mapping(
            res.surface_type,
            {k: v.const for k, v in res.invariants.h.items()},
            res.epsilon,
        )
        assert gauss_constant(civ) == pytest.approx(res.gauss_invariants, abs=1e-12)
        assert np.max(np.abs(structure_residual(civ))) < 1e-10
        model = builtin_model(name)
        assert np.allclose(civ.as_array(), model.constants.as_array(), atol=1e-10)


@pytest.mark.parametrize("name", ["h2", "sphere", "s21"])
def test_pipeline_layout_matches_model_omega(name):
    """S = P - M0 (x) alpha of the pipeline equals the model's (M1, M2)."""
    M0, M1, M2 = model_omega(builtin_model(name).constants)
    rng = np.random.default_rng(17)
    for u, v in rng.uniform(-1.0, 1.0, (8, 2)):
        res = analyze_point(builtin_surface(name), u, v)
        P = res.mc.projection[..., 0]
        # coframe projection of alpha = sum over i, j in {1, 2} of M0[i, j] omega^i_j / 2
        alpha = np.einsum("ij,kij->k", M0[1:3, 1:3], P[:, 1:3, 1:3]) / 2
        S = P - M0 * alpha[:, None, None]
        assert np.max(np.abs(S - np.array([M1, M2]))) < 1e-12, (u, v)


@pytest.mark.parametrize("st, eps", CASES)
def test_filled_level1_cells_satisfy_relations(st, eps):
    """The level-1 values model_omega fills in solve the six linear relations."""
    rng = np.random.default_rng(41)
    for _ in range(20):
        vec = ConstantInvariantVector(st, eps, tuple(rng.uniform(-3, 3, 14)))
        M = np.array(model_omega(vec)[1:])
        h = {n: float(M[int(n[3]) - 1, int(n[1]), int(n[2])]) for n in H_NAMES[st]}
        inv = InvariantSet(
            st, eps, h, alpha_coeffs=None, coframe=None, vanishing_coeffs=defaultdict(float),
            projection=M[..., None],
        )
        for label, r in relation_residuals(inv).items():
            assert abs(r[0]) < 1e-14, label


def test_search_finds_both_spacelike_solutions():
    clusters = search_constant_solutions("spacelike", restarts=60, seed=4)
    assert len(clusters) == 2
    assert sum(c.hits for c in clusters) == 60
    by_eps = {c.epsilon: c for c in clusters}
    assert np.allclose(
        by_eps[1].values, builtin_model("h2").constants.as_array(), atol=1e-8
    )
    assert np.allclose(
        by_eps[-1].values, builtin_model("sphere").constants.as_array(), atol=1e-8
    )
    assert by_eps[1].gauss == pytest.approx(-1 / 3, abs=1e-10)
    assert by_eps[-1].gauss == pytest.approx(1 / 3, abs=1e-10)


def test_search_finds_single_timelike_solution():
    clusters = search_constant_solutions("timelike", restarts=40, seed=4)
    assert len(clusters) == 1
    assert clusters[0].hits == 40
    assert np.allclose(
        clusters[0].values, builtin_model("s21").constants.as_array(), atol=1e-8
    )


@pytest.mark.parametrize(
    "case, kwargs, expected",
    [
        ("spacelike", {"restarts": 50, "seed": 1}, {1: "h2", -1: "sphere"}),
        ("timelike", {"restarts": 5}, {0: "s21"}),
    ],
)
def test_search_clusters_name_the_model_they_match(case, kwargs, expected):
    clusters = search_constant_solutions(case, **kwargs)
    assert {c.epsilon: c.match for c in clusters} == expected
    for c in clusters:
        model = builtin_model(c.match)
        assert (model.surface_type, model.epsilon) == (c.surface_type, c.epsilon)
        assert c.match_distance == float(np.max(np.abs(model.constants.as_array() - c.values)))
        assert c.match_distance < CLUSTER_TOL


def test_search_single_sign_cases_and_errors():
    plus = search_constant_solutions("spacelike+", restarts=20, seed=9)
    assert len(plus) == 1 and plus[0].epsilon == 1
    minus = search_constant_solutions("spacelike-", restarts=20, seed=9)
    assert len(minus) == 1 and minus[0].epsilon == -1
    with pytest.raises(CaseMismatch):
        search_constant_solutions("lightlike", restarts=1)
    assert search_constant_solutions("spacelike", restarts=0) == []
    assert search_constant_solutions("timelike", restarts=-1) == []


def test_search_is_deterministic():
    a = search_constant_solutions("timelike", restarts=12, seed=77)
    b = search_constant_solutions("timelike", restarts=12, seed=77)
    assert len(a) == len(b) == 1
    assert np.array_equal(a[0].values, b[0].values)
    assert a[0].hits == b[0].hits


MODEL_OF_CASE = {("SpaceLike", 1): "h2", ("SpaceLike", -1): "sphere", ("TimeLike", 0): "s21"}


@pytest.mark.parametrize("st, eps", CASES)
def test_batched_stack_matches_structure_residual_and_jacobian(st, eps):
    c, L, Q = _support_tensors(st, eps)
    X = np.random.default_rng(51).uniform(-SEARCH_BOX, SEARCH_BOX, (50, 14))
    R, J = _residual_stack(c, L, Q, X)
    for x, r, jac in zip(X, R, J):
        vec = ConstantInvariantVector(st, eps, tuple(x))
        want_r, want_j = structure_residual(vec), L + 2.0 * (Q @ x)
        assert np.max(np.abs(r - want_r)) <= 1e-13 * np.max(np.abs(want_r))
        assert np.max(np.abs(jac - want_j)) <= 1e-13 * np.max(np.abs(want_j))


@pytest.mark.parametrize("st, eps", CASES)
def test_batched_lm_matches_scipy_route(st, eps):
    """Reference: scipy's MINPACK LM from the same starts, one call each."""
    from scipy.optimize import least_squares as scipy_least_squares

    def fun(x):
        return structure_residual(ConstantInvariantVector(st, eps, tuple(x)))

    _, L, Q = _support_tensors(st, eps)

    def jac(x):
        return L + 2.0 * (Q @ x)

    model = builtin_model(MODEL_OF_CASE[st, eps]).constants.as_array()
    X0 = np.random.default_rng(52).uniform(-SEARCH_BOX, SEARCH_BOX, (200, 14))
    X, rmax = least_squares(*_support_tensors(st, eps), X0)
    assert np.all(rmax < 1e-10)
    for x0, x in zip(X0, X):
        ref = scipy_least_squares(
            fun, x0, jac=jac, method="lm", xtol=1e-13, ftol=1e-13, gtol=1e-13, max_nfev=4000
        ).x
        assert np.max(np.abs(fun(ref))) < 1e-10
        assert np.max(np.abs(ref - model)) < 1e-9
        assert np.max(np.abs(x - model)) < 1e-9
        assert np.max(np.abs(x - ref)) < 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lm_rows_are_independent_of_the_batch(monkeypatch):
    st, eps = "SpaceLike", 1
    tensors = _support_tensors(st, eps)
    X0 = np.random.default_rng(53).uniform(-SEARCH_BOX, SEARCH_BOX, (12, 14))
    X0[3, 5] = np.nan
    X0[8] = 1e200
    X, rmax = least_squares(*tensors, X0)
    bad = np.isin(np.arange(12), [3, 8])
    assert np.all(rmax[bad] == np.inf)
    assert np.all(rmax[~bad] < 1e-10)
    model = builtin_model("h2").constants.as_array()
    for x0, x in zip(X0[~bad], X[~bad]):
        alone, r1 = least_squares(*tensors, x0[None])
        assert r1[0] < 1e-10
        assert np.max(np.abs(alone[0] - x)) < 1e-12
        assert np.max(np.abs(x - model)) < CLUSTER_TOL

    # the same starts through the search: the bad rows are left out
    class Starts:
        def uniform(self, low, high, size):
            assert size == X0.shape
            return X0.copy()

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Starts())
    clusters = search_constant_solutions("spacelike+", restarts=12, seed=0)
    assert [c.hits for c in clusters] == [10]
    assert np.max(np.abs(clusters[0].values - model)) < CLUSTER_TOL


def test_exp_product_matches_parametrization():
    rng = np.random.default_rng(6)
    for name in ("h2", "sphere", "s21"):
        spec = builtin_surface(name)
        for _ in range(5):
            u, v, t = rng.uniform(-1.5, 1.5, 3)
            p = exp_product_point(name, t, u, v)
            q = np.array([j.const for j in eval_surface(spec, u, v, 1)])
            assert np.allclose(p, q, atol=1e-12)
            # the full group element depends on t, the point does not
            assert np.allclose(p, exp_product_point(name, t - 1.3, u, v), atol=1e-12)


def test_generators_match_reduced_forms():
    G0, G1, G2 = model_generators("h2")
    M0, M1, M2 = model_omega(builtin_model("h2").constants)
    assert np.allclose(G0, M0)
    assert np.allclose(G1, np.sqrt(3) * M1)
    G0, G1, G2 = model_generators("s21")
    M0, M1, M2 = model_omega(builtin_model("s21").constants)
    assert np.allclose(G1, np.sqrt(1.5) * (M1 - M2))
    assert np.allclose(G2, np.sqrt(1.5) * (M1 + M2))


def test_quadrics_vanish_on_surface_only():
    rng = np.random.default_rng(8)
    for name in ("h2", "sphere", "s21"):
        spec = builtin_surface(name)
        for _ in range(8):
            u, v = rng.uniform(-2, 2, 2)
            pt = np.array([j.const for j in eval_surface(spec, u, v, 1)])
            assert np.max(np.abs(quadric_residual(name, pt))) < 1e-8
            off = pt + np.array([0.0, 0.05, 0.0, 0.05, 0.0])
            assert np.max(np.abs(quadric_residual(name, off))) > 1e-2
    with pytest.raises(UnknownModel):
        quadric_residual("torus", np.ones(5))


def test_model_metric_against_pipeline():
    for name, pts in (
        ("h2", [(0.3, -0.4), (0.0, 0.9)]),
        ("sphere", [(0.2, 0.5), (-0.6, -0.4)]),
        ("s21", [(0.4, 0.3), (1.0, -0.8)]),
    ):
        spec = builtin_surface(name)
        for (u, v) in pts:
            res = analyze_point(spec, u, v, degree=5)
            got = tuple(res.metric.first_coeffs[:, 0])
            assert got == pytest.approx(model_metric(name, u, v), abs=1e-9)


def test_model_metric_degenerate_circle():
    with pytest.raises(DegenerateCoframe):
        model_metric("sphere", 0.3, np.pi / 2)
    # nearby but not singular is fine
    E, F, G = model_metric("sphere", 0.3, np.pi / 2 - 0.1)
    assert E > 0
    with pytest.raises(UnknownModel):
        model_metric("torus", 0.0, 0.0)
