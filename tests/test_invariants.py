"""Tests for invariant extraction, relations, curvature, and metrics.

Oracles: the constant invariant values of the three built-in surfaces,
closed-form induced metrics, agreement between the two independent
curvature routes, and invariance of the fiber scalars under random
tangent-preserving gauges.
"""

import dataclasses

import numpy as np
import pytest

from centroframe.adaptation import (
    GaugeTransform,
    adapt2_spacelike,
    adapt2_timelike,
    adapt3,
    apply_gauge,
    frame1,
    fundamental_matrices,
    maurer_cartan,
)
from centroframe.errors import NullTypeUnsupported
from centroframe.invariants import (
    H_NAMES,
    analyze_point,
    effective_degree,
    extract_invariants,
    fiber_invariant_scalars,
    gauss_from_connection,
    gauss_from_invariants,
    metric_at,
    relation_residuals,
)
from centroframe.surfaces import builtin_surface, parse_surface

NULL_FIXTURE = "1 + u^2/2 + v^2/2; u; v; u^2/2; u*v"


def _analyze(name_or_text, u0, v0, degree=5):
    if ";" in name_or_text:
        spec = parse_surface(name_or_text)
    else:
        spec = builtin_surface(name_or_text)
    return analyze_point(spec, u0, v0, degree=degree)


EXPECTED_H2 = {"h131": 1 / 3, "h142": 1 / 3, "h232": -1 / 3, "h241": 1 / 3}
EXPECTED_SPHERE = {"h131": -1 / 3, "h142": -1 / 3, "h232": 1 / 3, "h241": -1 / 3}
EXPECTED_S21 = {"h132": 2 / 3, "h241": 2 / 3}


def _check_constants(res, expected, tol=1e-9):
    for name, jet in res.invariants.h.items():
        want = expected.get(name, 0.0)
        assert jet.const == pytest.approx(want, abs=tol), name


def test_h2_invariants_and_curvature():
    for (u, v) in [(0.0, 0.0), (0.3, -0.4), (-0.7, 0.55)]:
        res = _analyze("h2", u, v)
        assert res.surface_type == "SpaceLike" and res.epsilon == 1
        _check_constants(res, EXPECTED_H2)
        assert res.gauss_invariants == pytest.approx(-1 / 3, abs=1e-9)
        assert res.gauss_connection == pytest.approx(-1 / 3, abs=1e-9)
        assert res.residual_max < 1e-11


def test_sphere_invariants_and_curvature():
    for (u, v) in [(0.2, 0.5), (-0.4, -0.3)]:
        res = _analyze("sphere", u, v)
        assert res.surface_type == "SpaceLike" and res.epsilon == -1
        _check_constants(res, EXPECTED_SPHERE)
        assert res.gauss_invariants == pytest.approx(1 / 3, abs=1e-9)
        assert res.gauss_connection == pytest.approx(1 / 3, abs=1e-9)


def test_s21_invariants_and_curvature():
    for (u, v) in [(0.4, 0.3), (-0.2, 0.6), (1.1, -0.5)]:
        res = _analyze("s21", u, v)
        assert res.surface_type == "TimeLike" and res.epsilon == 0
        _check_constants(res, EXPECTED_S21)
        assert res.gauss_invariants == pytest.approx(-1 / 3, abs=1e-9)
        assert res.gauss_connection == pytest.approx(-1 / 3, abs=1e-9)
        assert res.residual_max < 1e-11


@pytest.mark.parametrize("name, surface_type", [("h2", "SpaceLike"), ("s21", "TimeLike")])
def test_invariant_names_table_matches_extraction(name, surface_type):
    res = _analyze(name, 0.3, -0.2)
    assert res.surface_type == surface_type
    assert sorted(res.invariants.h) == list(H_NAMES[surface_type])


def test_metric_closed_forms():
    # (E, F, G) against the closed-form induced metrics of the models
    for name, (u, v), want in [
        ("h2", (0.3, -0.4), (3 * np.cosh(0.4) ** 2, 0.0, 3.0)),
        ("sphere", (0.2, 0.5), (3 * np.cos(0.5) ** 2, 0.0, 3.0)),
        ("s21", (0.4, 0.3), (-3 * np.cosh(0.3) ** 2, 0.0, 3.0)),
    ]:
        res = _analyze(name, u, v)
        E, F, G = (x.const for x in res.metric.first)
        assert (E, F, G) == pytest.approx(want, abs=1e-9)
    assert _analyze("h2", 0.1, 0.2).metric.signature == "Riemannian"
    assert _analyze("s21", 0.1, 0.2).metric.signature == "Lorentzian"


def test_normal_gram_evaluates_normal_metric():
    # the ambient Gram reproduces the normal-bundle inner product on the
    # frame vectors themselves: <e3,e3> etc.
    res = _analyze("h2", 0.25, -0.15)
    F0 = np.array([[x.const for x in row] for row in res.frame.matrix])
    Gram = res.metric.normal_gram
    e3, e4 = F0[:, 3], F0[:, 4]
    assert e3 @ Gram @ e3 == pytest.approx(1.0, abs=1e-10)
    assert e4 @ Gram @ e4 == pytest.approx(1.0, abs=1e-10)
    assert e3 @ Gram @ e4 == pytest.approx(0.0, abs=1e-10)
    # tangent directions are annihilated
    for col in (0, 1, 2):
        assert F0[:, col] @ Gram @ F0[:, col] == pytest.approx(0.0, abs=1e-10)

    res = _analyze("s21", 0.25, -0.15)
    F0 = np.array([[x.const for x in row] for row in res.frame.matrix])
    Gram = res.metric.normal_gram
    e3, e4 = F0[:, 3], F0[:, 4]
    assert e3 @ Gram @ e3 == pytest.approx(0.0, abs=1e-10)
    assert e4 @ Gram @ e4 == pytest.approx(0.0, abs=1e-10)
    assert e3 @ Gram @ e4 == pytest.approx(1.0, abs=1e-10)


def _perturbed_text(base_name, bump):
    """Append a small non-homogeneous bump to one component of a builtin."""
    spec = builtin_surface(base_name)
    parts = [c for c in spec.source.split(";")]
    parts[-1] = "(" + parts[-1] + ") + " + bump
    return ";".join(parts)


def test_relations_hold_on_perturbed_surfaces():
    # the six linear relations are identities for every surface of the
    # right type, not just the homogeneous models
    cases = [
        (_perturbed_text("h2", "u^2*v^2/50"), "SpaceLike"),
        (_perturbed_text("sphere", "u^3*v/40"), "SpaceLike"),
        (_perturbed_text("s21", "u^2*v^2/50"), "TimeLike"),
    ]
    for text, tag in cases:
        res = _analyze(text, 0.2, 0.3, degree=5)
        assert res.surface_type == tag
        rels = relation_residuals(res.invariants)
        for name, jet in rels.items():
            assert abs(jet.const) < 1e-9, (text[:30], name)
        for name, jet in res.invariants.vanishing.items():
            assert abs(jet.const) < 1e-9, (text[:30], name)


def test_curvature_routes_agree_on_perturbed_surfaces():
    for text in (
        _perturbed_text("h2", "u^2*v^2/50"),
        _perturbed_text("s21", "u^2*v^2/50"),
    ):
        for (u, v) in [(0.1, 0.2), (0.35, -0.15)]:
            res = _analyze(text, u, v, degree=6)
            assert res.gauss_invariants == pytest.approx(
                res.gauss_connection, abs=1e-8
            )
            # perturbation makes curvature genuinely non-constant
        k1 = _analyze(text, 0.1, 0.2, degree=6).gauss_invariants
        k2 = _analyze(text, 0.35, -0.15, degree=6).gauss_invariants
        assert abs(k1 - k2) > 1e-6


def _random_g1_gauge(rng):
    while True:
        A = rng.uniform(-1.5, 1.5, size=(2, 2))
        B = rng.uniform(-1.5, 1.5, size=(2, 2))
        if abs(np.linalg.det(A)) > 0.3 and abs(np.linalg.det(B)) > 0.3:
            break
    r = rng.uniform(-1, 1, size=6)
    return GaugeTransform.from_blocks(
        A=A.tolist(), B=B.tolist(), r03=r[0], r04=r[1],
        r13=r[2], r14=r[3], r23=r[4], r24=r[5],
    )


def _invariants_via_gauge(name, u, v, gauge):
    spec = builtin_surface(name)
    from centroframe.surfaces import eval_surface

    jets = eval_surface(spec, u, v, 5)
    fr1 = frame1(jets)
    if gauge is not None:
        fr1 = apply_gauge(fr1, gauge)
    fund = fundamental_matrices(maurer_cartan(fr1))
    from centroframe.adaptation import classify_plane

    stype = classify_plane(fund)
    if stype.tag == "SpaceLike":
        fr2, _, eps = adapt2_spacelike(fr1, fund)
    else:
        fr2, _ = adapt2_timelike(fr1, fund)
        eps = 0
    fr3, _ = adapt3(fr2, maurer_cartan(fr2), stype.tag, eps)
    inv = extract_invariants(maurer_cartan(fr3), stype.tag, eps)
    return stype.tag, fiber_invariant_scalars(inv)


def test_fiber_scalars_are_gauge_invariant():
    rng = np.random.default_rng(7)
    for name in ("h2", "sphere", "s21"):
        tag0, base = _invariants_via_gauge(name, 0.2, 0.35, None)
        for _ in range(8):
            tag, scal = _invariants_via_gauge(name, 0.2, 0.35, _random_g1_gauge(rng))
            assert tag == tag0
            assert set(scal) == set(base)
            for key in base:
                assert scal[key] == pytest.approx(base[key], abs=1e-8), (name, key)


def test_fiber_scalars_constant_across_points_on_models():
    # the homogeneous models have the same scalars at every point
    for name in ("h2", "sphere", "s21"):
        _, s1 = _invariants_via_gauge(name, 0.1, 0.0, None)
        _, s2 = _invariants_via_gauge(name, -0.6, 0.8, None)
        for key in s1:
            assert s1[key] == pytest.approx(s2[key], abs=1e-8)


def _gl5_image_text(components, A):
    """Surface text of A.f for the component texts of f."""
    return "; ".join(
        " + ".join("%r*(%s)" % (float(A[i, j]), components[j]) for j in range(5))
        for i in range(5)
    )


def _random_gl5(rng):
    """s U diag(sigma) V^T with sigma in [0.25, 4] and s in [0.1, 10].

    The range covers the scales known to work; ROADMAP item 3 widens it
    (pure scalings down to 1e-6 and up to 1e6) and never narrows it.
    """
    def orthogonal():
        q, r = np.linalg.qr(rng.standard_normal((5, 5)))
        return q * np.sign(np.diag(r))

    sigma = np.exp(rng.uniform(np.log(0.25), np.log(4.0), 5))
    s = np.exp(rng.uniform(np.log(0.1), np.log(10.0)))
    return s * orthogonal() @ np.diag(sigma) @ orthogonal().T


def _invariant_summary(res):
    fiber = fiber_invariant_scalars(res.invariants)
    values = dict(fiber, K_invariants=res.gauss_invariants, K_connection=res.gauss_connection)
    return res.surface_type, res.epsilon, values


@pytest.mark.parametrize("name, bump, point", [
    ("h2", None, (0.3, -0.2)),
    ("sphere", None, (-0.25, 0.4)),
    ("s21", None, (0.35, 0.15)),
    ("h2", "0.04*u^2*v^2", (0.2, 0.3)),
])
def test_invariants_are_gl5_invariant(name, bump, point):
    components = [c.strip() for c in builtin_surface(name).source.split(";")]
    if bump is not None:
        components[0] = "(%s) + %s" % (components[0], bump)
    base = analyze_point(parse_surface("; ".join(components)), *point, degree=5)
    tag, eps, want = _invariant_summary(base)
    # relative to the largest of the point's invariants, so exact zeros pass
    scale = max(abs(x) for x in want.values())
    rng = np.random.default_rng(2026)
    for _ in range(5):
        A = _random_gl5(rng)
        res = analyze_point(parse_surface(_gl5_image_text(components, A)), *point, degree=5)
        got_tag, got_eps, got = _invariant_summary(res)
        assert (got_tag, got_eps) == (tag, eps)
        assert set(got) == set(want)
        for key, x in want.items():
            assert abs(got[key] - x) <= 1e-9 * scale, (name, bump, key)


def test_connection_route_needs_degree():
    spec = builtin_surface("h2")
    res = analyze_point(spec, 0.1, 0.1, degree=3, want_connection=False)
    assert np.isnan(res.gauss_connection)
    # the guard: alpha without a derivative order gives no connection route
    flat = tuple(a.truncate(0) for a in res.invariants.alpha)
    with pytest.raises(ValueError):
        gauss_from_connection(dataclasses.replace(res.invariants, alpha=flat))


@pytest.mark.parametrize("name, K", [("h2", -1 / 3), ("sphere", 1 / 3), ("s21", -1 / 3)])
def test_low_degree_without_connection_is_exact(name, K):
    # degree 3 is raised to 4, the lowest degree whose level-3 frame still
    # carries the derivative that omega's columns 3-4 need
    res = analyze_point(builtin_surface(name), 0.3, -0.2, degree=3, want_connection=False)
    assert res.gauss_invariants == pytest.approx(K, abs=1e-12)
    assert res.residual_max < 1e-12
    assert effective_degree(3, want_connection=False) == 4


# Names read off columns 3-4 of the level-3 Maurer-Cartan form: one degree
# below alpha, because adapt3 differentiates the frame once more there.
_LOWER_DEGREE = {
    "SpaceLike": {
        "h131", "h132", "h141", "h142", "h231", "h232", "h241", "h242",
        "h331", "h332", "h341", "h342", "h431", "h432", "h441", "h442",
    },
    "TimeLike": {
        "h131", "h132", "h141", "h142", "h231", "h241",
        "h331", "h332", "h341", "h342", "h431", "h432", "h441", "h442",
    },
}
_LOWER_DEGREE_VANISHING = {"sym_w23", "sym_w24", "w03_1", "w03_2", "w04_1", "w04_2"}
_VANISHING = (
    {"w00_du", "w00_dv", "w30_du", "w30_dv", "w40_du", "w40_dv"}
    | {"fix_w%s_%d" % (ij, k) for ij in ("01", "02", "31", "32", "41", "42") for k in (1, 2)}
    | _LOWER_DEGREE_VANISHING
)

# (surface, requested degree, want_connection) -> degree of alpha
_ALPHA_DEGREE = {
    ("h2", 4, True): 2,
    ("h2", 5, True): 2,
    ("h2", 7, True): 4,
    ("h2", 4, False): 1,
    ("s21", 4, True): 2,
    ("s21", 5, True): 2,
    ("s21", 7, True): 4,
    ("s21", 4, False): 1,
}


@pytest.mark.parametrize("case", sorted(_ALPHA_DEGREE))
def test_reported_jet_degrees_are_pinned(case):
    name, degree, want_connection = case
    res = analyze_point(builtin_surface(name), 0.3, -0.2, degree=degree,
                        want_connection=want_connection)
    top = _ALPHA_DEGREE[case]
    lower = _LOWER_DEGREE[res.surface_type]
    assert {k: x.degree for k, x in res.invariants.h.items()} == {
        k: top - (k in lower) for k in res.invariants.h
    }
    assert len(res.invariants.h) == (22 if res.surface_type == "SpaceLike" else 20)
    assert set(res.invariants.vanishing) == _VANISHING
    assert {k: x.degree for k, x in res.invariants.vanishing.items()} == {
        k: top - (k in _LOWER_DEGREE_VANISHING) for k in _VANISHING
    }
    assert [a.degree for a in res.invariants.alpha] == [top, top]
    assert [x.degree for x in res.metric.first] == [top, top, top]


def test_analyze_point_bumps_degree_for_connection():
    spec = builtin_surface("h2")
    res = analyze_point(spec, 0.1, 0.1, degree=3, want_connection=True)
    assert res.gauss_connection == pytest.approx(-1 / 3, abs=1e-9)


def test_null_point_is_rejected():
    spec = parse_surface(NULL_FIXTURE)
    with pytest.raises(NullTypeUnsupported):
        analyze_point(spec, 0.0, 0.0)


def test_gauss_from_invariants_matches_direct_formula():
    # time-like case: cross-check the implementation against an
    # independently coded copy of the formula on a perturbed surface
    text = _perturbed_text("s21", "u^2*v^2/50")
    res = _analyze(text, 0.15, 0.25, degree=5)
    h = {k: v.const for k, v in res.invariants.h.items()}
    direct = (
        h["h341"] * h["h432"]
        - h["h332"] * h["h441"]
        + (h["h132"] + h["h241"]) / 2
        - 1.0
    )
    assert res.gauss_invariants == pytest.approx(direct, rel=1e-12)
