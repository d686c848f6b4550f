"""Tests for invariant extraction, relations, curvature, and metrics.

Oracles: the constant invariant values of the three built-in surfaces,
closed-form induced metrics, agreement between the two independent
curvature routes, and invariance of the fiber scalars under random
tangent-preserving gauges.
"""

import dataclasses
import re

import numpy as np
import pytest

from centroframe.adaptation import (
    GaugeTransform,
    MCField,
    adapt2_spacelike,
    adapt2_timelike,
    adapt3,
    apply_gauge,
    frame1,
    fundamental_matrices,
    maurer_cartan,
)
from centroframe.errors import ArithmeticFailure, NotTransversal, NullTypeUnsupported
from centroframe.homogeneous import ConstantInvariantVector, model_omega
from centroframe.invariants import (
    H_NAMES,
    LAYOUTS,
    RELATION_CELLS,
    AnalysisBatch,
    analyze_point,
    extract_invariants,
    fiber_invariant_scalars,
    gauss_from_connection,
    gauss_from_invariants,
    metric_at,
    relation_residuals,
)
from centroframe.surfaces import builtin_surface, parse_surface
from centroframe.taylor import TaylorScalar, degree_of

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


# The invariant names per case, listed by hand as the reference for the
# names the layout tables yield.
H_NAMES_REFERENCE = {
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


def test_h_names_derived_from_layouts():
    assert H_NAMES == H_NAMES_REFERENCE
    for layout in LAYOUTS.values():
        # invariant h<ijk> is read off cell (k - 1, i, j)
        for key, k, i, j in layout.reads:
            if key.startswith("h"):
                assert key == "h%d%d%d" % (i, j, k + 1)


def test_metric_closed_forms():
    # (E, F, G) against the closed-form induced metrics of the models
    for name, (u, v), want in [
        ("h2", (0.3, -0.4), (3 * np.cosh(0.4) ** 2, 0.0, 3.0)),
        ("sphere", (0.2, 0.5), (3 * np.cos(0.5) ** 2, 0.0, 3.0)),
        ("s21", (0.4, 0.3), (-3 * np.cosh(0.3) ** 2, 0.0, 3.0)),
    ]:
        res = _analyze(name, u, v)
        E, F, G = res.metric.first_coeffs[:, 0]
        assert (E, F, G) == pytest.approx(want, abs=1e-9)
    assert _analyze("h2", 0.1, 0.2).metric.signature == "Riemannian"
    assert _analyze("s21", 0.1, 0.2).metric.signature == "Lorentzian"


def test_normal_gram_evaluates_normal_metric():
    # the ambient Gram reproduces the normal-bundle inner product on the
    # frame vectors themselves: <e3,e3> etc.
    res = _analyze("h2", 0.25, -0.15)
    F0 = res.frame.const
    Gram = res.metric.normal_gram
    e3, e4 = F0[:, 3], F0[:, 4]
    assert e3 @ Gram @ e3 == pytest.approx(1.0, abs=1e-10)
    assert e4 @ Gram @ e4 == pytest.approx(1.0, abs=1e-10)
    assert e3 @ Gram @ e4 == pytest.approx(0.0, abs=1e-10)
    # tangent directions are annihilated
    for col in (0, 1, 2):
        assert F0[:, col] @ Gram @ F0[:, col] == pytest.approx(0.0, abs=1e-10)

    res = _analyze("s21", 0.25, -0.15)
    F0 = res.frame.const
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
            assert abs(jet[0]) < 1e-9, (text[:30], name)
        for name, jet in res.invariants.vanishing_coeffs.items():
            assert abs(jet[0]) < 1e-9, (text[:30], name)


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

    tag, = set(np.atleast_1d(classify_plane(fund).tag).tolist())  # one type, also for a batch
    fr2, _, eps = (adapt2_spacelike if tag == "SpaceLike" else adapt2_timelike)(fr1, fund)
    fr3, _ = adapt3(fr2, maurer_cartan(fr2), tag, eps)
    inv = extract_invariants(maurer_cartan(fr3), tag, eps)
    return tag, fiber_invariant_scalars(inv)


@pytest.mark.parametrize("name", ["h2", "s21"])
def test_fiber_scalars_of_a_batch_are_each_point_s_own(name):
    us, vs = np.array([0.2, -0.3, 0.1]), np.array([0.35, 0.15, -0.4])
    tag, batch = _invariants_via_gauge(name, us, vs, None)
    for k, (u, v) in enumerate(zip(us.tolist(), vs.tolist())):
        assert _invariants_via_gauge(name, u, v, None) == (tag, {key: x[k] for key, x in batch.items()})


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


def _gl5_image_text(components, A, bump=None):
    """Surface text of A.f for the component texts of f, as the benchmark's
    point_queries builds it: `bump` adds bump*u^2*v^2 to the first row."""
    rows = [
        " + ".join("%r*(%s)" % (float(A[i, j]), components[j]) for j in range(5))
        for i in range(5)
    ]
    if bump is not None:
        rows[0] += " + %r*u^2*v^2" % bump
    return "; ".join(rows)


def _random_gl5(rng):
    """s U diag(sigma) V^T with sigma in [0.25, 4] and s in [1e-6, 1e6].

    Pure scalings span twelve decades (ROADMAP item 3); never narrow this.
    """
    def orthogonal():
        q, r = np.linalg.qr(rng.standard_normal((5, 5)))
        return q * np.sign(np.diag(r))

    sigma = np.exp(rng.uniform(np.log(0.25), np.log(4.0), 5))
    s = np.exp(rng.uniform(np.log(1e-6), np.log(1e6)))
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


# Queries of the benchmark's point_queries workload (bench seed, 0-based
# input index) that failed its output check while frame1 completed the frame
# with standard basis vectors, whose condition reached about 1e4, or (seed 7
# #707, near the null cone) while the level-2 and level-3 forms were solved
# against their frames: (model, bump, u, v, rows of A).
_BENCH_QUERIES = {
    "seed7-707": ("sphere", -0.02191319382527264, 0.9503364575062376, -0.9145724486583879, [
        0.031581559555095264, 0.15459781237425094, 0.010715016683570496, 0.018041534466123717, -0.009540404594264293,
        -0.0994078167264535, -0.22327775638758957, 0.02914047255990695, 0.06061595257301948, 0.09610089256676851,
        -0.01496114377530015, 0.012628729487464104, 0.037381194079867196, 0.015024154290960528, -0.04716645747548231,
        0.033490758037921065, -0.09149689716764484, 0.02227312098105012, 0.04838202835341622, 0.013982744159435552,
        0.0713487263281715, 0.2874467470959567, -0.07445350164845731, -0.009925072545541088, -0.09621800040987032,
    ]),
    "seed8-5228": ("s21", 0.02719223390575301, -0.6344297294060621, -0.5750236845152672, [
        -0.8554810326581473, 1.5484471795823613, -0.55350974321443, -0.06098088874467902, -4.154050266440588,
        0.8082442045975905, 0.45729686678027276, -1.8789058303467678, 0.7938144139836211, -0.05204240636811785,
        1.3897452073889045, 4.4310380493495485, -0.7271490073214474, -1.603460413932011, -5.7044814614452335,
        -0.7243706923273286, 1.2016970551422452, -4.760238391570386, -2.936757743236715, 2.158852978984346,
        0.8808435544569323, -0.6267954417113796, -0.7847342830627648, -1.1146394937072066, -1.5206859250888825,
    ]),
    "seed12-5393": ("h2", None, 0.5960575085837736, -0.6312123295235468, [
        -1.1072841652780405, -1.787986241754424, 2.6723959530340884, -1.352223737609249, -1.3712130214956002,
        0.07593533177846028, -1.1044524099704387, 0.1423618757755898, 0.6002937966727306, 0.9078118028905184,
        0.12747746952121214, 0.4787166356844665, 0.11712729951172066, -0.4253426497542878, -1.241806325906228,
        1.5747818911829436, 1.038370761049722, 0.31479698649638077, 0.2621376892452936, -0.5787377216423699,
        -1.9735081814908135, -0.38501306289071147, -0.027781823404624727, 0.22378956792880092, -0.3744341252450142,
    ]),
    "seed16-2247": ("h2", None, 0.336698044067957, -0.5519952754161466, [
        -0.013956530893434264, 0.0009047254775652602, -0.040315299451156306, 0.02056579936318594, -0.037303987617928476,
        -0.009204042326632947, 0.03239103298151013, -0.011473968362025598, -0.04199438974314426, -0.01871140707667856,
        -0.0009966309573835993, 0.06034761674138834, 0.005987946230879407, 0.037617676670917255, 0.011735107055769288,
        -0.06398580630894501, 0.011006729966720934, -0.008639777438002524, 0.007375012934162115, 0.019968704608083657,
        -0.010323815973445222, 0.004281812844834218, 0.05968272849025454, 0.01938492661892602, -0.0407828874816993,
    ]),
    "seed16-6850": ("sphere", None, -0.8218692226035043, -0.06019004131813621, [
        -0.48985259640178835, 0.04575225871163755, -0.7428383010861439, -0.11744095422916231, 0.05384093260727162,
        -0.25293094194618526, -0.4834327587569969, -0.38124312813995165, -0.7521606371576041, 0.9705972946172544,
        0.4018681828377254, -0.23493490253802837, 0.18866880854151716, -0.03484101608423033, -0.6912373577179819,
        -0.7214321047456985, -0.03223656772137765, -0.9114417121867826, 0.7350088543542419, -0.5436972563321555,
        0.5387460147340303, 0.9305580755785083, -0.33254648484931876, 1.0829887589021772, 0.9630198063009255,
    ]),
    "seed28-1493": ("h2", 0.0052878796283089, -0.1481171798106269, -0.32756141743918366, [
        0.31598559252066355, 0.11327840076726954, 0.057831698469823646, 0.32165947531217365, -0.03363862320461024,
        0.1706911062445372, -0.1157647928543114, 0.12553579418170158, 0.322359556279114, 0.12868207595423387,
        -0.17028735642386106, -0.08957122409556935, 0.3280448436526739, -0.00279540085891995, -0.523599761451511,
        0.4461776094528696, -0.2052219398358736, -0.14650862751669114, -0.12497904816550913, -0.06315911885636213,
        0.19020582742979045, -0.1582203840518518, 0.5281242095002897, -0.0963693631424759, 0.1413439180777343,
    ]),
}

_MODELS = {"h2": ("SpaceLike", 1, -1 / 3), "sphere": ("SpaceLike", -1, 1 / 3), "s21": ("TimeLike", 0, -1 / 3)}


@pytest.mark.parametrize("case", sorted(_BENCH_QUERIES))
def test_bench_point_queries_pass_the_bench_check(case):
    # the benchmark's own check, at its degree 7: an unbumped image
    # reproduces its model, a bumped one agrees across the curvature routes
    model, bump, u, v, A = _BENCH_QUERIES[case]
    components = [c.strip() for c in builtin_surface(model).source.split(";")]
    text = _gl5_image_text(components, np.reshape(A, (5, 5)), bump)
    res = analyze_point(parse_surface(text), u, v, degree=7)
    k1, k2 = res.gauss_invariants, res.gauss_connection
    if bump is None:
        tag, eps, K = _MODELS[model]
        assert (res.surface_type, res.epsilon) == (tag, eps)
        assert abs(k1 - K) <= 1e-8 * abs(K) and abs(k2 - K) <= 1e-8 * abs(K)
    else:
        assert abs(k1 - k2) <= 1e-8 * max(abs(k1), abs(k2))
    scale = max([1.0] + [abs(x.const) for x in res.invariants.h.values()])
    assert res.residual_max <= 1e-7 * scale


def test_curvature_routes_agree_near_the_null_cone():
    # K = 1.66e8 and max |h| = 4e8 at this point; the two routes differed by
    # 8e-9 to 3e-8 of K while the Maurer-Cartan forms of the adapted frames
    # were solved against those frames
    model, bump, u, v, A = _BENCH_QUERIES["seed7-707"]
    components = [c.strip() for c in builtin_surface(model).source.split(";")]
    text = _gl5_image_text(components, np.reshape(A, (5, 5)), bump)
    res = analyze_point(parse_surface(text), u, v, degree=7)
    k1, k2 = res.gauss_invariants, res.gauss_connection
    assert abs(k1) > 1e8
    assert abs(k1 - k2) <= 1e-9 * abs(k1)


@pytest.mark.parametrize("name", ["h2", "s21"])
@pytest.mark.parametrize("c", [1e-150, 1e-100, 1e-8, 1e-4, 1e6, 1e8, 1e100, 1e150])
def test_pure_scalings_keep_the_curvature(name, c):
    components = [c_.strip() for c_ in builtin_surface(name).source.split(";")]
    spec = parse_surface("; ".join("%r*(%s)" % (c, comp) for comp in components))
    res = analyze_point(spec, 0.4, -0.3, degree=5)
    assert res.surface_type == _MODELS[name][0]
    for K in (res.gauss_invariants, res.gauss_connection):
        assert abs(K + 1 / 3) <= 1e-9 / 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_immersion_test_does_not_overflow():
    # tangent norms about 1e89 apart: the scaled tangents keep the Gram
    # finite, and its determinant over g11 g22 finds them independent.  f
    # is parallel to f_u to 1e-86, so the point is not transversal
    spec = parse_surface("cosh(800*u) + 2; u; v; u*v; v^2")
    with pytest.raises(NotTransversal):
        analyze_point(spec, 0.25, 0.5, degree=5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_transversality_test_does_not_overflow():
    # |f| about 1e200: the norms are scaled before squaring, so the point is
    # not read as NotTransversal.  |f| is 1e200 times |f_u|, beyond the
    # spread of frame column sizes that frame1 takes
    spec = parse_surface("1e200 + v; u; v; u*v; v^2")
    with pytest.raises(ArithmeticFailure, match="differ in size"):
        analyze_point(spec, 0.4, -0.3, degree=5)


@pytest.mark.parametrize("lam", [1.0, 0.1, 0.01, 1e-3, 1e-4])
def test_parameter_scaling_keeps_the_curvature(lam):
    # h2 with u -> lam*u, at the image (0.4/lam, -0.3) of h2's point
    text = re.sub(r"\bu\b", "(%r*u)" % lam, builtin_surface("h2").source)
    res = analyze_point(parse_surface(text), 0.4 / lam, -0.3, degree=5)
    ref = _analyze("h2", 0.4, -0.3)
    for got, want in ((res.gauss_invariants, ref.gauss_invariants),
                      (res.gauss_connection, ref.gauss_connection)):
        assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("name", sorted(_MODELS))
@pytest.mark.parametrize("var", ["u", "v"])
@pytest.mark.parametrize("lam", [1e-3, 1e-6, 1e-10, 1e3, 1e6])
def test_parameter_scalings_keep_type_and_curvature(name, var, lam):
    # the model with var -> lam*var, at the image of (0.4, -0.3): every
    # decision is a ratio that the scaling of f_u or f_v does not change
    text = re.sub(r"\b%s\b" % var, "(%r*%s)" % (lam, var), builtin_surface(name).source)
    u, v = (0.4 / lam, -0.3) if var == "u" else (0.4, -0.3 / lam)
    res = analyze_point(parse_surface(text), u, v, degree=5)
    tag, eps, K = _MODELS[name]
    assert (res.surface_type, res.epsilon) == (tag, eps)
    for got in (res.gauss_invariants, res.gauss_connection):
        assert abs(got - K) <= 1e-12 * abs(K)


@pytest.mark.parametrize("spread", [1e2, 1e4, 1e5, 1e6])
def test_anisotropic_images_keep_type_and_curvature(spread):
    # A = c U diag(sigma) V^T with c in [1e-6, 1e6] and sigma in [1, spread],
    # log-uniform, 100 images of each model; never narrow these ranges.  K
    # is right to 1e-12 times the spread, the condition number of A
    rng = np.random.default_rng(7)

    def orthogonal():
        q, r = np.linalg.qr(rng.standard_normal((5, 5)))
        return q * np.sign(np.diag(r))

    for name in sorted(_MODELS):
        components = [c.strip() for c in builtin_surface(name).source.split(";")]
        tag, eps, K = _MODELS[name]
        for _ in range(100):
            c = np.exp(rng.uniform(np.log(1e-6), np.log(1e6)))
            sigma = np.exp(rng.uniform(0.0, np.log(spread), 5))
            A = c * orthogonal() @ np.diag(sigma) @ orthogonal().T
            res = analyze_point(parse_surface(_gl5_image_text(components, A)), 0.4, -0.3, degree=5)
            assert (res.surface_type, res.epsilon) == (tag, eps), (name, c, sigma)
            for got in (res.gauss_invariants, res.gauss_connection):
                assert abs(got - K) <= 1e-12 * spread * abs(K), (name, c, sigma)


def test_connection_route_needs_degree():
    spec = builtin_surface("h2")
    res = analyze_point(spec, 0.1, 0.1, degree=5)
    # the guard: alpha without a derivative order gives no connection route
    flat = res.invariants.alpha_coeffs[..., :1]
    with pytest.raises(ValueError):
        gauss_from_connection(dataclasses.replace(res.invariants, alpha_coeffs=flat))


@pytest.mark.parametrize("name", ["h2", "s21"])
def test_records_hold_arrays_and_views_are_built_when_read(name):
    """One jet representation: a point's records and the functions that
    build them give coefficient arrays, and the TaylorScalar view of `h`
    carries the same bytes."""
    res = _analyze(name, 0.3, -0.2)
    inv = extract_invariants(res.mc, res.surface_type, res.epsilon)
    arrays = [*inv.h_coeffs.values(), *inv.vanishing_coeffs.values(), inv.alpha_coeffs,
              *relation_residuals(inv).values(), gauss_from_invariants(inv),
              gauss_from_connection(inv), metric_at(res.frame, res.mc).first_coeffs]
    assert all(type(a) is np.ndarray for a in arrays)

    view, stored = res.invariants.h, res.invariants.h_coeffs
    assert list(view) == list(stored)
    for k, jet in view.items():
        assert isinstance(jet, TaylorScalar)
        assert jet.coeffs.tobytes() == stored[k].tobytes(), k

    assert fiber_invariant_scalars(res.invariants) == fiber_invariant_scalars(inv)
    batch = _analyze(name, np.array([0.3]), np.array([-0.2]))
    assert isinstance(batch, AnalysisBatch)
    assert not hasattr(batch, "point") and not hasattr(batch, "parts")


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

# (surface, requested degree) -> degree of alpha
_ALPHA_DEGREE = {
    ("h2", 4): 2,
    ("h2", 5): 2,
    ("h2", 6): 3,
    ("h2", 7): 4,
    ("s21", 4): 2,
    ("s21", 5): 2,
    ("s21", 6): 3,
    ("s21", 7): 4,
}


@pytest.mark.parametrize("case", sorted(_ALPHA_DEGREE))
def test_reported_jet_degrees_are_pinned(case):
    name, degree = case
    res = analyze_point(builtin_surface(name), 0.3, -0.2, degree=degree)
    top = _ALPHA_DEGREE[case]
    lower = _LOWER_DEGREE[res.surface_type]
    assert {k: x.degree for k, x in res.invariants.h.items()} == {
        k: top - (k in lower) for k in res.invariants.h
    }
    assert len(res.invariants.h) == (22 if res.surface_type == "SpaceLike" else 20)
    assert set(res.invariants.vanishing_coeffs) == _VANISHING
    assert {k: degree_of(x.shape[-1]) for k, x in res.invariants.vanishing_coeffs.items()} == {
        k: top - (k in _LOWER_DEGREE_VANISHING) for k in _VANISHING
    }
    assert [degree_of(a.shape[-1]) for a in res.invariants.alpha_coeffs] == [top, top]
    assert [degree_of(x.shape[-1]) for x in res.metric.first_coeffs] == [top, top, top]


def test_analyze_point_bumps_degree_for_connection():
    spec = builtin_surface("h2")
    res = analyze_point(spec, 0.1, 0.1, degree=3)
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


# The six relations and the algebraic curvature written out by hand, name by
# name, as the references for the structure-equation route.
def _reference_relations(h, v, surface_type, epsilon):
    if surface_type == "SpaceLike":
        e = float(epsilon)
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


def _reference_gauss(h, surface_type, epsilon):
    # a reduced form: it equals K modulo the six relations
    if surface_type == "SpaceLike":
        quad = (
            -h["h332"] * h["h431"]
            - h["h441"] * h["h342"]
            + h["h341"] * h["h442"]
            - h["h332"] * h["h442"]
            + h["h432"] * h["h331"]
            + h["h432"] * h["h342"]
            - h["h441"] * h["h331"]
            + h["h341"] * h["h431"]
        )
        return (quad + h["h131"] - h["h232"] + h["h142"] * 2.0) * 0.5 - float(epsilon)
    return h["h341"] * h["h432"] - h["h332"] * h["h441"] + (h["h132"] + h["h241"]) * 0.5 - 1.0


LAYOUT_CASES = (("SpaceLike", 1), ("SpaceLike", -1), ("TimeLike", 0))


def _fill_invariants(rng, S, surface_type, epsilon):
    """Invariants read off the projection P = S + alpha M0, alpha random.

    The Maurer-Cartan field is P itself (degree 0): its coframe columns are
    the layout's pinned (1, 0) and (0, 1), so the projection is exact.
    """
    alpha = rng.uniform(-3, 3, 2)
    P = S + alpha[:, None, None] * LAYOUTS[surface_type].M0
    inv = extract_invariants(MCField(P[..., None], (0,) * 5), surface_type, epsilon)
    h = {k: x.const for k, x in inv.h.items()}
    v = {k: x[0] for k, x in inv.vanishing_coeffs.items()}
    return inv, h, v, np.max(np.abs(P)) ** 2


@pytest.mark.parametrize("st, eps", LAYOUT_CASES)
def test_relation_residuals_match_reference_on_random_fills(st, eps):
    # every invariant and every entry killed on the coframe random, so the
    # relations do not hold; pinned cells and copies as the layout says
    layout = LAYOUTS[st]
    rng = np.random.default_rng(43)
    for _ in range(20):
        d = dict(zip(layout.names, rng.uniform(-3, 3, len(layout.names))))
        d.update({"1": 1.0, "0": 0.0, "-1": -1.0, "e": float(eps)})
        S = np.array([d[x] for x in layout.fill.flat]).reshape(2, 5, 5)
        for key, k, i, j in layout.reads:
            if key[0] == "w":
                S[k, i, j] = rng.uniform(-3, 3)
        inv, h, v, scale = _fill_invariants(rng, S, st, eps)
        want = _reference_relations(h, v, st, eps)
        got = relation_residuals(inv)
        assert set(got) == set(want)
        assert max(abs(x) for x in want.values()) > 0.1
        for label, r in got.items():
            assert abs(r[0] - want[label]) < 1e-14 * scale, label


@pytest.mark.parametrize("st, eps", LAYOUT_CASES)
def test_gauss_matches_reference_on_model_fills(st, eps):
    rng = np.random.default_rng(47)
    for _ in range(20):
        vec = ConstantInvariantVector(st, eps, tuple(rng.uniform(-3, 3, 14)))
        inv, h, _, scale = _fill_invariants(rng, np.array(model_omega(vec)[1:]), st, eps)
        K = gauss_from_invariants(inv)[0]
        assert abs(K - _reference_gauss(h, st, eps)) < 1e-14 * scale


def test_gauss_from_invariants_matches_direct_formula_spacelike():
    text = _perturbed_text("h2", "u^2*v^2/50")
    res = _analyze(text, 0.15, 0.25, degree=5)
    assert res.surface_type == "SpaceLike"
    h = {k: v.const for k, v in res.invariants.h.items()}
    direct = _reference_gauss(h, "SpaceLike", res.epsilon)
    assert res.gauss_invariants == pytest.approx(direct, rel=1e-12)


def test_relation_cells_are_the_both_pinned_cells():
    # a copy ("=x") is not read, so it has no fix_ key
    for st, layout in LAYOUTS.items():
        keys = {key for key, _, _, _ in layout.reads}
        pinned = {
            (i, j) for i, j in np.ndindex(5, 5)
            if {"fix_w%d%d_1" % (i, j), "fix_w%d%d_2" % (i, j)} <= keys
        }
        assert {cell for _, cell, _ in RELATION_CELLS[st]} == pinned
        assert [label for label, _, _ in RELATION_CELLS[st]] == ["R1", "R2", "R3", "R4", "R5", "R6"]
