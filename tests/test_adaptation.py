"""Tests for the frame adaptation chain.

Oracles: hand-derived fundamental matrices for a frozen quadratic-graph
fixture, the Maurer-Cartan gauge-change law, the structure equations
d(Omega) = -Omega ^ Omega, and the normal forms that each adaptation level
must produce.  The array paths are checked against TaylorScalar arithmetic
on object arrays: F Omega = dF, Cramer's rule for the coframe projection,
and products of the block gauges.
"""

import numpy as np
import pytest

from centroframe import adaptation, taylor
from centroframe.adaptation import (
    FundamentalData,
    GaugeTransform,
    adapt2_spacelike,
    adapt2_timelike,
    adapt3,
    apply_gauge,
    classify_plane,
    frame1,
    fundamental_matrices,
    maurer_cartan,
)
from centroframe.errors import (
    Degenerate,
    IndependenceFailure,
    NotImmersed,
    NotTransversal,
    PointFailures,
    ZeroConstantTerm,
)
from centroframe.invariants import extract_invariants
from centroframe.surfaces import builtin_surface, eval_surface, parse_surface
from centroframe.taylor import TaylorScalar

# Quadratic graph whose second-order data at the origin is
# h3 = E11, h4 = offdiag(1), h0 = I: a frozen null-type fixture.
NULL_FIXTURE = "1 + u^2/2 + v^2/2; u; v; u^2/2; u*v"


def _jets(name_or_text, u0, v0, degree=4):
    if ";" in name_or_text:
        spec = parse_surface(name_or_text)
    else:
        spec = builtin_surface(name_or_text)
    return eval_surface(spec, u0, v0, degree)


def _entries(C, degrees):
    """Object array of the jets of a coefficient array C (..., cols, n);
    entries in column j have degree degrees[j]."""
    out = np.empty(C.shape[:-1], dtype=object)
    for idx in np.ndindex(out.shape):
        out[idx] = TaylorScalar(C[idx][: taylor.n_terms(degrees[idx[-1]])])
    return out


def test_frame1_layout_and_position_column():
    jets = _jets("h2", 0.0, 0.0)
    fr = frame1(jets)
    consts = fr.coeffs[:, :, 0]
    # e0 = (1,0,0,0,0), e1 ~ sqrt(3) e_1, e2 ~ sqrt(3) e_2, completion e_3, e_4
    assert np.allclose(consts[:, 0], [1, 0, 0, 0, 0])
    assert np.allclose(consts[:, 1], [0, np.sqrt(3), 0, 0, 0], atol=1e-12)
    assert np.allclose(consts[:, 2], [0, 0, np.sqrt(3), 0, 0], atol=1e-12)
    assert np.allclose(consts[:, 3], [0, 0, 0, 1, 0])
    assert np.allclose(consts[:, 4], [0, 0, 0, 0, 1])


def test_frame1_not_immersed():
    with pytest.raises(NotImmersed):
        frame1(_jets("1 + u + v; u + v; 1; (u+v)^2; 2", 0.0, 0.0))


def test_frame1_not_transversal():
    with pytest.raises(NotTransversal):
        frame1(_jets("u; v; 0; u; v", 0.5, 0.7))


def test_maurer_cartan_level1_normalization():
    fr = frame1(_jets("h2", 0.3, -0.2, 5))
    mc = maurer_cartan(fr)
    # de0 = e1 du + e2 dv exactly: the coframe is the identity and the
    # remaining entries of column 0 vanish
    column0 = mc.omega[:, :, 0, : taylor.n_terms(mc.degrees[0])]
    want = np.zeros_like(column0)
    want[0, 1, 0] = want[1, 2, 0] = 1.0
    assert np.abs(column0 - want).max() <= 1e-12


def test_maurer_cartan_gauge_change_law():
    # For constant K: Omega~ = K^-1 Omega K
    fr = frame1(_jets("s21", 0.1, 0.2, 4))
    mc = maurer_cartan(fr)
    rng = np.random.default_rng(5)
    K = np.eye(5) + 0.3 * rng.uniform(-1, 1, size=(5, 5))
    gauged = apply_gauge(fr, GaugeTransform(K[:, :, None], np.full((5, 5), np.inf)))
    mc2 = maurer_cartan(gauged)
    assert mc2.degrees == mc.degrees
    n = taylor.n_terms(max(mc.degrees))
    expected = np.einsum("ia,pabk,bj->pijk", np.linalg.inv(K), mc.omega[..., :n], K)
    assert np.allclose(mc2.omega[..., :n], expected, atol=1e-10)


def _structure_residual_max(mc):
    """Largest coefficient of d(Omega) + Omega ^ Omega over all entries."""
    du, dv = _entries(mc.omega, mc.degrees)
    worst = 0.0
    for i in range(5):
        for j in range(5):
            d_entry = TaylorScalar(taylor.gradient(dv[i, j].coeffs, dv[i, j].degree)[0]
                                   - taylor.gradient(du[i, j].coeffs, du[i, j].degree)[1])
            wedge = None
            for k in range(5):
                term = du[i, k] * dv[k, j] - dv[i, k] * du[k, j]
                wedge = term if wedge is None else wedge + term
            resid = d_entry + wedge
            worst = max(worst, float(np.abs(resid.coeffs).max()))
    return worst


def test_structure_equations_hold():
    for name in ("h2", "s21"):
        fr = frame1(_jets(name, 0.25, -0.35, 5))
        assert _structure_residual_max(maurer_cartan(fr)) < 1e-10


def test_fundamental_matrices_fixture():
    fr = frame1(_jets(NULL_FIXTURE, 0.0, 0.0))
    fund = fundamental_matrices(maurer_cartan(fr))
    assert np.allclose(fund.h3.const(), (1.0, 0.0, 0.0), atol=1e-12)
    assert np.allclose(fund.h4.const(), (0.0, 1.0, 0.0), atol=1e-12)
    assert np.allclose(fund.h0.const(), (1.0, 0.0, 1.0), atol=1e-12)
    assert fund.asymmetry < 1e-12
    stype = classify_plane(fund)
    assert stype.tag == "Null"


def test_fundamental_matrices_degenerate():
    # Hessians of the last four components span only two directions
    text = "1 + u^2; u; v; v^2; u^2 + v^2"
    fr = frame1(_jets(text, 0.0, 0.0))
    with pytest.raises(Degenerate):
        fundamental_matrices(maurer_cartan(fr))


def test_classify_independence_failure():
    # rows h0, h3, h4 of (a, b, c) triples, degree 0; h4 = 2 h3
    H = np.array([[1.0, 0.0, 1.0], [1.0, 0.0, -1.0], [2.0, 0.0, -2.0]])
    fund = FundamentalData(coeffs=H[:, :, None], degree=0, asymmetry=0.0)
    with pytest.raises(IndependenceFailure):
        classify_plane(fund)


def test_classification_of_builtin_models():
    expected = {"h2": "SpaceLike", "sphere": "SpaceLike", "s21": "TimeLike"}
    for name, tag in expected.items():
        fr = frame1(_jets(name, 0.21, 0.13))
        fund = fundamental_matrices(maurer_cartan(fr))
        assert classify_plane(fund).tag == tag


def _normal_forms(frame):
    return fundamental_matrices(maurer_cartan(frame))


def test_adapt2_spacelike_normal_forms():
    fr = frame1(_jets("h2", 0.4, 0.1, 5))
    fund = _normal_forms(fr)
    fr2, gauge, eps = adapt2_spacelike(fr, fund)
    assert eps == 1 and fr2.surface_type == "SpaceLike"
    fund2 = _normal_forms(fr2)
    for got, want in (
        (fund2.h3, (1.0, 0.0, -1.0)),
        (fund2.h4, (0.0, 1.0, 0.0)),
        (fund2.h0, (1.0, 0.0, 1.0)),
    ):
        for entry, target in zip((got.a, got.b, got.c), want):
            ref = np.zeros_like(entry)
            ref[0] = target
            assert np.allclose(entry, ref, atol=1e-10)


def test_adapt2_spacelike_sphere_epsilon():
    fr = frame1(_jets("sphere", 0.2, -0.3, 4))
    _, _, eps = adapt2_spacelike(fr, _normal_forms(fr))
    assert eps == -1


def test_adapt2_timelike_normal_forms():
    fr = frame1(_jets("s21", -0.2, 0.25, 5))
    fr2, gauge, eps = adapt2_timelike(fr, _normal_forms(fr))
    assert eps == 0 and fr2.surface_type == "TimeLike"
    fund2 = _normal_forms(fr2)
    for got, want in (
        (fund2.h3, (1.0, 0.0, 0.0)),
        (fund2.h4, (0.0, 0.0, 1.0)),
        (fund2.h0, (0.0, 1.0, 0.0)),
    ):
        for entry, target in zip((got.a, got.b, got.c), want):
            ref = np.zeros_like(entry)
            ref[0] = target
            assert np.allclose(entry, ref, atol=1e-10)


def _gauge_distance_from_identity(gauge):
    return float(np.abs(gauge.coeffs[:, :, 0] - np.eye(5)).max())


def test_adapt2_is_stable_on_adapted_frames():
    # re-running the reduction on its own output returns the identity gauge
    fr = frame1(_jets("h2", 0.15, 0.3, 5))
    fr2, _, _ = adapt2_spacelike(fr, _normal_forms(fr))
    _, gauge2, eps2 = adapt2_spacelike(fr2, _normal_forms(fr2))
    assert eps2 == 1
    assert _gauge_distance_from_identity(gauge2) < 1e-10

    fr = frame1(_jets("s21", 0.15, 0.3, 5))
    fr2, _, _ = adapt2_timelike(fr, _normal_forms(fr))
    _, gauge2, _ = adapt2_timelike(fr2, _normal_forms(fr2))
    assert _gauge_distance_from_identity(gauge2) < 1e-10


def test_adapt3_kills_normal_translation_terms():
    for name, case in (("h2", "SpaceLike"), ("s21", "TimeLike")):
        fr = frame1(_jets(name, 0.3, -0.1, 5))
        fund = _normal_forms(fr)
        fr2, _, eps = (adapt2_spacelike if case == "SpaceLike" else adapt2_timelike)(fr, fund)
        mc2 = maurer_cartan(fr2)
        fr3, gauge3 = adapt3(fr2, mc2, case, eps)
        assert fr3.surface_type == case
        mc3 = maurer_cartan(fr3)
        for j in (3, 4):
            x1, x2 = mc3.projection[:, 0, j, 0]
            assert abs(x1) < 1e-10 and abs(x2) < 1e-10
        # idempotence: the translational gauge is now zero
        fr4, gauge4 = adapt3(fr3, mc3, case, eps)
        assert _gauge_distance_from_identity(gauge4) < 1e-10


def test_spacelike_adapt3_needs_the_sign_of_h0():
    # with epsilon = 0 the space-like gauge is the identity, so the frame
    # it returns would keep omega^0_3, omega^0_4 semi-basic parts of ~0.6
    fr = frame1(_jets("h2", 0.3, -0.1, 5))
    fr2, _, eps = adapt2_spacelike(fr, _normal_forms(fr))
    mc2 = maurer_cartan(fr2)
    for bad in ((), (0,), (2,), (np.array([1, 0]),)):
        with pytest.raises(ValueError, match="epsilon"):
            adapt3(fr2, mc2, "SpaceLike", *bad)
    fr3, _ = adapt3(fr2, mc2, "SpaceLike", eps)
    mc3 = maurer_cartan(fr3)
    with pytest.raises(ValueError, match="epsilon"):
        extract_invariants(mc3, "SpaceLike")
    assert extract_invariants(mc3, "SpaceLike", eps).epsilon == eps
    with pytest.raises(ValueError, match="surface_type"):
        adapt3(fr2, mc2, "Null", eps)

    # the time-like case does not read epsilon, and keeps its default
    fr = frame1(_jets("s21", 0.3, -0.1, 5))
    fr2, _, _ = adapt2_timelike(fr, _normal_forms(fr))
    fr3, _ = adapt3(fr2, maurer_cartan(fr2), "TimeLike")
    assert extract_invariants(maurer_cartan(fr3), "TimeLike").epsilon == 0


def test_position_column_is_preserved():
    jets = _jets("sphere", 0.3, 0.2, 5)
    fr = frame1(jets)
    fund = _normal_forms(fr)
    fr2, _, eps = adapt2_spacelike(fr, fund)
    fr3, _ = adapt3(fr2, maurer_cartan(fr2), "SpaceLike", eps)
    n = taylor.n_terms(fr3.degrees[0])
    for i in range(5):
        want = jets[i].truncate(fr3.degrees[0])
        assert np.allclose(fr3.coeffs[i, 0, :n], want.coeffs, atol=1e-11)


# the blocks of [[1, 0, r0], [0, A, r], [0, 0, B]]: A, B and (r03, r04, r13, r14, r23, r24)
_BLOCK_ENTRIES = (
    [(1, 1), (1, 2), (2, 1), (2, 2)],
    [(3, 3), (3, 4), (4, 3), (4, 4)],
    [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)],
)


def _random_g1_gauge(rng, degree=None, jet_valued=False):
    """Random level-1 block gauge: float, or with jet blocks of `degree`
    (random constant terms, small random linear terms)."""
    while True:
        A = rng.uniform(-1.5, 1.5, size=(2, 2))
        B = rng.uniform(-1.5, 1.5, size=(2, 2))
        if abs(np.linalg.det(A)) > 0.3 and abs(np.linalg.det(B)) > 0.3:
            break
    r = rng.uniform(-1, 1, size=6)
    if not jet_valued:
        return GaugeTransform.from_blocks(
            A=A, B=B, r03=r[0], r04=r[1], r13=r[2], r14=r[3], r23=r[4], r24=r[5]
        )
    coeffs = np.zeros((5, 5, taylor.n_terms(degree)))
    coeffs[:, :, 0] = np.eye(5)
    degrees = np.full((5, 5), np.inf)
    for cells, values in zip(_BLOCK_ENTRIES, (A.flat, B.flat, r)):
        for (i, j), x in zip(cells, values):
            coeffs[i, j, 0] = x
            coeffs[i, j, 1] = 0.2 * rng.uniform(-1, 1)
            coeffs[i, j, 2] = 0.2 * rng.uniform(-1, 1)
            degrees[i, j] = degree
    return GaugeTransform(coeffs, degrees)


def test_readaptation_after_random_gauge():
    # the 2-adapted normal forms do not depend on the 1-adapted gauge
    rng = np.random.default_rng(42)
    for name, case in (("h2", "SpaceLike"), ("s21", "TimeLike")):
        fr = frame1(_jets(name, 0.2, 0.1, 4))
        for trial in range(5):
            jet_valued = trial >= 3
            gauge = _random_g1_gauge(rng, degree=3, jet_valued=jet_valued)
            gauged = apply_gauge(fr, gauge)
            fund = _normal_forms(gauged)
            assert classify_plane(fund).tag == case
            fr2, _, eps = (adapt2_spacelike if case == "SpaceLike" else adapt2_timelike)(gauged, fund)
            assert eps == (1 if case == "SpaceLike" else 0)
            fund2 = _normal_forms(fr2)
            want3 = (1.0, 0.0, -1.0) if case == "SpaceLike" else (1.0, 0.0, 0.0)
            want4 = (0.0, 1.0, 0.0) if case == "SpaceLike" else (0.0, 0.0, 1.0)
            assert np.allclose(fund2.h3.const(), want3, atol=1e-9)
            assert np.allclose(fund2.h4.const(), want4, atol=1e-9)


def test_gauge_transform_blocks_round_trip():
    g = GaugeTransform.from_blocks(
        A=[[0.0, 2.0], [-2.0, 0.0]],
        B=[[1.0, 0.5], [0.0, 1.0]],
        r03=0.1,
        r04=0.2,
        r13=0.3,
        r14=0.4,
        r23=0.5,
        r24=0.6,
    )
    assert g.A == [[0.0, 2.0], [-2.0, 0.0]]
    assert g.B == [[1.0, 0.5], [0.0, 1.0]]
    assert g.r == ((0.1, 0.2), (0.3, 0.4), (0.5, 0.6))
    assert np.array_equal(g.coeffs[:, :, 0], [
        [1.0, 0.0, 0.0, 0.1, 0.2],
        [0.0, 0.0, 2.0, 0.3, 0.4],
        [0.0, -2.0, 0.0, 0.5, 0.6],
        [0.0, 0.0, 0.0, 1.0, 0.5],
        [0.0, 0.0, 0.0, 0.0, 1.0],
    ])
    assert g.coeffs.shape == (5, 5, 1) and np.isinf(g.degrees).all()


# ---------------------------------------------------------------------------
# The array paths against jet arithmetic on TaylorScalar entries
# ---------------------------------------------------------------------------


def _assert_jets_close(got, want, rtol=1e-12):
    """Same per-entry degrees, coefficients within rtol of the largest one."""
    got, want = np.array(got, dtype=object), np.array(want, dtype=object)
    assert [x.degree for x in got.flat] == [x.degree for x in want.flat]
    scale = max(float(np.abs(x.coeffs).max()) for x in want.flat)
    for g, w in zip(got.flat, want.flat):
        assert np.abs(g.coeffs - w.coeffs).max() <= rtol * scale


def _at_degrees(C, like):
    """Entries of a coefficient array C as jets at the degrees of the jets in `like`."""
    return [
        [TaylorScalar(c[: taylor.n_terms(w.degree)]) for c, w in zip(row, wrow)]
        for row, wrow in zip(C, like)
    ]


def _random_frames(seed):
    """Frames at random points of h2 and s21: level 1, gauged, and level 2.

    The level-2 frame keeps e0 one order above its other columns.
    """
    rng = np.random.default_rng(seed)
    for name in ("h2", "s21"):
        for degree in (4, 5, 6):
            u, v = rng.uniform(-0.8, 0.8, 2)
            fr = frame1(_jets(name, u, v, degree))
            yield name, fr
            yield name, apply_gauge(fr, _random_g1_gauge(rng, degree - 1, jet_valued=True))
            adapt2 = adapt2_spacelike if name == "h2" else adapt2_timelike
            yield name, adapt2(fr, _normal_forms(fr))[0]


def test_maurer_cartan_satisfies_frame_equation():
    # F Omega = dF in jet arithmetic, with column j of Omega at degree
    # min(min deg F, deg F[:, j] - 1)
    for _, fr in _random_frames(11):
        mc = maurer_cartan(fr)
        assert mc.degrees == tuple(min(min(fr.degrees), d - 1) for d in fr.degrees)
        F = _entries(fr.coeffs, fr.degrees)
        for omega, axis in zip(_entries(mc.omega, mc.degrees), (0, 1)):
            FO = F @ omega
            dF = [[taylor.gradient(x.coeffs, x.degree)[axis] for x in row] for row in F]
            _assert_jets_close(FO, _at_degrees(dF, FO))


def test_gauge_law_matches_solve():
    # the form of F K from the form of F and K equals the solve against F K,
    # degrees included: random jet gauges at level 1, and levels 2 and 3
    rng = np.random.default_rng(14)
    for name, adapt2, tag in (("h2", adapt2_spacelike, "SpaceLike"),
                              ("s21", adapt2_timelike, "TimeLike")):
        for degree in (4, 5, 6):
            u, v = rng.uniform(-0.8, 0.8, 2)
            fr = frame1(_jets(name, u, v, degree))
            mc = maurer_cartan(fr)
            g = _random_g1_gauge(rng, degree - 1, jet_valued=True)
            fr2, g2, eps = adapt2(fr, _normal_forms(fr))
            mc2 = maurer_cartan(fr2)
            fr3, g3 = adapt3(fr2, mc2, tag, eps)
            for frame, base, gauge in ((apply_gauge(fr, g), mc, g), (fr2, mc, g2), (fr3, mc2, g3)):
                want = maurer_cartan(frame)
                got = maurer_cartan(frame, (base, gauge))
                assert got.degrees == want.degrees
                for part in (0, 1):  # du, then dv
                    _assert_jets_close(
                        _entries(got.omega[part], got.degrees),
                        _entries(want.omega[part], want.degrees),
                    )


def test_coframe_projection_matches_per_entry_solve():
    # each entry cu du + cv dv = x1 omega^1_0 + x2 omega^2_0 by Cramer's rule
    for _, fr in _random_frames(12):
        mc = maurer_cartan(fr)
        # omega^1_0 = a du + b dv, omega^2_0 = c du + d dv
        (a, b), (c, d) = _entries(mc.omega[:, 1:3, 0].swapaxes(0, 1), (mc.degrees[0],) * 2)
        det = a * d - b * c
        du, dv = _entries(mc.omega, mc.degrees)
        got = _entries(mc.projection, mc.projection_degrees)
        for i in range(5):
            for j in range(5):
                want = [(du[i, j] * d - dv[i, j] * c) / det, (a * dv[i, j] - b * du[i, j]) / det]
                _assert_jets_close(got[:, i, j], want)


def _block_gauge(A=np.eye(2), B=np.eye(2), r0=(0.0, 0.0)):
    """[[1, 0, r0], [0, A, 0], [0, 0, B]] as an object array of floats and jets."""
    K = np.eye(5).astype(object)
    K[1:3, 1:3] = np.array(A, dtype=object)
    K[3:5, 3:5] = np.array(B, dtype=object)
    K[0, 3:5] = np.array(r0, dtype=object)
    return K


def test_level2_gauge_matches_composed_block_gauges(monkeypatch):
    # the closed-form gauge and its block-wise action against the 5x5
    # products of the four block gauges adapt2 composes
    blocks = []

    def recording(A1, B, r0, s, degree):
        blocks.append((A1, B, r0, s))
        return real(A1, B, r0, s, degree)

    real = adaptation._level2_gauge
    monkeypatch.setattr(adaptation, "_level2_gauge", recording)
    for name, fr in _random_frames(13):
        fund = _normal_forms(fr)
        fr2, gauge, _ = (adapt2_spacelike if name == "h2" else adapt2_timelike)(fr, fund)
        A1, B, r0, s = blocks[-1]
        A1, B = ([[TaylorScalar(x) for x in row] for row in M] for M in (A1, B))
        r0, (s1, s2) = ([TaylorScalar(x) for x in v] for v in (r0, s))
        # K1 K2 K3 K4 entry by entry in jet arithmetic (numpy on objects)
        want = np.linalg.multi_dot([
            _block_gauge(A=A1),
            _block_gauge(B=B),
            _block_gauge(r0=r0),
            _block_gauge(A=[[s1, 0.0], [0.0, s2]], B=[[s1 * s1, 0.0], [0.0, s2 * s2]]),
        ])
        _assert_jets_close(_at_degrees(gauge.coeffs, want), want)
        # block-wise F K: e0 is kept exactly, the other columns lose an order
        ref = _entries(fr.coeffs, fr.degrees) @ want
        assert fr2.degrees == (fr.degrees[0],) + (ref[0, 1].degree,) * 4
        assert np.array_equal(fr2.coeffs[:, 0], fr.coeffs[:, 0])
        _assert_jets_close(_at_degrees(fr2.coeffs, ref), ref)


def test_adapt2_allocates_no_taylor_scalars(monkeypatch):
    # level 2 runs on coefficient arrays only, also on already-adapted frames
    cases = []
    for name, adapt2 in (("h2", adapt2_spacelike), ("s21", adapt2_timelike)):
        fr = frame1(_jets(name, 0.4, -0.3, 5))
        fr2 = adapt2(fr, _normal_forms(fr))[0]
        cases += [(adapt2, fr, _normal_forms(fr)), (adapt2, fr2, _normal_forms(fr2))]
    calls = []
    real_init = TaylorScalar.__init__

    def counting(self, coeffs):
        calls.append(len(coeffs))
        real_init(self, coeffs)

    monkeypatch.setattr(TaylorScalar, "__init__", counting)
    for adapt2, fr, fund in cases:
        adapt2(fr, fund)
    assert calls == []
    TaylorScalar.constant(1.0, 1)  # the counter is live
    assert calls == [3]


def _singular_level2_gauge(batch, degree):
    """A level-2 gauge, K = diag(1, A, B) with jet blocks, whose A block has
    determinant 0 at the points `batch` marks (a boolean array)."""
    n = taylor.n_terms(degree)
    K = np.zeros(batch.shape + (5, 5, n))
    K[..., 0] = np.eye(5)
    K[..., 1:3, 1:3, 0] = np.where(batch[..., None, None], [[1.0, 2.0], [0.5, 1.0]], [[1.0, 2.0], [0.0, 1.0]])
    K[..., 1:3, 1:3, 1] = 0.25  # a jet, so the gauge law inverts A
    degrees = np.full((5, 5), np.inf)
    degrees[1:3, 1:3] = degrees[3:5, 3:5] = degree
    return GaugeTransform(K, degrees)


def test_gauge_law_raises_a_point_s_own_error():
    # the closed-form K^-1 divides by det A det B, which is 0 here
    jets = eval_surface(builtin_surface("h2"), np.asarray(0.3), np.asarray(-0.2), 5)
    fr1 = frame1(jets)
    mc1 = maurer_cartan(fr1)
    gauge = _singular_level2_gauge(np.asarray(True), 5)
    with pytest.raises(ZeroConstantTerm, match="division by a jet with constant term 0"):
        maurer_cartan(apply_gauge(fr1, gauge), (mc1, gauge))
    # in a batch, the point that fails raises the same error, as PointFailures
    jets = eval_surface(builtin_surface("h2"), np.array([0.3, 0.1]), np.array([-0.2, 0.4]), 5)
    fr1 = frame1(jets)
    mc1 = maurer_cartan(fr1)
    gauge = _singular_level2_gauge(np.array([False, True]), 5)
    with pytest.raises(PointFailures) as exc:
        maurer_cartan(apply_gauge(fr1, gauge), (mc1, gauge))
    assert list(exc.value.errors) == [1]
    assert isinstance(exc.value.errors[1], ZeroConstantTerm)
