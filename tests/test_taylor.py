"""Tests for truncated bivariate Taylor arithmetic.

The oracles here are independent of the implementation: hand-expanded
polynomial products, closed-form series coefficients, and finite differences
of plain float evaluations.
"""

import math

import numpy as np
import pytest

from centroframe import taylor
from centroframe.errors import DomainError, PointFailures, ZeroConstantTerm
from centroframe.taylor import TaylorScalar, coordinate_jets


def _of(name, x):
    """The elementary function `name` of a TaylorScalar, by the array kernel."""
    return TaylorScalar(taylor.apply(name, x.coeffs, x.degree))


def test_coordinate_jets_layout():
    u, v = coordinate_jets(0.25, -1.5, 3)
    assert u.degree == 3 and v.degree == 3
    assert u.const == 0.25 and v.const == -1.5
    assert u.coefficient(1, 0) == 1.0 and u.coefficient(0, 1) == 0.0
    assert v.coefficient(0, 1) == 1.0 and v.coefficient(1, 0) == 0.0


def test_product_matches_hand_expansion():
    # (1 + 2 du + 3 dv) * (4 + 5 du dv), truncated at degree 2:
    # 4 + 8 du + 12 dv + 0 du^2 + 5 du dv + 0 dv^2
    p = TaylorScalar([1.0, 2.0, 3.0, 0.0, 0.0, 0.0])
    q = TaylorScalar([4.0, 0.0, 0.0, 0.0, 5.0, 0.0])
    r = p * q
    assert np.allclose(r.coeffs, [4.0, 8.0, 12.0, 0.0, 5.0, 0.0])


def _mul_table(degree):
    """(ia, ib, iout) index triples, one per term a[ia] b[ib] of a truncated
    product and the coefficient iout it adds to."""
    ia, ib, iout = [], [], []
    for s1 in range(degree + 1):
        for b1 in range(s1 + 1):
            a1 = s1 - b1
            for s2 in range(degree - s1 + 1):
                for b2 in range(s2 + 1):
                    a2 = s2 - b2
                    ia.append(taylor.index_of(a1, b1))
                    ib.append(taylor.index_of(a2, b2))
                    iout.append(taylor.index_of(a1 + a2, b1 + b2))
    return np.array(ia, dtype=np.intp), np.array(ib, dtype=np.intp), np.array(iout, dtype=np.intp)


@pytest.mark.parametrize("degree", range(10))
def test_shift_index_is_the_table_of_the_product_triples(degree):
    ia, ib, iout = _mul_table(degree)
    n = taylor.n_terms(degree)
    expected = np.full((n, n), n, dtype=np.intp)
    expected[iout, ib] = ia
    shift = taylor._shift_index(degree)
    assert shift.dtype == expected.dtype and np.array_equal(shift, expected)
    # and the product it gathers is the sum of the triples' terms
    rng = np.random.default_rng(degree)
    a, b = rng.uniform(-1.0, 1.0, size=(2, n))
    direct = np.zeros(n)
    np.add.at(direct, iout, a[ia] * b[ib])
    assert np.allclose(taylor.product(a, b, degree), direct, rtol=1e-14, atol=1e-14)


def test_mixed_degree_truncates_to_smaller():
    u, v = coordinate_jets(0.0, 0.0, 4)
    w = (u * u).truncate(2)
    prod = w * v
    assert prod.degree == 2
    # du^2 * dv has total degree 3, so the truncated product is zero.
    assert np.allclose(prod.coeffs, 0.0)


def test_reciprocal_geometric_series():
    u, _ = coordinate_jets(0.0, 0.0, 5)
    r = 1.0 / (1.0 + u)
    expected = [(-1.0) ** k for k in range(6)]
    assert np.allclose([r.coefficient(k, 0) for k in range(6)], expected)


def test_division_roundtrip():
    u, v = coordinate_jets(0.3, 0.4, 4)
    x = 1.0 + u * v + _of("cos", u)
    assert np.allclose((x / x).coeffs, TaylorScalar.constant(1.0, 4).coeffs, atol=1e-14)


def test_zero_constant_divisor_raises():
    u, _ = coordinate_jets(0.0, 0.0, 3)
    with pytest.raises(ZeroConstantTerm):
        1.0 / u


def test_sqrt_domain_error():
    u, _ = coordinate_jets(-2.0, 0.0, 3)
    with pytest.raises(DomainError):
        taylor.sqrt(u)
    with pytest.raises(DomainError):
        _of("rsqrt", TaylorScalar.constant(0.0, 3))


def test_pow_matches_repeated_multiplication():
    u, v = coordinate_jets(0.7, -0.2, 4)
    x = 1.0 + u - 2.0 * v
    assert np.allclose((x**3).coeffs, (x * x * x).coeffs, atol=1e-13)
    assert np.allclose((x**0).coeffs, TaylorScalar.constant(1.0, 4).coeffs)
    assert np.allclose((x**-2).coeffs, (1.0 / (x * x)).coeffs, atol=1e-13)


def test_derivative_of_monomial():
    u, v = coordinate_jets(0.0, 0.0, 3)
    m = u * u * v  # du^2 dv
    mu, mv = (TaylorScalar(d) for d in taylor.gradient(m.coeffs, m.degree))
    assert mu.degree == 2
    assert mu.coefficient(1, 1) == 2.0
    assert mv.coefficient(2, 0) == 1.0


def test_derivatives_match_coefficient_loop():
    rng = np.random.default_rng(5)
    for degree in range(1, 8):
        x = TaylorScalar(rng.uniform(-1.0, 1.0, taylor.n_terms(degree)))
        du, dv = (TaylorScalar(d) for d in taylor.gradient(x.coeffs, degree))
        assert du.degree == dv.degree == degree - 1
        for s in range(degree):
            for b in range(s + 1):
                a = s - b
                assert du.coefficient(a, b) == (a + 1) * x.coefficient(a + 1, b)
                assert dv.coefficient(a, b) == (b + 1) * x.coefficient(a, b + 1)


def _evaluate(f, du, dv):
    """The truncated polynomial of the jet f at offsets (du, dv)."""
    return sum(f.coefficient(s - b, b) * du ** (s - b) * dv**b
               for s in range(f.degree + 1) for b in range(s + 1))


def _sample(u, v):
    """Scalar reference function exercising every elementary operation."""
    return (
        math.sin(u * v) * math.exp(0.3 * u)
        + math.cosh(v) / math.sqrt(u + 2.0)
        + math.cos(u) * math.sinh(0.5 * v)
    )


def _sample_jet(u0, v0, degree):
    u, v = coordinate_jets(u0, v0, degree)
    return (
        _of("sin", u * v) * _of("exp", 0.3 * u)
        + _of("cosh", v) / _of("sqrt", u + 2.0)
        + _of("cos", u) * _of("sinh", 0.5 * v)
    )


def test_jet_evaluation_matches_function():
    # A degree-6 jet reproduces the function to ~h^7 at offset h.
    rng = np.random.default_rng(7)
    for _ in range(5):
        u0, v0 = rng.uniform(-1.0, 1.0, size=2)
        f = _sample_jet(u0, v0, 6)
        for _ in range(5):
            du, dv = rng.uniform(-1e-2, 1e-2, size=2)
            exact = _sample(u0 + du, v0 + dv)
            assert abs(_evaluate(f, du, dv) - exact) < 1e-12 * max(1.0, abs(exact))


def test_jet_coefficients_match_finite_differences():
    u0, v0 = 0.4, -0.7
    f = _sample_jet(u0, v0, 4)
    h = 1e-4
    # first partials, central differences
    fu = (_sample(u0 + h, v0) - _sample(u0 - h, v0)) / (2 * h)
    fv = (_sample(u0, v0 + h) - _sample(u0, v0 - h)) / (2 * h)
    assert abs(f.coefficient(1, 0) - fu) < 1e-6 * max(1.0, abs(fu))
    assert abs(f.coefficient(0, 1) - fv) < 1e-6 * max(1.0, abs(fv))
    # mixed second partial; jet stores f_uv / (1! 1!)
    fuv = (
        _sample(u0 + h, v0 + h)
        - _sample(u0 + h, v0 - h)
        - _sample(u0 - h, v0 + h)
        + _sample(u0 - h, v0 - h)
    ) / (4 * h * h)
    assert abs(f.coefficient(1, 1) - fuv) < 1e-6 * max(1.0, abs(fuv))
    # pure second partial; jet stores f_uu / 2
    fuu = (_sample(u0 + h, v0) - 2 * _sample(u0, v0) + _sample(u0 - h, v0)) / (h * h)
    assert abs(2.0 * f.coefficient(2, 0) - fuu) < 1e-6 * max(1.0, abs(fuu))


def test_elementary_identities():
    u, v = coordinate_jets(0.3, 0.8, 5)
    x = u + 0.5 * v
    one = TaylorScalar.constant(1.0, 5).coeffs
    assert np.allclose((_of("sin", x) ** 2 + _of("cos", x) ** 2).coeffs, one, atol=1e-13)
    assert np.allclose((_of("cosh", x) ** 2 - _of("sinh", x) ** 2).coeffs, one, atol=1e-13)
    assert np.allclose(
        (_of("exp", x) * _of("exp", -x)).coeffs, one, atol=1e-13
    )
    y = 2.0 + u * v
    assert np.allclose((taylor.sqrt(y) * taylor.sqrt(y)).coeffs, y.coeffs, atol=1e-13)
    assert np.allclose(
        (_of("rsqrt", y) * taylor.sqrt(y) * y).coeffs, y.coeffs, atol=1e-13
    )


def test_degree_zero_jets():
    c = TaylorScalar.constant(2.0, 0)
    assert (c * c).const == 4.0
    assert taylor.sqrt(c).const == pytest.approx(math.sqrt(2.0))


def test_stacked_series_are_bit_identical_to_their_own_calls():
    rng = np.random.default_rng(4)
    degree, n = 7, taylor.n_terms(7)
    names = ("reciprocal", "rsqrt", "cos", "sqrt")
    c = rng.standard_normal((3, len(names), n))
    c[..., 0] = rng.uniform(0.5, 2.0, (3, len(names)))
    stacked = taylor.apply(names, c, degree)
    for s, name in enumerate(names):
        alone = taylor.apply(name, np.ascontiguousarray(c[:, s]), degree)
        assert stacked[:, s].tobytes() == alone.tobytes()
        for i in range(3):  # one point: (S, n) and (n,)
            point = taylor.apply(names, np.ascontiguousarray(c[i]), degree)
            assert point[s].tobytes() == taylor.apply(name, c[i, s].copy(), degree).tobytes()


def test_a_point_raises_its_own_error_and_a_batch_each_point_s_first():
    one = np.zeros((2, 6))
    one[:, 0] = (1.0, -1.0)
    with pytest.raises(DomainError, match="rsqrt"):  # the second series fails
        taylor.apply(("reciprocal", "rsqrt"), one, 2)
    with pytest.raises(ZeroConstantTerm):  # both fail: the first one's error
        taylor.apply(("reciprocal", "rsqrt"), np.zeros((2, 6)), 2)
    with pytest.raises(ZeroConstantTerm):
        taylor.apply("reciprocal", np.zeros(6), 2)
    batch = np.zeros((3, 2, 6))
    batch[:, :, 0] = [[1.0, 1.0], [1.0, -1.0], [0.0, -1.0]]
    with pytest.raises(PointFailures) as exc:
        taylor.apply(("reciprocal", "rsqrt"), batch, 2)
    assert sorted(exc.value.errors) == [1, 2]
    assert isinstance(exc.value.errors[1], DomainError)
    assert isinstance(exc.value.errors[2], ZeroConstantTerm)
