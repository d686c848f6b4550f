"""Tests for the float/jet linear-algebra layer.

Oracles: numpy.linalg.solve for float systems, A (A^-1 B) = B and
products in TaylorScalar arithmetic for jet systems, LAPACK's
dgetrf/dgetrs for the pivoting and singularity decisions of `jet_solve`,
scipy.linalg.expm for the matrix exponential, eigendecompositions for the
inverse square root of the level-2 forms in :mod:`centroframe.adaptation`,
and closed-form identities (Cayley-Hamilton, polarization, null pairing)
for the rest of that algebra.
"""

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dgetrf, dgetrs

from centroframe import taylor
from centroframe.adaptation import (
    _Q_POLAR,
    FundamentalData,
    _congruence,
    _null_basis,
    _q_complement,
    _q_polar,
    _spd_inverse_sqrt,
    classify_plane,
)
from centroframe.errors import NotIndefinite, NotPositiveDefinite, SingularMatrix
from centroframe.linalg5 import (
    _PIVOT_TOL,
    _flat,
    _graded_blocks,
    _operator,
    _unflat,
    expm5,
    jet_matmul,
    jet_solve,
    resize,
    solve,
)
from centroframe.taylor import TaylorScalar, coordinate_jets


def _random_jet(rng, degree=3):
    return TaylorScalar(rng.uniform(-1.0, 1.0, size=taylor.n_terms(degree)))


def _jet_matrix(rng, n, degree=3, shift=2.0):
    A = [[_random_jet(rng, degree) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        # make constant parts diagonally dominant so systems are solvable
        A[i][i] = A[i][i] + shift * (1.0 + rng.uniform())
    return A


def test_float_solve_matches_numpy():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 5):
        A = rng.uniform(-2, 2, size=(n, n)) + 3 * np.eye(n)
        b = rng.uniform(-1, 1, size=n)
        x = solve([list(r) for r in A], list(b))
        assert all(type(xi) is float for xi in x)
        assert np.allclose(x, np.linalg.solve(A, b), atol=1e-12)
        B = rng.uniform(-1, 1, size=(n, 3))
        X = solve([list(r) for r in A], [list(r) for r in B])
        assert all(type(xi) is float for row in X for xi in row)
        assert np.allclose(X, np.linalg.solve(A, B), atol=1e-12)


def _coeff_array(M):
    """(rows, cols, n) coefficient array of a nested list of equal-degree jets."""
    return np.array([[x.coeffs for x in row] for row in M])


def test_jet_solve_and_product_reproduce_rhs():
    # A and B of random degrees, solved at the lower one: A X reproduces B
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        deg_a, deg_b = (int(d) for d in rng.integers(0, 8, 2))
        A = rng.uniform(-1, 1, (n, n, taylor.n_terms(deg_a)))
        A[:, :, 0] += 2.0 * n * np.eye(n)
        B = rng.uniform(-1, 1, (n, m, taylor.n_terms(deg_b)))
        degree = min(deg_a, deg_b)
        A, B = resize(A, taylor.n_terms(degree)), resize(B, taylor.n_terms(degree))
        X = jet_solve(A, B, degree)
        assert np.allclose(jet_matmul(A, X, degree), B, atol=1e-10)


def test_matrix_rhs_and_inverse():
    rng = np.random.default_rng(12)
    A = rng.uniform(-1, 1, size=(5, 5)) + 4 * np.eye(5)
    inv = np.array(solve([list(r) for r in A], np.eye(5).tolist()))
    assert np.allclose(inv @ A, np.eye(5), atol=1e-12)


def test_jet_solve_reproduces_known_solution():
    rng = np.random.default_rng(13)
    for n in (2, 3, 5):
        A = _jet_matrix(rng, n)
        x_true = [_random_jet(rng) for _ in range(n)]
        b = np.array(A, dtype=object) @ np.array(x_true, dtype=object)
        x = jet_solve(_coeff_array(A), _coeff_array(b[:, None]), 3)[:, 0]
        for xi, ti in zip(x, x_true):
            assert np.allclose(xi, ti.coeffs, atol=1e-10)


def test_degree_zero_jets_match_float_path():
    # the constant term of a jet solution is the float solution of the
    # constant parts
    rng = np.random.default_rng(14)
    A = rng.uniform(-2, 2, size=(4, 4)) + 3 * np.eye(4)
    b = rng.uniform(-1, 1, size=4)
    x_float = solve([list(r) for r in A], list(b))
    A_jet = rng.uniform(-1, 1, (4, 4, taylor.n_terms(3)))
    b_jet = rng.uniform(-1, 1, (4, 1, taylor.n_terms(3)))
    A_jet[:, :, 0], b_jet[:, 0, 0] = A, b
    x_jet = jet_solve(A_jet, b_jet, 3)
    assert np.allclose(x_jet[:, 0, 0], x_float, rtol=0, atol=1e-15)


def test_singular_matrix_raises():
    A = [[1.0, 2.0], [2.0, 4.0]]
    with pytest.raises(SingularMatrix, match="^no usable pivot in column 1$"):
        solve(A, [1.0, 0.0])
    with pytest.raises(SingularMatrix, match="^no usable pivot in column 0$"):
        solve([[float("nan"), 0.0], [0.0, 1.0]], [1.0, 0.0])


def test_singular_constant_part_raises():
    # the jet matrix is invertible as a polynomial matrix but not over the
    # jet ring: its constant part [[1, 2], [2, 4]] is singular
    du, dv = coordinate_jets(0.0, 0.0, 3)
    A = [[du + 1.0, dv + 2.0], [du * 3.0 + 2.0, TaylorScalar.constant(4.0, 3)]]
    B = [[TaylorScalar.constant(1.0, 3)], [dv]]
    with pytest.raises(SingularMatrix):
        jet_solve(_coeff_array(A), _coeff_array(B), 3)


def _lapack_failing_column(A0):
    """First column whose dgetrf pivot fails jet_solve's rule, or None: a
    pivot at most _PIVOT_TOL times the largest |entry| of its column fails,
    and a NaN or inf anywhere in A0 fails column 0."""
    if not np.isfinite(A0).all():
        return 0
    lu, _, _ = dgetrf(A0)
    small = np.flatnonzero(~(np.abs(np.diag(lu)) > _PIVOT_TOL * np.abs(A0).max(axis=0)))
    return int(small[0]) if small.size else None


def _lapack_jet_solve(A, B, degree):
    """jet_solve's Neumann series with A0^-1 applied by dgetrf/dgetrs."""
    k = A.shape[0]
    lu, piv, _ = dgetrf(A[:, :, 0])
    N = A.copy()
    N[:, :, 0] = 0.0
    T = _operator(dgetrs(lu, piv, N.reshape(k, -1))[0].reshape(N.shape), degree)
    Y = _flat(dgetrs(lu, piv, B.reshape(k, -1))[0].reshape(B.shape))
    X = Y
    for _ in range(degree):
        X = Y - T @ X
    return _unflat(X, k)


def _graded_blocks_direct(k, n, degree):
    """The graded blocks built from cells and the product's shift table
    directly: row o k + i and column b k + t of the coefficient-major
    operator is coefficient shift[o, b] of M[i, t]."""
    cell = (np.arange(k)[:, None] * k + np.arange(k)) * (n + 1)
    index = (cell[None, :, None, :] + taylor._shift_index(degree)[:, None, :, None])
    index = index.reshape(n * k, n * k)
    steps, parts, start = [], [np.zeros(0, dtype=np.intp)], 0
    for d in range(1, degree + 1):
        lo, hi = k * taylor.n_terms(d - 1), k * taylor.n_terms(d)
        parts.append(index[lo:hi, :lo].ravel())
        steps.append((lo, hi, start, start + parts[-1].size))
        start += parts[-1].size
    return np.concatenate(parts), tuple(steps)


@pytest.mark.parametrize("k", [2, 5])
@pytest.mark.parametrize("degree", range(9))
def test_graded_blocks_match_the_direct_construction(k, degree):
    n = taylor.n_terms(degree)
    index, steps = _graded_blocks(k, n, degree)
    expected, expected_steps = _graded_blocks_direct(k, n, degree)
    assert index.dtype == expected.dtype and np.array_equal(index, expected)
    assert steps == expected_steps


def _singular_cases(rng):
    """Constant parts that fail a pivot: rank-deficient, non-finite, ties."""
    cases = []
    for k in (2, 3, 5):
        for j in range(k):
            # column j in the span of the columns before it, plus a
            # perturbation below the pivot floor and one well above it
            for noise in (0.0, 1e-15, 1e-9):
                A0 = rng.standard_normal((k, k))
                A0[:, j] = A0[:, :j] @ rng.standard_normal(j) + noise * rng.standard_normal(k)
                cases.append(A0)
        for value in (np.nan, np.inf, -np.inf):
            A0 = rng.standard_normal((k, k)) + k * np.eye(k)
            A0[int(rng.integers(k)), int(rng.integers(k))] = value
            cases.append(A0)
        for i in range(k):
            A0 = rng.standard_normal((k, k))
            A0[i] = 0.0
            cases.append(A0)
        cases.append(np.zeros((k, k)))
    # ties in the pivot column, on integer matrices where elimination is exact
    cases += [
        np.array([[1.0, 2.0], [-1.0, -2.0]]),
        np.array([[2.0, 1.0, 3.0], [-2.0, 1.0, -1.0], [2.0, 3.0, 5.0]]),
        np.array([[1.0, 1.0, 2.0], [1.0, -1.0, 0.0], [-1.0, 1.0, 0.0]]),
        np.array([[3.0, 1.0, 4.0, 1.0], [-3.0, 2.0, -1.0, 5.0],
                  [3.0, 4.0, 7.0, 11.0], [0.0, 1.0, 1.0, 2.0]]),
    ]
    return cases


def test_singular_column_matches_lapack():
    # the column jet_solve names is the first one whose dgetrf pivot fails
    # the same rule; matrices that pass it solve as LAPACK does
    rng = np.random.default_rng(24)
    raised = 0
    for A0 in _singular_cases(rng):
        k = A0.shape[0]
        want = _lapack_failing_column(A0)
        A, B = A0[:, :, None], rng.standard_normal((k, 2, 1))
        if want is None:
            X, ref = jet_solve(A, B, 0), _lapack_jet_solve(A, B, 0)
            assert np.abs(X - ref).max() <= 1e-14 * np.linalg.cond(A0) * np.abs(ref).max()
            continue
        with pytest.raises(SingularMatrix, match="^no usable pivot in column %d$" % want):
            jet_solve(A, B, 0)
        raised += 1
    assert raised >= 40


def _solve_outcome(A, B, degree):
    """jet_solve's solution, or the message of its SingularMatrix."""
    try:
        return jet_solve(A, B, degree)
    except SingularMatrix as exc:
        return str(exc)


def _column_scales(rng, k):
    """Powers of two from 2^-500 to 2^500, both ends among them."""
    d = np.ldexp(1.0, rng.integers(-500, 501, k))
    d[rng.permutation(k)[:2]] = 2.0**-500, 2.0**500
    return d


def test_column_scalings_scale_the_solution_to_the_bit():
    # a pivot is judged against its own column: with the columns of A scaled
    # by D, the solution is D^-1 X to the bit
    rng = np.random.default_rng(28)
    for trial in range(60):
        k, degree = (2, 3, 5)[trial % 3], trial % 6
        n = taylor.n_terms(degree)
        A = rng.standard_normal((k, k, n))
        A[:, :, 0] += 2.0 * np.sqrt(k) * np.eye(k)
        B = rng.standard_normal((k, 2, n))
        d = _column_scales(rng, k)
        X = jet_solve(A, B, degree)
        assert jet_solve(A * d[:, None], B, degree).tobytes() == (X / d[:, None, None]).tobytes()


def test_column_scalings_fail_the_same_column():
    # and a singular A0 fails the same column.  A near-singular A0 that
    # passes solves without overflow at these scales: the columns are
    # scaled by powers of two before the factorization
    rng = np.random.default_rng(29)
    raised = 0
    for A0 in _singular_cases(rng):
        k = A0.shape[0]
        A, B, d = A0[:, :, None], rng.standard_normal((k, 2, 1)), _column_scales(rng, k)
        want, got = _solve_outcome(A, B, 0), _solve_outcome(A * d[:, None], B, 0)
        assert isinstance(got, str) == isinstance(want, str)
        if isinstance(want, str):
            assert got == want
            raised += 1
    assert raised >= 40


def test_jet_solve_matches_lapack_reference():
    rng = np.random.default_rng(25)
    for trial in range(200):
        degree = trial % 8
        k, m = int(rng.integers(2, 6)), int(rng.integers(1, 6))
        n = taylor.n_terms(degree)
        A = rng.standard_normal((k, k, n))
        A[:, :, 0] += 2.0 * np.sqrt(k) * np.eye(k)
        B = rng.standard_normal((k, m, n))
        X, ref = jet_solve(A, B, degree), _lapack_jet_solve(A, B, degree)
        assert np.abs(X - ref).max() <= 1e-13 * np.abs(ref).max()


_SCALES = (1e-20, 1e-15, 1e-10, 1e-5, 1.0, 1e5, 1e10, 1e15, 1e20)


def test_jet_solve_is_scale_invariant():
    # the pivot floor is relative: c A X = c B has the solution of A X = B
    rng = np.random.default_rng(26)
    for k, degree in ((2, 3), (5, 5)):
        n = taylor.n_terms(degree)
        A = rng.standard_normal((k, k, n))
        A[:, :, 0] += 2.0 * np.eye(k)
        B = rng.standard_normal((k, 3, n))
        X = jet_solve(A, B, degree)
        for c in _SCALES:
            assert np.allclose(jet_solve(c * A, c * B, degree), X, rtol=1e-12, atol=1e-12)


def test_rank_deficient_raises_at_every_scale():
    rng = np.random.default_rng(27)
    A = rng.standard_normal((5, 5, taylor.n_terms(2)))
    A[:, 3, 0] = A[:, 0, 0] - 2.0 * A[:, 2, 0]
    B = rng.standard_normal((5, 1, taylor.n_terms(2)))
    for c in _SCALES:
        with pytest.raises(SingularMatrix, match="^no usable pivot in column 3$"):
            jet_solve(c * A, c * B, 2)


def test_expm_matches_scipy():
    rng = np.random.default_rng(15)
    for _ in range(20):
        M = rng.uniform(-1.5, 1.5, size=(5, 5))
        t = rng.uniform(-2.0, 2.0)
        assert np.allclose(expm5(M, t), scipy.linalg.expm(M * t), atol=1e-11)


def test_expm_basic_identities():
    M = np.diag([1.0, -2.0, 0.5, 0.0, 3.0])
    assert np.allclose(expm5(M, 0.0), np.eye(5))
    assert np.allclose(expm5(M, 1.0), np.diag(np.exp(np.diag(M))), atol=1e-12)
    rng = np.random.default_rng(16)
    A = rng.uniform(-1, 1, size=(5, 5))
    assert np.allclose(expm5(A, 1.0) @ expm5(A, -1.0), np.eye(5), atol=1e-12)


# ---------------------------------------------------------------------------
# The level-2 algebra of symmetric 2x2 jet forms (private to adaptation).
# A form is a (3, n) coefficient array of its (a, b, c) entries.
# ---------------------------------------------------------------------------


def _form(rng, shift=(0.0, 0.0, 0.0), scale=1.0, degree=3):
    """Random jet form; entry k is shift[k] + scale[k] * a random jet."""
    h = np.array([_random_jet(rng, degree).coeffs for _ in range(3)])
    h *= np.reshape(scale, (-1, 1))
    h[:, 0] += shift
    return h


def _q(h1, h2):
    """Polarization of Q = -det on constant triples."""
    return float(np.asarray(h1) @ _Q_POLAR @ np.asarray(h2))


def test_spd2_sqrt_float_matches_eigh():
    # the closed-form inverse square root against V diag(w^-1/2) V^T
    rng = np.random.default_rng(17)
    for _ in range(20):
        L = rng.uniform(-1, 1, size=(2, 2)) + 2 * np.eye(2)
        M = L @ L.T
        X = _spd_inverse_sqrt(np.array([[M[0, 0]], [M[0, 1]], [M[1, 1]]]), 0)[:, :, 0]
        w, V = np.linalg.eigh(M)
        oracle = V @ np.diag(1.0 / np.sqrt(w)) @ V.T
        assert np.allclose(X, oracle, atol=1e-12)


def test_spd2_sqrt_jets_square_back():
    # X = h^-1/2 is symmetric and X X h = I on the whole jet
    rng = np.random.default_rng(18)
    for _ in range(10):
        h = _form(rng, shift=(2.0, 0.0, 2.0), scale=(1.0, 0.3, 1.0))
        X = _spd_inverse_sqrt(h, 3)
        assert np.array_equal(X[0, 1], X[1, 0])
        H = np.stack([[h[0], h[1]], [h[1], h[2]]])
        one = jet_matmul(jet_matmul(X, X, 3), H, 3)
        assert np.allclose(one, np.eye(2)[:, :, None] * (np.arange(h.shape[1]) == 0), atol=1e-11)


def test_spd2_sqrt_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        _spd_inverse_sqrt(np.array([[1.0], [0.0], [-1.0]]), 0)
    with pytest.raises(NotPositiveDefinite):
        _spd_inverse_sqrt(np.array([[-2.0], [0.0], [-1.0]]), 0)


def test_q_form_is_minus_det_and_polarization():
    # Q(h) = -det h, and classify_plane's Gram matrix holds Q and its
    # polarization (Q(h3 + h4) - Q(h3) - Q(h4)) / 2 on the (h3, h4) plane
    rng = np.random.default_rng(19)
    for _ in range(10):
        t1 = rng.uniform(-2, 2, size=3)
        t2 = rng.uniform(-2, 2, size=3)
        det1 = t1[0] * t1[2] - t1[1] ** 2
        assert _q(t1, t1) == pytest.approx(-det1)
        polar = (_q(t1 + t2, t1 + t2) - _q(t1, t1) - _q(t2, t2)) / 2
        H = np.stack([np.ones(3), t1, t2])[:, :, None]
        fund = FundamentalData(coeffs=H, degree=0, asymmetry=0.0)
        gram = classify_plane(fund).gram
        want = [[_q(t1, t1), polar], [polar, _q(t2, t2)]]
        assert np.allclose(gram, want, rtol=1e-12, atol=1e-12)


def test_q_form_congruence_equivariance():
    # Q(A^T h A) = det(A)^2 Q(h)
    rng = np.random.default_rng(20)
    for _ in range(10):
        h = rng.uniform(-2, 2, size=3)
        A = rng.uniform(-2, 2, size=(2, 2))
        transformed = _congruence(h[None, :, None], A[:, :, None], 0)[0, :, 0]
        assert _q(transformed, transformed) == pytest.approx(np.linalg.det(A) ** 2 * _q(h, h))


def test_q_complement_is_orthogonal_to_span():
    rng = np.random.default_rng(21)
    for _ in range(10):
        h3 = _form(rng, shift=(2.0, 0.0, 0.0))
        h4 = _form(rng, shift=(0.0, 1.0, 0.0))
        n = _q_complement(h3, h4, 3)
        for h in (h3, h4):
            resid = _q_polar(n, h, 3)
            assert np.allclose(resid, 0.0, atol=1e-12)


def _null_basis_columns(t):
    A = _null_basis(np.array(t, dtype=float)[:, None], 0)[:, :, 0]
    return A[:, 0], A[:, 1]


def test_null_basis_reference_cases():
    w1, w2 = _null_basis_columns((0.0, 1.0, 0.0))
    assert np.allclose(w1, (1.0, 0.0)) and np.allclose(w2, (0.0, 1.0))
    w1, w2 = _null_basis_columns((1.0, 0.0, -1.0))
    r = np.sqrt(0.5)
    assert np.allclose(w1, (r, r)) and np.allclose(w2, (r, -r))


def test_null_basis_properties_on_jets():
    # w1, w2 are null and paired to 1: A^T h A = offdiag(1) on the whole jet
    rng = np.random.default_rng(22)
    count = 0
    while count < 12:
        h = _form(rng)
        a0, b0, c0 = h[:, 0]
        if b0 * b0 - a0 * c0 < 0.05:
            continue
        count += 1
        A = _null_basis(h, 3)
        q1, cross, q2 = _congruence(h[None], A, 3)[0]
        assert np.allclose(q1, 0.0, atol=1e-9)
        assert np.allclose(q2, 0.0, atol=1e-9)
        one = np.zeros_like(cross)
        one[0] = 1.0
        assert np.allclose(cross, one, atol=1e-9)


def test_null_basis_rejects_definite_forms():
    with pytest.raises(NotIndefinite):
        _null_basis(np.array([[1.0], [0.0], [2.0]]), 0)
    with pytest.raises(NotIndefinite):
        _null_basis(np.array([[-1.0], [0.2], [-2.0]]), 0)
