"""Truncated bivariate Taylor-series arithmetic.

A :class:`TaylorScalar` stores the coefficients of a polynomial in the local
offsets (du, dv) about a base point, truncated at a fixed total degree.  All
arithmetic propagates coefficients exactly (up to floating point), so the
degree-k coefficients of any computed quantity are its true partial
derivatives divided by factorials.  This is the numerical backbone of the
frame pipeline: every geometric object is computed as a jet, and derivatives
are read off instead of being approximated by finite differences.

Coefficients are kept in a dense float64 vector in graded-lexicographic
order: the term du^a dv^b lives at index (a+b)(a+b+1)/2 + b, so a jet of
degree d has (d+1)(d+2)/2 entries.

Binary operations on jets of different degrees truncate to the smaller
degree; this is deliberate, because each differentiation drops the degree by
one and downstream code freely mixes the results.
"""

import math
import numbers

import numpy as np

from .errors import DomainError, ZeroConstantTerm

__all__ = [
    "TaylorScalar",
    "coordinate_jets",
    "derivative",
    "product",
    "power",
    "apply",
    "sin",
    "cos",
    "sinh",
    "cosh",
    "exp",
    "sqrt",
    "rsqrt",
    "reciprocal",
    "ZERO_TOL",
]

# Constant terms smaller than this (in absolute value) are treated as zero
# when used as divisors or as sqrt arguments.
ZERO_TOL = 1e-12


def _tri(n):
    return n * (n + 1) // 2


def n_terms(degree):
    """Number of coefficients of a bivariate jet of total degree `degree`."""
    return (degree + 1) * (degree + 2) // 2


def degree_of(n):
    """Total degree of a bivariate jet with `n` coefficients (inverse of `n_terms`)."""
    return int(round((math.sqrt(8 * n + 1) - 3) / 2))


def index_of(a, b):
    """Flat index of the du^a dv^b coefficient in graded-lex order."""
    return _tri(a + b) + b


# Cached multiplication tables: degree -> (ia, ib, iout) index triples with
# which a truncated product is a gather-multiply-scatter (np.bincount).
_MUL_CACHE = {}


def _mul_table(degree):
    tab = _MUL_CACHE.get(degree)
    if tab is None:
        ia, ib, iout = [], [], []
        for s1 in range(degree + 1):
            for b1 in range(s1 + 1):
                a1 = s1 - b1
                for s2 in range(degree - s1 + 1):
                    for b2 in range(s2 + 1):
                        a2 = s2 - b2
                        ia.append(index_of(a1, b1))
                        ib.append(index_of(a2, b2))
                        iout.append(index_of(a1 + a2, b1 + b2))
        tab = (
            np.asarray(ia, dtype=np.intp),
            np.asarray(ib, dtype=np.intp),
            np.asarray(iout, dtype=np.intp),
        )
        _MUL_CACHE[degree] = tab
    return tab


# Cached derivative tables: (degree, axis) -> (src, factor) such that the
# derivative along u (axis 0) or v (axis 1) of a degree-d jet is
# coeffs[src] * factor, a jet of degree d - 1.
_DERIV_CACHE = {}


def _deriv_table(degree, axis):
    key = (degree, axis)
    tab = _DERIV_CACHE.get(key)
    if tab is None:
        src, factor = [], []
        for s in range(degree):
            for b in range(s + 1):
                a = s - b
                if axis == 0:
                    src.append(index_of(a + 1, b))
                    factor.append(a + 1.0)
                else:
                    src.append(index_of(a, b + 1))
                    factor.append(b + 1.0)
        tab = _DERIV_CACHE[key] = (np.asarray(src, dtype=np.intp), np.asarray(factor))
    return tab


def derivative(coeffs, degree, axis):
    """Partial derivative along u (axis 0) or v (axis 1) of coefficient arrays.

    `coeffs` has shape (..., n_terms(degree)) with degree >= 1; the result
    has shape (..., n_terms(degree - 1)).
    """
    src, factor = _deriv_table(degree, axis)
    return coeffs[..., src] * factor


class TaylorScalar:
    """A bivariate polynomial in (du, dv), truncated at a total degree.

    Parameters
    ----------
    coeffs : array_like
        Dense coefficient vector in graded-lex order; its length must equal
        (d+1)(d+2)/2 for some integer degree d >= 0.

    Notes
    -----
    Supports +, -, *, / and integer ** against other jets and plain numbers.
    Jets of unequal degree are truncated to the smaller degree first.
    """

    __slots__ = ("coeffs", "degree")

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 1:
            raise ValueError("coefficient vector must be one-dimensional")
        d = degree_of(c.size)
        if n_terms(d) != c.size:
            raise ValueError("coefficient vector length %d is not triangular" % c.size)
        self.coeffs = c
        self.degree = d

    # -- construction helpers ------------------------------------------------

    @classmethod
    def constant(cls, value, degree):
        c = np.zeros(n_terms(degree))
        c[0] = value
        return cls(c)

    @property
    def const(self):
        """Constant term (the value of the jet at the base point)."""
        return float(self.coeffs[0])

    def coefficient(self, a, b):
        """Coefficient of du^a dv^b (zero if a+b exceeds the degree)."""
        if a + b > self.degree:
            return 0.0
        return float(self.coeffs[index_of(a, b)])

    def truncate(self, degree):
        """Copy of this jet truncated to `degree` (a no-op if already lower)."""
        if degree >= self.degree:
            return self
        return TaylorScalar(self.coeffs[: n_terms(degree)].copy())

    # -- ring operations -----------------------------------------------------

    def _coerce(self, other):
        """Return (a, b) coefficient arrays at a common degree, or None."""
        if isinstance(other, TaylorScalar):
            d = min(self.degree, other.degree)
            return self.truncate(d).coeffs, other.truncate(d).coeffs
        if isinstance(other, numbers.Real):
            c = np.zeros_like(self.coeffs)
            c[0] = float(other)
            return self.coeffs, c
        return None

    def __add__(self, other):
        ab = self._coerce(other)
        if ab is None:
            return NotImplemented
        return TaylorScalar(ab[0] + ab[1])

    __radd__ = __add__

    def __sub__(self, other):
        ab = self._coerce(other)
        if ab is None:
            return NotImplemented
        return TaylorScalar(ab[0] - ab[1])

    def __rsub__(self, other):
        ab = self._coerce(other)
        if ab is None:
            return NotImplemented
        return TaylorScalar(ab[1] - ab[0])

    def __neg__(self):
        return TaylorScalar(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, numbers.Real):
            return TaylorScalar(self.coeffs * float(other))
        if not isinstance(other, TaylorScalar):
            return NotImplemented
        d = min(self.degree, other.degree)
        return TaylorScalar(product(self.truncate(d).coeffs, other.truncate(d).coeffs, d))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, numbers.Real):
            return TaylorScalar(self.coeffs / float(other))
        if not isinstance(other, TaylorScalar):
            return NotImplemented
        return self * reciprocal(other)

    def __rtruediv__(self, other):
        if isinstance(other, numbers.Real):
            return reciprocal(self) * float(other)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, numbers.Integral):
            return NotImplemented
        return TaylorScalar(power(self.coeffs, int(n), self.degree))

    # -- calculus ------------------------------------------------------------

    def _derivative(self, axis):
        if self.degree == 0:
            return TaylorScalar.constant(0.0, 0)
        return TaylorScalar(derivative(self.coeffs, self.degree, axis))

    def deriv_u(self):
        """Partial derivative with respect to u; degree drops by one."""
        return self._derivative(0)

    def deriv_v(self):
        """Partial derivative with respect to v; degree drops by one."""
        return self._derivative(1)

    def evaluate(self, du, dv):
        """Evaluate the truncated polynomial at offsets (du, dv)."""
        total = 0.0
        for s in range(self.degree + 1):
            for b in range(s + 1):
                a = s - b
                total += self.coeffs[index_of(a, b)] * du**a * dv**b
        return total

    def __repr__(self):
        return "TaylorScalar(degree=%d, const=%.6g)" % (self.degree, self.const)


def coordinate_jets(u0, v0, degree):
    """Jets of the coordinate functions u and v about (u0, v0).

    Parameters
    ----------
    u0, v0 : float
        Base point.
    degree : int
        Truncation degree (>= 1 so the linear terms exist).

    Returns
    -------
    (TaylorScalar, TaylorScalar)
        Jets with constant terms u0, v0 and unit linear coefficients on du
        and dv respectively.
    """
    if degree < 1:
        raise ValueError("coordinate jets need degree >= 1")
    cu = np.zeros(n_terms(degree))
    cv = np.zeros(n_terms(degree))
    cu[0], cv[0] = u0, v0
    cu[index_of(1, 0)] = 1.0
    cv[index_of(0, 1)] = 1.0
    return TaylorScalar(cu), TaylorScalar(cv)


# ---------------------------------------------------------------------------
# Coefficient-array kernels
#
# Each takes and returns dense coefficient vectors of one degree; the jet
# operators and functions above and below are thin wrappers, and compiled
# surfaces call the kernels directly.  None of them writes to its inputs.
# ---------------------------------------------------------------------------


def product(a, b, degree):
    """Truncated product of two coefficient vectors of degree `degree`."""
    ia, ib, iout = _mul_table(degree)
    return np.bincount(iout, weights=a[ia] * b[ib], minlength=n_terms(degree))


def power(a, n, degree):
    """Integer power of a coefficient vector by binary exponentiation.

    Raises
    ------
    ZeroConstantTerm
        For n < 0 when the constant term of a**-n is (near) zero.
    """
    if n < 0:
        return apply("reciprocal", power(a, -n, degree), degree)
    out = np.zeros(n_terms(degree))
    out[0] = 1.0
    base = a
    while n:
        if n & 1:
            out = product(out, base, degree)
        base = product(base, base, degree) if n > 1 else base
        n >>= 1
    return out


def _compose(series, c, degree):
    """Evaluate sum_k series[k] * (x - x(0))^k by Horner's rule, where x has
    the coefficient vector `c` of degree `degree`."""
    p = c.copy()
    p[0] = 0.0
    out = np.zeros(n_terms(degree))
    out[0] = series[-1]
    for s in reversed(series[:-1]):
        # a product's coefficients are sums from +0.0, never -0.0, so adding
        # s to the constant term alone equals adding the constant jet s
        out = product(out, p, degree)
        out[0] += s
    return out


def _cyclic_series(a0, degree, f0, f1, signs):
    """Series for functions whose derivative cycle is (f0, f1, s0*f0, s1*f1)."""
    vals = [f0(a0), f1(a0), signs[0] * f0(a0), signs[1] * f1(a0)]
    return [vals[k % 4] / math.factorial(k) for k in range(degree + 1)]


def _power_series(a0, alpha, degree):
    """Taylor coefficients of t -> (a0 + t)^alpha about t = 0."""
    series = [a0**alpha]
    for k in range(1, degree + 1):
        series.append(series[-1] * (alpha - (k - 1)) / (k * a0))
    return series


def _exp_series(a0, degree):
    e = math.exp(a0)
    return [e / math.factorial(k) for k in range(degree + 1)]


# name -> series builder (constant term, degree) -> Taylor coefficients
_SERIES = {
    "sin": lambda a0, d: _cyclic_series(a0, d, math.sin, math.cos, (-1.0, -1.0)),
    "cos": lambda a0, d: _cyclic_series(a0, d, math.cos, lambda t: -math.sin(t), (-1.0, -1.0)),
    "sinh": lambda a0, d: _cyclic_series(a0, d, math.sinh, math.cosh, (1.0, 1.0)),
    "cosh": lambda a0, d: _cyclic_series(a0, d, math.cosh, math.sinh, (1.0, 1.0)),
    "exp": _exp_series,
    "sqrt": lambda a0, d: _power_series(a0, 0.5, d),
    "rsqrt": lambda a0, d: _power_series(a0, -0.5, d),
    "reciprocal": lambda a0, d: _power_series(a0, -1.0, d),
}


def apply(name, c, degree):
    """The elementary function `name` (a key of the table above: sin, cos,
    sinh, cosh, exp, sqrt, rsqrt or reciprocal) of a coefficient vector.

    Raises
    ------
    DomainError
        For sqrt and rsqrt when the constant term is at most ZERO_TOL.
    ZeroConstantTerm
        For reciprocal when |constant term| is at most ZERO_TOL.
    """
    a0 = float(c[0])
    if name in ("sqrt", "rsqrt") and a0 <= ZERO_TOL:
        raise DomainError("%s of a jet with non-positive constant term %g" % (name, a0))
    if name == "reciprocal" and abs(a0) <= ZERO_TOL:
        raise ZeroConstantTerm("division by a jet with constant term %g" % a0)
    return _compose(_SERIES[name](a0, degree), c, degree)


# ---------------------------------------------------------------------------
# Elementary functions of jets
# ---------------------------------------------------------------------------


def sin(x):
    """Sine of a jet."""
    return TaylorScalar(apply("sin", x.coeffs, x.degree))


def cos(x):
    """Cosine of a jet."""
    return TaylorScalar(apply("cos", x.coeffs, x.degree))


def sinh(x):
    """Hyperbolic sine of a jet."""
    return TaylorScalar(apply("sinh", x.coeffs, x.degree))


def cosh(x):
    """Hyperbolic cosine of a jet."""
    return TaylorScalar(apply("cosh", x.coeffs, x.degree))


def exp(x):
    """Exponential of a jet."""
    return TaylorScalar(apply("exp", x.coeffs, x.degree))


def sqrt(x):
    """Square root of a jet; the constant term must be strictly positive."""
    return TaylorScalar(apply("sqrt", x.coeffs, x.degree))


def rsqrt(x):
    """Reciprocal square root of a jet (constant term must be positive)."""
    return TaylorScalar(apply("rsqrt", x.coeffs, x.degree))


def reciprocal(x):
    """Multiplicative inverse of a jet.

    Raises
    ------
    ZeroConstantTerm
        If the constant term is smaller than ZERO_TOL in absolute value.
    """
    return TaylorScalar(apply("reciprocal", x.coeffs, x.degree))
