"""Truncated bivariate Taylor-series arithmetic.

A jet is the coefficient vector of a polynomial in the local offsets
(du, dv) about a base point, truncated at a fixed total degree.  All
arithmetic propagates coefficients exactly (up to floating point), so the
degree-k coefficients of any computed quantity are its true partial
derivatives divided by factorials.  This is the numerical backbone of the
frame pipeline: every geometric object is computed as a jet, and derivatives
are read off instead of being approximated by finite differences.

Coefficients are kept in a dense float64 vector in graded-lexicographic
order: the term du^a dv^b lives at index (a+b)(a+b+1)/2 + b, so a jet of
degree d has (d+1)(d+2)/2 entries.

Jets are built and combined only by the coefficient-array kernels below
(`constant` and `coordinates` build them); a :class:`TaylorScalar` wraps
one jet for the caller of the API.  The package's own paths build none but
the constant jets of a surface's numbers (`surfaces._constant_jet`).

Binary operations on jets of different degrees truncate to the smaller
degree; this is deliberate, because each differentiation drops the degree by
one and downstream code freely mixes the results.
"""

import functools
import math
import numbers

import numpy as np

from .errors import CentroframeError, DomainError, ZeroConstantTerm, point_error, raise_each

__all__ = [
    "TaylorScalar",
    "coordinate_jets",
    "constant",
    "coordinates",
    "gradient",
    "product",
    "power",
    "apply",
    "FUNCTIONS",
    "sqrt",
    "reciprocal",
]


def n_terms(degree):
    """Number of coefficients of a bivariate jet of total degree `degree`."""
    return (degree + 1) * (degree + 2) // 2


@functools.cache
def degree_of(n):
    """Total degree of a bivariate jet with `n` coefficients (inverse of `n_terms`)."""
    return int(round((math.sqrt(8 * n + 1) - 3) / 2))


def index_of(a, b):
    """Flat index of the du^a dv^b coefficient in graded-lex order."""
    return (a + b) * (a + b + 1) // 2 + b


@functools.cache
def _deriv_table(degree):
    """(src, factor), each (2, n_terms(degree - 1)), such that
    coeffs[..., src] * factor stacks the derivatives along u and v of a
    degree-d jet, two jets of degree d - 1."""
    terms = [(s - b, b) for s in range(degree) for b in range(s + 1)]
    src = [[index_of(a + 1, b) for a, b in terms], [index_of(a, b + 1) for a, b in terms]]
    factor = [[a + 1.0 for a, b in terms], [b + 1.0 for a, b in terms]]
    return np.array(src, dtype=np.intp), np.array(factor)


def gradient(coeffs, degree):
    """Both partial derivatives of coefficient arrays (..., n_terms(degree)),
    degree >= 1, as (..., 2, n_terms(degree - 1)) with the u derivative
    first, from one gather."""
    src, factor = _deriv_table(degree)
    return coeffs.take(src, axis=-1) * factor


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
        return cls(constant(value, degree))

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
            n = n_terms(min(self.degree, other.degree))
            return resize(self.coeffs, n), resize(other.coeffs, n)
        if isinstance(other, numbers.Real):
            return self.coeffs, constant(float(other), self.degree)
        return None

    def _combine(self, other, f):
        """The jet f(a, b) of the coerced pair, or NotImplemented."""
        ab = self._coerce(other)
        return NotImplemented if ab is None else TaylorScalar(f(*ab))

    def __add__(self, other):
        return self._combine(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __rsub__(self, other):
        return self._combine(other, lambda a, b: b - a)

    def __neg__(self):
        return TaylorScalar(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, numbers.Real):  # a scaling: a constant jet's product can flip a zero's sign
            return TaylorScalar(self.coeffs * float(other))
        return self._combine(other, lambda a, b: product(a, b, degree_of(a.size)))

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
    return tuple(TaylorScalar(c) for c in coordinates(u0, v0, degree))


# ---------------------------------------------------------------------------
# Coefficient-array kernels
#
# Each takes and returns coefficient arrays of one degree, the coefficients
# on the last axis; leading axes (a batch of points, entries of a matrix)
# broadcast.  The pipeline and compiled surfaces call the kernels directly;
# TaylorScalar, `coordinate_jets`, `sqrt` and `reciprocal` are thin wrappers
# for one jet.  None of them writes to its inputs.
# ---------------------------------------------------------------------------


def stack(arrays, axis):
    """`np.stack` of equal-shape arrays along a negative `axis`, as one
    concatenation (np.stack's own checks cost more than the copy here)."""
    index = (Ellipsis, None) + (slice(None),) * (-axis - 1)
    return np.concatenate([x[index] for x in arrays], axis=axis)


def constant(value, degree):
    """Coefficient arrays (..., n_terms(degree)) of the constant jets
    `value`, a float or an array of them."""
    value = np.asarray(value, dtype=float)
    c = np.zeros(value.shape + (n_terms(degree),))
    c[..., 0] = value
    return c


def coordinates(u0, v0, degree):
    """Coefficient arrays of the coordinate jets u and v about (u0, v0),
    floats or arrays, v0 broadcast to the shape of u0: constant terms u0
    and v0, and unit coefficients on du and dv respectively."""
    if degree < 1:
        raise ValueError("coordinate jets need degree >= 1")
    U = np.asarray(u0, dtype=float)
    u, v = constant([U, np.broadcast_to(v0, U.shape)], degree)
    u[..., index_of(1, 0)] = 1.0
    v[..., index_of(0, 1)] = 1.0
    return u, v


def resize(C, n):
    """Coefficient array C (..., m) truncated or zero-padded to n coefficients.

    C itself when m == n, and a view of it when m > n, so a caller that
    writes into the result copies it first."""
    m = C.shape[-1]
    if m >= n:
        return C if m == n else C[..., :n]
    out = np.zeros(C.shape[:-1] + (n,))
    out[..., :m] = C
    return out


@functools.cache
def _shift_index(degree):
    """(n, n) table `shift` with shift[o, b] = a for the multi-indices with
    a + b = o, and n (a zero slot) where no such a exists, so the
    coefficients of a jet product a b are resize(a, n + 1)[shift] @ b."""
    n = n_terms(degree)
    shift = np.full((n, n), n, dtype=np.intp)
    terms = [(s - b, b) for s in range(degree + 1) for b in range(s + 1)]
    for a1, b1 in terms:
        for a2, b2 in terms:
            if a1 + b1 + a2 + b2 <= degree:
                shift[index_of(a1 + a2, b1 + b2), index_of(a2, b2)] = index_of(a1, b1)
    return shift


def product(a, b, degree):
    """Truncated product of coefficient arrays of degree `degree`.

    One matrix-vector product per jet: a's left-multiplication matrix,
    gathered contiguously (so each product runs the same BLAS kernel
    whatever the batch around it), times b.
    """
    A = resize(a, a.shape[-1] + 1).take(_shift_index(degree), axis=-1)
    return (A @ np.ascontiguousarray(b)[..., None])[..., 0]


def power(a, n, degree):
    """Integer power of a coefficient array by binary exponentiation.

    Raises
    ------
    ZeroConstantTerm
        For n < 0 when the constant term of a**-n is zero.
    """
    if n < 0:
        return apply("reciprocal", power(a, -n, degree), degree)
    if n == 0:
        return constant(np.ones(a.shape[:-1]), degree)
    out, base = None, a
    while n:
        if n & 1:
            out = base if out is None else product(out, base, degree)
        base = product(base, base, degree) if n > 1 else base
        n >>= 1
    return out.copy() if out is a else out


def _compose(series, c, degree):
    """Evaluate sum_k series[..., k] * (x - x(0))^k by Horner's rule, where x
    has the coefficient array `c` of degree `degree`."""
    p = resize(c, c.shape[-1] + 1)  # a new array, padded with the zero slot of the shift
    p[..., 0] = 0.0
    P = p.take(_shift_index(degree), axis=-1)  # times p
    # E[..., k, :, 0] is the constant jet series[..., k]; the jets stay columns
    E = np.zeros(series.shape + (c.shape[-1], 1))
    E[..., 0, 0] = series
    out = E[..., degree, :, :]
    for k in range(degree - 1, -1, -1):
        out = P @ out
        out += E[..., k, :, :]
    return out[..., 0]


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


# The elementary functions a surface may call: name -> (the function of a
# float, its series builder (constant term, degree) -> Taylor coefficients)
FUNCTIONS = {
    "sin": (math.sin, lambda a0, d: _cyclic_series(a0, d, math.sin, math.cos, (-1.0, -1.0))),
    "cos": (math.cos, lambda a0, d: _cyclic_series(a0, d, math.cos, lambda t: -math.sin(t), (-1.0, -1.0))),
    "sinh": (math.sinh, lambda a0, d: _cyclic_series(a0, d, math.sinh, math.cosh, (1.0, 1.0))),
    "cosh": (math.cosh, lambda a0, d: _cyclic_series(a0, d, math.cosh, math.sinh, (1.0, 1.0))),
    "exp": (math.exp, lambda a0, d: _cyclic_series(a0, d, math.exp, math.exp, (1.0, 1.0))),
    "sqrt": (math.sqrt, lambda a0, d: _power_series(a0, 0.5, d)),
}

# name -> series builder, of those and of the two that only the pipeline takes
_SERIES = {name: series for name, (_, series) in FUNCTIONS.items()} | {
    "rsqrt": lambda a0, d: _power_series(a0, -0.5, d),
    "reciprocal": lambda a0, d: _power_series(a0, -1.0, d),
}


def apply(name, c, degree):
    """The elementary function `name` (a key of `_SERIES`: sin, cos, sinh,
    cosh, exp, sqrt, rsqrt or reciprocal) of coefficient arrays.

    Input shapes: with one name, `c` is (n,) for one point or (N, n) for a
    batch of N points.  With a tuple of S names, `c` is (S, n) for one point
    or (N, S, n) for a batch, series s taking names[s]: independent series
    of a stage run as one Horner pass, each slice through the same BLAS
    kernel as alone, so each result is bit-identical to its own call.

    The series of each point is built from its constant term with `math`,
    and a failure there is typed by `errors.point_error`: sin(inf) is that
    point's DomainError, and cosh(800) its ArithmeticFailure
    ("OverflowError: math range error").

    Raises
    ------
    DomainError
        For sqrt and rsqrt when the constant term is at most 0, and where
        math finds the constant term outside the function's domain.
    ZeroConstantTerm
        For reciprocal when the constant term is 0.
    ArithmeticFailure
        Where math overflows.

    One point raises its own error, that of its first failing series; in a
    batch the failing points raise together as PointFailures.
    """
    names = (name,) if isinstance(name, str) else name
    a0 = c[..., 0]
    points = a0.shape if isinstance(name, str) else a0.shape[:-1]
    rows = a0.reshape(-1, len(names)).tolist()  # one row of constant terms per point
    series, failed = [], {}
    for k, row in enumerate(rows):
        for f, x in zip(names, row):
            try:
                if f == "reciprocal" and x == 0:
                    raise ZeroConstantTerm("division by a jet with constant term %g" % x)
                if x <= 0 and (f == "sqrt" or f == "rsqrt"):
                    raise DomainError("%s of a jet with non-positive constant term %g" % (f, x))
                series.append(_SERIES[f](x, degree))
            except (CentroframeError, ArithmeticError, ValueError) as exc:
                failed.setdefault(k, point_error(exc, f, x))
                series.append([0.0] * (degree + 1))
    raise_each(failed, points)
    return _compose(np.array(series).reshape(a0.shape + (degree + 1,)), c, degree)


# ---------------------------------------------------------------------------
# Functions of TaylorScalars
# ---------------------------------------------------------------------------


def sqrt(x):
    """Square root of a jet; the constant term must be strictly positive."""
    return TaylorScalar(apply("sqrt", x.coeffs, x.degree))


def reciprocal(x):
    """Multiplicative inverse of a jet.

    Raises
    ------
    ZeroConstantTerm
        If the constant term is 0.
    """
    return TaylorScalar(apply("reciprocal", x.coeffs, x.degree))
