"""Exception taxonomy for the centroframe pipeline.

Every failure mode that callers are expected to handle gets its own class so
that batch drivers can record the error name and keep going.  All classes
derive from :class:`CentroframeError`, and the pipeline raises no other
error for a point: a failure of float arithmetic is typed where it arises
(`point_error`), so cosh(800) is that point's ArithmeticFailure.

The point pipeline runs on batches: arrays with a leading axis over points.
A check that fails for some points of a batch raises :class:`PointFailures`
with the error each of those points raises alone (`raise_where` for a check
on arrays, `raise_each` for errors collected point by point); the batch
driver drops them and runs the rest again.
"""

import numpy as np

__all__ = [
    "CentroframeError",
    "ZeroConstantTerm",
    "DomainError",
    "ArithmeticFailure",
    "SurfaceSyntaxError",
    "UnknownIdentifier",
    "ArityError",
    "UnknownModel",
    "SingularMatrix",
    "NotPositiveDefinite",
    "NotIndefinite",
    "NotImmersed",
    "NotTransversal",
    "Degenerate",
    "IndependenceFailure",
    "NullTypeUnsupported",
    "DegenerateTraceComponent",
    "DegenerateOffdiagComponent",
    "DegenerateCoframe",
    "CaseMismatch",
]


class CentroframeError(Exception):
    """Base class for all errors raised by this package."""


class PointFailures(CentroframeError):
    """Points of a batch failed a check.

    `errors` maps the index of each failing point in the batch to the
    exception that the point raises when it runs alone.
    """

    def __init__(self, errors):
        super().__init__("%d point(s) failed" % len(errors))
        self.errors = errors


def raise_where(bad, error):
    """Raise the errors of the points where the boolean array `bad` holds.

    `error(i)` builds the exception of point i.  Without a batch axis (`bad`
    0-d) that exception is raised itself, with i = (); with one, the failing
    points are raised together as PointFailures.
    """
    if not np.count_nonzero(bad):
        return
    if np.ndim(bad) == 0:
        raise error(())
    raise PointFailures({int(i): error(int(i)) for i in np.flatnonzero(bad)})


def raise_each(failed, shape):
    """Raise `failed`, the errors collected point by point (flat index ->
    error) for points of `shape`: without a batch axis (`shape` ()) the
    point's own error, with one all of them as PointFailures; nothing when
    `failed` is empty."""
    if not failed:
        return
    if not shape:
        raise failed[0]
    raise PointFailures(failed)


def point_error(exc, f, x):
    """The error of a point for `exc`, raised by float arithmetic or by the
    elementary function named `f` at the float `x`.

    math's ValueError is a DomainError, any other ArithmeticError (an
    overflow, a division by zero) an ArithmeticFailure that names it, and a
    CentroframeError is the point's error as it is.
    """
    if isinstance(exc, CentroframeError):
        return exc
    if isinstance(exc, ValueError):
        return DomainError("%s of %g is outside its real domain" % (f, x))
    return ArithmeticFailure("%s: %s" % (type(exc).__name__, exc))


# ---------------------------------------------------------------------------
# Taylor arithmetic
# ---------------------------------------------------------------------------


class ZeroConstantTerm(CentroframeError):
    """Division by a jet whose constant term is zero."""


class DomainError(CentroframeError):
    """Elementary function evaluated outside its real domain (e.g. sqrt of a
    jet with non-positive constant term)."""


class ArithmeticFailure(CentroframeError):
    """Floating-point arithmetic failed at a point: an overflow (e.g. cosh of
    a large argument) or a division by an exact zero, its message
    "OverflowError: ..." or "ZeroDivisionError: ..."; or a surface or result
    that is not finite."""


# ---------------------------------------------------------------------------
# Surface DSL
# ---------------------------------------------------------------------------


class SurfaceSyntaxError(CentroframeError):
    """Malformed surface expression text.

    Carries ``line`` and ``column`` (1-based) of the offending token.
    """

    def __init__(self, message, line, column):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column


class UnknownIdentifier(CentroframeError):
    """Expression references a name that is neither a variable, a parameter,
    nor a known function."""


class ArityError(CentroframeError):
    """Known function called with the wrong number of arguments."""


class UnknownModel(CentroframeError):
    """Requested built-in surface or homogeneous model does not exist."""


# ---------------------------------------------------------------------------
# Linear algebra over jets
# ---------------------------------------------------------------------------


class SingularMatrix(CentroframeError):
    """Linear solve hit a pivot whose constant term is at most _PIVOT_TOL
    times the largest |constant term| of its column."""


class NotPositiveDefinite(CentroframeError):
    """Symmetric 2x2 square root requested for a matrix that is not positive
    definite at the constant-term level."""


class NotIndefinite(CentroframeError):
    """Null basis requested for a symmetric 2x2 form that is not indefinite
    at the constant-term level."""


# ---------------------------------------------------------------------------
# Frame adaptation
# ---------------------------------------------------------------------------


class NotImmersed(CentroframeError):
    """The two coordinate tangent vectors are linearly dependent at the base
    point."""


class NotTransversal(CentroframeError):
    """The position vector lies in the tangent plane at the base point."""


class Degenerate(CentroframeError):
    """The three second-fundamental-form matrices fail the nondegeneracy
    determinant test."""


class IndependenceFailure(CentroframeError):
    """The pair (h3, h4) is linearly dependent, so it spans no plane."""


class NullTypeUnsupported(CentroframeError):
    """The normal plane is of Null type; the adaptation chain for this type
    is not implemented."""


class DegenerateTraceComponent(CentroframeError):
    """Space-like normalization: the pure-trace component of h0 vanishes, so
    the scaling gauge is undetermined."""


class DegenerateOffdiagComponent(CentroframeError):
    """Time-like normalization: the off-diagonal component of h0 vanishes, so
    the scaling gauge is undetermined."""


# ---------------------------------------------------------------------------
# Invariants and homogeneous models
# ---------------------------------------------------------------------------


class DegenerateCoframe(CentroframeError):
    """Model coframe is singular at the requested point (e.g. the sphere
    model at cos(v) = 0)."""


class CaseMismatch(CentroframeError):
    """Constant-invariant vector handed to a routine for the wrong surface
    type."""
