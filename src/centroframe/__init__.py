"""centroframe: moving-frame adaptation and invariants for centroaffine
surfaces in R^5 minus the origin.

The package computes, at chosen parameter points of a surface given by five
coordinate expressions in (u, v), an adapted moving frame, the second-order
invariant matrices, a space-like/time-like/null type classification, and the
differential invariants (including the Gauss curvature by two independent
routes).  A companion layer handles the homogeneous models with constant
invariants and searches for all constant-invariant solutions of the
structure equations.

Each submodule's ``__all__`` is its public name table; the package exports
their union, plus `TaylorScalar` and `coordinate_jets` from
:mod:`centroframe.taylor`.
"""

from . import adaptation, errors, homogeneous, invariants, surfaces
from .adaptation import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .homogeneous import *  # noqa: F401,F403
from .invariants import *  # noqa: F401,F403
from .surfaces import *  # noqa: F401,F403
from .taylor import TaylorScalar, coordinate_jets

__version__ = "0.1.0"

__all__ = [
    *adaptation.__all__,
    *errors.__all__,
    *homogeneous.__all__,
    *invariants.__all__,
    *surfaces.__all__,
    "TaylorScalar",
    "coordinate_jets",
    "__version__",
]
