"""
Walking the frame-adaptation chain at a single point
====================================================

A surface in R^5 minus the origin is given by five coordinate expressions
in (u, v).  This script runs the full adaptation machinery step by step at
one parameter point and prints what each stage produces: the first adapted
frame, the Cartan-lemma matrices, the type classification, the normalized
second-order data, and finally the scalar invariants with the Gauss
curvature computed by two independent routes.
"""

import numpy as np

from centroframe import (
    adapt2_spacelike,
    adapt2_timelike,
    adapt3,
    analyze_point,
    classify_plane,
    eval_surface,
    frame1,
    fundamental_matrices,
    maurer_cartan,
    parse_surface,
)

np.set_printoptions(precision=6, suppress=True)

# Any immersed surface transversal to the position vector works here; this
# one is a perturbed version of the built-in hyperbolic model, so its
# invariants are no longer constant from point to point.
TEXT = (
    "(3*cosh(u)^2*cosh(v)^2 - 1)/2;"
    " sqrt(3)*sinh(u)*cosh(u)*cosh(v)^2;"
    " sqrt(3)*cosh(u)*sinh(v)*cosh(v);"
    " 3/2*(cosh(v)^2*(cosh(u)^2 - 2) + 1);"
    " 3*sinh(u)*sinh(v)*cosh(v) + u^3/10"
)
U0, V0 = 0.4, -0.3

print("surface components:")
for comp in TEXT.split(";"):
    print("   ", comp.strip())
print("base point: (u, v) = (%g, %g)" % (U0, V0))

# --- Level 1: frame from the 1-jet --------------------------------------
# Columns: e0 = position, e1 = f_u, e2 = f_v, plus two coordinate vectors
# picked deterministically to complete the basis.
spec = parse_surface(TEXT)
jets = eval_surface(spec, U0, V0, degree=5)
fr1 = frame1(jets)
F0 = fr1.const
print("\nlevel-1 frame (columns e0..e4) at the base point:")
print(F0)

# --- Cartan-lemma matrices and the type tag ------------------------------
# The Maurer-Cartan form of the frame field gives, for rows 0, 3, 4, three
# symmetric 2x2 coefficient matrices h0, h3, h4 against the coframe.
mc = maurer_cartan(fr1)
fund = fundamental_matrices(mc)
print("\nCartan-lemma matrices (constant parts):")
for label, h in (("h0", fund.h0), ("h3", fund.h3), ("h4", fund.h4)):
    a, b, c = h.const()
    print("  %s = [[% .6f, % .6f], [% .6f, % .6f]]" % (label, a, b, b, c))

kind = classify_plane(fund)
print("plane type: %s  (Q-restriction det %.3e, trace %.3e)"
      % (kind.tag, kind.det, kind.gram.trace()))

# --- Level 2: normalizing the second-order data --------------------------
# The space-like and time-like reductions bring (h3, h4) to different normal
# forms; both also normalize h0 and return the remaining sign epsilon (0 in
# the time-like case).
adapt2 = adapt2_spacelike if kind.tag == "SpaceLike" else adapt2_timelike
fr2, gauge2, eps = adapt2(fr1, fund)
print("\nafter level 2 (%s): epsilon = %+d" % (kind.tag, eps))
fund2 = fundamental_matrices(maurer_cartan(fr2))
for label, h in (("h0", fund2.h0), ("h3", fund2.h3), ("h4", fund2.h4)):
    a, b, c = h.const()
    print("  %s -> [[% .6f, % .6f], [% .6f, % .6f]]" % (label, a, b, b, c))

# --- Level 3: killing the translational freedom ---------------------------
fr3, gauge3 = adapt3(fr2, maurer_cartan(fr2), kind.tag, eps)
print("\nlevel-3 frame fixed (residual fiber group is 1-dimensional)")

# --- Invariants, relations, curvature by two routes -----------------------
# analyze_point repeats the chain internally and collects everything.
res = analyze_point(spec, U0, V0, degree=5)
print("\nscalar invariants at the base point (constant parts):")
for name in sorted(res.invariants.h):
    val = res.invariants.h[name].const
    if abs(val) > 1e-12:
        print("  %s = % .9f" % (name, val))
print("connection form alpha = %.9f du + %.9f dv"
      % tuple(res.invariants.alpha_coeffs[:, 0]))
E, F, G = res.metric.first_coeffs[:, 0]
print("metric: E = %.9f, F = %.9f, G = %.9f  (%s)"
      % (E, F, G, res.metric.signature))
print("Gauss curvature, algebraic route:   % .12f" % res.gauss_invariants)
print("Gauss curvature, connection route:  % .12f" % res.gauss_connection)
print("route difference: %.3e" % abs(res.gauss_invariants - res.gauss_connection))
print("worst relation residual: %.3e" % res.residual_max)
