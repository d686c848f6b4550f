"""
Tour of the three homogeneous model surfaces
============================================

Exactly three surfaces have all invariants constant: two space-like ones
(one with epsilon = +1, one with epsilon = -1) and one time-like one.  This
script prints their invariant constants, checks the Lie-algebra bracket
tables of their reduced structure matrices, rebuilds each surface as a
product of matrix exponentials, and confirms the implicit quadric
equations that cut the surfaces out of R^5.
"""

import numpy as np

from centroframe import (
    MODEL_NAMES,
    analyze_point,
    bracket_check,
    builtin_model,
    builtin_surface,
    eval_surface,
    exp_product_point,
    model_generators,
    model_metric,
    quadric_residual,
    structure_residual,
)

np.set_printoptions(precision=4, suppress=True)
rng = np.random.default_rng(7)

for name in MODEL_NAMES:
    model = builtin_model(name)
    print("=" * 64)
    print("model %r: %s, epsilon = %d, K = %+.6f"
          % (name, model.surface_type, model.epsilon, model.gauss))

    nonzero = {k: v for k, v in model.constants.as_dict().items() if v != 0.0}
    print("nonzero invariant constants:",
          ", ".join("%s = %+.6f" % kv for kv in sorted(nonzero.items())))

    # The reduced Maurer-Cartan form is M0*alpha + M1*w1 + M2*w2; constant
    # invariants make (M0, M1, M2) a 3-dimensional Lie algebra, and the
    # structure equations become plain matrix bracket identities.
    resid = float(np.max(np.abs(structure_residual(model.constants))))
    print("structure-equation residual at the constants: %.2e" % resid)
    print("bracket identities:")
    for label, err in bracket_check(model).items():
        print("  %-14s residual %.2e" % (label, err))

    # The surface itself is the orbit of the first basis vector under the
    # two-parameter exponential product; it must match the closed-form
    # parametrization used by the rest of the package.
    spec = builtin_surface(name)
    worst = 0.0
    for _ in range(6):
        u, v = rng.uniform(-1.5, 1.5, 2)
        t = rng.uniform(-2.0, 2.0)
        via_exp = exp_product_point(name, t, u, v)
        via_param = np.array([j.const for j in eval_surface(spec, u, v, 1)])
        worst = max(worst, float(np.max(np.abs(via_exp - via_param))))
    print("exp-product vs parametrization (6 random points): %.2e" % worst)

    # Implicit description: three quadratic equations vanish on the surface
    # and detect any point scaled off it.
    u, v = rng.uniform(-1.0, 1.0, 2)
    pt = np.array([j.const for j in eval_surface(spec, u, v, 1)])
    on = float(np.max(np.abs(quadric_residual(name, pt))))
    off = float(np.max(np.abs(quadric_residual(name, 1.1 * pt))))
    print("quadric residual: %.2e on-surface, %.2e for the same point scaled by 1.1"
          % (on, off))

    # Pipeline cross-check at one random point: the adaptation chain must
    # reproduce the frozen constants and the closed-form metric.
    res = analyze_point(spec, float(u), float(v), degree=5)
    E, F, G = res.metric.first_coeffs[:, 0]
    Ew, Fw, Gw = model_metric(name, float(u), float(v))
    print("pipeline at (%.3f, %.3f): K_alg = %+.6f, K_conn = %+.6f" %
          (u, v, res.gauss_invariants, res.gauss_connection))
    print("metric (E, F, G) = (%.6f, %.6f, %.6f) vs closed form "
          "(%.6f, %.6f, %.6f)" % (E, F, G, Ew, Fw, Gw))

print("=" * 64)
print("generators G0, G1, G2 of the time-like model, for reference:")
for label, G in zip(("G0", "G1", "G2"), model_generators("s21")):
    print(label)
    print(np.array(G))
