"""The batch contract of `analyze_point`.

A grid runs as one batch: every stage runs once per batch, and a point that
fails leaves the batch with its error.  A point's results must not depend on
that.  Its AnalysisResult values and its `analyze` record are bit-identical
whether it runs alone, in a 5x5 batch, or in a sub-batch after neighbours
failed, and a failing point raises the same error type and message in a
batch as alone.
"""

import math
import re

import numpy as np
import pytest

from centroframe import cli
from centroframe.invariants import analyze_point
from centroframe.surfaces import BUILTIN_SURFACES, parse_surface

GRID = np.linspace(-1.0, 1.0, 5)
US, VS = np.repeat(GRID, 5), np.tile(GRID, 5)

# space-like, time-like, null and degenerate points on one 5x5 grid
MIXED = "1 + u^2/2 + v^2/2; u; v; u^2/2 + v^2*u; u*v"
NULL_FIXTURE = "1 + u^2/2 + v^2/2; u; v; u^2/2; u*v"


def _gl5_image(name, seed=3):
    """Text of A.f for the built-in f and a random A in GL(5)."""
    rng = np.random.default_rng(seed)
    f = [c.strip() for c in BUILTIN_SURFACES[name].split(";")]
    A = rng.standard_normal((5, 5)) + 2.0 * np.eye(5)
    return "; ".join(" + ".join("%r*(%s)" % (float(A[i, j]), f[j]) for j in range(5))
                     for i in range(5))


# (surface text, degree, points that fail alone)
CASES = {
    "h2": (BUILTIN_SURFACES["h2"], 5, [(800.0, 0.0), (700.0, 0.0), (0.1, 400.0)]),
    "sphere": (BUILTIN_SURFACES["sphere"], 5, [(0.3, math.pi / 2)]),
    "s21": (BUILTIN_SURFACES["s21"], 5, [(0.2, 400.0)]),
    "gl5-h2": (_gl5_image("h2"), 7, [(800.0, 0.0)]),
    "mixed": (MIXED, 5, [(0.0, 0.0)]),
}


def _alone(spec, u, v, degree):
    try:
        return analyze_point(spec, float(u), float(v), degree=degree)
    except Exception as exc:  # the contract covers errors too
        return exc


def _at(batch, i):
    return batch.errors.get(i) or batch.point(i)


def _bits(res):
    """Every value of a result as bytes (signs of zeros included), or the
    type and message of an error."""
    if isinstance(res, Exception):
        return [type(res).__name__, str(res)]
    inv = res.invariants
    jets = [*inv.h.values(), *inv.vanishing.values(), *inv.alpha, *res.metric.first]
    floats = (res.u, res.v, res.gauss_invariants, res.gauss_connection, res.residual_max)
    arrays = (inv.coframe, inv.projection, res.metric.normal_gram, res.gram, res.mc.omega,
              res.frame.coeffs)
    return (
        [res.surface_type, res.epsilon, inv.epsilon, res.metric.signature, list(inv.h),
         list(inv.vanishing), res.frame.degrees, res.mc.degrees]
        + [np.float64(x).tobytes() for x in floats]
        + [x.coeffs.tobytes() for x in jets]
        + [a.tobytes() for a in arrays]
    )


def _records(spec, us, vs, degree):
    records = cli._analyze_records((spec, list(map(float, us)), list(map(float, vs)), degree, 1e-7))
    return [cli.dumps_json(r) for r in records]


@pytest.mark.parametrize("case", sorted(CASES))
def test_point_results_do_not_depend_on_the_batch(case):
    text, degree, failing = CASES[case]
    spec = parse_surface(text)
    batch = analyze_point(spec, US, VS, degree=degree)
    # every other point of the grid, each after a point that fails
    keep = list(range(0, 25, 2))
    bad_u, bad_v = zip(*(failing[k % len(failing)] for k in range(len(keep))))
    sub_u = np.ravel(np.column_stack([bad_u, US[keep]]))
    sub_v = np.ravel(np.column_stack([bad_v, VS[keep]]))
    sub = analyze_point(spec, sub_u, sub_v, degree=degree)
    assert set(range(0, 2 * len(keep), 2)) <= set(sub.errors)

    for i in range(25):
        alone = _bits(_alone(spec, US[i], VS[i], degree))
        assert _bits(_at(batch, i)) == alone, i
        if i in keep:
            assert _bits(_at(sub, 2 * keep.index(i) + 1)) == alone, i

    records = _records(spec, US, VS, degree)
    sub_records = _records(spec, sub_u, sub_v, degree)
    for i in range(25):
        assert records[i] == _records(spec, US[i : i + 1], VS[i : i + 1], degree)[0], i
        if i in keep:
            assert sub_records[2 * keep.index(i) + 1] == records[i], i


@pytest.mark.parametrize("text, us, vs", [
    (MIXED, US, VS),
    (NULL_FIXTURE, US / 2, VS / 2),
    (BUILTIN_SURFACES["h2"], [700.0, 0.5, 800.0, -0.5], [0.0, 0.5, 0.0, 400.0]),
    (BUILTIN_SURFACES["sphere"], [0.3, 0.3, -0.2], [math.pi / 2, 0.2, -math.pi / 2]),
    ("u/0; u; v; 1; u*v", [-1.0, 1.0], [0.5, 0.5]),
    ("u; 1/(u - u); u/0; u; v", [0.4, 0.3], [-0.3, 0.1]),
    ("sqrt(u - 2); v; u/0; u; v", [0.4, 3.0], [-0.3, 0.1]),
    ("u; v; 1/(2 - 2) + u; u; v", [0.4, 0.3], [-0.3, 0.1]),
    ("u; v; sqrt(0-1) + u; u*v; v^2", [0.5, 0.5], [0.0, 1.0]),
])
def test_errors_in_a_batch_are_the_errors_alone(text, us, vs):
    spec = parse_surface(text)
    batch = analyze_point(spec, np.asarray(us), np.asarray(vs), degree=5)
    assert batch.errors
    for i, (u, v) in enumerate(zip(us, vs)):
        alone = _alone(spec, u, v, 5)
        assert isinstance(alone, Exception) == (i in batch.errors), i
        if i in batch.errors:
            assert _bits(batch.errors[i]) == _bits(alone), i
            with pytest.raises(type(alone), match="^%s$" % re.escape(str(alone))):
                batch.point(i)
