"""The batch contract of `analyze_point`.

A grid runs as one batch: every stage runs once per batch, and a point that
fails leaves the batch with its error.  A point's results must not depend on
that.  Its columns in the AnalysisBatch and its `analyze` record are
bit-identical whether it runs alone, in a 5x5 batch, or in a sub-batch after
neighbours failed; every jet, frame and Maurer-Cartan field of the batch
equals the point's own; and a failing point records the same error type and
message in a batch as it raises alone.
"""

import math
import tracemalloc

import numpy as np
import pytest

from centroframe import cli, invariants
from centroframe.errors import ArithmeticFailure, CentroframeError, DomainError
from centroframe.invariants import H_ALL, H_COLUMNS_OF, analyze_point
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


def _error(exc):
    return [type(exc).__name__, str(exc)]


def _row(batch, i):
    """Point i's columns as bytes (signs of zeros included), or the type and
    message of its error."""
    if i in batch.errors:
        return _error(batch.errors[i])
    floats = (batch.u[i], batch.v[i], batch.gauss_invariants[i], batch.gauss_connection[i],
              batch.residual_max[i])
    return ([batch.surface_type[i], batch.signature[i], int(batch.epsilon[i])]
            + [np.float64(x).tobytes() for x in floats]
            + [a[i].tobytes() for a in (batch.metric, batch.alpha, batch.h)])


def _columns(res):
    """`_row` of a point run alone (an AnalysisResult or the error it raised)."""
    if isinstance(res, Exception):
        return _error(res)
    h = np.full(len(H_ALL), np.nan)
    for k, c in H_COLUMNS_OF[res.surface_type]:
        h[c] = res.invariants.h_coeffs[k][0]
    floats = (res.u, res.v, res.gauss_invariants, res.gauss_connection, res.residual_max)
    arrays = (res.metric.first_coeffs[:, 0], res.invariants.alpha_coeffs[:, 0], h)
    return ([res.surface_type, res.metric.signature, res.epsilon]
            + [np.float64(x).tobytes() for x in floats]
            + [a.tobytes() for a in arrays])


def _jets(res, j=()):
    """Every array of an AnalysisResult as bytes; of row j for a batch's."""
    inv = res.invariants
    arrays = (*inv.h_coeffs.values(), *inv.vanishing_coeffs.values(), inv.alpha_coeffs,
              inv.coframe, inv.projection, res.metric.first_coeffs, res.metric.normal_gram,
              res.gram, res.mc.omega, res.frame.coeffs)
    return ([int(np.asarray(inv.epsilon)[j]), list(inv.h_coeffs), list(inv.vanishing_coeffs),
             res.frame.degrees, res.mc.degrees]
            + [a[j].tobytes() for a in arrays])


def _records(spec, us, vs, degree):
    rows = cli._analyze_records((spec, list(map(float, us)), list(map(float, vs)), degree, 1e-7))
    return [cli._record_json(r) for r in rows]


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
        alone = _columns(_alone(spec, US[i], VS[i], degree))
        assert _row(batch, i) == alone, i
        if i in keep:
            assert _row(sub, 2 * keep.index(i) + 1) == alone, i

    # the batch's jets, before it keeps only their constant terms
    for rows, part in invariants._analyze(spec, US, VS, degree, {}):
        for j, i in enumerate(rows.tolist()):
            assert _jets(part, j) == _jets(_alone(spec, US[i], VS[i], degree)), i

    records = _records(spec, US, VS, degree)
    sub_records = _records(spec, sub_u, sub_v, degree)
    for i in range(25):
        assert records[i] == _records(spec, US[i : i + 1], VS[i : i + 1], degree)[0], i
        if i in keep:
            assert sub_records[2 * keep.index(i) + 1] == records[i], i


def test_batch_memory_does_not_grow_with_its_length():
    # each sub-batch's frames, forms and jets are dropped once its rows are
    # in the columns, so ten times the points reach about the same peak
    spec = parse_surface(BUILTIN_SURFACES["h2"])

    def peak(n):
        grid = np.linspace(-1.0, 1.0, n)
        tracemalloc.start()
        try:
            analyze_point(spec, grid, -grid, degree=5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(128)  # warm up the kernel tables
    assert peak(1280) <= 1.5 * peak(128)


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
            assert _row(batch, i) == _columns(alone), i


@pytest.mark.parametrize("text, cls, message", [
    ("sin(1e308*10*u) + 2; u; v; u*v; v^2", DomainError, "sin of inf is outside its real domain"),
    ("cos(1e308*10*u) + 2; u; v; u*v; v^2", DomainError, "cos of inf is outside its real domain"),
    ("cosh(800*u) + 2; u; v; u*v; v^2", ArithmeticFailure, "OverflowError: math range error"),
    ("u; v; cosh(800) + u; u*v; v^2", ArithmeticFailure, "OverflowError: math range error"),
    ("u; v; 1/(2-2) + u; u*v; v^2", ArithmeticFailure, "ZeroDivisionError: float division by zero"),
])
def test_math_failures_are_typed_where_they_arise(text, cls, message):
    # a failure of math at a jet's constant term (u = 1) or at a constant
    # is the point's typed error, alone and in a batch
    spec = parse_surface(text)
    with pytest.raises(CentroframeError) as alone:
        analyze_point(spec, 1.0, 0.5, degree=5)
    batch = analyze_point(spec, np.array([1.0, 0.001]), np.array([0.5, 0.5]), degree=5)
    for exc in (alone.value, batch.errors[0]):
        assert type(exc) is cls
        assert str(exc) == message
