"""Call budget of one point query.

A point query (one fresh surface text, parsed and analyzed at one point, as
the point_queries benchmark runs it) spends its time on the fixed cost of
each call, not on Taylor arithmetic.  cProfile counts the calls into
centroframe's own functions, which, unlike a timing, are the same on every
machine; the budgets below are the counts at the time they were set, so a
change that adds calls to the query path fails here.
"""

import cProfile
import os

import numpy as np

import centroframe
from centroframe.invariants import analyze_point
from centroframe.surfaces import BUILTIN_SURFACES, parse_surface

# A fixed GL(5) image of s21; its dyadic entries print exactly
A = np.array([
    [1.5, 0.25, -0.5, 0.0, 0.125],
    [0.0, 2.0, 0.375, -0.25, 0.5],
    [0.25, -0.125, 1.0, 0.5, 0.0],
    [-0.5, 0.0, 0.25, 1.25, 0.375],
    [0.125, 0.5, 0.0, -0.375, 0.75],
])
PARSE_CALLS = 234
ANALYZE_CALLS = 620


def _image_text():
    f = [c.strip() for c in BUILTIN_SURFACES["s21"].split(";")]
    return "; ".join(" + ".join("%r*(%s)" % (float(A[i, j]), f[j]) for j in range(5)) for i in range(5))


def _calls(fn):
    """fn()'s result, and the calls it makes into centroframe's functions
    (counted per code object: pstats would merge comprehensions that share a
    line)."""
    package = os.path.dirname(centroframe.__file__) + os.sep
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = fn()
    finally:
        profile.disable()
    return result, sum(entry.callcount for entry in profile.getstats()
                       if getattr(entry.code, "co_filename", "").startswith(package))


def test_a_point_query_stays_within_its_call_budget():
    text = _image_text()
    analyze_point(parse_surface(text), 0.3, -0.2, degree=7)  # fill the per-degree tables
    spec, parse_calls = _calls(lambda: parse_surface(text))
    res, analyze_calls = _calls(lambda: analyze_point(spec, 0.3, -0.2, degree=7))
    assert res.surface_type == "TimeLike"
    assert abs(res.gauss_invariants + 1.0 / 3.0) < 1e-12
    assert parse_calls <= PARSE_CALLS
    assert analyze_calls <= ANALYZE_CALLS
