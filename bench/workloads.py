"""The three benchmark workloads: inputs, the timed call, and output checks.

Every workload draws its inputs from the `--seed` it is given, builds them
before the timed call, and checks every output.  One *operation* is one
timed call into the program; it carries `units` of work (grid points,
queries or search restarts), and each unit counts once towards
`attempted` and at most once towards `failed`.

Scales stay moderate on purpose: inputs with |A| of order 1e-4 and grids
with |u| near 700 hit known correctness defects (absolute thresholds and
`math.cosh` overflow).  Those are covered by the package's own tests, not
timed here, because a fix would read as a slowdown.
"""

import contextlib
import io
import json
import math
import os
from collections import Counter

import numpy as np

from centroframe import (
    CentroframeError,
    builtin_model,
    cli,
    homogeneous,
    invariants,
    model_metric,
    surfaces,
)
from centroframe import adaptation, linalg5
from centroframe.taylor import TaylorScalar

MODELS = {
    # name: (type tag, epsilon, Gauss curvature)
    "h2": ("SpaceLike", 1, -1.0 / 3.0),
    "sphere": ("SpaceLike", -1, 1.0 / 3.0),
    "s21": ("TimeLike", 0, -1.0 / 3.0),
}
MODEL_ORDER = ("h2", "sphere", "s21")

REL_TOL = 1e-8  # curvature, metric and route agreement, relative
RESIDUAL_TOL = 1e-7  # relation residuals; the `analyze` default, absolute there
CLUSTER_TOL = 1e-6  # search constants against the built-ins (criterion 02)
ACCEPTANCE_SEED = 20260814


def failure_name(exc):
    """Histogram key for an exception raised by the program."""
    if isinstance(exc, CentroframeError):
        return type(exc).__name__
    return "Untyped:" + type(exc).__name__


def _rel(x, ref):
    return abs(x - ref) / max(abs(ref), 1e-300)


def _finite(*xs):
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


def _point_pipeline_patches(tracer):
    """Spans around each stage `analyze_point` calls, plus exact counters."""
    inv = invariants
    for attr, name in (
        ("eval_surface", "surfaces.eval"),
        ("frame1", "adaptation.frame1"),
        ("fundamental_matrices", "adaptation.fundamental"),
        ("classify_plane", "adaptation.classify"),
        ("adapt2_spacelike", "adaptation.adapt2"),
        ("adapt2_timelike", "adaptation.adapt2"),
        ("adapt3", "adaptation.adapt3"),
        ("extract_invariants", "invariants.extract"),
        ("gauss_from_invariants", "invariants.curvature"),
        ("gauss_from_connection", "invariants.curvature"),
        ("metric_at", "invariants.metric"),
        ("relation_residuals", "invariants.relations"),
    ):
        tracer.add_patch(inv, attr, lambda fn, n=name: tracer.span(n, fn))
    tracer.add_patch(inv, "maurer_cartan", lambda fn: tracer.span(tracer.next_mc, fn))
    for module in (adaptation, invariants, linalg5):
        tracer.add_patch(module, "solve", lambda fn: tracer.aggregate("linalg5.solve", fn))
    tracer.count_jets(TaylorScalar)


def _analyze_span(tracer, fn):
    return tracer.span("invariants.analyze_point", fn, on_enter=tracer.reset_mc)


POINT_STAGES = (
    "surfaces.eval",
    "adaptation.frame1",
    "adaptation.mc1",
    "adaptation.fundamental",
    "adaptation.classify",
    "adaptation.adapt2",
    "adaptation.mc2",
    "adaptation.adapt3",
    "adaptation.mc3",
    "invariants.extract",
    "invariants.curvature",
    "invariants.metric",
    "invariants.relations",
)


# ---------------------------------------------------------------------------
# grid_models: `centroframe analyze` over square grids of the built-ins
# ---------------------------------------------------------------------------


class GridModels:
    """`cli.main(["analyze", ...])` on an n x n grid inside [-1, 1]^2.

    Grids cycle through h2, sphere and s21 so that every three operations
    cover each model once; side and position of each square are random.
    """

    name = "grid_models"
    unit = "point"
    count_set = 1
    root_span = "cli.main"
    leaf_spans = ("surfaces.parse",) + POINT_STAGES + ("cli.serialize",)

    def __init__(self, seed, workdir, n=5):
        self.rng = np.random.default_rng([seed, 1])
        self.n = n
        self.k = 0
        self.outdir = os.path.join(workdir, "grid")

    def make_input(self):
        model = MODEL_ORDER[self.k % 3]
        self.k += 1
        axes = []
        for _ in range(2):
            side = self.rng.uniform(0.5, 2.0)
            lo = self.rng.uniform(-1.0, 1.0 - side)
            axes.append((lo, lo + side))
        return {"model": model, "axes": axes, "n": self.n}

    def argv(self, inp, n=None, outdir=None):
        n = inp["n"] if n is None else n
        specs = ["%r:%r:%d" % (lo, hi, n) for lo, hi in inp["axes"]]
        return [
            "analyze", "--surface", inp["model"], "--grid", *specs,
            "--degree", "5", "--jobs", "1", "--format", "json",
            "--out", self.outdir if outdir is None else outdir,
        ]

    def units(self, inp):
        return inp["n"] * inp["n"]

    def call(self, inp):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(self.argv(inp))
        return rc

    def check(self, inp, rc):
        bad = Counter()
        total = self.units(inp)
        if rc != 0:
            bad["ExitCode%d" % rc] = total
            return bad
        path = os.path.join(self.outdir, "analyze.json")
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        os.remove(path)
        records = doc.get("records", [])
        us = np.linspace(*inp["axes"][0], inp["n"])
        vs = np.linspace(*inp["axes"][1], inp["n"])
        expected = [(float(u), float(v)) for u in us for v in vs]
        if doc.get("degree") != 5 or len(records) != total:
            bad["BadDocument"] = total
            return bad
        for rec, (u, v) in zip(records, expected):
            reason = check_grid_record(inp["model"], u, v, rec)
            if reason:
                bad[reason] += 1
        return bad

    def probe(self, inp, outdir):
        return {"kind": "grid", "argv": self.argv(inp, n=2, outdir=outdir)}

    def patch(self, tracer):
        tracer.add_patch(cli, "resolve_surface", lambda fn: tracer.span("surfaces.parse", fn))
        tracer.add_patch(cli, "analyze_point", lambda fn: _analyze_span(tracer, fn))
        tracer.add_patch(cli, "dumps_json", lambda fn: tracer.span("cli.serialize", fn))
        _point_pipeline_patches(tracer)


def check_grid_record(model, u, v, rec):
    """Failure name for one `analyze` record of a built-in model, or None."""
    tag, eps, K = MODELS[model]
    if rec.get("u") != u or rec.get("v") != v:
        return "WrongPoint"
    if not rec.get("ok"):
        return rec.get("error") or "NotOk"
    metric = rec.get("metric", {})
    values = (
        rec.get("gauss_invariants"), rec.get("gauss_connection"),
        metric.get("E"), metric.get("F"), metric.get("G"), rec.get("residual_max"),
    )
    if not _finite(*values):
        return "NonFinite"
    if rec.get("surface_type") != tag or rec.get("epsilon") != eps:
        return "WrongType"
    if _rel(values[0], K) > REL_TOL or _rel(values[1], K) > REL_TOL:
        return "WrongCurvature"
    ref = model_metric(model, u, v)
    scale = max(abs(ref[0]), abs(ref[2]))
    if any(abs(x - r) > REL_TOL * scale for x, r in zip(values[2:5], ref)):
        return "WrongMetric"
    if rec.get("residual_ok") is not True:
        return "ResidualTooLarge"
    return None


# ---------------------------------------------------------------------------
# point_queries: parse + analyze_point on a fresh GL(5) image per query
# ---------------------------------------------------------------------------


def _random_orthogonal(rng):
    q, r = np.linalg.qr(rng.standard_normal((5, 5)))
    return q * np.sign(np.diag(r))


class PointQueries:
    """`parse_surface` + `analyze_point(degree=7)` on A.f at a random point.

    f is a random built-in, A = s U diag(sigma) V^T with orthogonal U, V,
    sigma in [0.25, 4] and s in [0.1, 10] (log-uniform).  Half the queries
    add c*u^2*v^2 (|c| <= 0.05) to the first coordinate, which leaves the
    model's orbit; there only self-consistency is checked.
    """

    name = "point_queries"
    unit = "query"
    count_set = 8
    root_span = "query"
    leaf_spans = ("surfaces.parse",) + POINT_STAGES

    def __init__(self, seed, workdir=None):
        self.rng = np.random.default_rng([seed, 2])
        self.notes = Counter()
        self.components = {
            m: [c.strip() for c in surfaces.BUILTIN_SURFACES[m].split(";")]
            for m in MODEL_ORDER
        }

    def make_input(self):
        rng = self.rng
        model = MODEL_ORDER[rng.integers(3)]
        sigma = np.exp(rng.uniform(math.log(0.25), math.log(4.0), 5))
        scale = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        A = scale * _random_orthogonal(rng) @ np.diag(sigma) @ _random_orthogonal(rng).T
        bump = float(rng.uniform(-0.05, 0.05)) if rng.random() < 0.5 else None
        u, v = (float(x) for x in rng.uniform(-1.0, 1.0, 2))
        f = self.components[model]
        rows = [" + ".join("%r*(%s)" % (float(A[i, j]), f[j]) for j in range(5)) for i in range(5)]
        if bump is not None:
            rows[0] += " + %r*u^2*v^2" % bump
        return {"model": model, "bump": bump, "u": u, "v": v, "text": "; ".join(rows)}

    def units(self, inp):
        return 1

    def call(self, inp):
        spec = surfaces.parse_surface(inp["text"])
        return invariants.analyze_point(spec, inp["u"], inp["v"], degree=7)

    def check(self, inp, res):
        reason = check_query(inp, res)
        if reason is None and res.residual_max > RESIDUAL_TOL:
            # passes the relative bound; `analyze` would still flag it
            self.notes["AbsoluteResidualOver1e-7"] += 1
        return Counter({reason: 1}) if reason else Counter()

    def probe(self, inp, outdir):
        return {"kind": "query", "text": inp["text"], "u": inp["u"], "v": inp["v"]}

    def patch(self, tracer):
        tracer.add_patch(surfaces, "parse_surface", lambda fn: tracer.span("surfaces.parse", fn))
        tracer.add_patch(invariants, "analyze_point", lambda fn: _analyze_span(tracer, fn))
        _point_pipeline_patches(tracer)


def check_query(inp, res):
    """Failure name for one query result, or None.

    Unbumped queries must reproduce the model (GL(5) invariance); bumped
    ones must agree with themselves across the two curvature routes.  The
    residual bound is the `analyze` default of 1e-7, scaled up by the
    largest invariant where that exceeds 1: near-degenerate bumped points
    have invariants of order 1e5, where an exact result has absolute
    residuals above 1e-7.
    """
    k1, k2 = res.gauss_invariants, res.gauss_connection
    if not _finite(k1, k2, res.residual_max):
        return "NonFinite"
    if inp["bump"] is None:
        tag, eps, K = MODELS[inp["model"]]
        if res.surface_type != tag or res.epsilon != eps:
            return "WrongType"
        if _rel(k1, K) > REL_TOL or _rel(k2, K) > REL_TOL:
            return "WrongCurvature"
    elif abs(k1 - k2) > REL_TOL * max(abs(k1), abs(k2)):
        return "WrongCurvature"
    scale = max([1.0] + [abs(x.const) for x in res.invariants.h.values()])
    if res.residual_max > RESIDUAL_TOL * scale:
        return "ResidualTooLarge"
    return None


# ---------------------------------------------------------------------------
# search: random-restart constant-solution search
# ---------------------------------------------------------------------------


class Search:
    """`search_constant_solutions` alternating "spacelike" and "timelike".

    Each pair of calls shares one seed; with `--seed 0` the first pair runs
    at the acceptance seed 20260814.  Uses homogeneous and scipy LM only.
    """

    name = "search"
    unit = "restart"
    count_set = 2
    root_span = "homogeneous.search"
    leaf_spans = ("homogeneous.lm",)

    def __init__(self, seed, workdir=None, restarts=50):
        self.base = ACCEPTANCE_SEED + 1000 * seed
        self.restarts = restarts
        self.k = 0
        self.reference = {m: builtin_model(m).constants.as_array() for m in MODEL_ORDER}

    def make_input(self):
        case = ("spacelike", "timelike")[self.k % 2]
        inp = {"case": case, "seed": self.base + self.k // 2, "restarts": self.restarts}
        self.k += 1
        return inp

    def units(self, inp):
        return inp["restarts"]

    def call(self, inp):
        return homogeneous.search_constant_solutions(
            inp["case"], restarts=inp["restarts"], seed=inp["seed"]
        )

    def check(self, inp, clusters):
        return check_clusters(inp, clusters, self.reference)

    def probe(self, inp, outdir):
        return {"kind": "search", "seed": inp["seed"]}

    def patch(self, tracer):
        tracer.add_patch(homogeneous, "least_squares", lambda fn: tracer.span("homogeneous.lm", fn))
        tracer.add_patch(
            homogeneous, "structure_residual",
            lambda fn: tracer.aggregate("homogeneous.residual", fn),
        )


def check_clusters(inp, clusters, reference):
    """Failures per restart: not converged, or converged to a wrong cluster."""
    by_key = {(tag, eps): m for m, (tag, eps, _) in MODELS.items()}
    allowed = {"spacelike": {"h2", "sphere"}, "timelike": {"s21"}}[inp["case"]]
    bad = Counter()
    hits = 0
    seen = set()
    for c in clusters:
        hits += c.hits
        model = by_key.get((c.surface_type, c.epsilon))
        if (
            model not in allowed
            or model in seen
            or not np.all(np.isfinite(c.values))
            or np.max(np.abs(c.values - reference[model])) >= CLUSTER_TOL
        ):
            bad["WrongCluster"] += c.hits
        seen.add(model)
    if hits < inp["restarts"]:
        bad["NotConverged"] += inp["restarts"] - hits
    return bad


WORKLOADS = {w.name: w for w in (GridModels, PointQueries, Search)}
