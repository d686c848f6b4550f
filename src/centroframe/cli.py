"""Command-line front end.

Four subcommands:

* ``analyze``  — run the adaptation pipeline over a parameter grid and emit
  one record per point (type tag, invariants, curvature by both routes,
  metric coefficients, residual diagnostics).
* ``example``  — sample a built-in model surface and emit its mesh plus the
  planar projection files used for figures.
* ``verify``   — run the named verification checks (brackets, structure,
  quadrics, metrics, relations, gauss) and report pass/fail per check; the
  exit code reflects the overall status.
* ``search``   — random-restart search for constant-invariant solutions of
  the reduced structure equations, with clustering and comparison against
  the built-in models.

Output conventions
------------------
* JSON documents carry a top-level ``"schema": "centroframe/1"`` key.
  Floats are written with 17 significant digits, so identical
  configurations produce byte-identical files; non-finite values become
  ``null``.  Keys appear in a fixed order.
* CSV files use UTF-8, LF line endings, and the same float formatting;
  column orders are fixed (see README).
* Grid syntax is ``lo:hi:count``, inclusive at both ends.  ``--grid`` takes
  one spec (used for both axes) or two (u then v).  Records are emitted in
  row-major order (u outer, v inner) regardless of ``--jobs``.
* Per-point analysis failures are recorded inline and never abort a sweep;
  the process exits nonzero only on configuration or parse errors (and on
  failed ``verify`` checks).
"""

import argparse
import csv
import math
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ArithmeticFailure, CentroframeError
from .homogeneous import (
    MODEL_NAMES,
    builtin_model,
    bracket_check,
    invariant_names,
    model_metric,
    quadric_residual,
    search_constant_solutions,
    structure_residual,
)
from .invariants import analyze_point, effective_degree
from .surfaces import eval_surface, resolve_surface

__all__ = ["RunConfig", "main", "cmd_analyze", "cmd_example", "cmd_verify", "cmd_search"]

SCHEMA = "centroframe/1"

_SPACELIKE_H = (
    "h111", "h112", "h121", "h122", "h131", "h132", "h141", "h142",
    "h221", "h222", "h231", "h232", "h241", "h242",
    "h331", "h332", "h341", "h342", "h431", "h432", "h441", "h442",
)
_TIMELIKE_H = (
    "h111", "h121", "h122", "h131", "h132", "h141", "h142",
    "h211", "h212", "h222", "h231", "h241",
    "h331", "h332", "h341", "h342", "h431", "h432", "h441", "h442",
)
H_COLUMNS = tuple(sorted(set(_SPACELIKE_H) | set(_TIMELIKE_H)))

ANALYZE_COLUMNS = (
    "u", "v", "ok", "error", "message", "surface_type", "epsilon",
    "gauss_invariants", "gauss_connection",
    "metric_E", "metric_F", "metric_G", "signature",
    "alpha_du", "alpha_dv", "residual_max", "residual_ok",
) + H_COLUMNS

VERIFY_COLUMNS = ("name", "passed", "residual", "tolerance", "detail")

_CHECK_NAMES = ("brackets", "structure", "quadrics", "metrics", "relations", "gauss")
_DEFAULT_CHECK_TOLS = {
    "brackets": 1e-13,
    "structure": 1e-12,
    "quadrics": 1e-8,
    "metrics": 1e-6,
    "relations": 1e-7,
    "gauss": 1e-5,
}

_SEARCH_CASES = ("spacelike", "spacelike+", "spacelike-", "timelike")


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------


def format_float(x):
    """17-significant-digit decimal form; None for non-finite values."""
    x = float(x)
    if not math.isfinite(x):
        return None
    return "%.17g" % x


def _json_escape(s):
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append({"\n": "\\n", "\r": "\\r", "\t": "\\t"}.get(ch, "\\u%04x" % ord(ch)))
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def _json_value(value, out, level):
    pad = "  " * level
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(_json_escape(value))
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        s = format_float(value)
        out.append("null" if s is None else s)
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(value.items()):
            out.append(pad + "  " + _json_escape(str(k)) + ": ")
            _json_value(v, out, level + 1)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        seq = list(value)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(seq):
            out.append(pad + "  ")
            _json_value(v, out, level + 1)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError("cannot serialize %r" % type(value))


def dumps_json(doc):
    """Deterministic JSON text (insertion-ordered keys, fixed float format)."""
    out = []
    _json_value(doc, out, 0)
    out.append("\n")
    return "".join(out)


def _cell(x):
    """CSV cell text for one value."""
    if x is None:
        return ""
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, (float, np.floating)):
        s = format_float(x)
        return "" if s is None else s
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_cell(x) for x in row])


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    """Validated settings of one CLI invocation."""

    command: str
    surface: str = ""
    model: str = ""
    case: str = ""
    grid: tuple = ((-1.0, 1.0, 5), (-1.0, 1.0, 5))
    degree: int = 4
    tol: float = None
    fmt: str = "json"
    out: str = None
    seed: int = 0
    jobs: int = 1
    restarts: int = 200
    check: str = None


_GRID_DASH_TOKEN = re.compile(r"^-(?!-)[^\s:]*:[^\s:]*:[^\s:]+$")


def _protect_grid_tokens(argv):
    """Prefix grid specs with a space so argparse keeps negative bounds."""
    return [" " + a if _GRID_DASH_TOKEN.match(a) else a for a in argv]


def _grid_spec(text):
    parts = text.strip().split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            "grid spec must be lo:hi:count, got %r" % text.strip()
        )
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError("bad grid spec %r" % text.strip())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError("grid bounds must be finite")
    if n < 1:
        raise argparse.ArgumentTypeError("grid count must be >= 1")
    return (lo, hi, n)


def _grid_axes(specs):
    if specs is None:
        specs = [(-1.0, 1.0, 5)]
    if len(specs) == 1:
        return (specs[0], specs[0])
    if len(specs) == 2:
        return (specs[0], specs[1])
    raise CentroframeError("--grid takes one or two lo:hi:count specs")


def _grid_values(axis):
    lo, hi, n = axis
    return [float(x) for x in np.linspace(lo, hi, n)]


def _add_common(sp, fmt_default="json", out_default=None):
    sp.add_argument("--surface", default="", help="built-in name, file path, or inline text with 5 ';'-separated components")
    sp.add_argument("--model", default="", help="built-in model name (%s)" % ", ".join(MODEL_NAMES))
    sp.add_argument("--grid", nargs="+", type=_grid_spec, default=None, metavar="LO:HI:N", help="parameter grid, one spec for both axes or u-spec v-spec (default -1:1:5)")
    sp.add_argument("--degree", type=int, default=4, help="surface jet degree (default 4; raised to 5 for the curvature-by-connection route; the output records the degree used)")
    sp.add_argument("--tol", type=float, default=None, help="tolerance override (per-command default otherwise)")
    sp.add_argument("--format", dest="fmt", choices=("json", "csv"), default=fmt_default, help="output format (default %s)" % fmt_default)
    sp.add_argument("--out", default=out_default, help="output directory (default: print to stdout)" if out_default is None else "output directory (default %r)" % out_default)
    sp.add_argument("--seed", type=int, default=0, help="random seed for sampled checks/searches (default 0)")
    sp.add_argument("--jobs", type=int, default=1, help="parallel workers for grid sweeps (default 1; ordering is unaffected)")


def build_parser():
    p = argparse.ArgumentParser(
        prog="centroframe",
        description="Moving-frame analysis of centroaffine surfaces in R^5.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="run the adaptation pipeline over a grid")
    _add_common(sp)

    sp = sub.add_parser("example", help="emit a built-in model mesh and figure projections")
    sp.add_argument("model_arg", nargs="?", default="", metavar="MODEL", help="built-in model name")
    _add_common(sp, fmt_default="csv", out_default=".")

    sp = sub.add_parser("verify", help="run verification checks")
    sp.add_argument("--check", choices=_CHECK_NAMES, default=None, help="run only this check")
    _add_common(sp)

    sp = sub.add_parser("search", help="search for constant-invariant solutions")
    sp.add_argument("case_arg", nargs="?", default="", metavar="CASE", help="one of: %s" % ", ".join(_SEARCH_CASES))
    sp.add_argument("--case", default="", help="alternative to the positional CASE")
    sp.add_argument("--restarts", type=int, default=200, help="number of random starts (default 200)")
    _add_common(sp)

    return p


def _config_from(ns):
    cfg = RunConfig(command=ns.command)
    cfg.surface = getattr(ns, "surface", "") or ""
    cfg.model = getattr(ns, "model", "") or ""
    cfg.grid = _grid_axes(getattr(ns, "grid", None))
    cfg.degree = getattr(ns, "degree", 4)
    cfg.tol = getattr(ns, "tol", None)
    cfg.fmt = getattr(ns, "fmt", "json")
    cfg.out = getattr(ns, "out", None)
    cfg.seed = getattr(ns, "seed", 0)
    cfg.jobs = max(1, getattr(ns, "jobs", 1))
    cfg.restarts = getattr(ns, "restarts", 200)
    cfg.check = getattr(ns, "check", None)
    if ns.command == "analyze":
        if not cfg.surface and cfg.model:
            cfg.surface = cfg.model
        if not cfg.surface:
            raise CentroframeError("analyze needs --surface (or --model)")
        if cfg.degree < 4:
            raise CentroframeError("analyze needs --degree >= 4")
    if ns.command == "example":
        cfg.model = getattr(ns, "model_arg", "") or cfg.model or cfg.surface
        if not cfg.model:
            raise CentroframeError("example needs a model name")
    if ns.command == "search":
        cfg.case = getattr(ns, "case_arg", "") or getattr(ns, "case", "")
        if not cfg.case:
            raise CentroframeError(
                "search needs a case: %s" % ", ".join(_SEARCH_CASES)
            )
    return cfg


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _error_record(u, v, exc):
    return {
        "u": u,
        "v": v,
        "ok": False,
        "error": type(exc).__name__,
        "message": str(exc),
    }


def _analyze_record(task):
    """One grid point -> plain-dict record; errors recorded, not raised."""
    spec, u, v, degree, tol = task
    try:
        res = analyze_point(spec, u, v, degree=degree)
    except (OverflowError, ZeroDivisionError, np.linalg.LinAlgError) as exc:
        failure = ArithmeticFailure("%s: %s" % (type(exc).__name__, exc))
        return _error_record(u, v, failure)
    except CentroframeError as exc:
        return _error_record(u, v, exc)
    alpha_du, alpha_dv = (x.const for x in res.invariants.alpha)
    E, F, G = (x.const for x in res.metric.first)
    h = {k: res.invariants.h[k].const for k in sorted(res.invariants.h)}
    results = dict(
        gauss_invariants=res.gauss_invariants, gauss_connection=res.gauss_connection,
        E=E, F=F, G=G, **h,
    )
    bad = [k for k, x in results.items() if not math.isfinite(x)]
    if bad:
        return _error_record(u, v, ArithmeticFailure("non-finite result: " + ", ".join(bad)))
    return {
        "u": u,
        "v": v,
        "ok": True,
        "surface_type": res.surface_type,
        "epsilon": res.epsilon,
        "gauss_invariants": res.gauss_invariants,
        "gauss_connection": res.gauss_connection,
        "metric": {"E": E, "F": F, "G": G, "signature": res.metric.signature},
        "alpha": {"du": alpha_du, "dv": alpha_dv},
        "residual_max": res.residual_max,
        "residual_ok": bool(res.residual_max <= tol),
        "h": h,
    }


def _run_grid(tasks, jobs):
    if jobs <= 1:
        return [_analyze_record(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_analyze_record, tasks, chunksize=4))


def cmd_analyze(cfg):
    spec = resolve_surface(cfg.surface)
    tol = 1e-7 if cfg.tol is None else cfg.tol
    us = _grid_values(cfg.grid[0])
    vs = _grid_values(cfg.grid[1])
    tasks = [(spec, u, v, cfg.degree, tol) for u in us for v in vs]
    records = _run_grid(tasks, cfg.jobs)
    doc = {
        "schema": SCHEMA,
        "command": "analyze",
        "surface": cfg.surface,
        "degree": effective_degree(cfg.degree),
        "tolerance": tol,
        "grid": {"u": list(cfg.grid[0]), "v": list(cfg.grid[1])},
        "records": records,
    }
    if cfg.fmt == "json":
        text = dumps_json(doc)
        if cfg.out:
            os.makedirs(cfg.out, exist_ok=True)
            path = os.path.join(cfg.out, "analyze.json")
            _write_text(path, text)
            print("wrote %s" % path)
        else:
            sys.stdout.write(text)
        return 0
    rows = []
    for r in records:
        row = dict.fromkeys(ANALYZE_COLUMNS)
        row.update(
            u=r["u"], v=r["v"], ok=r["ok"], error=r.get("error"),
            message=r.get("message"),
        )
        if r["ok"]:
            row.update(
                surface_type=r["surface_type"],
                epsilon=r["epsilon"],
                gauss_invariants=r["gauss_invariants"],
                gauss_connection=r["gauss_connection"],
                metric_E=r["metric"]["E"],
                metric_F=r["metric"]["F"],
                metric_G=r["metric"]["G"],
                signature=r["metric"]["signature"],
                alpha_du=r["alpha"]["du"],
                alpha_dv=r["alpha"]["dv"],
                residual_max=r["residual_max"],
                residual_ok=r["residual_ok"],
            )
            for k, x in r["h"].items():
                row[k] = x
        rows.append([row[c] for c in ANALYZE_COLUMNS])
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        path = os.path.join(cfg.out, "analyze.csv")
        _write_csv(path, ANALYZE_COLUMNS, rows)
        print("wrote %s" % path)
    else:
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(ANALYZE_COLUMNS)
        for row in rows:
            w.writerow([_cell(x) for x in row])
    return 0


# ---------------------------------------------------------------------------
# example
# ---------------------------------------------------------------------------

_PROJECTIONS_SPACELIKE = (("x1", "x2", "x0"), ("x1", "x2", "x3"), ("x1", "x2", "x4"))
_PROJECTIONS_TIMELIKE = _PROJECTIONS_SPACELIKE + (("x1", "x3", "x0"), ("x1", "x4", "x0"))


def cmd_example(cfg):
    model = builtin_model(cfg.model)  # validates the name
    spec = resolve_surface(cfg.model)
    us = _grid_values(cfg.grid[0])
    vs = _grid_values(cfg.grid[1])
    mesh = []
    for u in us:
        for v in vs:
            pt = [j.const for j in eval_surface(spec, u, v, 1)]
            mesh.append([u, v] + pt)
    projections = (
        _PROJECTIONS_TIMELIKE
        if model.surface_type == "TimeLike"
        else _PROJECTIONS_SPACELIKE
    )
    col_index = {"u": 0, "v": 1, "x0": 2, "x1": 3, "x2": 4, "x3": 5, "x4": 6}
    out_dir = cfg.out or "."
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if cfg.fmt == "csv":
        path = os.path.join(out_dir, "%s_mesh.csv" % cfg.model)
        _write_csv(path, ("u", "v", "x0", "x1", "x2", "x3", "x4"), mesh)
        written.append(path)
        for axes in projections:
            rows = [[row[col_index[a]] for a in axes] for row in mesh]
            path = os.path.join(
                out_dir, "%s_proj_%s.csv" % (cfg.model, "_".join(axes))
            )
            _write_csv(path, axes, rows)
            written.append(path)
    else:
        doc = {
            "schema": SCHEMA,
            "command": "example",
            "model": cfg.model,
            "grid": {"u": list(cfg.grid[0]), "v": list(cfg.grid[1])},
            "columns": ["u", "v", "x0", "x1", "x2", "x3", "x4"],
            "mesh": mesh,
            "projections": {
                "_".join(axes): {
                    "columns": list(axes),
                    "points": [[row[col_index[a]] for a in axes] for row in mesh],
                }
                for axes in projections
            },
        }
        path = os.path.join(out_dir, "%s_example.json" % cfg.model)
        _write_text(path, dumps_json(doc))
        written.append(path)
    for path in written:
        print("wrote %s" % path)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _check_brackets(tol, seed):
    worst = 0.0
    for name in MODEL_NAMES:
        worst = max(worst, max(bracket_check(builtin_model(name)).values()))
    return {
        "name": "brackets",
        "passed": bool(worst < tol),
        "residual": worst,
        "tolerance": tol,
        "detail": "bracket identities of the built-in models",
    }


def _check_structure(tol, seed):
    worst = 0.0
    for name in MODEL_NAMES:
        model = builtin_model(name)
        worst = max(worst, float(np.max(np.abs(structure_residual(model.constants)))))
    return {
        "name": "structure",
        "passed": bool(worst < tol),
        "residual": worst,
        "tolerance": tol,
        "detail": "reduced structure equations at the built-in constants",
    }


def _check_quadrics(tol, seed):
    rng = np.random.default_rng(seed + 101)
    on_worst = 0.0
    off_min = math.inf
    for name in MODEL_NAMES:
        spec = resolve_surface(name)
        for _ in range(50):
            u, v = rng.uniform(-2.0, 2.0, 2)
            pt = np.array([j.const for j in eval_surface(spec, u, v, 1)])
            on_worst = max(on_worst, float(np.max(np.abs(quadric_residual(name, pt)))))
            off = float(np.max(np.abs(quadric_residual(name, 1.05 * pt))))
            off_min = min(off_min, off)
    return {
        "name": "quadrics",
        "passed": bool(on_worst < tol and off_min > 1e-2),
        "residual": on_worst,
        "tolerance": tol,
        "detail": "on-surface quadric residual; scaled probe min violation %s"
        % format_float(off_min),
    }


def _sample_points(rng, count):
    return [tuple(rng.uniform(-1.0, 1.0, 2)) for _ in range(count)]


def _check_metrics(tol, seed):
    rng = np.random.default_rng(seed + 202)
    worst = 0.0
    for name in MODEL_NAMES:
        spec = resolve_surface(name)
        for (u, v) in _sample_points(rng, 8):
            res = analyze_point(spec, u, v, degree=5)
            got = np.array([x.const for x in res.metric.first])
            want = np.array(model_metric(name, u, v))
            worst = max(worst, float(np.max(np.abs(got - want))))
    return {
        "name": "metrics",
        "passed": bool(worst < tol),
        "residual": worst,
        "tolerance": tol,
        "detail": "pipeline metric vs closed-form model metric",
    }


def _check_relations(tol, seed):
    rng = np.random.default_rng(seed + 303)
    worst = 0.0
    for name in MODEL_NAMES:
        spec = resolve_surface(name)
        for (u, v) in _sample_points(rng, 8):
            res = analyze_point(spec, u, v, degree=5)
            worst = max(worst, res.residual_max)
    return {
        "name": "relations",
        "passed": bool(worst < tol),
        "residual": worst,
        "tolerance": tol,
        "detail": "linear invariant relations and forced-zero entries",
    }


def _check_gauss(tol, seed):
    rng = np.random.default_rng(seed + 404)
    worst = 0.0
    for name in MODEL_NAMES:
        spec = resolve_surface(name)
        expected = builtin_model(name).gauss
        for (u, v) in _sample_points(rng, 8):
            res = analyze_point(spec, u, v, degree=5)
            worst = max(
                worst,
                abs(res.gauss_invariants - expected),
                abs(res.gauss_connection - expected),
            )
    return {
        "name": "gauss",
        "passed": bool(worst < tol),
        "residual": worst,
        "tolerance": tol,
        "detail": "curvature by both routes vs the model values",
    }


_CHECK_FUNCS = {
    "brackets": _check_brackets,
    "structure": _check_structure,
    "quadrics": _check_quadrics,
    "metrics": _check_metrics,
    "relations": _check_relations,
    "gauss": _check_gauss,
}


def cmd_verify(cfg):
    names = (cfg.check,) if cfg.check else _CHECK_NAMES
    checks = []
    for name in names:
        tol = cfg.tol if cfg.tol is not None else _DEFAULT_CHECK_TOLS[name]
        checks.append(_CHECK_FUNCS[name](tol, cfg.seed))
    overall = all(c["passed"] for c in checks)
    for c in checks:
        print(
            "%s %s: residual=%s tol=%s (%s)"
            % (
                "PASS" if c["passed"] else "FAIL",
                c["name"],
                format_float(c["residual"]),
                format_float(c["tolerance"]),
                c["detail"],
            )
        )
    doc = {
        "schema": SCHEMA,
        "command": "verify",
        "seed": cfg.seed,
        "checks": checks,
        "passed": overall,
    }
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        if cfg.fmt == "json":
            path = os.path.join(cfg.out, "verify.json")
            _write_text(path, dumps_json(doc))
        else:
            path = os.path.join(cfg.out, "verify.csv")
            _write_csv(
                path,
                VERIFY_COLUMNS,
                [[c[k] for k in VERIFY_COLUMNS] for c in checks],
            )
        print("wrote %s" % path)
    return 0 if overall else 1


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def cmd_search(cfg):
    tol = 1e-10 if cfg.tol is None else cfg.tol
    clusters = search_constant_solutions(
        cfg.case, restarts=cfg.restarts, seed=cfg.seed, tol=tol
    )
    reference = {
        name: builtin_model(name) for name in MODEL_NAMES
    }
    records = []
    for c in clusters:
        best_name, best_dist = None, math.inf
        for name, model in reference.items():
            if (
                model.surface_type != c.surface_type
                or model.epsilon != c.epsilon
            ):
                continue
            dist = float(np.max(np.abs(model.constants.as_array() - c.values)))
            if dist < best_dist:
                best_name, best_dist = name, dist
        matched = best_name if best_dist < 1e-6 else None
        names = invariant_names(c.surface_type)
        records.append(
            {
                "surface_type": c.surface_type,
                "epsilon": c.epsilon,
                "hits": c.hits,
                "residual": c.residual,
                "gauss": c.gauss,
                "matches_model": matched,
                "match_distance": None if best_name is None else best_dist,
                "values": dict(zip(names, (float(x) for x in c.values))),
            }
        )
    converged = sum(c.hits for c in clusters)
    print(
        "case=%s restarts=%d seed=%d converged=%d clusters=%d"
        % (cfg.case, cfg.restarts, cfg.seed, converged, len(records))
    )
    for i, r in enumerate(records, 1):
        match = (
            "matches built-in model %r (distance=%s)"
            % (r["matches_model"], format_float(r["match_distance"]))
            if r["matches_model"]
            else "matches no built-in model"
        )
        print(
            "cluster %d: %s epsilon=%d hits=%d residual=%s K=%s %s"
            % (
                i,
                r["surface_type"],
                r["epsilon"],
                r["hits"],
                format_float(r["residual"]),
                format_float(r["gauss"]),
                match,
            )
        )
    doc = {
        "schema": SCHEMA,
        "command": "search",
        "case": cfg.case,
        "restarts": cfg.restarts,
        "seed": cfg.seed,
        "tolerance": tol,
        "converged": converged,
        "clusters": records,
    }
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        if cfg.fmt == "json":
            path = os.path.join(cfg.out, "search.json")
            _write_text(path, dumps_json(doc))
        else:
            names = invariant_names(
                "TimeLike" if cfg.case == "timelike" else "SpaceLike"
            )
            header = (
                "surface_type", "epsilon", "hits", "residual", "gauss",
                "matches_model", "match_distance",
            ) + names
            rows = [
                [
                    r["surface_type"], r["epsilon"], r["hits"], r["residual"],
                    r["gauss"], r["matches_model"], r["match_distance"],
                ]
                + [r["values"][n] for n in names]
                for r in records
            ]
            path = os.path.join(cfg.out, "search.csv")
            _write_csv(path, header, rows)
        print("wrote %s" % path)
    return 0


# ---------------------------------------------------------------------------


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    ns = parser.parse_args(_protect_grid_tokens(argv))
    try:
        cfg = _config_from(ns)
        if cfg.command == "analyze":
            return cmd_analyze(cfg)
        if cfg.command == "example":
            return cmd_example(cfg)
        if cfg.command == "verify":
            return cmd_verify(cfg)
        return cmd_search(cfg)
    except CentroframeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
