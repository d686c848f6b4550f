"""Command-line front end.

Four subcommands, each accepting only the options it reads:

* ``analyze``  — run the adaptation pipeline over a parameter grid and emit
  one record per point (type tag, invariants, curvature by both routes,
  metric coefficients, residual diagnostics).
  Options: ``--surface --grid --degree --tol --jobs --format --out``.
* ``example MODEL`` — sample a built-in model surface and emit its mesh plus
  the planar projection files used for figures.
  Options: ``--grid --format --out``.
* ``verify``   — run the named verification checks (brackets, structure,
  quadrics, metrics, relations, gauss) and report pass/fail per check; the
  exit code reflects the overall status.
  Options: ``--check --tol --seed --format --out``.
* ``search CASE`` — random-restart search for constant-invariant solutions
  of the reduced structure equations, with clustering and comparison
  against the built-in models.
  Options: ``--restarts --seed --tol --format --out``.

Output conventions
------------------
* Every document goes through one path: ``--format`` picks JSON or CSV and
  ``--out DIR`` writes ``DIR/<name>.<format>`` and prints ``wrote PATH``.
  Without ``--out``, ``analyze`` prints its document to stdout, ``verify``
  and ``search`` print only their summary lines, and ``example`` writes to
  the working directory.
* JSON documents carry a top-level ``"schema": "centroframe/1"`` key.
  Floats are written with 17 significant digits, so identical
  configurations produce byte-identical files; non-finite values become
  ``null``.  Keys appear in a fixed order.
* CSV files use UTF-8, LF line endings, and the same float formatting;
  column orders are fixed (see README).  An ``analyze`` CSV row is its
  JSON record flattened: ``metric.E`` becomes ``metric_E``, ``h`` entries
  keep their names, and absent fields are empty.
* Grid syntax is ``lo:hi:count``, inclusive at both ends.  ``--grid`` takes
  one spec (used for both axes) or two (u then v).  Records are emitted in
  row-major order (u outer, v inner) regardless of ``--jobs``.
* Per-point analysis failures are recorded inline and never abort a sweep;
  the process exits nonzero only on configuration or parse errors (and on
  failed ``verify`` checks).
"""

import argparse
import csv
import io
import math
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor

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
from .invariants import H_NAMES, analyze_point, effective_degree
from .surfaces import eval_surface, resolve_surface

__all__ = ["main", "cmd_analyze", "cmd_example", "cmd_verify", "cmd_search"]

SCHEMA = "centroframe/1"

H_COLUMNS = tuple(sorted(set().union(*H_NAMES.values())))

ANALYZE_COLUMNS = (
    "u", "v", "ok", "error", "message", "surface_type", "epsilon",
    "gauss_invariants", "gauss_connection",
    "metric_E", "metric_F", "metric_G", "signature",
    "alpha_du", "alpha_dv", "residual_max", "residual_ok",
) + H_COLUMNS

VERIFY_COLUMNS = ("name", "passed", "residual", "tolerance", "detail")

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


def dumps_csv(header, rows):
    """CSV text with LF line endings and the fixed float format."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_cell(x) for x in row])
    return buf.getvalue()


def _emit(ns, stem, doc, header, rows):
    """Write `doc` (JSON) or `header` and `rows` (CSV) as `ns.format` asks.

    With `ns.out` the text goes to `DIR/<stem>.<format>`; otherwise to
    stdout.  `rows` is iterated only for CSV, so it may be a generator.
    """
    text = dumps_json(doc) if ns.format == "json" else dumps_csv(header, rows)
    if not ns.out:
        sys.stdout.write(text)
        return
    os.makedirs(ns.out, exist_ok=True)
    path = os.path.join(ns.out, "%s.%s" % (stem, ns.format))
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)
    print("wrote %s" % path)


# ---------------------------------------------------------------------------
# Options
# ---------------------------------------------------------------------------


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
    if len(specs) > 2:
        raise CentroframeError("--grid takes one or two lo:hi:count specs")
    return (specs[0], specs[-1])


def _grid_values(axis):
    lo, hi, n = axis
    return [float(x) for x in np.linspace(lo, hi, n)]


def _add_grid(sp):
    sp.add_argument("--grid", nargs="+", type=_grid_spec, default=[(-1.0, 1.0, 5)], metavar="LO:HI:N", help="parameter grid, one spec for both axes or u-spec v-spec (default -1:1:5)")


def _add_output(sp, fmt_default, out_help, out_default=None):
    sp.add_argument("--format", choices=("json", "csv"), default=fmt_default, help="output format (default %s)" % fmt_default)
    sp.add_argument("--out", default=out_default, metavar="DIR", help=out_help)


def build_parser():
    p = argparse.ArgumentParser(
        prog="centroframe",
        description="Moving-frame analysis of centroaffine surfaces in R^5.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="run the adaptation pipeline over a grid")
    sp.add_argument("--surface", default="", help="built-in name, file path, or inline text with 5 ';'-separated components")
    _add_grid(sp)
    sp.add_argument("--degree", type=int, default=4, help="surface jet degree (default 4; raised to 5 for the curvature-by-connection route; the output records the degree used)")
    sp.add_argument("--tol", type=float, default=1e-7, help="relation-residual tolerance for residual_ok (default 1e-7)")
    sp.add_argument("--jobs", type=int, default=1, help="parallel workers for grid sweeps (default 1; ordering is unaffected)")
    _add_output(sp, "json", "output directory (default: print to stdout)")
    sp.set_defaults(run=cmd_analyze)

    # --grid takes one or more values, so MODEL cannot follow it; the usage
    # line argparse would build lists MODEL last
    indent = " " * len("usage: centroframe example ")
    sp = sub.add_parser(
        "example",
        help="emit a built-in model mesh and figure projections",
        usage="%(prog)s [-h] MODEL [--grid LO:HI:N [LO:HI:N ...]]\n" + indent + "[--format {json,csv}] [--out DIR]",
    )
    sp.add_argument("model", metavar="MODEL", help="built-in model name (%s)" % ", ".join(MODEL_NAMES))
    _add_grid(sp)
    _add_output(sp, "csv", "output directory (default: the working directory)", ".")
    sp.set_defaults(run=cmd_example)

    sp = sub.add_parser("verify", help="run verification checks")
    sp.add_argument("--check", choices=tuple(_CHECKS), default=None, help="run only this check")
    sp.add_argument("--tol", type=float, default=None, help="tolerance for every check (per-check default otherwise)")
    sp.add_argument("--seed", type=int, default=0, help="random seed for the sampled checks (default 0)")
    _add_output(sp, "json", "write the report to this directory (default: none)")
    sp.set_defaults(run=cmd_verify)

    sp = sub.add_parser("search", help="search for constant-invariant solutions")
    sp.add_argument("case", metavar="CASE", help="one of: %s" % ", ".join(_SEARCH_CASES))
    sp.add_argument("--restarts", type=int, default=200, help="number of random starts (default 200)")
    sp.add_argument("--seed", type=int, default=0, help="random seed for the starts (default 0)")
    sp.add_argument("--tol", type=float, default=1e-10, help="max residual of a converged start (default 1e-10)")
    _add_output(sp, "json", "write the report to this directory (default: none)")
    sp.set_defaults(run=cmd_search)

    return p


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


def _analyze_row(record):
    """CSV row of one record: nested fields take their own name when that is
    a column (`signature`, `h...`), else `<parent>_<name>` (`metric_E`)."""
    flat = {}
    for k, x in record.items():
        if isinstance(x, dict):
            for kk, xx in x.items():
                flat[kk if kk in ANALYZE_COLUMNS else "%s_%s" % (k, kk)] = xx
        else:
            flat[k] = x
    return [flat.get(c) for c in ANALYZE_COLUMNS]


def _run_grid(tasks, jobs):
    if jobs <= 1:
        return [_analyze_record(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_analyze_record, tasks, chunksize=4))


def cmd_analyze(ns):
    grid = _grid_axes(ns.grid)
    if not ns.surface:
        raise CentroframeError("analyze needs --surface")
    if ns.degree < 4:
        raise CentroframeError("analyze needs --degree >= 4")
    spec = resolve_surface(ns.surface)
    tasks = [
        (spec, u, v, ns.degree, ns.tol)
        for u in _grid_values(grid[0])
        for v in _grid_values(grid[1])
    ]
    records = _run_grid(tasks, ns.jobs)
    doc = {
        "schema": SCHEMA,
        "command": "analyze",
        "surface": ns.surface,
        "degree": effective_degree(ns.degree),
        "tolerance": ns.tol,
        "grid": {"u": list(grid[0]), "v": list(grid[1])},
        "records": records,
    }
    _emit(ns, "analyze", doc, ANALYZE_COLUMNS, (_analyze_row(r) for r in records))
    return 0


# ---------------------------------------------------------------------------
# example
# ---------------------------------------------------------------------------

_MESH_COLUMNS = ("u", "v", "x0", "x1", "x2", "x3", "x4")
_PROJECTIONS_SPACELIKE = (("x1", "x2", "x0"), ("x1", "x2", "x3"), ("x1", "x2", "x4"))
_PROJECTIONS_TIMELIKE = _PROJECTIONS_SPACELIKE + (("x1", "x3", "x0"), ("x1", "x4", "x0"))


def cmd_example(ns):
    grid = _grid_axes(ns.grid)
    model = builtin_model(ns.model)  # validates the name
    spec = resolve_surface(ns.model)
    mesh = []
    for u in _grid_values(grid[0]):
        for v in _grid_values(grid[1]):
            pt = [j.const for j in eval_surface(spec, u, v, 1)]
            mesh.append([u, v] + pt)
    projections = (
        _PROJECTIONS_TIMELIKE
        if model.surface_type == "TimeLike"
        else _PROJECTIONS_SPACELIKE
    )

    def project(axes):
        return [[row[_MESH_COLUMNS.index(a)] for a in axes] for row in mesh]

    if ns.format == "csv":
        _emit(ns, "%s_mesh" % ns.model, None, _MESH_COLUMNS, mesh)
        for axes in projections:
            _emit(ns, "%s_proj_%s" % (ns.model, "_".join(axes)), None, axes, project(axes))
        return 0
    doc = {
        "schema": SCHEMA,
        "command": "example",
        "model": ns.model,
        "grid": {"u": list(grid[0]), "v": list(grid[1])},
        "columns": list(_MESH_COLUMNS),
        "mesh": mesh,
        "projections": {
            "_".join(axes): {"columns": list(axes), "points": project(axes)}
            for axes in projections
        },
    }
    _emit(ns, "%s_example" % ns.model, doc, None, None)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------
#
# Each check takes the seed and returns (residual, detail, extra_ok); it
# passes when residual < tolerance and extra_ok holds.  Checks fold their
# values with np.max and np.min, which propagate a NaN; Python's max and min
# skip one that does not come first.


def _model_points(seed):
    """(name, u, v, analyze_point result) at 8 random points of each model."""
    rng = np.random.default_rng(seed)
    for name in MODEL_NAMES:
        spec = resolve_surface(name)
        for _ in range(8):
            u, v = rng.uniform(-1.0, 1.0, 2)
            yield name, u, v, analyze_point(spec, u, v, degree=5)


def _check_brackets(seed):
    worst = np.max([list(bracket_check(builtin_model(n)).values()) for n in MODEL_NAMES])
    return float(worst), "bracket identities of the built-in models", True


def _check_structure(seed):
    worst = np.max([np.abs(structure_residual(builtin_model(n).constants)).max() for n in MODEL_NAMES])
    return float(worst), "reduced structure equations at the built-in constants", True


def _check_quadrics(seed):
    rng = np.random.default_rng(seed + 101)
    on, off = [], []
    for name in MODEL_NAMES:
        spec = resolve_surface(name)
        for _ in range(50):
            u, v = rng.uniform(-2.0, 2.0, 2)
            pt = np.array([j.const for j in eval_surface(spec, u, v, 1)])
            on.append(np.max(np.abs(quadric_residual(name, pt))))
            off.append(np.max(np.abs(quadric_residual(name, 1.05 * pt))))
    off_min = float(np.min(off))
    detail = "on-surface quadric residual; scaled probe min violation %s" % format_float(off_min)
    return float(np.max(on)), detail, off_min > 1e-2


def _check_metrics(seed):
    err = [np.subtract([x.const for x in r.metric.first], model_metric(n, u, v))
           for n, u, v, r in _model_points(seed + 202)]
    return float(np.max(np.abs(err))), "pipeline metric vs closed-form model metric", True


def _check_relations(seed):
    worst = np.max([r.residual_max for _, _, _, r in _model_points(seed + 303)])
    return float(worst), "linear invariant relations and forced-zero entries", True


def _check_gauss(seed):
    err = [np.subtract([r.gauss_invariants, r.gauss_connection], builtin_model(n).gauss)
           for n, _, _, r in _model_points(seed + 404)]
    return float(np.max(np.abs(err))), "curvature by both routes vs the model values", True


# name -> (check, default tolerance), in report order
_CHECKS = {
    "brackets": (_check_brackets, 1e-13),
    "structure": (_check_structure, 1e-12),
    "quadrics": (_check_quadrics, 1e-8),
    "metrics": (_check_metrics, 1e-6),
    "relations": (_check_relations, 1e-7),
    "gauss": (_check_gauss, 1e-5),
}


def cmd_verify(ns):
    checks = []
    for name in (ns.check,) if ns.check else _CHECKS:
        check, default_tol = _CHECKS[name]
        tol = default_tol if ns.tol is None else ns.tol
        residual, detail, extra_ok = check(ns.seed)
        c = {
            "name": name,
            "passed": bool(residual < tol and extra_ok),
            "residual": residual,
            "tolerance": tol,
            "detail": detail,
        }
        checks.append(c)
        print(
            "%s %s: residual=%s tol=%s (%s)"
            % (
                "PASS" if c["passed"] else "FAIL",
                name,
                format_float(residual),
                format_float(tol),
                detail,
            )
        )
    overall = all(c["passed"] for c in checks)
    doc = {
        "schema": SCHEMA,
        "command": "verify",
        "seed": ns.seed,
        "checks": checks,
        "passed": overall,
    }
    if ns.out:
        _emit(ns, "verify", doc, VERIFY_COLUMNS, ([c[k] for k in VERIFY_COLUMNS] for c in checks))
    return 0 if overall else 1


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

_SEARCH_COLUMNS = (
    "surface_type", "epsilon", "hits", "residual", "gauss",
    "matches_model", "match_distance",
)


def cmd_search(ns):
    clusters = search_constant_solutions(
        ns.case, restarts=ns.restarts, seed=ns.seed, tol=ns.tol
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
        % (ns.case, ns.restarts, ns.seed, converged, len(records))
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
        "case": ns.case,
        "restarts": ns.restarts,
        "seed": ns.seed,
        "tolerance": ns.tol,
        "converged": converged,
        "clusters": records,
    }
    if ns.out:
        names = invariant_names("TimeLike" if ns.case == "timelike" else "SpaceLike")
        rows = (
            [r[k] for k in _SEARCH_COLUMNS] + [r["values"][n] for n in names]
            for r in records
        )
        _emit(ns, "search", doc, _SEARCH_COLUMNS + names, rows)
    return 0


# ---------------------------------------------------------------------------


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    ns = build_parser().parse_args(_protect_grid_tokens(argv))
    try:
        return ns.run(ns)
    except CentroframeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
