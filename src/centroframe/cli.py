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
  ``--out DIR`` writes ``DIR/<name>.<format>``, whole or not at all, and
  prints ``wrote PATH``.
  Without ``--out``, ``analyze`` prints its document to stdout, ``verify``
  and ``search`` print only their summary lines, and ``example`` writes to
  the working directory.
* JSON documents carry a top-level ``"schema": "centroframe/1"`` key.
  Floats are written with 17 significant digits, so identical
  configurations produce byte-identical files; non-finite values become
  ``null``.  Keys appear in a fixed order.
* CSV files use UTF-8, LF line endings, and the same float formatting;
  column orders are fixed (see README).
* An ``analyze`` record is its CSV row, absent fields empty.  Its JSON object
  nests the present fields (``metric_E`` as ``metric.E``, ``h`` entries by
  name), written from one fixed template per record shape (ok space-like,
  ok time-like, error) by the ``null`` rule and key order above.  The
  records of each batch of ``MAX_BATCH`` grid points are written as the
  batch completes, so memory does not grow with the grid.
* Grid syntax is ``lo:hi:count``, inclusive at both ends, with ``lo``,
  ``hi`` and ``hi - lo`` finite.  ``--grid`` takes one spec (used for both
  axes) or two (u then v).  Records are emitted in row-major order (u
  outer, v inner) regardless of ``--jobs`` (at most one worker per batch).
* Per-point analysis failures are recorded inline and never abort a sweep;
  the process exits nonzero only on configuration or parse errors (and on
  failed ``verify`` checks).
"""

import argparse
import csv
import io
import itertools
import math
import operator
import os
import re
import sys

import numpy as np

from .errors import CentroframeError
from .homogeneous import (
    CONVERGED_TOL,
    MODEL_NAMES,
    SEARCH_CASES,
    builtin_model,
    bracket_check,
    invariant_names,
    model_metric,
    quadric_residual,
    search_constant_solutions,
    structure_residual,
)
from .invariants import H_ALL, H_COLUMNS_OF, MAX_BATCH, analyze_point, effective_degree
from .surfaces import eval_surface, resolve_surface

__all__ = ["main", "cmd_analyze", "cmd_example", "cmd_verify", "cmd_search"]

SCHEMA = "centroframe/1"

ANALYZE_COLUMNS = (
    "u", "v", "ok", "error", "message", "surface_type", "epsilon",
    "gauss_invariants", "gauss_connection",
    "metric_E", "metric_F", "metric_G", "signature",
    "alpha_du", "alpha_dv", "residual_max", "residual_ok",
) + H_ALL

VERIFY_COLUMNS = ("name", "passed", "residual", "tolerance", "detail")


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------


def format_float(x):
    """17-significant-digit decimal form; `nan`, `inf` or `-inf` if non-finite."""
    return "%.17g" % float(x)


_JSON_SPECIAL = re.compile(r'["\\\x00-\x1f]')
_JSON_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _json_escape(s):
    return '"%s"' % _JSON_SPECIAL.sub(
        lambda m: _JSON_ESCAPES.get(m.group(), "\\u%04x" % ord(m.group())), s)


def _json_float(x):
    return format_float(x) if math.isfinite(x) else "null"


def _json_value(value, pad=""):
    """JSON text of `value`, written where the line is indented by `pad`."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return _json_escape(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _json_float(value)
    inner = pad + "  "
    if isinstance(value, dict):
        brackets, items = "{}", [_json_escape(str(k)) + ": " + _json_value(v, inner) for k, v in value.items()]
    elif isinstance(value, (list, tuple, np.ndarray)):
        brackets, items = "[]", [_json_value(v, inner) for v in value]
    else:
        raise TypeError("cannot serialize %r" % type(value))
    if not items:
        return brackets
    return "%s\n%s%s\n%s%s" % (brackets[0], inner, (",\n" + inner).join(items), pad, brackets[1])


def dumps_json(doc):
    """Deterministic JSON text (insertion-ordered keys, fixed float format)."""
    return _json_value(doc) + "\n"


def _cell(x):
    """CSV cell text for one value."""
    if x is None:
        return ""
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, (float, np.floating)):
        return format_float(x) if math.isfinite(x) else ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def _csv_rows(rows):
    """CSV lines of `rows`, with LF line endings and the fixed float format."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([_cell(x) for x in row] for row in rows)
    return buf.getvalue()


def dumps_csv(header, rows):
    """CSV text: the `header` line, then `rows`."""
    return _csv_rows([header]) + _csv_rows(rows)


def _emit(ns, stem, doc, header, rows):
    """Write `doc` (JSON) or `header` and `rows` (CSV) as `ns.format` asks.

    `rows` is iterated only for CSV, so it may be a generator.
    """
    _write(ns, stem, [dumps_json(doc) if ns.format == "json" else dumps_csv(header, rows)])


def _write(ns, stem, pieces):
    """Write the text `pieces` in order, each as it comes: with `ns.out` to
    `DIR/<stem>.<format>`, otherwise to stdout.

    A document is written to a temporary file in DIR that replaces the
    document once complete and is removed on a failure, so the document is
    whole or as it was."""
    if not ns.out:
        sys.stdout.writelines(pieces)
        return
    os.makedirs(ns.out, exist_ok=True)
    path = os.path.join(ns.out, "%s.%s" % (stem, ns.format))
    tmp = os.path.join(ns.out, ".%s.%s.%d.tmp" % (stem, ns.format, os.getpid()))
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as f:
            f.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
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
    if not math.isfinite(hi - lo):
        raise argparse.ArgumentTypeError("grid span hi - lo must be finite")
    if n < 1:
        raise argparse.ArgumentTypeError("grid count must be >= 1")
    return (lo, hi, n)


def _checked(convert, ok, rule):
    """An option type: `convert` the text, a usage error unless `ok` holds
    of the value (`rule` says what must hold)."""
    def parse(text):
        try:
            x = convert(text)
        except ValueError:
            x = None
        if x is None or not ok(x):
            raise argparse.ArgumentTypeError("%s, got %r" % (rule, text))
        return x
    return parse


_tolerance = _checked(float, lambda x: math.isfinite(x) and x >= 0, "tolerance must be finite and >= 0")
_seed = _checked(int, lambda n: n >= 0, "seed must be an integer >= 0")
_restarts = _checked(int, lambda n: n >= 1, "restarts must be an integer >= 1")


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
    sp.add_argument("--tol", type=_tolerance, default=1e-7, help="relation-residual tolerance for residual_ok (default 1e-7)")
    sp.add_argument("--jobs", type=int, default=1, help="parallel workers for grid sweeps, at most one per batch of %d points (default 1; ordering is unaffected)" % MAX_BATCH)
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
    sp.add_argument("--tol", type=_tolerance, default=None, help="tolerance for every check (per-check default otherwise)")
    sp.add_argument("--seed", type=_seed, default=0, help="random seed for the sampled checks (default 0)")
    _add_output(sp, "json", "write the report to this directory (default: none)")
    sp.set_defaults(run=cmd_verify)

    sp = sub.add_parser("search", help="search for constant-invariant solutions")
    sp.add_argument("case", metavar="CASE", help="one of: %s" % ", ".join(SEARCH_CASES))
    sp.add_argument("--restarts", type=_restarts, default=200, help="number of random starts (default 200)")
    sp.add_argument("--seed", type=_seed, default=0, help="random seed for the starts (default 0)")
    sp.add_argument("--tol", type=_tolerance, default=CONVERGED_TOL, help="max residual of a converged start (default %g)" % CONVERGED_TOL)
    _add_output(sp, "json", "write the report to this directory (default: none)")
    sp.set_defaults(run=cmd_search)

    return p


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


# An `analyze` record is its row in ANALYZE_COLUMNS order, None where a field
# is absent.  Each record shape (ok of each surface type; error, of type None)
# has a `%`-template of its JSON text, made by writing placeholders at import.

_NESTED_IN = dict.fromkeys(H_ALL, "h") | {"signature": "metric"}


def _record_template(surface_type):
    """The `%`-template of the JSON text of a record of `surface_type`, a
    getter of the row fields it takes, and which of those `_record_json`
    writes by `_json_value`; the others are the integer epsilon and floats,
    which `_analyze_records` checks are finite."""
    if surface_type is None:
        shown = ("u", "v", "ok", "error", "message")
        fixed, written = {"ok": False}, ("u", "v", "error", "message")
    else:
        names = {k for k, _ in H_COLUMNS_OF[surface_type]}
        shown = [c for c in ANALYZE_COLUMNS if c not in ("error", "message") and (c not in H_ALL or c in names)]
        fixed, written = {"ok": True, "surface_type": surface_type}, ("signature", "residual_max", "residual_ok")
    record = {}
    for c in shown:
        value = fixed.get(c, "\0" + c)
        parent, _, key = c.partition("_")
        if c in _NESTED_IN:
            record.setdefault(_NESTED_IN[c], {})[c] = value
        elif parent in ("metric", "alpha"):
            record.setdefault(parent, {})[key] = value
        else:
            record[c] = value
    text = _json_value(record, "    ").replace("%", "%%")
    marker = re.compile(r'"\\u0000(\w+)"')
    taken = marker.findall(text)
    text = marker.sub(lambda m: "%s" if m[1] in written else "%d" if m[1] == "epsilon" else "%.17g", text)
    return (text, operator.itemgetter(*[ANALYZE_COLUMNS.index(c) for c in taken]),
            [j for j, c in enumerate(taken) if c in written])


_RECORD_JSON = {case: _record_template(case) for case in (None, *H_COLUMNS_OF)}
_TYPE_AT = ANALYZE_COLUMNS.index("surface_type")


def _record_json(row):
    """JSON text of one `analyze` row as an item of the document's records."""
    template, pick, written = _RECORD_JSON[row[_TYPE_AT]]
    fields = list(pick(row))
    for j in written:
        fields[j] = _json_value(fields[j])
    return template % tuple(fields)


def _analyze_records(task):
    """A contiguous run of grid points -> their rows, built from one
    `analyze_point` batch; errors recorded, not raised."""
    spec, us, vs, degree, tol = task
    res = analyze_point(spec, np.array(us), np.array(vs), degree=degree)
    values = np.column_stack([res.gauss_invariants, res.gauss_connection, res.metric, res.alpha, res.h])
    cells = np.where(np.isnan(values), None, values).tolist()  # in an ok row, the other type's h
    eps, R = res.epsilon.tolist(), res.residual_max.tolist()
    rows = []
    for i, (u, v) in enumerate(zip(us, vs)):
        exc = res.errors.get(i)
        if exc is not None:
            rows.append((u, v, False, type(exc).__name__, str(exc)) + (None,) * (len(ANALYZE_COLUMNS) - 5))
            continue
        K1, K2, E, F, G, du, dv, *h = cells[i]
        rows.append((u, v, True, None, None, res.surface_type[i], eps[i], K1, K2, E, F, G,
                     res.signature[i], du, dv, R[i], R[i] <= tol, *h))
    return rows


def _run_grid(spec, grid, degree, tol, jobs):
    """The rows of the grid's points, row-major (u outer, v inner), in lists
    of at most MAX_BATCH points, each one `analyze_point` batch: in process,
    or with `jobs` > 1 in worker processes, at most one per batch.  The
    batches are made and analyzed as they are read, so memory does not grow
    with the grid."""
    us, vs = _grid_values(grid[0]), _grid_values(grid[1])
    n, m = len(us) * len(vs), len(vs)
    tasks = ((spec, [us[i // m] for i in range(k, min(k + MAX_BATCH, n))],
              [vs[i % m] for i in range(k, min(k + MAX_BATCH, n))], degree, tol)
             for k in range(0, n, MAX_BATCH))
    workers = min(jobs, math.ceil(n / MAX_BATCH))
    if workers <= 1:
        yield from map(_analyze_records, tasks)
        return
    from concurrent.futures import ProcessPoolExecutor  # pulls in multiprocessing

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_analyze_records, tasks)


def _json_records(head, batches, tail):
    """An `analyze` JSON document in pieces: `head`, the records of each
    batch of rows as it comes, and `tail`, where head and tail are the text
    around the empty records list of the same document."""
    yield head
    opened = False
    for rows in batches:
        if rows:
            yield (",\n    " if opened else "[\n    ") + ",\n    ".join(map(_record_json, rows))
            opened = True
    yield ("\n  ]" if opened else "[]") + tail


def cmd_analyze(ns):
    grid = _grid_axes(ns.grid)
    if not ns.surface:
        raise CentroframeError("analyze needs --surface")
    if ns.degree < 4:
        raise CentroframeError("analyze needs --degree >= 4")
    spec = resolve_surface(ns.surface)
    batches = _run_grid(spec, grid, ns.degree, ns.tol, ns.jobs)
    if ns.format == "csv":
        _write(ns, "analyze", itertools.chain([dumps_csv(ANALYZE_COLUMNS, ())], map(_csv_rows, batches)))
        return 0
    doc = {
        "schema": SCHEMA,
        "command": "analyze",
        "surface": ns.surface,
        "degree": effective_degree(ns.degree),
        "tolerance": ns.tol,
        "grid": {"u": list(grid[0]), "v": list(grid[1])},
        "records": [],  # written by _json_records, one batch at a time
    }
    text = dumps_json(doc)
    cut = text.rindex("[]")
    _write(ns, "analyze", _json_records(text[:cut], batches, text[cut + 2 :]))
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
        for v in _grid_values(grid[1]):  # one point at a time: the first failing point raises
            mesh.append([u, v] + eval_surface(spec, np.array(u), np.array(v), 1)[:, 0].tolist())
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
    """(name, AnalysisBatch) at 8 random points of each model, analyzed as
    one batch per model; raises the error of the first point that failed."""
    rng = np.random.default_rng(seed)
    for name in MODEL_NAMES:
        us, vs = rng.uniform(-1.0, 1.0, (8, 2)).T
        res = analyze_point(resolve_surface(name), us, vs, degree=5)
        if res.errors:
            raise res.errors[min(res.errors)]
        yield name, res


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
        us, vs = rng.uniform(-2.0, 2.0, (50, 2)).T
        for pt in eval_surface(resolve_surface(name), us, vs, 1)[..., 0]:
            on.append(np.max(np.abs(quadric_residual(name, pt))))
            off.append(np.max(np.abs(quadric_residual(name, 1.05 * pt))))
    off_min = float(np.min(off))
    detail = "on-surface quadric residual; scaled probe min violation %s" % format_float(off_min)
    return float(np.max(on)), detail, off_min > 1e-2


def _check_metrics(seed):
    err = [r.metric - [model_metric(n, u, v) for u, v in zip(r.u, r.v)]
           for n, r in _model_points(seed + 202)]
    return float(np.max(np.abs(err))), "pipeline metric vs closed-form model metric", True


def _check_relations(seed):
    worst = np.max([r.residual_max for _, r in _model_points(seed + 303)])
    return float(worst), "linear invariant relations and forced-zero entries", True


def _check_gauss(seed):
    err = [np.subtract([r.gauss_invariants, r.gauss_connection], builtin_model(n).gauss)
           for n, r in _model_points(seed + 404)]
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
    records = []
    for c in clusters:
        names = invariant_names(c.surface_type)
        records.append(
            {
                "surface_type": c.surface_type,
                "epsilon": c.epsilon,
                "hits": c.hits,
                "residual": c.residual,
                "gauss": c.gauss,
                "matches_model": c.match,
                "match_distance": c.match_distance,
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
        names = invariant_names(SEARCH_CASES[ns.case][0][0])
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
