"""End-to-end tests of the command-line interface."""

import csv
import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import centroframe
from centroframe import cli, invariants
from centroframe.cli import main
from centroframe.homogeneous import quadric_residual
from centroframe.invariants import analyze_point
from centroframe.surfaces import builtin_surface

NULL_FIXTURE = "1 + u^2/2 + v^2/2; u; v; u^2/2; u*v"


def _run(args):
    return main(list(args))


def test_analyze_json_document(tmp_path):
    out = tmp_path / "a"
    rc = _run(["analyze", "--surface", "h2", "--grid", "-1:1:3", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "analyze.json").read_text())
    assert doc["schema"] == "centroframe/1"
    assert doc["command"] == "analyze"
    assert len(doc["records"]) == 9
    for rec in doc["records"]:
        assert rec["ok"] is True
        assert rec["surface_type"] == "SpaceLike"
        assert rec["epsilon"] == 1
        assert rec["gauss_invariants"] == pytest.approx(-1 / 3, abs=1e-9)
        assert rec["gauss_connection"] == pytest.approx(-1 / 3, abs=1e-9)
        assert rec["residual_ok"] is True
        assert rec["metric"]["signature"] == "Riemannian"
        assert rec["h"]["h131"] == pytest.approx(1 / 3, abs=1e-9)
    us = sorted({r["u"] for r in doc["records"]})
    assert us == [-1.0, 0.0, 1.0]
    # row-major: u outer, v inner
    assert [r["u"] for r in doc["records"][:3]] == [-1.0, -1.0, -1.0]
    assert [r["v"] for r in doc["records"][:3]] == [-1.0, 0.0, 1.0]


def test_analyze_json_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        rc = _run(
            ["analyze", "--surface", "sphere", "--grid", "-0.4:0.4:3",
             "--out", str(out)]
        )
        assert rc == 0
    b1 = (out1 / "analyze.json").read_bytes()
    b2 = (out2 / "analyze.json").read_bytes()
    assert b1 == b2
    assert b"\r" not in b1


def test_analyze_two_axis_grid(tmp_path):
    out = tmp_path / "g"
    rc = _run(
        ["analyze", "--surface", "h2", "--grid", "-1:1:2", "0:0.5:3",
         "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads((out / "analyze.json").read_text())
    assert len(doc["records"]) == 6
    assert doc["grid"]["u"] == [-1.0, 1.0, 2]
    assert doc["grid"]["v"] == [0.0, 0.5, 3]
    vs = [r["v"] for r in doc["records"][:3]]
    assert vs == [0.0, 0.25, 0.5]


def test_analyze_csv_roundtrip(tmp_path):
    out = tmp_path / "c"
    rc = _run(
        ["analyze", "--surface", "h2", "--grid", "-0.5:0.5:2",
         "--format", "csv", "--out", str(out)]
    )
    assert rc == 0
    with open(out / "analyze.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 4
    for row in rows:
        assert row["ok"] == "true"
        assert row["surface_type"] == "SpaceLike"
        assert float(row["gauss_invariants"]) == pytest.approx(-1 / 3, abs=1e-9)
        assert float(row["h131"]) == pytest.approx(1 / 3, abs=1e-9)
        assert float(row["metric_G"]) == pytest.approx(3.0, abs=1e-9)
        # time-like-only columns are present but empty on space-like records
        assert row["h211"] == ""


def test_analyze_error_records_inline(tmp_path, capsys):
    out = tmp_path / "e"
    rc = _run(
        ["analyze", "--surface", NULL_FIXTURE, "--grid", "-0.5:0.5:3",
         "--out", str(out)]
    )
    assert rc == 0  # per-point failures must not fail the sweep
    doc = json.loads((out / "analyze.json").read_text())
    assert len(doc["records"]) == 9
    bad = [r for r in doc["records"] if not r["ok"]]
    good = [r for r in doc["records"] if r["ok"]]
    assert bad and good
    origin = [r for r in bad if r["u"] == 0.0 and r["v"] == 0.0]
    assert len(origin) == 1
    assert origin[0]["error"] == "NullTypeUnsupported"
    assert "message" in origin[0]
    for r in good:
        assert r["surface_type"] in ("SpaceLike", "TimeLike")


def test_analyze_csv_rows_flatten_json_records(tmp_path):
    # ok and error records alike: each CSV row is its JSON record flattened
    out = tmp_path / "f"
    base = ["analyze", "--surface", NULL_FIXTURE, "--grid", "-0.5:0.5:3", "--out", str(out)]
    assert _run(base) == 0
    assert _run(base + ["--format", "csv"]) == 0
    records = json.loads((out / "analyze.json").read_text())["records"]
    with open(out / "analyze.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert {r["ok"] for r in records} == {True, False}
    assert len(rows) == len(records)

    def cell(x):
        if x is None:
            return ""
        if isinstance(x, bool):
            return str(x).lower()
        if isinstance(x, float):
            return "%.17g" % x
        return str(x)

    for rec, row in zip(records, rows):
        flat = {k: x for k, x in rec.items() if not isinstance(x, dict)}
        metric = dict(rec.get("metric", {}))
        if metric:
            flat["signature"] = metric.pop("signature")
        flat.update({"metric_" + k: x for k, x in metric.items()})
        flat.update({"alpha_" + k: x for k, x in rec.get("alpha", {}).items()})
        flat.update(rec.get("h", {}))
        assert set(flat) <= set(row)
        assert row == {c: cell(flat.get(c)) for c in row}


@pytest.mark.parametrize("argv", [
    ["search", "timelike", "--degree", "5"],
    ["search", "--case", "timelike"],
    ["search", "timelike", "--jobs", "2"],
    ["verify", "--grid", "-1:1:3"],
    ["verify", "--surface", "h2"],
    ["example", "h2", "--jobs", "2"],
    ["example", "h2", "--seed", "1"],
    ["example", "--model", "h2"],
    ["example", "--surface", "h2"],
    ["analyze", "--surface", "h2", "--model", "h2"],
    ["analyze", "--surface", "h2", "--seed", "5"],
    ["analyze", "--surface", "h2", "--restarts", "5"],
])
def test_unread_or_alias_option_is_rejected(argv, capsys):
    # each subcommand accepts only the options it reads, with one spelling
    with pytest.raises(SystemExit) as exc:
        _run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_analyze_overflow_recorded_inline(tmp_path):
    # cosh(800) overflows a float: the point is recorded, the sweep finishes
    out = tmp_path / "o"
    rc = _run(
        ["analyze", "--surface", "h2", "--grid", "700:800:2", "0:0:1",
         "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads((out / "analyze.json").read_text())
    assert [r["u"] for r in doc["records"]] == [700, 800]
    last = doc["records"][-1]
    assert last["ok"] is False
    assert last["error"] == "ArithmeticFailure"
    assert last["message"].startswith("OverflowError")


@pytest.mark.parametrize("surface, grid, failed", [
    ("u/0; u; v; 1; u*v", ["-1:1:2"], [(-1, -1), (-1, 1), (1, -1), (1, 1)]),
    ("h2", ["700:800:2", "0:0:1"], [(700, 0), (800, 0)]),
])
def test_analyze_non_finite_is_arithmetic_failure(tmp_path, capsys, surface, grid, failed):
    # a blow-up inside the surface jets is typed as such, not as a
    # singular pivot, and no numpy warning reaches the user
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = _run(["analyze", "--surface", surface, "--grid", *grid, "--out", str(out)])
    assert rc == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in capsys.readouterr().err
    doc = json.loads((out / "analyze.json").read_text())
    assert [(r["u"], r["v"]) for r in doc["records"]] == failed
    assert {r["error"] for r in doc["records"]} == {"ArithmeticFailure"}
    assert doc["records"][0]["message"].startswith("surface component x0 is not finite")


@pytest.mark.parametrize("bad, message", [
    ("sqrt(0-1)", "sqrt of -1 is outside its real domain"),
    ("sin(1e308*10)", "sin of inf is outside its real domain"),
])
def test_analyze_constant_domain_error_recorded_inline(tmp_path, bad, message):
    # a constant subexpression outside a function's domain fails its point,
    # not the sweep
    out = tmp_path / "o"
    surface = "u; v; %s + u; u*v; v^2" % bad
    rc = _run(["analyze", "--surface", surface, "--grid", "0.5:0.5:1", "0:1:2",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "analyze.json").read_text())
    assert [(r["u"], r["v"]) for r in doc["records"]] == [(0.5, 0), (0.5, 1)]
    for rec in doc["records"]:
        assert rec["ok"] is False
        assert rec["error"] == "DomainError"
        assert rec["message"] == message


def test_analyze_jet_outside_domain_recorded_inline(tmp_path):
    # sin of a jet whose constant term is infinite fails its point, not the
    # sweep
    out = tmp_path / "o"
    surface = "sin(1e308*10*u) + 2; u; v; u*v; v^2"
    rc = _run(["analyze", "--surface", surface, "--grid", "0.5:0.5:1", "--out", str(out)])
    assert rc == 0
    [rec] = json.loads((out / "analyze.json").read_text())["records"]
    assert (rec["ok"], rec["error"]) == (False, "DomainError")
    assert rec["message"] == "sin of inf is outside its real domain"


def test_example_overflow_is_an_error_line(tmp_path, capsys):
    rc = _run(["example", "h2", "--grid", "800:900:2", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: OverflowError: math range error"]


def test_out_document_is_whole_or_as_it_was(monkeypatch, tmp_path):
    # the second of two batches fails: the document from before stays, and
    # no temporary file is left
    path = tmp_path / "analyze.json"
    path.write_text("earlier document\n")
    before = path.read_bytes()
    analyze_records, calls = cli._analyze_records, []

    def records(task):
        calls.append(task)
        if len(calls) == 2:
            raise RuntimeError("second batch")
        return analyze_records(task)

    monkeypatch.setattr(cli, "_analyze_records", records)
    with pytest.raises(RuntimeError, match="second batch"):
        _run(["analyze", "--surface", "h2", "--grid", "-1:1:9", "--out", str(tmp_path)])
    assert len(calls) == 2
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["analyze.json"]


def _fields(row):
    """An `analyze` row as a dict keyed by its columns."""
    return dict(zip(cli.ANALYZE_COLUMNS, row))


def test_analyze_non_finite_result_is_not_ok(monkeypatch):
    # a record is "ok" only with finite curvatures, metric and invariants
    gauss = invariants.gauss_from_connection
    monkeypatch.setattr(invariants, "gauss_from_connection", lambda inv: gauss(inv) * math.nan)
    (row,) = cli._analyze_records((builtin_surface("h2"), [0.1], [0.2], 5, 1e-7))
    rec = _fields(row)
    assert rec["ok"] is False
    assert rec["error"] == "ArithmeticFailure"
    assert rec["message"] == "non-finite result: gauss_connection"


def _nan_r3(relations, rows=slice(None)):
    """relation_residuals with R3 a NaN jet at `rows` of the batch."""

    def nan_r3(inv):
        res = relations(inv)
        res["R3"] = res["R3"].copy()
        res["R3"][rows] = math.nan
        return res

    return nan_r3


def test_nan_relation_residual_is_not_residual_ok(monkeypatch):
    # R3 is neither the first residual nor the last, so a plain max() over
    # floats would skip its NaN
    monkeypatch.setattr(invariants, "relation_residuals", _nan_r3(invariants.relation_residuals))
    assert math.isnan(analyze_point(builtin_surface("h2"), 0.3, -0.2).residual_max)
    (row,) = cli._analyze_records((builtin_surface("h2"), [0.3], [-0.2], 5, 1e-7))
    assert _fields(row)["residual_ok"] is not True


def test_nan_in_one_point_flips_only_its_record(monkeypatch):
    spec, us, vs = builtin_surface("s21"), [-0.5, 0.0, 0.5], [0.2, 0.3, 0.4]
    clean_rows = cli._analyze_records((spec, us, vs, 5, 1e-7))
    monkeypatch.setattr(invariants, "relation_residuals", _nan_r3(invariants.relation_residuals, 1))
    rows = cli._analyze_records((spec, us, vs, 5, 1e-7))
    assert [cli._record_json(r) for r in rows[::2]] == [cli._record_json(r) for r in clean_rows[::2]]
    clean, records = [_fields(r) for r in clean_rows], [_fields(r) for r in rows]
    assert clean[1]["residual_ok"] is True
    assert records[1]["residual_ok"] is False and math.isnan(records[1]["residual_max"])
    assert {k: x for k, x in records[1].items() if not k.startswith("residual")} == {
        k: x for k, x in clean[1].items() if not k.startswith("residual")}


def test_nan_connection_form_is_not_ok(monkeypatch, tmp_path):
    # alpha is reported but is neither a curvature nor a metric entry
    extract = invariants.extract_invariants

    def nan_alpha_du(*args):
        inv = extract(*args)
        inv.alpha_coeffs = inv.alpha_coeffs.copy()
        inv.alpha_coeffs[..., 0, 0] = math.nan
        return inv

    monkeypatch.setattr(invariants, "extract_invariants", nan_alpha_du)
    out = tmp_path / "a"
    assert _run(["analyze", "--surface", "h2", "--grid", "0:0:1", "--out", str(out)]) == 0
    (rec,) = json.loads((out / "analyze.json").read_text())["records"]
    assert rec["ok"] is False
    assert rec["error"] == "ArithmeticFailure"
    assert rec["message"] == "non-finite result: alpha_du"


def test_verify_fails_on_a_nan_relation_residual(monkeypatch, capsys):
    # every residual_max the check reads is NaN; a plain max() fold would
    # keep its 0 start and pass.  verify analyzes each model as one batch.
    monkeypatch.setattr(invariants, "relation_residuals", _nan_r3(invariants.relation_residuals))
    rc = _run(["verify", "--check", "relations"])
    out = capsys.readouterr().out
    assert rc != 0
    assert out.startswith("FAIL relations: residual=nan")


def test_analyze_process_does_not_import_scipy_optimize():
    # only `search` solves least-squares problems, and it needs no scipy
    code = (
        "import sys\n"
        "from centroframe import cli\n"
        "assert cli.main(['analyze', '--surface', 'h2', '--grid', '0:0.5:2']) == 0\n"
        "sys.exit('scipy.optimize' in sys.modules)\n"
    )
    src = str(Path(centroframe.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_paths_do_not_import_scipy(tmp_path):
    # scipy serves only the model exponentials; without --jobs no process
    # pool is imported either
    f = [c.strip() for c in builtin_surface("s21").source.split(";")]
    A = [[2.0 if i == j else 0.1 * (i - 2 * j) for j in range(5)] for i in range(5)]
    image = "; ".join(" + ".join("%r*(%s)" % (A[i][j], f[j]) for j in range(5)) for i in range(5))
    code = (
        "import contextlib, io, sys\n"
        "from centroframe import analyze_point, cli, parse_surface\n"
        "argvs = [['analyze', '--surface', 'h2', '--grid', '-1:1:3'], ['verify'],\n"
        "         ['example', 'sphere', '--grid', '0:1:3', '--out', %r],\n"
        "         ['search', 'spacelike', '--restarts', '5']]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert all(cli.main(argv) == 0 for argv in argvs)\n"
        "assert analyze_point(parse_surface(%r), 0.4, -0.3, degree=7).surface_type == 'TimeLike'\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, loaded\n"
        "assert 'concurrent.futures.process' not in sys.modules\n"
    ) % (str(tmp_path), image)
    src = str(Path(centroframe.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


# The names tests/test_acceptance.py, README, demos/ and bench/ import from
# the package itself (bench's imports of submodules aside).
_PACKAGE_IMPORTS = (
    "CentroframeError", "DegenerateCoframe", "GaugeTransform", "MODEL_NAMES",
    "adapt2_spacelike", "adapt2_timelike", "adapt3", "analyze_point", "apply_gauge",
    "bracket_check", "builtin_model", "builtin_surface", "classify_plane", "eval_surface",
    "exp_product_point", "frame1", "fundamental_matrices", "invariant_names",
    "maurer_cartan", "model_generators", "model_metric", "model_omega", "parse_surface",
    "quadric_residual", "residual_dimension", "search_constant_solutions",
    "structure_residual",
)


def test_package_exports():
    from centroframe import adaptation, errors, homogeneous, surfaces

    tables = [m.__all__ for m in (adaptation, errors, homogeneous, invariants, surfaces)]
    names = centroframe.__all__
    extra = ["TaylorScalar", "coordinate_jets", "__version__"]
    assert sorted(names) == sorted([n for table in tables for n in table] + extra)
    assert len(set(names)) == len(names)
    for name in names:
        assert not inspect.ismodule(getattr(centroframe, name)), name
    assert set(_PACKAGE_IMPORTS) <= set(names)


def test_analyze_rejects_low_degree(capsys):
    rc = _run(["analyze", "--surface", "h2", "--degree", "3"])
    assert rc == 2
    assert "degree" in capsys.readouterr().err


@pytest.mark.parametrize("requested, used", [(4, 5), (5, 5), (6, 6)])
def test_analyze_reports_degree_used(tmp_path, requested, used):
    out = tmp_path / "a"
    rc = _run(["analyze", "--surface", "h2", "--grid", "0:0:1",
               "--degree", str(requested), "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "analyze.json").read_text())
    assert doc["degree"] == used
    assert doc["records"][0]["ok"] is True


def test_analyze_requires_surface(capsys):
    rc = _run(["analyze"])
    assert rc == 2
    assert "surface" in capsys.readouterr().err


def test_analyze_jobs_byte_identical(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    base = ["analyze", "--surface", "s21", "--grid", "-1:1:3"]
    assert _run(base + ["--jobs", "1", "--out", str(out1)]) == 0
    assert _run(base + ["--jobs", "2", "--out", str(out2)]) == 0
    assert (out1 / "analyze.json").read_bytes() == (out2 / "analyze.json").read_bytes()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_analyze_memory_does_not_grow_with_the_grid(monkeypatch, tmp_path, fmt):
    # records are written as their batch is analyzed, so 10,201 points peak
    # about as high as 441.  Every batch reuses the real results of the
    # first 64 points, cyclically, so the peak is what the CLI itself holds
    # and the grid costs only its serialization; the memory of a batch is
    # bounded by tests/test_batch.py.
    import tracemalloc

    first = []

    def canned(spec, us, vs, degree):
        if not first:
            first.append(analyze_point(spec, us[:64], vs[:64], degree=degree))
        res = first[0]
        rows = np.arange(len(us)) % len(res.u)
        cols = {f.name: getattr(res, f.name) for f in dataclasses.fields(res) if f.name != "errors"}
        cols = {k: [x[i] for i in rows] if isinstance(x, list) else x[rows] for k, x in cols.items()}
        errors = {i: res.errors[j] for i, j in enumerate(rows.tolist()) if j in res.errors}
        return dataclasses.replace(res, errors=errors, **cols)

    monkeypatch.setattr(cli, "analyze_point", canned)

    def peak(grid):
        argv = ["analyze", "--surface", NULL_FIXTURE, "--grid", grid, "--format", fmt,
                "--out", str(tmp_path / grid)]
        tracemalloc.start()
        try:
            assert _run(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak("-1:1:21"), peak("-1:1:101")
    text = (tmp_path / "-1:1:101" / ("analyze." + fmt)).read_text()
    assert text.count('"ok": ' if fmt == "json" else "\n") == 101 * 101 + (fmt == "csv")
    assert large <= 1.5 * small


@pytest.mark.parametrize("points, most", [("-1:1:3", 0), ("-1:1:9", 2)])
def test_analyze_jobs_start_at_most_one_worker_per_batch(monkeypatch, capsys, points, most):
    # 9 points are one batch, which runs inline; 81 points are two batches
    import multiprocessing.process

    calls = []
    start = multiprocessing.process.BaseProcess.start

    def counted_start(process):
        calls.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted_start)
    argv = ["analyze", "--surface", "h2", "--grid", points, "--format", "csv"]
    assert _run(argv + ["--jobs", "1"]) == 0
    inline = capsys.readouterr().out
    assert calls == []
    assert _run(argv + ["--jobs", "3"]) == 0
    assert capsys.readouterr().out == inline
    assert len(calls) <= most


@pytest.mark.parametrize("command", [["analyze", "--surface", "h2"], ["example", "h2"]])
@pytest.mark.parametrize("grid", [["-1e308:1e308:3", "0:0:1"], ["0:0:1", "1e308:-1e308:2"]])
def test_grid_span_must_be_finite(command, grid, capsys):
    # both bounds are finite but hi - lo overflows, which would make
    # linspace give inf and nan points
    with pytest.raises(SystemExit) as exc:
        _run(command + ["--grid", *grid])
    assert exc.value.code == 2
    assert "grid span hi - lo must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv, rule", [
    (["analyze", "--surface", "h2", "--grid", "0:0:1", "--tol", "-1"], "tolerance must be finite"),
    (["analyze", "--surface", "h2", "--grid", "0:0:1", "--tol", "nan"], "tolerance must be finite"),
    (["search", "timelike", "--restarts", "1", "--tol", "nan"], "tolerance must be finite"),
    (["verify", "--check", "brackets", "--tol", "nan"], "tolerance must be finite"),
    (["verify", "--check", "brackets", "--tol", "inf"], "tolerance must be finite"),
    (["search", "spacelike", "--restarts", "1", "--seed", "-1"], "seed must be an integer >= 0"),
    (["verify", "--check", "metrics", "--seed", "-500"], "seed must be an integer >= 0"),
    (["search", "spacelike", "--restarts", "-3"], "restarts must be an integer >= 1"),
    (["search", "spacelike", "--restarts", "0"], "restarts must be an integer >= 1"),
])
def test_unusable_numeric_option_is_a_usage_error(argv, rule, capsys):
    # each of these ran at the cost of its results, or crashed in numpy
    with pytest.raises(SystemExit) as exc:
        _run(argv)
    assert exc.value.code == 2
    assert rule in capsys.readouterr().err


def test_example_spacelike_files(tmp_path):
    rc = _run(["example", "h2", "--grid", "-1:1:4", "--out", str(tmp_path)])
    assert rc == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "h2_mesh.csv",
        "h2_proj_x1_x2_x0.csv",
        "h2_proj_x1_x2_x3.csv",
        "h2_proj_x1_x2_x4.csv",
    ]
    with open(tmp_path / "h2_mesh.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 16
    for row in rows:
        pt = [float(row["x%d" % i]) for i in range(5)]
        assert max(abs(r) for r in quadric_residual("h2", pt)) < 1e-8
    with open(tmp_path / "h2_proj_x1_x2_x3.csv", newline="") as f:
        proj = list(csv.DictReader(f))
    assert list(proj[0].keys()) == ["x1", "x2", "x3"]
    assert len(proj) == 16
    assert float(proj[3]["x1"]) == float(rows[3]["x1"])


def test_example_timelike_files(tmp_path):
    rc = _run(["example", "s21", "--grid", "0:1:3", "--out", str(tmp_path)])
    assert rc == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "s21_mesh.csv",
        "s21_proj_x1_x2_x0.csv",
        "s21_proj_x1_x2_x3.csv",
        "s21_proj_x1_x2_x4.csv",
        "s21_proj_x1_x3_x0.csv",
        "s21_proj_x1_x4_x0.csv",
    ]
    with open(tmp_path / "s21_mesh.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    for row in rows:
        pt = [float(row["x%d" % i]) for i in range(5)]
        assert max(abs(r) for r in quadric_residual("s21", pt)) < 1e-8


def test_example_json_document(tmp_path):
    rc = _run(
        ["example", "sphere", "--grid", "0:1:2", "--format", "json",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "sphere_example.json").read_text())
    assert doc["schema"] == "centroframe/1"
    assert len(doc["mesh"]) == 4
    assert set(doc["projections"]) == {"x1_x2_x0", "x1_x2_x3", "x1_x2_x4"}


def test_example_model_precedes_grid(tmp_path, capsys):
    """--grid takes every value after it, so MODEL goes first, as the usage
    line shows."""
    assert _run(["example", "h2", "--grid", "0:1:3", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "h2_mesh.csv").exists()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        _run(["example", "--grid", "0:1:3", "h2"])
    assert exc.value.code == 2
    usage = capsys.readouterr().err.splitlines()[0]
    assert usage.index("MODEL") < usage.index("--grid")


def test_example_unknown_model(tmp_path, capsys):
    rc = _run(["example", "nosuch", "--out", str(tmp_path)])
    assert rc == 2
    assert "unknown model" in capsys.readouterr().err


def test_verify_default_passes(tmp_path, capsys):
    rc = _run(["verify", "--out", str(tmp_path)])
    assert rc == 0
    lines = [
        ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("PASS")
    ]
    assert len(lines) == 6
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["passed"] is True
    assert [c["name"] for c in doc["checks"]] == [
        "brackets", "structure", "quadrics", "metrics", "relations", "gauss",
    ]
    for c in doc["checks"]:
        assert c["passed"] is True
        assert c["residual"] < c["tolerance"]


def test_verify_single_check(capsys):
    rc = _run(["verify", "--check", "brackets"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 1
    assert "brackets" in out


def test_verify_tolerance_override_fails(capsys):
    rc = _run(["verify", "--check", "structure", "--tol", "0"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL structure" in out


def test_search_timelike(tmp_path, capsys):
    rc = _run(
        ["search", "timelike", "--restarts", "20", "--seed", "3",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "search.json").read_text())
    assert doc["converged"] == 20
    assert len(doc["clusters"]) == 1
    c = doc["clusters"][0]
    assert c["surface_type"] == "TimeLike"
    assert c["matches_model"] == "s21"
    assert c["match_distance"] < 1e-10
    assert c["values"]["h132"] == pytest.approx(2 / 3, abs=1e-9)
    assert c["gauss"] == pytest.approx(-1 / 3, abs=1e-9)
    assert "matches built-in model 's21'" in capsys.readouterr().out


def test_search_spacelike_clusters(tmp_path):
    rc = _run(
        ["search", "spacelike", "--restarts", "30", "--seed", "11",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "search.json").read_text())
    matched = sorted(c["matches_model"] for c in doc["clusters"])
    assert matched == ["h2", "sphere"]
    assert sum(c["hits"] for c in doc["clusters"]) == 30


def test_search_deterministic(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    args = ["search", "spacelike-", "--restarts", "12", "--seed", "9"]
    assert _run(args + ["--out", str(out1)]) == 0
    assert _run(args + ["--out", str(out2)]) == 0
    assert (out1 / "search.json").read_bytes() == (out2 / "search.json").read_bytes()


def test_search_bad_case(capsys):
    rc = _run(["search", "lightlike"])
    assert rc == 2
    assert "case" in capsys.readouterr().err.lower()


def test_search_csv(tmp_path):
    rc = _run(
        ["search", "timelike", "--restarts", "10", "--format", "csv",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    with open(tmp_path / "search.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 1
    assert rows[0]["matches_model"] == "s21"
    assert float(rows[0]["h241"]) == pytest.approx(2 / 3, abs=1e-9)


def test_stdout_json_when_no_out(capsys):
    rc = _run(["analyze", "--surface", "h2", "--grid", "0:0:1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "centroframe/1"
    assert len(doc["records"]) == 1
    assert doc["records"][0]["u"] == 0.0


def test_float_format_17_digits(tmp_path):
    rc = _run(
        ["analyze", "--surface", "h2", "--grid", "0.1:0.1:1", "--out", str(tmp_path)]
    )
    assert rc == 0
    text = (tmp_path / "analyze.json").read_text()
    doc = json.loads(text)
    k = doc["records"][0]["gauss_invariants"]
    # 17 significant digits round-trips doubles exactly
    assert ("%.17g" % k) in text
    assert math.isfinite(k)
