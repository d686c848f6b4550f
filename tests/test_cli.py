"""End-to-end tests of the command-line interface."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

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


def test_analyze_non_finite_result_is_not_ok(monkeypatch):
    # a record is "ok" only with finite curvatures, metric and invariants
    def nan_curvature(*args, **kwargs):
        return dataclasses.replace(analyze_point(*args, **kwargs), gauss_connection=math.nan)

    monkeypatch.setattr(cli, "analyze_point", nan_curvature)
    rec = cli._analyze_record((builtin_surface("h2"), 0.1, 0.2, 5, 1e-7))
    assert rec["ok"] is False
    assert rec["error"] == "ArithmeticFailure"
    assert rec["message"] == "non-finite result: gauss_connection"


def test_nan_relation_residual_is_not_residual_ok(monkeypatch):
    # R3 is neither the first residual nor the last, so a plain max() over
    # floats would skip its NaN
    relations = invariants.relation_residuals

    def nan_r3(inv):
        res = relations(inv)
        res["R3"] = res["R3"] * math.nan
        return res

    monkeypatch.setattr(invariants, "relation_residuals", nan_r3)
    assert math.isnan(analyze_point(builtin_surface("h2"), 0.3, -0.2).residual_max)
    rec = cli._analyze_record((builtin_surface("h2"), 0.3, -0.2, 5, 1e-7))
    assert rec["residual_ok"] is not True


def test_verify_fails_on_a_nan_relation_residual(monkeypatch, capsys):
    # every residual_max the check reads is NaN; a plain max() fold would
    # keep its 0 start and pass
    relations = invariants.relation_residuals

    def nan_r3(inv):
        res = relations(inv)
        res["R3"] = res["R3"] * math.nan
        return res

    monkeypatch.setattr(invariants, "relation_residuals", nan_r3)
    rc = _run(["verify", "--check", "relations"])
    out = capsys.readouterr().out
    assert rc != 0
    assert out.startswith("FAIL relations: residual=None")


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
