"""`analyze` records against a reference serializer.

`cli` keeps each record as its CSV row and writes its JSON text through a
fixed template per record shape.  The reference below builds each record as
a nested dict and walks it value by value, as the CLI did before the
templates; both must give the same bytes, in JSON and in CSV.
"""

import math

import numpy as np
import pytest

from centroframe import cli, invariants
from centroframe.errors import ArithmeticFailure, CentroframeError, DomainError
from centroframe.invariants import H_COLUMNS_OF, MAX_BATCH, effective_degree
from centroframe.surfaces import resolve_surface

NULL_FIXTURE = "1 + u^2/2 + v^2/2; u; v; u^2/2; u*v"


# ---------------------------------------------------------------------------
# Reference: records as nested dicts, written by a recursive walker
# ---------------------------------------------------------------------------


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
        out.append("%.17g" % float(value) if math.isfinite(value) else "null")
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
    out = []
    _json_value(doc, out, 0)
    out.append("\n")
    return "".join(out)


def _error_record(u, v, exc):
    return {"u": u, "v": v, "ok": False, "error": type(exc).__name__, "message": str(exc)}


def _analyze_records(task):
    spec, us, vs, degree, tol = task
    res = cli.analyze_point(spec, np.array(us), np.array(vs), degree=degree)
    K1, K2, R = res.gauss_invariants.tolist(), res.gauss_connection.tolist(), res.residual_max.tolist()
    metric, alpha, H = res.metric.tolist(), res.alpha.tolist(), res.h.tolist()
    records = []
    for i, (u, v) in enumerate(zip(us, vs)):
        exc = res.errors.get(i)
        if isinstance(exc, (OverflowError, ZeroDivisionError, np.linalg.LinAlgError)):
            exc = ArithmeticFailure("%s: %s" % (type(exc).__name__, exc))
        if exc is not None:
            if not isinstance(exc, CentroframeError):
                raise exc
            records.append(_error_record(u, v, exc))
            continue
        (E, F, G), (alpha_du, alpha_dv) = metric[i], alpha[i]
        h = {k: H[i][c] for k, c in H_COLUMNS_OF[res.surface_type[i]]}
        results = dict(
            gauss_invariants=K1[i], gauss_connection=K2[i],
            E=E, F=F, G=G, alpha_du=alpha_du, alpha_dv=alpha_dv, **h,
        )
        bad = [k for k, x in results.items() if not math.isfinite(x)]
        if bad:
            failure = ArithmeticFailure("non-finite result: " + ", ".join(bad))
            records.append(_error_record(u, v, failure))
            continue
        records.append({
            "u": u,
            "v": v,
            "ok": True,
            "surface_type": res.surface_type[i],
            "epsilon": int(res.epsilon[i]),
            "gauss_invariants": K1[i],
            "gauss_connection": K2[i],
            "metric": {"E": E, "F": F, "G": G, "signature": res.signature[i]},
            "alpha": {"du": alpha_du, "dv": alpha_dv},
            "residual_max": R[i],
            "residual_ok": bool(R[i] <= tol),
            "h": h,
        })
    return records


def _analyze_row(record):
    flat = {}
    for k, x in record.items():
        if isinstance(x, dict):
            for kk, xx in x.items():
                flat[kk if kk in cli.ANALYZE_COLUMNS else "%s_%s" % (k, kk)] = xx
        else:
            flat[k] = x
    return [flat.get(c) for c in cli.ANALYZE_COLUMNS]


def _reference(surface, grid, degree=4, tol=1e-7):
    """The JSON and CSV text of `analyze` by the reference serializer."""
    axes = [cli._grid_spec(g) for g in grid]
    axes = (axes[0], axes[-1])
    points = [(u, v) for u in cli._grid_values(axes[0]) for v in cli._grid_values(axes[1])]
    us, vs = [p[0] for p in points], [p[1] for p in points]
    spec = resolve_surface(surface)
    records = [r for k in range(0, len(us), MAX_BATCH)
               for r in _analyze_records((spec, us[k : k + MAX_BATCH], vs[k : k + MAX_BATCH], degree, tol))]
    doc = {
        "schema": cli.SCHEMA,
        "command": "analyze",
        "surface": surface,
        "degree": effective_degree(degree),
        "tolerance": tol,
        "grid": {"u": list(axes[0]), "v": list(axes[1])},
        "records": records,
    }
    return dumps_json(doc), cli.dumps_csv(cli.ANALYZE_COLUMNS, [_analyze_row(r) for r in records])


def _analyze(capsys, surface, grid, fmt, *options):
    assert cli.main(["analyze", "--surface", surface, "--grid", *grid, "--format", fmt, *options]) == 0
    return capsys.readouterr().out


def _check_bytes(capsys, surface, grid, degree=None):
    options = () if degree is None else ("--degree", str(degree))
    ref_json, ref_csv = _reference(surface, grid, 4 if degree is None else degree)
    assert _analyze(capsys, surface, grid, "json", *options) == ref_json
    assert _analyze(capsys, surface, grid, "csv", *options) == ref_csv
    return ref_json


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("surface", ["h2", "sphere", "s21", NULL_FIXTURE])
def test_records_match_the_reference_on_two_batches(capsys, surface):
    text = _check_bytes(capsys, surface, ["-1:1:9"])
    if surface == NULL_FIXTURE:
        assert '"ok": false' in text and '"ok": true' in text


def test_overflow_records_match_the_reference(capsys):
    text = _check_bytes(capsys, "h2", ["700:800:2", "0:0:1"])
    assert text.count('"error": "ArithmeticFailure"') == 2


def test_degree_7_records_match_the_reference(capsys):
    _check_bytes(capsys, "s21", ["-0.8:0.8:9"], degree=7)


def test_nan_residual_writes_null_and_not_ok(monkeypatch, capsys):
    relations = invariants.relation_residuals

    def nan_r3(inv):
        res = relations(inv)
        res["R3"] = res["R3"].copy()
        res["R3"][1] = math.nan
        return res

    monkeypatch.setattr(invariants, "relation_residuals", nan_r3)
    text = _check_bytes(capsys, "h2", ["0:0.5:2", "0.1:0.1:1"])
    assert '"residual_max": null,\n      "residual_ok": false,' in text
    assert text.count('"ok": true') == 2


def test_error_text_is_escaped_as_the_reference(monkeypatch, capsys):
    message = 'say "hi" \\ back\nslash\x01 café\t\r'
    odd = type('Odd"Name\\é', (CentroframeError,), {})
    analyze = cli.analyze_point

    def with_errors(*args, **kwargs):
        res = analyze(*args, **kwargs)
        res.errors[0] = DomainError(message)
        res.errors[2] = odd(message)
        return res

    monkeypatch.setattr(cli, "analyze_point", with_errors)
    text = _check_bytes(capsys, "sphere", ["-0.5:0.5:2"])
    assert '"message": "say \\"hi\\" \\\\ back\\nslash\\u0001 café\\t\\r"' in text
    assert '"error": "Odd\\"Name\\\\é"' in text


def test_a_non_finite_result_is_the_point_s_error(monkeypatch, capsys):
    # K by the connection route is NaN at the second of two points, picked
    # by its alpha_du: the scalar call raises, the batch records the error,
    # and the CLI writes that point's error record
    spec, us, vs = resolve_surface("h2"), np.array([0.1, 0.1]), np.array([0.0, 0.5])
    alpha_du = invariants.analyze_point(spec, us, vs).alpha[1, 0]
    gauss = invariants.gauss_from_connection

    def nan_at_point(inv):
        return np.where(inv.alpha_coeffs[..., 0, :1] == alpha_du, math.nan, gauss(inv))

    monkeypatch.setattr(invariants, "gauss_from_connection", nan_at_point)
    message = "non-finite result: gauss_connection"
    assert invariants.analyze_point(spec, 0.1, 0.0).surface_type == "SpaceLike"
    with pytest.raises(ArithmeticFailure, match="^%s$" % message):
        invariants.analyze_point(spec, 0.1, 0.5)
    batch = invariants.analyze_point(spec, us, vs)
    assert [(i, type(e), str(e)) for i, e in batch.errors.items()] == [(1, ArithmeticFailure, message)]
    assert batch.surface_type == ["SpaceLike", None]
    text = _check_bytes(capsys, "h2", ["0.1:0.1:1", "0:0.5:2"])
    assert text.count('"ok": true') == 1 and text.count('"message": "%s"' % message) == 1
