"""centroframe benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload grid_models --seed 1 --seconds 20 --trace 0

Workloads are `grid_models`, `point_queries` and `search` (see
`workloads.py` and `bench/README.md`).  One caller runs operations back to
back (closed loop) for `--seconds`, checks every output, and prints a
human-readable report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
every other operation runs with tracing wrappers installed and the metrics
are the per-layer ones.  The full result (environment, failure histogram,
percentiles) goes to `bench/out/result-*.json`; a traced run also writes its
spans to `bench/out/trace-*.json`.  The exit code is 0 only when every
output check passed and exact counters repeated; 2 means the program could
not be loaded.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 5
# Time of `reference_kernel` on the machine the seed figures were taken on
# (2-vCPU Xeon at 2.0 GHz, in its fast phases); calibrated times are in ms
# at that machine speed.
KERNEL_NOMINAL_S = 1.0e-3
# Program time grows as kernel time to this power when the shared CPU slows
# down (fitted on 60 runs of the three workloads, kernel 1.0 to 2.1 ms).
KERNEL_ELASTICITY = 0.8
# Seed-code figures quoted by ROADMAP.md, for the comparison line.
ROADMAP_BASELINE_MS = {"grid_models": 46.0, "search": 11.0}
# Names of the raw per-workload figures in the report.
REPORT_NAMES = {
    "grid_models": ("points_per_s", "point_p50_ms"),
    "point_queries": ("queries_per_s", "query_p50_ms"),
    "search": ("restarts_per_s", "restart_p50_ms"),
}
PLURAL = {"point": "points", "query": "queries", "restart": "restarts"}

END_TO_END = {
    "setup_s": "s",
    "throughput_cal": "1/s",
    "latency_p50_cal_ms": "ms",
    "peak_rss_mb": "MB",
}

# Stage spans reported per unit of work (point, query or restart), in ms.
SPAN_METRICS = {
    "surfaces.parse_ms": ("surfaces.parse",),
    "surfaces.eval_ms": ("surfaces.eval",),
    "adaptation.frame1_ms": ("adaptation.frame1",),
    "adaptation.mc1_ms": ("adaptation.mc1",),
    "adaptation.mc2_ms": ("adaptation.mc2",),
    "adaptation.mc3_ms": ("adaptation.mc3",),
    "adaptation.fundamental_ms": ("adaptation.fundamental",),
    "adaptation.classify_ms": ("adaptation.classify",),
    "adaptation.adapt2_ms": ("adaptation.adapt2",),
    "adaptation.adapt3_ms": ("adaptation.adapt3",),
    "invariants.extract_ms": ("invariants.extract",),
    "invariants.curvature_ms": ("invariants.curvature",),
    "invariants.metric_ms": ("invariants.metric",),
    "invariants.relations_ms": ("invariants.relations",),
    "invariants.analyze_point_ms": ("invariants.analyze_point",),
    "cli.serialize_ms": ("cli.serialize",),
    "homogeneous.lm_ms": ("homogeneous.lm",),
}

PER_LAYER_UNITS = dict(
    {name: "ms" for name in SPAN_METRICS},
    **{
        "linalg5.solve_ms": "ms",
        "linalg5.solve_calls_per_point": "count",
        "taylor.jets_per_point": "count",
        "taylor.jet_muls_per_point": "count",
        "homogeneous.setup_ms": "ms",
        "homogeneous.residual_us": "us",
        "homogeneous.residual_evals_per_restart": "count",
        "homogeneous.residual_share": "ratio",
        "homogeneous.converged_ratio": "ratio",
        "trace.overhead_ms": "ms",
    },
)


class BenchError(Exception):
    """The benchmark cannot run: program missing or a counter not exact."""


def load_program():
    """Import centroframe from this checkout's `src/`, and the workloads."""
    if not (SRC / "centroframe" / "__init__.py").is_file():
        raise BenchError("no centroframe sources under %s" % SRC)
    for path in (str(SRC), str(BENCH)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import centroframe

    if Path(centroframe.__file__).resolve().parent != SRC / "centroframe":
        raise BenchError("centroframe was imported from %s" % centroframe.__file__)
    import workloads

    return workloads


def environment(workload, seed):
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "workload": workload,
        "seed": seed,
    }


def measure_setup(probe_spec, repeats):
    """Median import-plus-first-call time over fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    setup, residual = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), json.dumps(probe_spec)],
            cwd=str(ROOT), env=env, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise BenchError("setup probe failed:\n" + proc.stderr[-2000:])
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        setup.append(rec["setup_s"])
        residual.append(rec["residual_setup_ms"])
    return statistics.median(setup), statistics.median(residual), setup


def tail_percentile(samples):
    """Highest of p99.9/99/95/90/75/50 with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(samples) * (1.0 - p / 100.0) >= 10:
            return p, float(np.percentile(samples, p))
    return None, None


def reference_kernel():
    """Fixed mix of interpreter and small-array work, timed between operations.

    Shared virtual CPUs can change speed by up to 2x over tens of seconds,
    and program and kernel slow down together; dividing each operation's
    time by the kernel time measured next to it cancels most of that drift.
    """
    a = np.arange(21.0)
    acc = 0.0
    slots = {}
    for i in range(600):
        b = a * 1.0001 + 0.5
        acc += float(b[i % 21])
        slots[i & 63] = acc
    return acc


def time_kernel(repeats=3):
    """Median seconds of `reference_kernel` over a few back-to-back runs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class _Ops:
    """Per-operation records of one run."""

    def __init__(self):
        self.rows = []  # (traced, units, seconds, failed units)
        self.failures = Counter()
        self.kernel_s = []  # reference-kernel time before the first op and after each

    def add(self, traced, units, seconds, bad):
        failed = min(units, sum(bad.values()))
        self.rows.append((traced, units, seconds, failed))
        self.failures.update(bad)

    def select(self, traced):
        return [r for r in self.rows if r[0] == traced]

    @staticmethod
    def per_unit_ms(rows):
        units = sum(r[1] for r in rows)
        return 1e3 * sum(r[2] for r in rows) / units if units else 0.0


def _run_op(wl, inp, failure_name):
    """Timed call plus check; a failing call is recorded, never fatal."""
    t0 = time.perf_counter()
    try:
        out = wl.call(inp)
        err = None
    except Exception as exc:  # operation boundary: record type and go on
        out, err = None, exc
    dt = time.perf_counter() - t0
    if err is None:
        try:
            return dt, wl.check(inp, out)
        except Exception as exc:  # malformed output counts as a failure
            err = exc
    traceback.print_exception(err, file=sys.stderr, limit=3)
    return dt, Counter({failure_name(err): wl.units(inp)})


def _count_set(wl, tracer, inputs):
    """Run the first inputs twice with counters on; the counts must match."""
    snaps = []
    for _ in range(2):
        tracer.reset_counters()
        tracer.install()
        try:
            for inp in inputs:
                wl.call(inp)
        finally:
            tracer.uninstall()
        snaps.append(tracer.counters())
    if snaps[0] != snaps[1]:
        raise BenchError("exact counters differ between repeats: %r" % snaps)
    tracer.spans.clear()
    tracer.reset_counters()
    return snaps[0], sum(wl.units(inp) for inp in inputs)


def _layer_metrics(wl, tracer, ops, counts, count_units, residual_setup_ms):
    traced, untraced = ops.select(True), ops.select(False)
    units = sum(r[1] for r in traced) or 1
    totals = tracer.totals()
    m = {
        name: 1e3 * sum(totals.get(s, 0.0) for s in spans) / units
        for name, spans in SPAN_METRICS.items()
    }
    calls, busy = tracer.calls, tracer.busy
    m["linalg5.solve_ms"] = 1e3 * busy["linalg5.solve"] / units
    m["linalg5.solve_calls_per_point"] = counts.get("calls.linalg5.solve", 0) / count_units
    m["taylor.jets_per_point"] = counts["taylor.jets"] / count_units
    m["taylor.jet_muls_per_point"] = counts["taylor.jet_muls"] / count_units
    m["homogeneous.setup_ms"] = residual_setup_ms
    n_res = calls["homogeneous.residual"]
    m["homogeneous.residual_us"] = 1e6 * busy["homogeneous.residual"] / n_res if n_res else 0.0
    m["homogeneous.residual_evals_per_restart"] = (
        counts.get("calls.homogeneous.residual", 0) / count_units
    )
    search_s = totals.get("homogeneous.search", 0.0)
    m["homogeneous.residual_share"] = busy["homogeneous.residual"] / search_s if search_s else 0.0
    m["homogeneous.converged_ratio"] = (
        1.0 - ops.failures["NotConverged"] / sum(r[1] for r in ops.rows)
        if wl.unit == "restart" else 0.0
    )
    traced_ms, untraced_ms = ops.per_unit_ms(traced), ops.per_unit_ms(untraced)
    m["trace.overhead_ms"] = traced_ms - untraced_ms
    accounted = 1e3 * sum(totals.get(s, 0.0) for s in wl.leaf_spans) / units
    accounting = {
        "traced_ms_per_unit": traced_ms,
        "untraced_ms_per_unit": untraced_ms,
        "stage_sum_ms_per_unit": accounted,
        "unaccounted_ms_per_unit": untraced_ms - accounted,
        "within_overhead": abs(untraced_ms - accounted) <= abs(traced_ms - untraced_ms),
        "traced_ops": len(traced),
        "untraced_ops": len(untraced),
    }
    return m, accounting


def _end_to_end(ops, setup_s):
    rows = ops.rows
    units = np.array([r[1] for r in rows], dtype=float)
    per_unit = np.array([1e3 * r[2] / r[1] for r in rows])
    kernel = np.array(ops.kernel_s)
    speed = KERNEL_NOMINAL_S / ((kernel[:-1] + kernel[1:]) / 2)
    calibrated = per_unit * speed**KERNEL_ELASTICITY
    p, tail = tail_percentile(per_unit)
    metrics = {
        "setup_s": setup_s,
        "throughput_cal": 1e3 * units.sum() / float(np.dot(calibrated, units)),
        "latency_p50_cal_ms": float(np.median(calibrated)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    latency = {
        "samples": len(per_unit),
        "mean_units_per_s": units.sum() / sum(r[2] for r in rows),
        "p50_ms": float(np.median(per_unit)),
        "tail_percentile": p,
        "tail_ms": tail,
        "kernel_p50_ms": 1e3 * float(np.median(kernel)),
        "per_unit_ms": per_unit.tolist(),
        "calibrated_ms": calibrated.tolist(),
    }
    return metrics, latency


def run(workload, seed, seconds, trace, setup_repeats=SETUP_REPEATS, options=None):
    """Run one workload and return the full result document."""
    wmod = load_program()
    from tracing import Tracer

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=str(OUT))
    try:
        wl = wmod.WORKLOADS[workload](seed, workdir, **(options or {}))
        inputs = [wl.make_input() for _ in range(wl.count_set + 64)]
        setup_s, residual_setup_ms, setup_samples = measure_setup(
            wl.probe(inputs[0], os.path.join(workdir, "probe")), setup_repeats
        )
        wl.call(inputs[0])  # warm-up: lazy caches fill before timing

        tracer = counts = count_units = None
        if trace:
            tracer = Tracer()
            wl.patch(tracer)
            counts, count_units = _count_set(wl, tracer, inputs[: wl.count_set])

        ops = _Ops()
        next_input = wl.count_set
        t_start = time.perf_counter()
        ops.kernel_s.append(time_kernel())
        while True:
            if next_input == len(inputs):
                inputs.extend(wl.make_input() for _ in range(64))
            inp = inputs[next_input]
            next_input += 1
            traced = bool(trace) and len(ops.rows) % 2 == 1
            if traced:
                tracer.install()
                try:
                    with tracer.op_span(wl.root_span, len(ops.rows)):
                        dt, bad = _run_op(wl, inp, wmod.failure_name)
                finally:
                    tracer.uninstall()
            else:
                dt, bad = _run_op(wl, inp, wmod.failure_name)
            ops.add(traced, wl.units(inp), dt, bad)
            ops.kernel_s.append(time_kernel())
            enough = len(ops.rows) >= (2 if trace else 1)
            if enough and time.perf_counter() - t_start >= seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r[1] for r in ops.rows)
    failed = sum(r[3] for r in ops.rows)
    result = {
        "environment": environment(workload, seed),
        "seconds": seconds,
        "trace": int(bool(trace)),
        "unit": wl.unit,
        "operations": len(ops.rows),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": dict(sorted(ops.failures.items())),
        "notes": dict(sorted(getattr(wl, "notes", {}).items())),
        "setup_samples_s": setup_samples,
    }
    if trace:
        result["per_layer"], result["accounting"] = _layer_metrics(
            wl, tracer, ops, counts, count_units, residual_setup_ms
        )
        result["exact_counts"] = counts
        trace_path = OUT / ("trace-%s-s%d.json" % (workload, seed))
        tracer.write(trace_path, {"workload": workload, "seed": seed, "unit": wl.unit})
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        result["end_to_end"], result["latency"] = _end_to_end(ops, setup_s)
    with open(OUT / ("result-%s-s%d-t%d.json" % (workload, seed, int(bool(trace)))), "w") as f:
        json.dump(result, f, indent=1)
    return result


def report(result):
    """Human-readable lines: every metric by name with its unit."""
    env = result["environment"]
    w = env["workload"]
    lines = [
        "workload %s seed %d, %.0f s, %s" % (w, env["seed"], result["seconds"], json.dumps(env)),
        "attempted %d %s, failed %d, fail_ratio %.6g, failures by type %s"
        % (result["attempted"], PLURAL[result["unit"]], result["failed"], result["fail_ratio"],
           json.dumps(result["failures"])),
    ]
    if result["notes"]:
        lines.append("notes (passed, but flagged by an absolute bound) %s" % json.dumps(result["notes"]))
    if "end_to_end" in result:
        e2e, lat = result["end_to_end"], result["latency"]
        rate_name, p50_name = REPORT_NAMES[w]
        unit = result["unit"]
        for name, u in END_TO_END.items():
            lines.append("  %-16s %14.6g %s" % (name, e2e[name], u))
        lines.append("  %-16s %14.6g %s/s (raw mean)"
                     % (rate_name, lat["mean_units_per_s"], PLURAL[unit]))
        lines.append("  %-16s %14.6g ms  (raw, n=%d)" % (p50_name, lat["p50_ms"], lat["samples"]))
        if lat["tail_percentile"] is None:
            lines.append("  tail latency     n/a: fewer than 20 samples")
        else:
            lines.append("  %-16s %14.6g ms  (raw, n=%d)" % (
                "%s_p%g_ms" % (unit, lat["tail_percentile"]), lat["tail_ms"], lat["samples"]))
        lines.append("  reference kernel %.4g ms (median; nominal %.4g ms)"
                     % (lat["kernel_p50_ms"], 1e3 * KERNEL_NOMINAL_S))
        base = ROADMAP_BASELINE_MS.get(w)
        if base is not None:
            lines.append("  ROADMAP seed baseline %.0f ms/%s; this run p50 %.4g ms (%+.0f%%)"
                         % (base, unit, lat["p50_ms"], 100 * (lat["p50_ms"] / base - 1)))
    else:
        for name, unit in PER_LAYER_UNITS.items():
            lines.append("  %-40s %14.6g %s" % (name, result["per_layer"][name], unit))
        acc = result["accounting"]
        lines.append(
            "  stage sum %.4g ms/%s vs untraced %.4g ms (unaccounted %.3g), traced %.4g ms: "
            "overhead %.3g ms, within overhead: %s"
            % (acc["stage_sum_ms_per_unit"], result["unit"], acc["untraced_ms_per_unit"],
               acc["unaccounted_ms_per_unit"], acc["traced_ms_per_unit"],
               acc["traced_ms_per_unit"] - acc["untraced_ms_per_unit"], acc["within_overhead"])
        )
        lines.append("  exact counts %s" % json.dumps(result["exact_counts"]))
    return lines


def summary_line(result):
    if "end_to_end" in result:
        values, units = result["end_to_end"], END_TO_END
    else:
        values, units = result["per_layer"], PER_LAYER_UNITS
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    })


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("grid_models", "point_queries", "search"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 2
    for line in report(result):
        print(line)
    print(summary_line(result))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
