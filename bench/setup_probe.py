"""Time import plus first call of centroframe in a fresh interpreter.

Run by `run.py` with PYTHONPATH pointing at the checkout's `src/` and one
JSON argument describing the first call.  Prints one JSON object:
`setup_s` (import + first call, including lazy caches such as the jet
multiplication tables and the residual support) and `residual_setup_ms`
(the residual-support probe alone, search only).
"""

import json
import sys
import time


def main():
    spec = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import centroframe

    residual_setup_ms = 0.0
    if spec["kind"] == "grid":
        import contextlib
        import io

        from centroframe import cli

        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(spec["argv"])
        if rc != 0:
            raise SystemExit("first analyze call failed with exit code %d" % rc)
    elif spec["kind"] == "query":
        surface = centroframe.parse_surface(spec["text"])
        centroframe.analyze_point(surface, spec["u"], spec["v"], degree=7)
    else:
        t1 = time.perf_counter()
        for case in (("SpaceLike", 1), ("SpaceLike", -1), ("TimeLike", 0)):
            centroframe.residual_dimension(*case)
        residual_setup_ms = (time.perf_counter() - t1) * 1e3
        centroframe.search_constant_solutions("spacelike", restarts=2, seed=spec["seed"])
        centroframe.search_constant_solutions("timelike", restarts=1, seed=spec["seed"])
    setup_s = time.perf_counter() - t0
    print(json.dumps({"setup_s": setup_s, "residual_setup_ms": residual_setup_ms}))


if __name__ == "__main__":
    main()
