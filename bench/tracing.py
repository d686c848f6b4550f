"""Spans and counters recorded from outside the centroframe package.

The benchmark never edits `src/`.  It traces by replacing module attributes
that the package looks up at call time (for example `invariants.frame1`,
which `analyze_point` resolves as a module global) with wrappers, and by
restoring the originals afterwards.  Three kinds of wrapper exist:

* span wrappers record (name, start, end, parent, op id) for stage-level
  calls, a few dozen per operation;
* aggregate wrappers keep only a call count and total time, for hot inner
  calls such as `linalg5.solve` or `homogeneous.structure_residual`;
* counters on `TaylorScalar.__init__` and `TaylorScalar.__mul__` count jet
  allocations and jet-by-jet products exactly.

Spans stay in memory and are written once, when the run ends.
"""

import json
import time
from collections import defaultdict

SPAN_FIELDS = ("name", "start_s", "end_s", "parent", "op")


class Tracer:
    """In-memory span and counter store plus the patches that feed it."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = -1
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.jets = 0
        self.jet_muls = 0
        self.mc_index = 0
        self._patches = []
        self._installed = []

    # -- wrappers ------------------------------------------------------------

    def span(self, name, fn, on_enter=None):
        """Wrap `fn` so every call records one span.

        `name` is a string or a zero-argument callable evaluated at call
        time (used to tell the three Maurer-Cartan solves apart).
        """
        tracer = self

        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter()
            label = name() if callable(name) else name
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (label, t0, t1, parent, tracer.op)

        return traced

    def aggregate(self, name, fn):
        """Wrap `fn` so calls are counted and timed without span records."""
        calls, busy = self.calls, self.busy

        def counted(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy[name] += time.perf_counter() - t0
                calls[name] += 1

        return counted

    def next_mc(self):
        self.mc_index += 1
        return "adaptation.mc%d" % self.mc_index

    def reset_mc(self):
        self.mc_index = 0

    # -- patching ------------------------------------------------------------

    def add_patch(self, owner, attr, make_wrapper):
        """Register `owner.attr = make_wrapper(original)` for `install`."""
        self._patches.append((owner, attr, make_wrapper(getattr(owner, attr))))

    def count_jets(self, jet_class):
        """Register exact counters on jet allocation and jet products."""
        tracer = self
        init = jet_class.__init__
        mul = jet_class.__mul__

        def counting_init(obj, coeffs):
            tracer.jets += 1
            init(obj, coeffs)

        def counting_mul(a, b):
            if isinstance(b, jet_class):
                tracer.jet_muls += 1
            return mul(a, b)

        self._patches.append((jet_class, "__init__", counting_init))
        self._patches.append((jet_class, "__mul__", counting_mul))

    def install(self):
        if self._installed:
            return
        for owner, attr, wrapper in self._patches:
            self._installed.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def op_span(self, name, op):
        """Context manager for the root span of one benchmark operation."""
        return _OpSpan(self, name, op)

    def totals(self):
        """Total seconds per span name."""
        out = defaultdict(float)
        for name, t0, t1, _, _ in self.spans:
            out[name] += t1 - t0
        return out

    def counters(self):
        """Snapshot of every exact counter (for determinism checks)."""
        snap = {"taylor.jets": self.jets, "taylor.jet_muls": self.jet_muls}
        snap.update(("calls." + k, v) for k, v in sorted(self.calls.items()))
        return snap

    def reset_counters(self):
        self.jets = 0
        self.jet_muls = 0
        self.calls.clear()
        self.busy.clear()

    def write(self, path, meta):
        doc = dict(meta)
        doc["span_fields"] = list(SPAN_FIELDS)
        doc["spans"] = [list(s) for s in self.spans]
        doc["aggregates"] = {
            k: {"calls": self.calls[k], "busy_s": self.busy[k]} for k in sorted(self.calls)
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)


class _OpSpan:
    def __init__(self, tracer, name, op):
        self.tracer, self.name, self.op = tracer, name, op

    def __enter__(self):
        t = self.tracer
        t.op = self.op
        self.idx = len(t.spans)
        t.spans.append(None)
        t._stack.append(self.idx)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t1 = time.perf_counter()
        t._stack.pop()
        t.spans[self.idx] = (self.name, self.t0, t1, -1, self.op)
        return False
