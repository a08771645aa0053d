"""Spans and counters taken from outside cflow, at its module boundaries.

`Tracer.install()` replaces every public function of the traced modules with
a wrapper that records a span (name, start, end, parent span, job id), in the
module itself and in every cflow namespace that imported it by name.  The rhs
that callers pass into `integrate.solve_rk4` is wrapped to count and time its
evaluations, and `numpy.linalg.solve` is wrapped to count Newton steps.
Spans stay in memory until `write()`.  A function missing from a later
version is skipped; the metrics that need it are then reported as absent.
"""
from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

TRACED_MODULES = ("specfun", "integrate", "oscillator", "rgflow", "bethe",
                  "analysis", "config", "cli", "svg")


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index, job id]
        self.counts = defaultdict(Counter)   # job id -> counter
        self.job = None
        self.passes = 0            # traced passes; counters sum over them
        self._stack = []
        self._patched = []         # (namespace, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self):
        originals = {}
        for mod in TRACED_MODULES:
            try:
                module = importlib.import_module(f"cflow.{mod}")
            except ImportError:
                continue
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    originals[id(fn)] = (fn, self._wrap(f"{mod}.{attr}", fn))
        for name, module in list(sys.modules.items()):
            if name != "cflow" and not name.startswith("cflow."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        self._patch(np.linalg, "solve", self._counted("linalg_solve", np.linalg.solve))

    def uninstall(self):
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def _patch(self, namespace, attr, value):
        self._patched.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        rk4 = name == "integrate.solve_rk4"

        def wrapper(*args, **kwargs):
            if rk4:
                args = (tracer._timed_rhs(args[0]),) + args[1:]
            return tracer.span(name, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name, fn, args=(), kwargs=None):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, perf_counter(), None, parent, self.job]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def _timed_rhs(self, f):
        """Count rhs evaluations and charge their time to the caller's layer."""
        counts = self.counts[self.job]
        parent = self.spans[self._stack[-1]][0] if self._stack else "job"
        key = "rhs_s." + parent.split(".")[0]

        def rhs(s, y):
            t0 = perf_counter()
            try:
                return f(s, y)
            finally:
                counts["rhs"] += 1
                counts[key] += perf_counter() - t0

        return rhs

    def _counted(self, key, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[tracer.job][key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- analysis ------------------------------------------------------------

    def self_times(self):
        """Seconds of self time per layer (module), and total job time."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        layers = Counter()
        total = 0.0
        for i, (name, t0, t1, parent, _) in enumerate(self.spans):
            if parent is None:
                total += t1 - t0
            layers[name.split(".")[0]] += (t1 - t0) - child[i]
        # rhs callbacks run inside integrate but belong to their caller
        for counts in self.counts.values():
            for key, seconds in counts.items():
                if key.startswith("rhs_s."):
                    layers["integrate"] -= seconds
                    layers[key[len("rhs_s."):]] += seconds
        return layers, total

    def durations(self, name, jobs=None):
        """Durations (s) of spans called `name`, outermost per job only."""
        out = []
        for rec_name, t0, t1, parent, job in self.spans:
            if rec_name == name and (jobs is None or job in jobs) \
                    and (parent is None or self.spans[parent][0] != name):
                out.append(t1 - t0)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "job": job}) + "\n")
