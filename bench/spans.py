"""Span tracing for the benchmark, installed from outside the program.

`install` replaces every public function of each imported `prediagnose`
module, at each module-global binding that refers to it, with a wrapper that
records a span: name, parent span, start and end (perf_counter ns) and, for a
few functions, the bytes the call reads or writes.  Spans stay in memory and
are written out once, at the end of a run.

Wrappers are used rather than `sys.setprofile`, which charges its own cost to
every Python call and so inflates pure-Python layers (persist's JSON writer)
far more than numpy-bound ones.  The tracer keeps one span stack, so it is
only valid for single-threaded runs (`--threads 1`).
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

PACKAGE = "prediagnose"

# best_split calls gini_impurity twice per candidate split position, over a
# million times per forest fit; a span each would cost more than the call.
# Its time stays in best_split's self time.
SKIP = frozenset({"forest.gini_impurity"})

# Bytes a call moves, computed from its arguments or result.
BYTES = {
    "svm.rbf_gram": lambda args, result: args[0].nbytes + args[1].nbytes + result.nbytes,
    "svm.svm_decision": lambda args, result: args[0].support_vectors.nbytes,
    "persist.save_model": lambda args, result: len(result),
    "persist.load_model": lambda args, result: len(args[0]),
}

# Span fields, in the order each span list holds them.
NAME, PARENT, START, END, OUTER, NBYTES = range(6)


class Tracer:
    """In-memory span recorder; spans[i] = [name_id, parent, start, end, outer, nbytes].

    A span's parent always has a lower index, so one forward pass finds each
    span's root.  `outer` is 0 for a call nested inside another call of the
    same function, so inclusive time is not counted twice on recursion.
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._active: list[int] = []
        self._bytes: dict[int, object] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
            if name in BYTES:
                self._bytes[nid] = BYTES[name]
        return nid

    def call(self, nid: int, fn, args, kwargs):
        span = [nid, self._stack[-1] if self._stack else -1, 0, 0, int(self._active[nid] == 0), 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._active[nid] += 1
        span[START] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter_ns()
            self._active[nid] -= 1
            self._stack.pop()
        measure = self._bytes.get(nid)
        if measure is not None:
            try:
                span[NBYTES] = int(measure(args, result))
            except Exception:  # a changed signature must not fail the traced call
                span[NBYTES] = 0
        return result

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        call = self.call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(nid, fn, args, kwargs)

        return wrapper

    def write(self, path) -> None:
        """Spans as JSON: names, then [name, parent, start_us, end_us, bytes] rows
        with times relative to the first span."""
        t0 = self.spans[0][START] if self.spans else 0
        rows = [[s[NAME], s[PARENT], (s[START] - t0) / 1e3, (s[END] - t0) / 1e3, s[NBYTES]]
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start_us", "end_us", "bytes"],
                       "names": self.names, "spans": rows}, fh, separators=(",", ":"))


def install(tracer: Tracer) -> list[str]:
    """Wrap every public function of the imported prediagnose modules at every
    module-global binding; returns the wrapped span names."""
    prefix = PACKAGE + "."
    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith(prefix) and m is not None]
    wrappers = {}
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if not isinstance(obj, types.FunctionType) or obj.__name__.startswith("_"):
                continue
            if not obj.__module__.startswith(prefix):
                continue
            name = f"{obj.__module__[len(prefix):]}.{obj.__name__}"
            if name in SKIP:
                continue
            if obj not in wrappers:
                wrappers[obj] = tracer.wrap(name, obj)
            setattr(mod, attr, wrappers[obj])
    return sorted(tracer.names)


def roots(spans) -> list[int]:
    """Index of each span's root span."""
    out = []
    for i, s in enumerate(spans):
        out.append(i if s[PARENT] < 0 else out[s[PARENT]])
    return out


def self_ns(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def function_stats(tracer: Tracer, lo: int = 0, hi: int | None = None) -> dict[str, dict]:
    """Per span name over spans[lo:hi]: calls, inclusive ms, self ms and MB moved.

    The slice must hold whole command trees (no span in it may have its
    parent before lo).
    """
    spans = tracer.spans[lo:hi]
    rebased = [[s[NAME], s[PARENT] - lo if s[PARENT] >= 0 else -1, s[START], s[END], s[OUTER],
                s[NBYTES]] for s in spans]
    selfs = self_ns(rebased)
    stats: dict[str, dict] = {}
    for s, own in zip(rebased, selfs):
        st = stats.setdefault(tracer.names[s[NAME]], {"calls": 0, "ms": 0.0, "self_ms": 0.0, "mb": 0.0})
        st["calls"] += 1
        if s[OUTER]:
            st["ms"] += (s[END] - s[START]) / 1e6
        st["self_ms"] += own / 1e6
        st["mb"] += s[NBYTES] / 1e6
    return stats
