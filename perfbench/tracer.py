"""In-memory span tracer for traced benchmark runs.

``install`` rebinds every function listed in a gwidiv module's ``__all__``,
in every gwidiv namespace that binds it, to a wrapper that records a span.
The modules import each other with ``from .x import f``, so rebinding all
namespaces captures the library's real call tree, and self time (duration
minus the time covered by child spans) is exact per function.  Nothing in
the library changes; the wrappers live only in the traced process.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("params", "recursions", "fixed_point", "closed_form", "entropy",
          "diffusion", "decisions", "oracle", "cli")

#: spans kept for the span file; further calls are still counted and timed
MAX_SPANS = 200_000


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


#: per-function work counts, from the call's arguments and result
WORK = {
    "recursions.run_recursion": lambda a, k, r: _arg(a, k, 4, "n"),
    "oracle.path_law_atoms": lambda a, k, r: len(r.log_z),
    "oracle.mc_log_hellinger": lambda a, k, r: _arg(a, k, 4, "reps"),
}


class Tracer:
    """Spans (id, parent, query, name, start, end) plus per-name totals."""

    def __init__(self, keep_durations=()):
        self.stack: list[list] = []  # [span id, time covered by children]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0, 0])
        self.durations: dict[str, list[float]] = {name: [] for name in keep_durations}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.query = 0
        self._next_id = 1

    def call(self, name, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self.stack[-1][0] if self.stack else 0
        frame = [span_id, 0.0]
        self.stack.append(frame)
        failed = True
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            end = time.perf_counter()
            self.stack.pop()
            duration = end - start
            if self.stack:
                self.stack[-1][1] += duration
            # calls, busy seconds, self seconds, failed calls, work count
            st = self.stats[name]
            st[0] += 1
            st[1] += duration
            st[2] += duration - frame[1]
            st[3] += failed
            if not failed and name in WORK:
                st[4] += WORK[name](args, kwargs, result)
            if name in self.durations:
                self.durations[name].append(duration)
            if len(self.spans) < MAX_SPANS:
                self.spans.append((span_id, parent, self.query, name, start, end))
            else:
                self.dropped += 1

    def p50(self, name: str) -> float:
        values = self.durations.get(name)
        return statistics.median(values) if values else 0.0

    def write(self, path) -> None:
        """Write the per-function table and the kept spans as JSON lines."""
        with open(path, "w") as out:
            for name, (calls, busy, self_s, failed, work) in sorted(self.stats.items()):
                out.write(json.dumps({"function": name, "calls": calls, "busy_ms": busy * 1e3,
                                      "self_ms": self_s * 1e3, "failed": failed,
                                      "work": work}) + "\n")
            for span_id, parent, query, name, start, end in self.spans:
                out.write(json.dumps({"span": span_id, "parent": parent, "query": query,
                                      "name": name, "start": start, "end": end}) + "\n")
            if self.dropped:
                out.write(json.dumps({"spans_not_kept": self.dropped}) + "\n")


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced


def install(tracer: Tracer) -> int:
    """Wrap every public function of every layer; returns the number wrapped."""
    modules = [sys.modules["gwidiv"]] + [sys.modules[f"gwidiv.{m}"] for m in LAYERS]
    wrappers = {}
    for module in modules[1:]:
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and id(fn) not in wrappers:
                layer = fn.__module__.rsplit(".", 1)[-1]
                wrappers[id(fn)] = _wrap(tracer, f"{layer}.{fn.__name__}", fn)
    for module in modules:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and id(value) in wrappers:
                setattr(module, attr, wrappers[id(value)])
    return len(wrappers)
