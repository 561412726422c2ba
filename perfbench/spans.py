"""In-memory span tracer for the benchmark's traced run.

A span is one call of a wrapped function.  Spans nest: a span's self time
is its duration minus the durations of the spans it directly encloses, so
the self times of all spans add up to the time covered by outermost spans.
Only per-name aggregates are kept (calls, self time, inclusive time and
named counters), which is all the per-layer metrics need.

Wrappers are installed by rebinding every reference to the original
function in the given modules: module globals (which covers
`from x import f` copies) and dicts held in module globals (which covers
dispatch tables built at import time).  `uninstall` puts the originals
back.
"""

from __future__ import annotations

import time


class Stat:
    """Aggregate of every span recorded under one name."""

    __slots__ = ("calls", "self_s", "total_s", "counts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.counts = {}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.root_s = 0.0  # summed duration of outermost spans
        self._stack: list[float] = []  # child time of each open span
        self._undo: list = []

    def wrap(self, name, fn, count=None):
        """A traced stand-in for fn.  `count(counts, args, result)` runs inside
        the span after a successful call and updates the named counters."""
        stat = self.stats.setdefault(name, Stat())
        stack, clock = self._stack, self.clock

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(stat.counts, args, result)
                return result
            finally:
                dur = clock() - t0
                child = stack.pop()
                stat.calls += 1
                stat.self_s += dur - child
                stat.total_s += dur
                if stack:
                    stack[-1] += dur
                else:
                    self.root_s += dur

        traced.__wrapped__ = fn
        return traced

    def install(self, modules, name, fn, count=None):
        """Rebind every reference to fn found in the modules' globals, and in
        dicts held by those globals, to a traced wrapper."""
        wrapper = self.wrap(name, fn, count)
        found = 0
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is fn:
                    self._rebind(namespace, key, wrapper)
                    found += 1
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if v is fn:
                            self._rebind(value, k, wrapper)
                            found += 1
        if not found:
            raise LookupError(f"no reference to {name} found to trace")
        return wrapper

    def _rebind(self, mapping, key, wrapper):
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = wrapper

    def uninstall(self):
        while self._undo:
            mapping, key, original = self._undo.pop()
            mapping[key] = original

    def harness_s(self, wall_s: float) -> float:
        """Traced wall time that no span covers."""
        return wall_s - self.root_s
