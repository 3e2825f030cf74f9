"""Span recorder that wraps the program's functions from outside.

A module that does `from .x import f` looks `f` up in its own namespace, so a
function is wrapped at every name its callers look up (for example
`mbo.generate_neighbor` and `pso.generate_neighbor`). A span is named after
the module that defines the function, which is the layer it belongs to.

Spans are kept in memory as [name, start, end, parent] and written once, when
the run ends. Calls are single-threaded and strictly nested, so a span's
children lie inside it and its self time is its duration minus theirs.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, suffix=None, observe=None):
        """Replace owner.attr with a span-recording wrapper.

        suffix(args, kwargs) -> str refines the span name with an argument;
        observe(recorder, args, kwargs, result) records counts after a call.
        """
        fn = getattr(owner, attr)
        layer = fn.__module__.rsplit(".", 1)[-1]
        base = f"{layer}.{fn.__qualname__}"
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = f"{base}[{suffix(args, kwargs)}]" if suffix else base
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def write(self, path):
        """One JSON line per span: name, start and end in seconds, parent index."""
        with Path(path).open("w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def per_span_cost(n: int = 20000) -> float:
    """Seconds the wrapper adds to one call, measured on a no-op function."""

    class Probe:
        @staticmethod
        def noop():
            return None

    def loop(f):
        t = time.perf_counter()
        for _ in range(n):
            f()
        return time.perf_counter() - t

    plain = min(loop(Probe.noop) for _ in range(3))
    rec = Recorder()
    rec.wrap(Probe, "noop")
    wrapped = min(loop(Probe.noop) for _ in range(3))
    return max(wrapped - plain, 0.0) / n


class SpanTree:
    """Durations, self times and ancestry over a slice of recorded spans."""

    def __init__(self, spans: list[list], first: int = 0, last: int | None = None):
        self.spans = spans
        self.ids = range(first, len(spans) if last is None else last)
        child_time = defaultdict(float)
        for i in self.ids:
            name, start, end, parent = spans[i]
            if parent >= 0:
                child_time[parent] += end - start
        self.self_time = {i: spans[i][2] - spans[i][1] - child_time[i] for i in self.ids}

    def named(self, name: str) -> list[int]:
        return [i for i in self.ids if self.spans[i][0] == name]

    def duration(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def total(self, name: str) -> float:
        return sum(self.duration(i) for i in self.named(name))

    def median_ms(self, name: str) -> float:
        d = [self.duration(i) * 1000.0 for i in self.named(name)]
        return statistics.median(d) if d else 0.0

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t for i, t in self.self_time.items() if self.spans[i][0].startswith(prefix))

    def under(self, i: int, ancestor_name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor_name:
                return True
            parent = self.spans[parent][3]
        return False
