"""Per-layer timing and counting for the traced benchmark run.

Spans are taken from outside the package: the benchmark times each call
it makes into a module's public functions, and counts the work that call
did from its inputs and outputs.  The package itself runs unchanged.

A span or count may carry a size tag such as ``j5``; it is then recorded
both under its plain name and under ``<name>.<tag>``.
"""

from __future__ import annotations

import time


class NullTracer:
    """Tracing off: calls go straight through and nothing is recorded."""

    enabled = False

    def call(self, name, fn, *args, tag=None, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n, tag=None):
        pass

    def maximum(self, name, value, tag=None):
        pass


class Tracer:
    """Tracing on: per-pass totals of span times (``<name>_s``, seconds)
    and of counts.  Spans never nest, because each one wraps a single call
    into the package."""

    enabled = True

    def __init__(self):
        self.times: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    def reset(self) -> None:
        self.times = {}
        self.counts = {}

    def call(self, name, fn, *args, tag=None, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            for key in _keys(name + "_s", tag):
                self.times[key] = self.times.get(key, 0.0) + elapsed

    def count(self, name, n, tag=None):
        for key in _keys(name, tag):
            self.counts[key] = self.counts.get(key, 0) + n

    def maximum(self, name, value, tag=None):
        for key in _keys(name, tag):
            self.counts[key] = max(self.counts.get(key, 0), value)


def _keys(name: str, tag: str | None) -> tuple[str, ...]:
    return (name,) if tag is None else (name, f"{name}.{tag}")
