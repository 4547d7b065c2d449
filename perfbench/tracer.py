"""In-memory spans and counters for the traced benchmark run.

Spans are recorded only around the benchmark's own calls into trisemi's
public functions; nothing inside the package is instrumented.  Each span
keeps its name, start, end and the index of its parent span, so self
time (duration minus the time covered by child spans) can be derived
after the run.  The untraced run uses ``NullTracer``, whose ``call`` is a
plain forwarding call.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class NullTracer:
    on = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def op(self, kind):
        return contextlib.nullcontext()

    def add(self, name, n=1):
        pass

    def high(self, name, value):
        pass


class Tracer:
    on = True

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: dict[str, int] = defaultdict(int)
        self.highs: dict[str, int] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent)

    def call(self, name, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def op(self, kind):
        return _Span(self, f"op.{kind}")

    def add(self, name, n=1):
        self.counts[name] += n

    def high(self, name, value):
        self.highs[name] = max(value, self.highs.get(name, value))

    def summary(self) -> dict:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out

    def dump(self) -> list:
        return [list(s) for s in self.spans]


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False
