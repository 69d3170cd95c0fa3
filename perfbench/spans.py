"""An in-memory span recorder that wraps public methods of live instances.

The benchmark traces the program from the outside: it replaces a bound
method on one instance (never on the class) with a timing wrapper, keeps
every span in a list, and derives each layer's exclusive (self) time as
its span minus the part of it that child spans cover.  Spans are written
out only when :meth:`SpanRecorder.dump` is called at the end of a run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass, field

from measure import self_time


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    children: list[int] = field(default_factory=list)


class SpanRecorder:
    """Records nested spans around wrapped methods (single-threaded use)."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, target, method: str, name: str, count=None) -> None:
        """Time every call of ``target.method`` as span *name*.

        *target* is an instance (the wrapper shadows the class's method
        on that instance only) or a module (the function is replaced
        until :meth:`unwrap_all`).  *count*, when given, maps the call's
        positional arguments to a number added to ``counts[name]``.
        """
        inner = getattr(target, method)
        own = vars(target).get(method)

        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return inner(*args, **kwargs)
            finally:
                self.close(index)
                if count is not None:
                    self.counts[name] += count(*args)

        setattr(target, method, traced)
        self._restore.append((target, method, own))

    def unwrap_all(self) -> None:
        """Remove every wrapper, so the targets run untraced again."""
        for target, method, own in reversed(self._restore):
            if own is None:
                delattr(target, method)
            else:
                setattr(target, method, own)
        self._restore.clear()

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, self.clock(), parent=parent))
        if parent is not None:
            self.spans[parent].children.append(index)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Exclusive seconds per span name, summed over all its spans."""
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            children = [
                (self.spans[c].start, self.spans[c].end) for c in span.children
            ]
            totals[span.name] += self_time(span.start, span.end, children)
        return dict(totals)

    def busy(self, name: str) -> float:
        """Inclusive seconds of every span called *name*."""
        return sum((s.end - s.start for s in self.spans if s.name == name), 0.0)

    def dump(self, path) -> None:
        """Write every span (offsets from the first) and the rollup as JSON."""
        origin = self.spans[0].start if self.spans else 0.0
        payload = {
            "spans": [
                {
                    "name": s.name,
                    "start_s": s.start - origin,
                    "end_s": s.end - origin,
                    "parent": s.parent,
                }
                for s in self.spans
            ],
            "self_seconds": self.self_times(),
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
