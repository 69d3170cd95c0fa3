"""Lightweight staged spans with a bounded in-process trace buffer.

Spans measure monotonic wall time (``time.perf_counter``) and — when a
:class:`~repro.clock.VirtualClock` is registered via :func:`set_clock` —
the virtual seconds charged while the span was open, so latency-dominated
stages (``search.search_many``) report the same cost model as the paper's
Section 6.4 accounting.

Tracing is disabled by default.  The disabled path is::

    def span(name, **tags):
        if not _enabled:
            return _NOOP_SPAN
        ...

one module-level boolean check plus a shared no-op context manager
(perfbench reports what tracing *on* costs as ``trace.overhead_ratio``).
Instrumentation therefore never perturbs byte-identical parity: spans only
*observe* wall/virtual time, they never feed back into annotation
decisions.

Span records are plain dicts appended to a bounded :class:`TraceBuffer`
(a ``deque(maxlen=...)``: old spans fall off rather than growing without
bound inside a resident daemon).  :meth:`TraceBuffer.export_jsonl` writes
one JSON object per line for offline critical-path / flamegraph analysis;
``repro.cli trace`` summarises such a file into a per-stage breakdown.

Trace identifiers
-----------------
A ``trace_id`` is minted per CLI run (:func:`mint_trace_id` from
``repro.cli``) or per service request (``service/client.py``) and carried
through the wire protocol, the admission batcher and pool task messages.
The *current* trace id is thread-local with a process-wide default, so a
daemon connection handler tags its request spans without racing the batch
loop, while a single-threaded CLI run needs only the default.

Cross-process spans (pool workers) are recorded into the worker's own
buffer and shipped home inside the ``("done", ...)`` message; the parent
splices them into its buffer unchanged.  Span ids embed the pid so worker
spans never collide with parent spans.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
import uuid
from collections import deque
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "TraceBuffer",
    "current_trace_id",
    "disable_tracing",
    "enable_tracing",
    "get_buffer",
    "mint_trace_id",
    "record_span",
    "set_clock",
    "set_trace_id",
    "span",
    "tracing_enabled",
]

DEFAULT_BUFFER_SPANS = 65536

_enabled = False
_clock: Any = None
_ids = itertools.count(1)


def mint_trace_id() -> str:
    """Return a fresh, globally unique trace identifier."""
    return uuid.uuid4().hex[:16]


class _TraceState(threading.local):
    """Per-thread span stack and trace-id override."""

    def __init__(self) -> None:
        self.stack: List[str] = []
        self.trace_id: Optional[str] = None


_state = _TraceState()
_default_trace_id: Optional[str] = None


class TraceBuffer:
    """Bounded, thread-safe buffer of finished span records."""

    def __init__(self, max_spans: int = DEFAULT_BUFFER_SPANS) -> None:
        self._spans: deque = deque(maxlen=max_spans)
        self._lock = threading.Lock()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._spans)

    def append(self, record: Dict[str, Any]) -> None:
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                self.dropped += 1
            self._spans.append(record)

    def extend(self, records: Iterable[Dict[str, Any]]) -> None:
        with self._lock:
            for record in records:
                if len(self._spans) == self._spans.maxlen:
                    self.dropped += 1
                self._spans.append(record)

    def snapshot(self) -> List[Dict[str, Any]]:
        """Return a copy of the buffered spans (oldest first)."""
        with self._lock:
            return list(self._spans)

    def drain(self) -> List[Dict[str, Any]]:
        """Return and remove every buffered span."""
        with self._lock:
            spans = list(self._spans)
            self._spans.clear()
            return spans

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0

    def export_jsonl(self, path: str) -> int:
        """Write one JSON object per span to *path*; return the count."""
        spans = self.snapshot()
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in spans:
                handle.write(json.dumps(record, sort_keys=True))
                handle.write("\n")
        return len(spans)


_buffer = TraceBuffer()


def get_buffer() -> TraceBuffer:
    """The process-wide span buffer."""
    return _buffer


def tracing_enabled() -> bool:
    return _enabled


def enable_tracing(
    trace_id: Optional[str] = None, max_spans: Optional[int] = None
) -> str:
    """Turn span recording on; returns the active default trace id."""
    global _enabled, _default_trace_id, _buffer
    if max_spans is not None and max_spans != _buffer._spans.maxlen:
        _buffer = TraceBuffer(max_spans)
    _default_trace_id = trace_id or _default_trace_id or mint_trace_id()
    _enabled = True
    return _default_trace_id


def disable_tracing() -> None:
    global _enabled
    _enabled = False


def set_clock(clock: Any) -> None:
    """Register a VirtualClock so spans also record virtual seconds."""
    global _clock
    _clock = clock


def set_trace_id(trace_id: Optional[str]) -> None:
    """Set this thread's trace id (``None`` restores the process default)."""
    _state.trace_id = trace_id


def current_trace_id() -> Optional[str]:
    return _state.trace_id or _default_trace_id


def _next_span_id() -> str:
    return f"{os.getpid():x}-{next(_ids):x}"


class _NoopSpan:
    """Shared do-nothing span used whenever tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False

    def tag(self, **tags: Any) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class _LiveSpan:
    __slots__ = (
        "name",
        "tags",
        "span_id",
        "parent_id",
        "trace_id",
        "_t0",
        "_wall0",
        "_virtual0",
    )

    def __init__(self, name: str, tags: Dict[str, Any]) -> None:
        self.name = name
        self.tags = tags
        self.span_id = _next_span_id()
        self.parent_id: Optional[str] = None
        self.trace_id: Optional[str] = None
        self._t0 = 0.0
        self._wall0 = 0.0
        self._virtual0 = 0.0

    def __enter__(self) -> "_LiveSpan":
        stack = _state.stack
        self.parent_id = stack[-1] if stack else None
        self.trace_id = current_trace_id()
        stack.append(self.span_id)
        self._t0 = time.time()
        if _clock is not None:
            self._virtual0 = _clock.elapsed_seconds
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        wall = time.perf_counter() - self._wall0
        stack = _state.stack
        if stack and stack[-1] == self.span_id:
            stack.pop()
        record = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "pid": os.getpid(),
            "t0": self._t0,
            "wall_seconds": wall,
            "status": "error" if exc_type is not None else "ok",
        }
        if _clock is not None:
            record["virtual_seconds"] = _clock.elapsed_seconds - self._virtual0
        if self.tags:
            record["tags"] = self.tags
        _buffer.append(record)
        return False

    def tag(self, **tags: Any) -> None:
        """Attach extra tags after the span has been opened."""
        self.tags.update(tags)


def span(name: str, **tags: Any):
    """Open a span context manager; a shared no-op when tracing is off."""
    if not _enabled:
        return _NOOP_SPAN
    return _LiveSpan(name, tags)


def record_span(
    name: str,
    wall_seconds: float,
    *,
    status: str = "ok",
    trace_id: Optional[str] = None,
    parent_id: Optional[str] = None,
    t0: Optional[float] = None,
    virtual_seconds: Optional[float] = None,
    **tags: Any,
) -> None:
    """Record an already-measured span (e.g. an aborted worker task).

    The crash-tolerant pool uses this from the *parent* side when a worker
    dies mid-task: the worker's own span never closed, so the parent
    synthesises an ``aborted`` span from its dispatch bookkeeping instead
    of leaking an open span.
    """
    if not _enabled:
        return
    record = {
        "name": name,
        "trace_id": trace_id if trace_id is not None else current_trace_id(),
        "span_id": _next_span_id(),
        "parent_id": parent_id,
        "pid": os.getpid(),
        "t0": t0 if t0 is not None else time.time(),
        "wall_seconds": wall_seconds,
        "status": status,
    }
    if virtual_seconds is not None:
        record["virtual_seconds"] = virtual_seconds
    if tags:
        record["tags"] = tags
    _buffer.append(record)


def reset_tracing() -> None:
    """Disable tracing and clear all buffered state (test helper)."""
    global _enabled, _default_trace_id, _clock
    _enabled = False
    _default_trace_id = None
    _clock = None
    _buffer.clear()
    _state.stack = []
    _state.trace_id = None


def summarize(spans: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Aggregate span records into a per-stage breakdown.

    Returns one row per span name, sorted by total wall seconds
    descending: ``{"name", "count", "wall_seconds", "virtual_seconds",
    "mean_seconds", "errors", "aborted"}``.
    """
    stages: Dict[str, Dict[str, Any]] = {}
    for record in spans:
        row = stages.setdefault(
            record["name"],
            {
                "name": record["name"],
                "count": 0,
                "wall_seconds": 0.0,
                "virtual_seconds": 0.0,
                "errors": 0,
                "aborted": 0,
            },
        )
        row["count"] += 1
        row["wall_seconds"] += float(record.get("wall_seconds", 0.0))
        row["virtual_seconds"] += float(record.get("virtual_seconds", 0.0) or 0.0)
        status = record.get("status", "ok")
        if status == "error":
            row["errors"] += 1
        elif status == "aborted":
            row["aborted"] += 1
    rows = sorted(stages.values(), key=lambda r: -r["wall_seconds"])
    for row in rows:
        row["mean_seconds"] = row["wall_seconds"] / row["count"] if row["count"] else 0.0
    return rows
