"""End-to-end observability: staged spans, metrics, structured logging.

The package has three members, each usable on its own:

``repro.observability.tracing``
    Lightweight spans (monotonic wall time plus :class:`~repro.clock.
    VirtualClock` virtual time, tags, parent links) recorded into a bounded
    in-process :class:`~repro.observability.tracing.TraceBuffer` and
    exportable as JSONL for offline critical-path analysis.  Tracing is
    *disabled by default* and the disabled path is a single module-level
    boolean check returning a shared no-op span, so tracing off costs
    next to nothing.

``repro.observability.metrics``
    Registries of counters, gauges and fixed-bucket latency histograms
    with an associative ``merge()`` contract: a process-wide one (pool
    and lock-wait metrics) and one per resident service, which records
    every request, batch, flush and folded ``RunDiagnostics`` part and
    whose view is the ``stats`` answer.  Merged, the two render the
    Prometheus-style text exposition of the daemon's ``metrics``
    request.

``repro.observability.log``
    One structured JSON logger (single-line JSON events with consistent
    event names and ``trace_id`` fields) layered on stdlib ``logging`` so
    existing handlers and test capture keep working.

Trace identifiers are minted per CLI run / per service request and carried
through the wire protocol, the admission batcher and pool task messages;
see ``docs/architecture.md`` ("Observability") for the span taxonomy.
"""

from __future__ import annotations

from repro.observability import log, metrics, tracing
from repro.observability.log import get_logger
from repro.observability.metrics import MetricsRegistry, get_registry
from repro.observability.tracing import (
    TraceBuffer,
    current_trace_id,
    disable_tracing,
    enable_tracing,
    mint_trace_id,
    set_trace_id,
    span,
    tracing_enabled,
)

__all__ = [
    "MetricsRegistry",
    "TraceBuffer",
    "current_trace_id",
    "disable_tracing",
    "enable_tracing",
    "get_logger",
    "get_registry",
    "log",
    "metrics",
    "mint_trace_id",
    "set_trace_id",
    "span",
    "tracing",
    "tracing_enabled",
]
