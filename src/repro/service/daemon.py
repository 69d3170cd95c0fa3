"""The resident annotation daemon: queue -> batcher -> corpus pass -> demux -> flush.

Two layers:

:class:`AnnotationService`
    The socket-free core: a request queue, the **drain-on-ready
    batcher**, one lifetime metrics registry (the ``stats`` answer is a
    view of it), and the cache-flush lifecycle.  The batcher blocks for
    a first ``annotate_table`` / ``annotate_cells`` request, takes what
    is already queued behind it (up to ``max_batch_tables``) without
    waiting, and runs them as one pooled
    :meth:`~repro.core.annotator.EntityAnnotator.annotate_batch` pass;
    each request gets exactly its own positional annotation back.
    Requests with different ``type_keys`` never share a pass (the
    Equation 1 vote is computed *over the requested types*); within a
    batch they form one sub-batch per distinct key set.

:class:`AnnotationDaemon`
    The socket layer: a threading Unix-domain stream server speaking the
    line protocol of :mod:`repro.service.protocol`, one handler thread
    per connection, all of them feeding the one shared service.  The
    requests that queue during one pass form the next, so N concurrent
    clients share corpus passes -- the pooled economics perfbench's
    ``service_open`` workload measures (``service.batch_size``).

Warmth lifecycle: the service warm-starts from ``cache_dir`` when given,
flushes back periodically (:class:`repro.persistence.PeriodicFlusher`)
and always once on shutdown -- the same merge-on-save advisory-locked
path CLI runs and pool workers use, so a daemon and a concurrent CLI run
can share one cache directory without losing entries (a lock timeout
degrades to a skipped save, never a hang).
"""

from __future__ import annotations

import os
import queue
import socket
import socketserver
import threading
import time
from dataclasses import dataclass

from repro.core.annotator import EntityAnnotator
from repro.core.results import SUMMED_FIELDS, RunDiagnostics, TableAnnotation
from repro.observability import metrics as obs_metrics
from repro.observability import tracing
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import span
from repro.persistence import PeriodicFlusher
from repro.service import protocol
from repro.service.protocol import (
    ANNOTATE_OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    Response,
)
from repro.tables.model import Table

HAVE_UNIX_SOCKETS = hasattr(socket, "AF_UNIX")
"""Unix-domain sockets are the daemon's transport; platforms without them
can still use :class:`AnnotationService` in process."""


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the resident service."""

    max_batch_tables: int = 32
    """Most requests pooled into one batch, bounding per-pass memory and
    demux latency; the rest wait for the next batch."""

    workers: int = 1
    """Worker processes for each pooled pass, forwarded to
    ``annotate_batch``; 1 (default) annotates in-process -- a process
    pool per batch only pays off for very large batches."""

    cache_dir: str | None = None
    """Warm-start source and flush target for the engine caches; ``None``
    keeps all warmth in memory."""

    flush_interval_seconds: float = 0.0
    """Periodic cache-flush interval while serving (0 = flush only on
    shutdown).  Needs *cache_dir*."""

    request_timeout_seconds: float = 300.0
    """How long a submitted request waits for its batch to complete
    before the service answers with an error (a liveness backstop, not a
    deadline the batcher aims for)."""

    def __post_init__(self) -> None:
        if self.max_batch_tables < 1:
            raise ValueError(
                f"max_batch_tables must be >= 1, got {self.max_batch_tables}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.flush_interval_seconds < 0:
            raise ValueError(
                "flush_interval_seconds must be >= 0, got "
                f"{self.flush_interval_seconds}"
            )


_STATS_VIEW = (
    ("requests", "service.batched_requests", int),
    ("batches", "service.batches", int),
    ("tables", "annotation.n_tables", int),
    ("cells", "annotation.n_cells", int),
    ("queries_issued", "annotation.queries_issued", int),
    ("cache_hits", "annotation.cache_hits", int),
    ("cache_misses", "annotation.cache_misses", int),
    ("search_failures", "annotation.search_failures", int),
    ("search_retries", "annotation.search_retries", int),
    ("breaker_opens", "annotation.breaker_opens", int),
    ("degraded_cells", "annotation.degraded_cells", int),
    ("repaired_cells", "annotation.repaired_cells", int),
    ("poisoned_requests", "service.poisoned_requests", int),
    ("flushes", "service.flushes", int),
    ("results_cache_hits", "annotation.results_cache_hits", int),
    ("results_cache_misses", "annotation.results_cache_misses", int),
    ("label_memo_hits", "annotation.label_memo_hits", int),
    ("label_memo_misses", "annotation.label_memo_misses", int),
    ("cache_loads", "annotation.cache_loads", int),
    ("cache_saves", "annotation.cache_saves", int),
    ("cache_load_bytes", "annotation.cache_load_bytes", int),
    ("cache_save_bytes", "annotation.cache_save_bytes", int),
    ("cache_lock_wait_seconds", "annotation.cache_lock_wait_seconds", float),
)
"""The ``stats`` answer's counters, in payload order: ``(key, registry
counter, JSON type)``.  ``requests`` counts annotation requests answered
by a pooled pass; the ``annotation.*`` counters are the service's folded
:class:`RunDiagnostics` parts, passes and cache IO outside them alike."""


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _error(answering: Request | Response, error: str) -> Response:
    """An ``ok: false`` answer carrying *error*, matched to *answering*."""
    return Response(ok=False, request_id=answering.request_id, error=error)


def _part(
    diagnostics: RunDiagnostics, counts: dict[str, int]
) -> MetricsRegistry:
    """A registry of one diagnostics part's counters plus *counts*, for
    :attr:`AnnotationService.registry` to merge under one lock hold (so no
    snapshot sees half of them)."""
    part = MetricsRegistry()
    for name in SUMMED_FIELDS:
        part.inc("annotation." + name, getattr(diagnostics, name))
    for name, amount in counts.items():
        part.inc(name, amount)
    return part


class _Pending:
    """One queued annotation request and the slot its answer lands in."""

    __slots__ = ("request", "table", "type_keys", "response", "done", "abandoned")

    def __init__(
        self, request: Request, table: Table, type_keys: tuple[str, ...]
    ) -> None:
        self.request = request
        self.table = table
        self.type_keys = type_keys
        self.response: Response | None = None
        self.done = threading.Event()
        self.abandoned = False
        """Set when the submitter gave up waiting (request timeout): the
        batcher drops abandoned entries at batch-assembly time instead of
        paying a pooled pass for an answer nobody will read."""

    def resolve(self, response: Response) -> None:
        self.response = response
        self.done.set()


class AnnotationService:
    """The daemon's core: drain-on-ready batching over one warm annotator.

    Thread-safe: any number of threads may :meth:`submit` concurrently;
    one batcher thread executes the pooled passes (the annotator and its
    engine are single-threaded by design), and the flush path serialises
    against it on the annotator lock.
    """

    def __init__(
        self, annotator: EntityAnnotator, config: ServiceConfig | None = None
    ) -> None:
        self.annotator = annotator
        self.config = config or ServiceConfig()
        self.registry = MetricsRegistry()
        """Every lifetime counter of this service: requests, batches,
        poisoned requests, flushes and each folded diagnostics part (as
        ``annotation.<RunDiagnostics field>``)."""
        self.started_at = time.monotonic()
        self._queue: queue.Queue[_Pending] = queue.Queue()
        self._pending_count = 0
        self._pending_lock = threading.Lock()
        self._running = threading.Event()
        self._draining = False
        self._annotator_lock = threading.Lock()
        self._batcher: threading.Thread | None = None
        self._flusher: PeriodicFlusher | None = None

    # -- lifecycle ----------------------------------------------------------------------

    def start(self) -> "AnnotationService":
        """Warm-start from the cache dir and start the batcher thread."""
        if self._batcher is not None:
            raise RuntimeError("service already started")
        if self.config.cache_dir is not None:
            # The warm start happens before the first pass, so no pass
            # diagnostics see it: it is measured as a part of its own.
            _, loaded = self.annotator.cache_io(self.config.cache_dir)
            self.registry.merge(_part(loaded, {}))
            if self.config.flush_interval_seconds > 0:
                self._flusher = PeriodicFlusher(
                    self.flush, self.config.flush_interval_seconds
                ).start()
        self._running.set()
        self._batcher = threading.Thread(
            target=self._batch_loop, name="annotation-batcher", daemon=True
        )
        self._batcher.start()
        return self

    def stop(self) -> None:
        """Stop the batcher, fail whatever is still queued, flush caches.

        The shutdown flush is the same merge-on-save path a graceful
        ``KeyboardInterrupt`` takes through the CLI and the parallel
        driver: whatever warmth this process accumulated is persisted
        (best-effort -- a lock timeout skips, never hangs).
        """
        if not self._running.is_set() and self._batcher is None:
            return
        self._draining = True
        self._running.clear()
        if self._batcher is not None:
            self._batcher.join(timeout=60.0)
            self._batcher = None
        while batch := self._next_batch(timeout=0.0):
            for pending in batch:
                pending.resolve(_error(pending.request, "service is shutting down"))
        if self._flusher is not None:
            self._flusher.stop(final_flush=False)
            self._flusher = None
        if self.config.cache_dir is not None:
            self.flush()

    def flush(self) -> dict[str, bool]:
        """Merge-save the annotator's caches to the cache dir, now."""
        if self.config.cache_dir is None:
            return {}
        with self._annotator_lock:
            saved, io = self.annotator.cache_io(self.config.cache_dir, save=True)
        self.registry.merge(_part(io, {"service.flushes": 1}))
        return saved

    def stats(self) -> dict:
        """The lifetime counters and their ratios, as the ``stats`` and
        ``shutdown`` answers report them: a view of one :attr:`registry`
        snapshot."""
        counters = self.registry.to_dict()["counters"]
        payload = {
            key: cast(counters.get(counter, 0))
            for key, counter, cast in _STATS_VIEW
        }
        payload["mean_batch_size"] = _ratio(
            payload["tables"], payload["batches"]
        )
        payload["coalescing_ratio"] = _ratio(
            payload["requests"], payload["batches"]
        )
        payload["warm_hit_rate"] = _ratio(
            payload["cache_hits"], payload["cache_hits"] + payload["cache_misses"]
        )
        return payload

    # -- request admission --------------------------------------------------------------

    def submit(self, request: Request) -> Response:
        """Answer one request (blocking; annotation ops wait for their batch).

        Every request is measured into :attr:`registry` (a counter per op
        plus latency histograms -- the surface the ``metrics`` op exposes)
        and, when tracing is enabled, wrapped in a
        ``service.request`` span tagged with the caller's ``trace_id``.
        """
        t0 = time.perf_counter()
        if request.trace_id is not None:
            tracing.set_trace_id(request.trace_id)
        try:
            with span(
                "service.request", op=request.op, request_id=request.request_id
            ):
                response = self._submit(request)
        finally:
            if request.trace_id is not None:
                tracing.set_trace_id(None)
        elapsed = time.perf_counter() - t0
        registry = self.registry
        registry.inc("service.requests")
        registry.inc(f"service.requests.{request.op}")
        if not response.ok:
            registry.inc("service.request_errors")
        registry.observe("service.request_latency_seconds", elapsed)
        if request.op in ANNOTATE_OPS:
            registry.observe("service.annotate_latency_seconds", elapsed)
        return response

    def _submit(self, request: Request) -> Response:
        handler = {
            "ping": self._ping,
            "stats": self._stats_snapshot,
            "metrics": self._metrics,
            "shutdown": self._shutdown,
        }.get(request.op)
        if handler is not None:
            return handler(request)
        if request.op not in ANNOTATE_OPS:
            return _error(request, f"unknown operation {request.op!r}")
        if self._draining or not self._running.is_set():
            return _error(request, "service is shutting down")
        try:
            pending = _Pending(
                request,
                protocol.table_for_request(request),
                protocol.request_type_keys(request),
            )
        except ProtocolError as error:
            return _error(request, str(error))
        with self._pending_lock:
            self._pending_count += 1
        try:
            self._queue.put(pending)
            if not pending.done.wait(
                timeout=self.config.request_timeout_seconds
            ):
                pending.abandoned = True
                return _error(
                    request,
                    "request timed out after "
                    f"{self.config.request_timeout_seconds:.0f}s",
                )
        finally:
            with self._pending_lock:
                self._pending_count -= 1
        assert pending.response is not None
        return pending.response

    def _ping(self, request: Request) -> Response:
        return Response(
            ok=True,
            request_id=request.request_id,
            result={
                "version": PROTOCOL_VERSION,
                "pid": os.getpid(),
                "uptime_seconds": time.monotonic() - self.started_at,
            },
        )

    def _stats_snapshot(self, request: Request) -> Response:
        payload = self.stats()
        payload["uptime_seconds"] = time.monotonic() - self.started_at
        payload["max_batch_tables"] = self.config.max_batch_tables
        # Where this daemon's frozen index lives ("memory": a private
        # in-process copy; "mmap": an artifact mapping shared zero-copy
        # with every other process that opened it).
        payload["index_backend"] = self.annotator.engine.index.backend_name
        return Response(ok=True, request_id=request.request_id, result=payload)

    def _metrics(self, request: Request) -> Response:
        """This service's registry merged with the process-wide one (pool
        and lock-wait metrics), as Prometheus text exposition."""
        with self._pending_lock:
            depth = self._pending_count
        self.registry.set_gauge("service.pending_requests", depth)
        self.registry.set_gauge(
            "service.uptime_seconds", time.monotonic() - self.started_at
        )
        merged = MetricsRegistry.merged(
            [obs_metrics.get_registry(), self.registry]
        )
        return Response(
            ok=True,
            request_id=request.request_id,
            result={"exposition": merged.render_prometheus()},
        )

    def _shutdown(self, request: Request) -> Response:
        """Drain the queue, flush, and confirm -- the daemon closes after."""
        self._draining = True
        deadline = time.monotonic() + 60.0
        while self._pending_count and time.monotonic() < deadline:
            time.sleep(0.02)
        saved = self.flush() if self.config.cache_dir is not None else {}
        return Response(
            ok=True,
            request_id=request.request_id,
            result={
                "saved": {k: bool(v) for k, v in saved.items()},
                "stats": self.stats(),
            },
        )

    # -- the batcher ------------------------------------------------------------------

    def _batch_loop(self) -> None:
        """Run batches until stopped: take one, run its pooled pass, demux."""
        while self._running.is_set():
            batch = self._next_batch(timeout=0.1)
            if batch:
                self._process(batch)

    def _next_batch(self, timeout: float) -> list[_Pending]:
        """Block up to *timeout* seconds for a first request, then take,
        without waiting, whatever is already queued behind it, up to
        ``max_batch_tables``; ``[]`` when nothing arrived."""
        try:
            batch = [self._queue.get(timeout=timeout)]
        except queue.Empty:
            return []
        while len(batch) < self.config.max_batch_tables:
            try:
                batch.append(self._queue.get_nowait())
            except queue.Empty:
                break
        return batch

    def _process(self, batch: list[_Pending]) -> None:
        """One batch: one pooled pass per distinct ``type_keys`` group."""
        # A submitter that timed out already returned an error; paying a
        # corpus pass (and counting a request in the stats) for it would
        # only delay the live requests behind the annotator lock.
        batch = [pending for pending in batch if not pending.abandoned]
        groups: dict[tuple[str, ...], list[_Pending]] = {}
        for pending in batch:
            groups.setdefault(pending.type_keys, []).append(pending)
        for type_keys, group in groups.items():
            self._annotate_group(group, list(type_keys))

    def _annotate_group(
        self,
        group: list[_Pending],
        type_keys: list[str],
        bisect_depth: int = 0,
    ) -> None:
        """One pooled pass, with batch-poison isolation on failure.

        Micro-batching's sharp edge: one malformed request pooled with
        nine healthy ones must not fail all ten.  When a pooled pass
        raises, the group is bisected and each half retried, recursively,
        until the offending request is alone -- *it* gets a structured
        error response (and counts as ``poisoned_requests``), everyone
        else is served by the successful sub-passes.  A healthy batch
        costs zero extra passes; a single poison among N costs
        O(log N) extra pooled passes.

        With tracing enabled, each pooled pass is one ``service.batch``
        span tagged with every coalesced request's ``trace_id`` -- the
        bisection retries show up as further ``service.batch`` spans with
        increasing ``bisect_depth``, so a poisoned batch's recovery path
        is visible as linked retry spans in the exported trace.
        """
        trace_ids = [
            pending.request.trace_id
            for pending in group
            if pending.request.trace_id
        ]
        tracing.set_trace_id(trace_ids[0] if trace_ids else None)
        batch_t0 = time.perf_counter()
        try:
            with span(
                "service.batch",
                n_requests=len(group),
                type_keys=list(type_keys),
                trace_ids=trace_ids,
                bisect_depth=bisect_depth,
            ):
                with self._annotator_lock:
                    result = self.annotator.annotate_batch(
                        [pending.table for pending in group],
                        type_keys,
                        workers=self.config.workers,
                    )
        except Exception as error:  # answer, never kill the batcher
            self.registry.inc("service.batch_failures")
            if len(group) == 1:
                pending = group[0]
                self.registry.inc("service.poisoned_requests")
                pending.resolve(_error(pending.request, f"annotation failed: {error}"))
                return
            middle = len(group) // 2
            self._annotate_group(group[:middle], type_keys, bisect_depth + 1)
            self._annotate_group(group[middle:], type_keys, bisect_depth + 1)
            return
        finally:
            tracing.set_trace_id(None)
        part = _part(
            result.diagnostics,
            {"service.batches": 1, "service.batched_requests": len(group)},
        )
        part.observe(
            "service.batch_latency_seconds", time.perf_counter() - batch_t0
        )
        self.registry.merge(part)
        for pending, annotation in zip(group, result.annotations):
            pending.resolve(self._respond(pending, annotation))

    def _respond(
        self, pending: _Pending, annotation: TableAnnotation
    ) -> Response:
        result: dict = {
            "annotation": protocol.annotation_to_payload(annotation)
        }
        if pending.request.op == "annotate_cells":
            result["cells"] = protocol.cell_decisions(
                annotation, pending.table.n_rows
            )
        return Response(
            ok=True, request_id=pending.request.request_id, result=result
        )


if HAVE_UNIX_SOCKETS:

    class _UnixServer(socketserver.ThreadingUnixStreamServer):
        daemon_threads = True
        request_queue_size = 128  # a burst of clients must not hit EAGAIN
        service: AnnotationService

        def initiate_shutdown(self) -> None:
            """Stop ``serve_forever`` without blocking the calling handler."""
            threading.Thread(target=self.shutdown, daemon=True).start()


class _ConnectionHandler(socketserver.StreamRequestHandler):
    """One client connection: line in, line out, any number of requests."""

    def handle(self) -> None:
        try:
            while True:
                try:
                    line = protocol.read_line(self.rfile)
                except ProtocolError as error:  # over-long: cannot re-frame
                    self._write(Response(ok=False, error=str(error)))
                    return
                if not line:
                    return
                line = line.strip()
                if not line:
                    continue
                try:
                    request = protocol.decode_request(line)
                except ProtocolError as error:
                    # Malformed line (bad JSON, missing op): structured
                    # error back, connection stays usable.
                    self._write(Response(ok=False, error=str(error)))
                    continue
                response = self.server.service.submit(request)  # type: ignore[attr-defined]
                self._write(response)
                if request.op == "shutdown" and response.ok:
                    self.server.initiate_shutdown()  # type: ignore[attr-defined]
                    return
        except (ConnectionError, socket.timeout):
            # A client that vanished mid-request (reset, broken pipe)
            # takes down its own handler thread only -- the daemon and
            # every other connection keep serving.
            return

    def _write(self, response: Response) -> None:
        line = protocol.encode_response(response)
        if len(line) > protocol.MAX_LINE_BYTES:
            # The client could not frame it: answer an error in its place,
            # so the connection stays usable.
            too_long = f"response longer than {protocol.MAX_LINE_BYTES} bytes"
            line = protocol.encode_response(_error(response, too_long))
        try:
            self.wfile.write(line)
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):  # client went away
            pass


class AnnotationDaemon:
    """The socket daemon: one warm annotator served over a Unix socket.

    Construction binds the socket (stale socket files are replaced), so a
    client may connect the moment the constructor returns;
    :meth:`serve_forever` blocks in the accept loop,
    :meth:`start_background` runs it on a thread (tests, benchmarks, and
    in-process embedding).  Shutdown -- via a client ``shutdown`` request,
    :meth:`close`, or ``KeyboardInterrupt`` in the serving thread --
    always runs the service's drain-and-flush path before the socket file
    is removed.
    """

    def __init__(
        self,
        annotator: EntityAnnotator,
        socket_path,
        config: ServiceConfig | None = None,
    ) -> None:
        if not HAVE_UNIX_SOCKETS:  # pragma: no cover - non-POSIX platforms
            raise RuntimeError(
                "AnnotationDaemon needs Unix-domain sockets; use "
                "AnnotationService in-process instead"
            )
        self.socket_path = str(socket_path)
        self.service = AnnotationService(annotator, config)
        self._replace_stale_socket()
        self.server = _UnixServer(self.socket_path, _ConnectionHandler)
        self.server.service = self.service
        try:
            self._socket_inode = os.stat(self.socket_path).st_ino
        except OSError:  # pragma: no cover - raced removal
            self._socket_inode = None
        self._thread: threading.Thread | None = None

    def _replace_stale_socket(self) -> None:
        """Unlink a *stale* socket file; refuse to steal a live daemon's.

        A previous daemon that crashed leaves its socket file behind
        (connecting is refused) -- replace it.  A file another daemon is
        actively serving on must not be silently unlinked: that would
        split clients between two daemons and let this one's teardown
        delete the other's socket.
        """
        if not os.path.exists(self.socket_path):
            return
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.settimeout(1.0)
            try:
                probe.connect(self.socket_path)
            except OSError:
                os.unlink(self.socket_path)  # stale: nobody is serving
                return
        finally:
            probe.close()
        raise RuntimeError(
            f"a daemon is already serving on {self.socket_path}; "
            "shut it down first or pick another --socket path"
        )

    def serve_forever(self) -> None:
        """Serve until a shutdown request or :meth:`close` (blocking)."""
        self.service.start()
        try:
            self.server.serve_forever(poll_interval=0.1)
        finally:
            self._teardown()

    def start_background(self) -> "AnnotationDaemon":
        """Serve on a daemon thread; returns once requests can be answered."""
        if self._thread is not None:
            raise RuntimeError("daemon already started")
        self.service.start()
        self._thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="annotation-daemon",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving (idempotent): drain, flush, remove the socket file."""
        if self._thread is not None:
            self.server.shutdown()
            self._thread.join(timeout=30.0)
            self._thread = None
        self._teardown()

    def _teardown(self) -> None:
        self.service.stop()
        self.server.server_close()
        try:
            # Remove only *our own* socket file: if another process has
            # since replaced it (a hijack we could not prevent, or an
            # operator cleaning up by hand), the inode no longer matches
            # and the file is theirs to manage.
            if os.stat(self.socket_path).st_ino == self._socket_inode:
                os.unlink(self.socket_path)
        except OSError:  # pragma: no cover - already removed
            pass

    def __enter__(self) -> "AnnotationDaemon":
        return self.start_background()

    def __exit__(self, *exc_info) -> None:
        self.close()
