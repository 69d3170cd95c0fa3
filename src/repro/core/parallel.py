"""Process-pool execution layer for corpus annotation.

``EntityAnnotator.annotate_batch(..., workers=N)`` distributes a corpus
across ``N`` worker processes.  Each worker holds a full copy of the
annotator (classifier, engine, config), optionally warm-starts from a
shared cache directory (under ``fork``, by inheriting the caches the
parent loaded before starting the pool), runs the annotator's one *raw
pass* over the tables of every task it pulls -- pre-processing, pooled
resolution and repair, no post-processing -- and merge-saves its caches
back once at the end of the run (so no worker's save discards another's
entries -- see :mod:`repro.persistence`).  A table is the unit of work:
post-processing (Equation 2) and spatial disambiguation both read a
whole table, so a task is a contiguous run of whole tables and ships
home one raw annotation per table, in table order.  The parent extends
one list with them in task order -- so it lines up with the corpus by
*position*, never by name, and two distinct tables sharing a name stay
apart -- and post-processes each table once against itself; the answer
is positional, exactly as ``workers=1`` answers.  The task diagnostics
fold into one corpus-wide view with per-worker load accounting
(:class:`~repro.core.results.WorkerLoad`).

The parent dispatches cost-bounded *chunk* tasks -- consecutive tables
packed until a cell-count budget is reached, a giant table travelling
alone -- and long-lived workers receive the next task the moment they
finish one (work stealing).  A skewed corpus (one 2,000-row table next to
hundreds of tiny ones, the shape real web-table corpora exhibit) keeps
every worker busy: whoever draws the giant table works it while the rest
drain the small chunks.  The budget is a function of the input only
(:func:`automatic_chunk_cost`).

The pool itself is hand-rolled (one duplex pipe per worker, parent-side
dispatch) rather than a ``ProcessPoolExecutor``, because the executor
declares the *whole pool* broken when any worker dies.  Here a worker
death is survivable by construction:

* the parent records exactly which task each worker holds in flight, so a
  crashed worker's task is identified without any acknowledgement
  protocol and **requeued** onto a fresh worker (the dead one is
  respawned), up to ``AnnotatorConfig.task_retries`` times;
* a task that keeps killing its workers -- a poison task -- is
  **quarantined**: the parent stops re-running it, marks every candidate
  cell of its tables *degraded* on the run
  (:class:`~repro.core.results.DegradedCell`, ``reason="worker-crash"``)
  and finishes the rest of the corpus;
* per-worker result pipes isolate crash damage: a worker killed mid-send
  corrupts only its own pipe, which the parent simply closes (after
  draining any complete messages that landed before the death, so a
  worker that finished its task and died idle never has its work redone).

``diagnostics.tasks_requeued`` / ``tasks_quarantined`` report what
happened.  With no crashes the dispatch order, results and accounting are
exactly the executor-based layer's, so annotations stay byte-identical to
the sequential run.

Worker state is established once per process.  Under the ``fork`` start
method the parent's annotator is inherited by reference (copy-on-write,
no serialisation at all); under ``spawn`` or ``forkserver`` a pickled
payload is shipped instead.  Either way every worker computes with an
identical copy of the classifier/engine state, so annotations are a pure
function of the task's tables -- which is why a pooled run is
byte-identical to the sequential path.  (Failure injection is
deterministic per (seed, query, occurrence), so even a flaky engine fails
the same queries inside a worker as the sequential run fails for each
query's first issue.)

The layer stays deliberately dumb about content: query deduplication
happens *within* a task (each worker runs the pooled raw pass over the
task's tables); a query string spanning two tasks is issued once per
task, which the merged diagnostics report honestly via
``queries_issued``.  Chunking is a pure function of the table shapes and
the worker count, so a given corpus always yields the same task list.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import signal
import sys
import time
from collections import deque
from dataclasses import replace
from multiprocessing import connection
from typing import TYPE_CHECKING, Callable, Sequence

try:  # POSIX rusage for per-worker RSS accounting; absent on some hosts.
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]

from repro.core.results import (
    BatchAnnotationResult,
    DegradedCell,
    RunDiagnostics,
    TableAnnotation,
    WorkerLoad,
)
from repro.observability import metrics as obs_metrics
from repro.observability import tracing
from repro.observability.log import get_logger
from repro.observability.tracing import span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (annotator imports us)
    from repro.core.annotator import EntityAnnotator
    from repro.tables.model import Table

_LOG = get_logger(__name__)

CHUNKS_PER_WORKER = 4
"""Automatic chunk sizing: aim for this many stealing tasks per worker."""

_FLUSH_TIMEOUT = 120.0
"""Upper bound on waiting for a worker's end-of-run cache flush; a worker
that cannot ack in time is abandoned (merge-on-save makes a lost flush
cost warmth, never correctness)."""

_WAIT_TICK = 1.0
"""Parent poll granularity while waiting for worker messages, seconds.
The common case is event-driven (process sentinels are waited on
alongside the pipes, so both results and deaths wake the parent
immediately); the tick only bounds exotic missed-wakeup cases."""

_STOP_JOIN_TIMEOUT = 5.0
"""Grace period for workers to exit after a stop command."""

# Fork-path handoff: the parent parks its annotator here for the duration
# of the run; forked children (including crash replacements spawned
# mid-run) inherit the reference and the parent clears it in a finally.
# Avoids pickling multi-megabyte engine state when the OS can
# copy-on-write it for free.
_FORK_PAYLOAD = None


def _start_method() -> str:
    """``fork`` on Linux (cheapest: copy-on-write, no pickling), else the
    platform default.  macOS lists ``fork`` as available but made ``spawn``
    the default for a reason -- forking after Apple's system libraries or
    a BLAS have spun up threads can abort or deadlock the child -- so
    everywhere but Linux the default start method is honoured."""
    if sys.platform.startswith("linux") and (
        "fork" in multiprocessing.get_all_start_methods()
    ):
        return "fork"
    return multiprocessing.get_start_method()


def _max_rss_kb() -> int:
    """This process's peak resident set size in KiB (0 when unknowable).

    ``ru_maxrss`` is kilobytes on Linux but *bytes* on macOS; normalised
    here so :class:`~repro.core.results.WorkerLoad` readers never have to
    care.  Fallback only: some Linux kernels let a child *inherit* the
    parent's ``ru_maxrss`` across ``spawn``, so a freshly started worker
    can report the parent's lifetime peak and every subsequent delta
    reads zero — prefer :func:`_current_rss_kb` where ``/proc`` exists.
    """
    if resource is None:  # pragma: no cover - non-POSIX platforms
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        peak //= 1024
    return int(peak)


def _current_rss_kb() -> int:
    """This process's *current* resident set size in KiB.

    Read from ``/proc/self/statm`` (field 2, resident pages) because it
    reflects this process alone, right now — unlike ``ru_maxrss``, which
    is a lifetime peak that spawn children may inherit from the parent.
    Deltas of this value are the honest "how much memory did attaching
    cost" number, and a running ``max`` of samples stands in for the
    peak.  Falls back to :func:`_max_rss_kb` where ``/proc`` is absent.
    """
    try:
        with open("/proc/self/statm") as handle:
            resident_pages = int(handle.read().split()[1])
        return resident_pages * (os.sysconf("SC_PAGE_SIZE") // 1024)
    except (OSError, ValueError, IndexError):  # pragma: no cover - no /proc
        return _max_rss_kb()


def _portable_error(error: BaseException) -> BaseException:
    """The error itself when it pickles, else a faithful stand-in."""
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return RuntimeError(f"{type(error).__name__}: {error}")


def _worker_main(
    conn, pickled_annotator: bytes | None, cache_dir, obs=None
) -> None:
    """Worker process loop: receive commands, ship results home.

    Commands (tuples, first element the kind): ``("task", index, tables,
    type_keys)`` runs the annotator's raw pass over the tables and answers
    ``("done", index, pid, result, busy_seconds, (peak_rss_kb,
    attach_seconds, attach_rss_kb, attach_io, spans))``
    -- *result* a :class:`~repro.core.results.BatchAnnotationResult`
    holding one raw annotation per table, in table order -- or ``("error",
    index, pid, error)``; ``("flush",)`` merge-saves the caches and answers
    ``("flushed", pid, diagnostics)``, *diagnostics* the save's cache IO
    as a :class:`RunDiagnostics` delta (or ``("flush-error", pid,
    error)``); ``("stop",)`` exits the loop.

    The trailing stats tuple makes the memory economics of the index
    backends and the cache warm start auditable: *attach_rss_kb* is how
    much resident memory this worker grew while materialising its annotator
    (unpickling under ``spawn``, near-zero under ``fork`` or when the
    engine's index is a shared mmap artifact) and loading caches;
    *attach_seconds* is how long that took; *peak_rss_kb* is the highest
    resident size sampled (at entry, after attach, after each task);
    *attach_io* is the warm start's cache IO as a :class:`RunDiagnostics`
    part -- the whole pickled cache files under ``spawn``, nothing under
    ``fork``, whose parent loaded them before starting the pool.

    *obs* is the parent's observability context, ``(tracing_enabled,
    trace_id)``: under ``spawn`` the module globals do not carry over, so
    the parent ships them explicitly (the fork path inherits them
    anyway, and re-enabling is idempotent).  With tracing on, the spans
    this worker recorded per task (element 4 of the stats tuple) ship
    home inside the ``done`` message; the parent splices them into its
    own :class:`~repro.observability.tracing.TraceBuffer`.
    """
    # A terminal Ctrl-C delivers SIGINT to the whole foreground process
    # group.  The *parent* owns interrupt handling (stop dispatching,
    # flush every worker's caches, re-raise); a worker that dies on its
    # own KeyboardInterrupt would lose exactly the warmth the graceful
    # path exists to save.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic hosts
        pass
    if obs is not None and obs[0]:
        tracing.enable_tracing(obs[1])
        tracing.get_buffer().clear()  # fork children inherit parent spans
    rss_at_entry = _current_rss_kb()
    attach_start = time.perf_counter()
    if pickled_annotator is None:
        annotator = _FORK_PAYLOAD  # inherited via fork
    else:
        annotator = pickle.loads(pickled_annotator)
    if annotator is None:  # pragma: no cover - defensive
        raise RuntimeError("worker started without an annotator payload")
    # Warm start from the shared cache directory.  A cold report is fine
    # (first worker ever, stale fingerprint, lock timeout): the caches are
    # an optimisation, never a correctness dependency.
    _, attach_io = annotator.cache_io(cache_dir)
    attach_seconds = time.perf_counter() - attach_start
    attach_rss_kb = max(0, _current_rss_kb() - rss_at_entry)
    # Sampled peak: entry, post-attach, then after every task.  A true
    # kernel peak (``ru_maxrss``) would be preferable, but spawn children
    # can inherit the parent's value on some kernels (see _max_rss_kb),
    # which poisons both the peak and every delta computed from it.
    peak_rss_kb = max(rss_at_entry, rss_at_entry + attach_rss_kb)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # pragma: no cover - parent died
            break
        kind = message[0]
        if kind == "task":
            _, index, tables, type_keys = message
            start = time.perf_counter()
            try:
                with span("pool.task", task_index=index, pid=os.getpid()):
                    result = annotator._annotate_raw(tables, type_keys)
            except Exception as error:
                conn.send(("error", index, os.getpid(), _portable_error(error)))
            else:
                busy = time.perf_counter() - start
                peak_rss_kb = max(peak_rss_kb, _current_rss_kb())
                task_spans: list = []
                if tracing.tracing_enabled():
                    task_spans = tracing.get_buffer().drain()
                conn.send(
                    (
                        "done",
                        index,
                        os.getpid(),
                        result,
                        busy,
                        (
                            peak_rss_kb,
                            attach_seconds,
                            attach_rss_kb,
                            attach_io,
                            task_spans,
                        ),
                    )
                )
        elif kind == "flush":
            # The flush runs outside every task window, so its cache IO
            # ships home in the ack for the parent to fold in.
            try:
                _, saved = annotator.cache_io(cache_dir, save=True)
            except Exception as error:
                conn.send(("flush-error", os.getpid(), _portable_error(error)))
            else:
                conn.send(("flushed", os.getpid(), saved))
        elif kind == "stop":
            break
    conn.close()


def _wait_ready(targets, timeout: float):
    """Block until a pipe has a message or a worker sentinel fires.

    Thin wrapper over :func:`multiprocessing.connection.wait`, kept as a
    module-level seam so the graceful-interrupt tests can inject a
    ``KeyboardInterrupt`` at the exact point a terminal Ctrl-C lands in
    the parent: while it sits waiting on the pool.
    """
    return connection.wait(targets, timeout)


class _Worker:
    """Parent-side handle of one pool process."""

    __slots__ = ("slot", "process", "conn", "inflight", "inflight_since", "retired")

    def __init__(self, slot: int, process, conn) -> None:
        self.slot = slot
        self.process = process
        self.conn = conn
        # Index of the task this worker is annotating, or None when idle.
        # This single field is the whole crash-recovery bookkeeping: a
        # dead worker with a non-None inflight crashed mid-task, and that
        # is the task to requeue.
        self.inflight: int | None = None
        # When the in-flight task was dispatched (perf_counter).  Only
        # observability reads it: a worker that dies mid-task never
        # closes its own ``pool.task`` span, so the parent synthesises an
        # ``aborted`` span from this dispatch timestamp instead of
        # leaking an open span.
        self.inflight_since = 0.0
        # A reaped-and-not-replaced worker: excluded from dispatch and
        # from the wait set (a joined process's sentinel stays signalled
        # forever and would busy-spin the parent).
        self.retired = False


class _WorkerPool:
    """A crash-tolerant process pool with parent-side task dispatch.

    One duplex pipe per worker.  The parent assigns tasks to specific
    idle workers (recording what is in flight where), collects results as
    they arrive, requeues the in-flight task of any worker that dies and
    spawns a replacement, and quarantines tasks that exhaust their
    requeue budget.  Dispatch order is deterministic: tasks go out in
    index order, workers are offered work in slot order.
    """

    def __init__(
        self,
        context,
        n_workers: int,
        payload: bytes | None,
        cache_dir,
        on_worker_spawn: Callable[[int], None] | None = None,
    ) -> None:
        self._context = context
        self._payload = payload
        self._cache_dir = cache_dir
        self._on_worker_spawn = on_worker_spawn
        # Snapshot of the parent's observability context, shipped to
        # every worker (initial and crash replacements): under ``spawn``
        # the tracing module globals do not carry over.
        self._obs = (tracing.tracing_enabled(), tracing.current_trace_id())
        self.n_workers = n_workers
        self.workers: list[_Worker] = [
            self._spawn(slot) for slot in range(n_workers)
        ]

    def _spawn(self, slot: int) -> _Worker:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(child_conn, self._payload, self._cache_dir, self._obs),
            daemon=True,
        )
        process.start()
        child_conn.close()
        if self._on_worker_spawn is not None:
            self._on_worker_spawn(process.pid)
        return _Worker(slot=slot, process=process, conn=parent_conn)

    # -- task loop -----------------------------------------------------------------------

    def run_tasks(
        self,
        tasks: "Sequence[Sequence[Table]]",
        type_keys: list[str],
        task_retries: int,
    ) -> tuple[dict[int, tuple], list[int], int, list[BaseException]]:
        """Drive every task to completion, quarantine or error.

        Returns ``(completed, quarantined_indices, n_requeued, errors)``
        where ``completed[index] = (index, result, pid, busy_seconds,
        worker_stats)`` (*result* the task's raw
        :class:`~repro.core.results.BatchAnnotationResult`,
        *worker_stats* the worker's five-element stats tuple).  A
        worker *exception* (the task itself raised) aborts the run as the
        executor-based layer did: dispatch stops, in-flight tasks drain,
        and the caller raises the first error after the cache flush.  A
        worker *death* is recovered instead.  ``KeyboardInterrupt``
        switches to the same drain-then-return path, the interrupt placed
        first in ``errors`` so the caller re-raises it after the flush.
        """
        pending: deque[int] = deque(range(len(tasks)))
        attempts = [0] * len(tasks)
        completed: dict[int, tuple] = {}
        quarantined: list[int] = []
        errored: set[int] = set()
        errors: list[BaseException] = []
        requeued = 0
        interrupt: BaseException | None = None

        def handle(worker: _Worker, message: tuple) -> None:
            kind = message[0]
            if kind == "done":
                _, index, pid, result, busy, worker_stats = message
                completed[index] = (index, result, pid, busy, worker_stats)
                worker.inflight = None
                registry = obs_metrics.get_registry()
                registry.inc("pool.tasks")
                registry.inc("pool.task_cells", result.diagnostics.n_cells)
                registry.observe("pool.task_seconds", busy)
                if self._obs[0]:  # traced: the worker's spans join the parent's
                    tracing.get_buffer().extend(worker_stats[4])
            elif kind == "error":
                _, index, pid, error = message
                errored.add(index)
                errors.append(error)
                worker.inflight = None
            # "flushed"/"flush-error" cannot arrive here: flushes are
            # only requested after this loop returns.

        while len(completed) + len(quarantined) + len(errored) < len(tasks):
            aborting = bool(errors) or interrupt is not None
            try:
                if not aborting:
                    self._dispatch(pending, tasks, type_keys)
                elif all(w.inflight is None for w in self.workers):
                    break  # aborting and nothing left to drain
                ready = _wait_ready(self._wait_targets(), _WAIT_TICK)
                self._receive(ready, handle)
                requeued += self._reap(
                    handle,
                    pending,
                    attempts,
                    task_retries,
                    quarantined,
                    respawn=not aborting,
                )
            except KeyboardInterrupt as error:
                # Graceful shutdown (terminal Ctrl-C): stop handing out
                # new tasks, but keep the pool alive long enough to flush
                # the warmth the finished tasks already paid for.  Queued
                # tasks are dropped; running ones complete (a worker
                # cannot be interrupted mid-task without losing its
                # caches anyway).  The interrupt is re-raised by the
                # caller after the flush so the CLI still observes it
                # (exit code 130).
                interrupt = error
        if interrupt is not None:
            errors.insert(0, interrupt)
        return completed, quarantined, requeued, errors

    def _dispatch(
        self,
        pending: deque[int],
        tasks: "Sequence[Sequence[Table]]",
        type_keys: list[str],
    ) -> None:
        for worker in self.workers:
            if not pending:
                return
            if worker.retired or worker.inflight is not None:
                continue
            if not worker.process.is_alive():
                continue  # the next reap requeues/respawns
            index = pending[0]
            try:
                worker.conn.send(("task", index, tasks[index], type_keys))
            except (BrokenPipeError, OSError):
                continue  # died between is_alive and send; reaped next tick
            pending.popleft()
            worker.inflight = index
            worker.inflight_since = time.perf_counter()

    def _wait_targets(self) -> list:
        targets: list = []
        for worker in self.workers:
            if worker.retired:
                continue
            targets.append(worker.conn)
            targets.append(worker.process.sentinel)
        return targets

    def _receive(self, ready, handle) -> None:
        ready = set(ready or ())
        for worker in self.workers:
            if worker.retired or worker.conn not in ready:
                continue
            try:
                while worker.conn.poll():
                    handle(worker, worker.conn.recv())
            except (EOFError, OSError):
                # Dead or corrupt pipe (worker killed mid-send); the reap
                # below requeues whatever it held.
                pass

    def _reap(
        self,
        handle,
        pending: deque[int],
        attempts: list[int],
        task_retries: int,
        quarantined: list[int],
        respawn: bool,
    ) -> int:
        """Recover from dead workers; returns how many tasks were requeued."""
        requeued = 0
        for position, worker in enumerate(self.workers):
            if worker.retired or worker.process.is_alive():
                continue
            # Drain results that made it onto the pipe before the death:
            # a worker that completed its task and died idle must not
            # have its finished work redone.
            try:
                while worker.conn.poll():
                    handle(worker, worker.conn.recv())
            except (EOFError, OSError):
                pass
            crashed_task = worker.inflight
            worker.inflight = None
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            worker.process.join(timeout=0)
            if crashed_task is not None:
                attempts[crashed_task] += 1
                outcome = (
                    "quarantined"
                    if attempts[crashed_task] > task_retries
                    else "requeued"
                )
                # The worker died mid-span, so its ``pool.task`` span
                # never closed (and never shipped home); the parent
                # records an aborted stand-in from its own dispatch
                # bookkeeping -- linked retry spans, not a leak.
                tracing.record_span(
                    "pool.task.aborted",
                    time.perf_counter() - worker.inflight_since,
                    status="aborted",
                    task_index=crashed_task,
                    pid=worker.process.pid,
                    attempt=attempts[crashed_task],
                    outcome=outcome,
                )
                obs_metrics.get_registry().inc(f"pool.tasks_{outcome}")
                _LOG.warning(
                    f"pool.task_{outcome}",
                    task_index=crashed_task,
                    pid=worker.process.pid,
                    attempt=attempts[crashed_task],
                    task_retries=task_retries,
                )
                if attempts[crashed_task] > task_retries:
                    quarantined.append(crashed_task)
                else:
                    requeued += 1
                    pending.appendleft(crashed_task)
            if respawn:
                self.workers[position] = self._spawn(worker.slot)
            else:
                worker.retired = True
        return requeued

    # -- flush & shutdown ----------------------------------------------------------------

    def flush(self) -> tuple[list[BaseException], list[RunDiagnostics]]:
        """Ask every live worker to merge-save its caches, best-effort.

        One flush per worker process, no barrier needed: each worker has
        its own command pipe, so a flush cannot be drained twice by one
        worker while another saves nothing.  Returns any errors the
        saves reported, and the cache IO of every save that acked.
        """
        waiting: list[_Worker] = []
        for worker in self.workers:
            if worker.retired or not worker.process.is_alive():
                continue
            try:
                worker.conn.send(("flush",))
            except (BrokenPipeError, OSError):  # pragma: no cover - race
                continue
            waiting.append(worker)
        errors: list[BaseException] = []
        saves: list[RunDiagnostics] = []
        deadline = time.monotonic() + _FLUSH_TIMEOUT
        while waiting:
            remaining = deadline - time.monotonic()
            if remaining <= 0:  # pragma: no cover - pathological save stall
                break
            ready = set(
                connection.wait([w.conn for w in waiting], min(remaining, 1.0))
                or ()
            )
            still_waiting: list[_Worker] = []
            for worker in waiting:
                acked = False
                if worker.conn in ready:
                    try:
                        message = worker.conn.recv()
                        if message[0] == "flush-error":
                            errors.append(message[2])
                        else:
                            saves.append(message[2])
                        acked = True
                    except (EOFError, OSError):
                        acked = True  # died mid-flush; abandon it
                elif not worker.process.is_alive():
                    acked = True  # pragma: no cover - died without output
                if not acked:
                    still_waiting.append(worker)
            waiting = still_waiting
        return errors, saves

    def shutdown(self) -> None:
        """Stop every worker: polite command, then escalate."""
        for worker in self.workers:
            if not worker.retired and worker.process.is_alive():
                try:
                    worker.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        for worker in self.workers:
            worker.process.join(timeout=_STOP_JOIN_TIMEOUT)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass


def table_cost(table: "Table") -> int:
    """Cheap per-table work estimate: its cell count (``rows x columns``).

    Annotation cost is dominated by per-candidate-cell engine requests,
    and candidate count scales with cell count, so the grid size is a
    good, zero-cost proxy -- it never inspects cell contents.  Every
    table costs at least 1 so empty tables still occupy a task slot.
    """
    return max(1, table.n_rows * table.n_columns)


def chunk_tables(tables: "Sequence[Table]", target: int) -> list[list[Table]]:
    """Pack *tables* into contiguous chunks of at most *target* estimated
    cost each (see :func:`table_cost`).

    Consecutive small tables share a chunk until adding the next one
    would exceed the budget; a table costing more than the budget on its
    own travels alone (a table is the atomic unit of work).  Chunks
    preserve the input order, so walking tasks in order reproduces the
    corpus exactly; the packing is a pure function of the table shapes
    and the budget, so the same corpus always yields the same task list.
    """
    if target < 1:
        raise ValueError(f"chunk target must be >= 1, got {target}")
    chunks: list[list[Table]] = []
    current: list[Table] = []
    current_cost = 0
    for table in tables:
        cost = table_cost(table)
        if current and current_cost + cost > target:
            chunks.append(current)
            current, current_cost = [], 0
        current.append(table)
        current_cost += cost
    if current:
        chunks.append(current)
    return chunks


def automatic_chunk_cost(tables: "Sequence[Table]", workers: int) -> int:
    """The stealing budget: about :data:`CHUNKS_PER_WORKER` chunks per
    worker -- fine-grained enough that a giant table's neighbours can
    migrate to idle workers, coarse enough that per-task overhead (pickling
    a run home) stays negligible."""
    total = sum(table_cost(table) for table in tables)
    return max(1, math.ceil(total / max(1, workers * CHUNKS_PER_WORKER)))


def _worker_loads(
    results: "Sequence[tuple]",
    n_workers: int,
) -> tuple[WorkerLoad, ...]:
    """Fold per-task results into one :class:`WorkerLoad` per pool process.

    Worker ids are assigned by ascending pid -- an arbitrary but stable
    labelling; the loads themselves record what each process really did,
    which under stealing is the whole point of the accounting.  Pool
    processes that never completed a task (one worker drained the whole
    queue before another finished spawning) still get a zero load, so the
    imbalance ratio honestly reports the idle worker instead of calling a
    one-worker run "perfectly balanced".  Crash-replacement workers show
    up as extra pids, so a recovered run may report more loads than the
    nominal pool size -- every process that completed work is accounted
    for.  Each load also carries the process's memory/attach accounting
    (peak RSS, attach time, attach RSS delta, warm-start cache bytes --
    the last stats tuple the process reported, peak RSS being monotonic
    by definition)."""
    by_pid: dict[int, list[tuple]] = {}
    for result in results:
        by_pid.setdefault(result[2], []).append(result)
    loads = [
        WorkerLoad(
            worker_id=worker_id,
            n_tasks=len(group),
            n_tables=sum(r[1].diagnostics.n_tables for r in group),
            n_cells=sum(r[1].diagnostics.n_cells for r in group),
            busy_seconds=sum(r[3] for r in group),
            peak_rss_kb=max(r[4][0] for r in group),
            attach_seconds=group[0][4][1],
            attach_rss_kb=group[0][4][2],
            cache_load_bytes=group[0][4][3].cache_load_bytes,
        )
        for worker_id, (_, group) in enumerate(sorted(by_pid.items()))
    ]
    for worker_id in range(len(loads), n_workers):
        loads.append(
            WorkerLoad(
                worker_id=worker_id,
                n_tasks=0,
                n_tables=0,
                n_cells=0,
                busy_seconds=0.0,
            )
        )
    return tuple(loads)


def _quarantine_run(
    annotator: "EntityAnnotator", tables: "Sequence[Table]"
) -> BatchAnnotationResult:
    """The degraded stand-in for a quarantined task's raw annotations.

    Every candidate cell of the task's tables is marked degraded with
    ``reason="worker-crash"``; no annotations, no engine traffic (the
    parent computes candidates locally -- preprocessing never touches
    the network).
    """
    annotations = [
        TableAnnotation(
            table_name=table.name,
            degraded=[
                DegradedCell(
                    table_name=table.name,
                    row=candidate.row,
                    column=candidate.column,
                    cell_value=candidate.value,
                    reason="worker-crash",
                )
                for candidate in annotator.preprocessor.candidate_cells(table)
            ],
        )
        for table in tables
    ]
    n_cells = sum(len(annotation.degraded) for annotation in annotations)
    return BatchAnnotationResult(
        annotations=annotations,
        diagnostics=RunDiagnostics(
            n_tables=len(tables),
            n_cells=n_cells,
            search_failures=0,
            cache_hits=0,
            cache_misses=0,
            queries_issued=0,
            clock_charges=0,
            virtual_seconds=0.0,
            degraded_cells=n_cells,
        ),
    )


def annotate_tables_parallel(
    annotator: "EntityAnnotator",
    tables: "Sequence[Table]",
    type_keys: list[str],
    workers: int,
    cache_dir=None,
    on_worker_spawn: Callable[[int], None] | None = None,
    start_method: str | None = None,
) -> BatchAnnotationResult:
    """Annotate *tables* across a pool of *workers* processes.

    The task-queue -> warm-start -> raw pass -> merge-save data flow
    described in ``docs/architecture.md``.  Tasks are the chunks of
    :func:`chunk_tables` at the :func:`automatic_chunk_cost` budget, and
    how often a crashed one is retried comes from
    ``annotator.config.task_retries``.  Every task is a contiguous run of
    tables and every worker runs the annotator's raw pass over them;
    this parent collects the raw annotations in task order and
    post-processes each table once, against itself.  Returns the same
    positional :class:`~repro.core.results.BatchAnnotationResult` as the
    in-process pass (``EntityAnnotator.annotate_batch``): ``annotations[i]``
    answers ``tables[i]``, same-named tables kept apart; its
    ``diagnostics`` are the :meth:`RunDiagnostics.combined` fold of every
    task's in task order plus the cache IO outside them, and
    ``diagnostics.worker_loads`` record what each pool process really
    did (tasks, tables, cells, busy seconds -- see
    ``RunDiagnostics.imbalance_ratio``).

    Crash recovery: a worker that dies mid-task has its task requeued on
    a replacement worker up to ``task_retries`` times; a task that keeps
    killing its workers is quarantined -- its tables' candidate cells
    marked degraded (``reason="worker-crash"``) -- and the rest of the
    corpus completes normally.  ``diagnostics.tasks_requeued`` /
    ``tasks_quarantined`` count both.  *on_worker_spawn* (tests, chaos
    harnesses) is called with the pid of every worker the pool starts,
    replacements included.

    *start_method* overrides how pool processes start (any name in
    ``multiprocessing.get_all_start_methods()``); the default picks
    ``fork`` where safe (see :func:`_start_method`).  Under ``fork`` the
    annotator is inherited copy-on-write; under ``spawn`` it is pickled
    once and each worker unpickles its own copy -- *except* state that
    pickles by reference, like a frozen mmap index backend, which ships
    as an artifact path and re-opens against the same physical pages
    (the ``worker_loads`` attach columns make the difference visible).
    Backend-parity tests force ``spawn`` to pin exactly that.

    The *parent* annotator does none of the annotation work, so its
    lifetime counters (engine clock, ``failure_count``) do not advance --
    the run's diagnostics carry the workers' accounting.  When
    *cache_dir* is set, the cache files are read once: under ``fork``
    the parent loads them before starting the pool, so every worker --
    crash replacements included -- inherits the warm caches
    copy-on-write and its own ``load_caches`` reads nothing (see
    :class:`repro.persistence.PersistedDict`); under ``spawn`` each
    worker loads its own copy.  Every worker merge-saves its caches once
    at the end of the run (each worker has its own command pipe, so
    exactly one flush lands on each), and a save is skipped when the
    file is unchanged and already holds everything the worker has.  The
    parent's warm start and each worker's warm start and save happen
    outside every task window; each is measured as one more diagnostics
    part and folded into the run's.  Afterwards the parent reloads the
    caches -- reading only files a worker changed -- so follow-up
    in-process work benefits from the workers' effort.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tables = list(tables)
    tasks = chunk_tables(tables, automatic_chunk_cost(tables, workers))
    if not tasks:
        return BatchAnnotationResult([], RunDiagnostics.combined([]))
    n_workers = min(workers, len(tasks))
    method = start_method if start_method is not None else _start_method()
    if method not in multiprocessing.get_all_start_methods():
        raise ValueError(
            f"start_method must be one of "
            f"{multiprocessing.get_all_start_methods()}, got {method!r}"
        )
    context = multiprocessing.get_context(method)
    # Cache IO outside every task window -- the parent's warm start, the
    # workers' warm starts and their end-of-run saves -- each measured as
    # one more diagnostics part and folded into the run's.
    io_parts: list[RunDiagnostics] = []
    global _FORK_PAYLOAD
    if method == "fork":
        payload = None
        if cache_dir is not None:
            # Load once, here: the workers inherit the warm caches
            # copy-on-write, and their own load_caches finds the files
            # unchanged and reads nothing.
            io_parts.append(annotator.cache_io(cache_dir)[1])
        _FORK_PAYLOAD = annotator
    else:
        payload = pickle.dumps(annotator, protocol=pickle.HIGHEST_PROTOCOL)
    pool = None
    try:
        with span(
            "pool.run",
            workers=n_workers,
            n_tasks=len(tasks),
            start_method=method,
        ):
            pool = _WorkerPool(
                context,
                n_workers,
                payload,
                cache_dir,
                on_worker_spawn=on_worker_spawn,
            )
            completed, quarantined, requeued, errors = pool.run_tasks(
                tasks, type_keys, annotator.config.task_retries
            )
            if cache_dir is not None:
                # Flushing happens even when a task failed or the run was
                # interrupted, so the warmth the surviving tasks already
                # paid for is kept; a flush error only propagates when
                # nothing more important already wants to.
                flush_errors, flush_io = pool.flush()
                io_parts.extend(flush_io)
                if flush_errors and not errors:
                    errors = flush_errors
            pool.shutdown()
            pool = None
            if errors:
                raise errors[0]
    finally:
        if pool is not None:  # pragma: no cover - error unwinding
            pool.shutdown()
        _FORK_PAYLOAD = None
    # Deterministic reassembly: tasks are contiguous runs of the corpus
    # and carry one raw annotation per table in table order, so one list
    # extended in task order lines up with the corpus by *position*
    # (quarantined tasks contribute degraded placeholders).  Each table
    # is post-processed once against itself -- byte-identical to the
    # workers=1 pass.  A run that did not complete every task raised
    # above, so each task is either completed or quarantined here.
    raw: list[TableAnnotation] = []
    parts: list[RunDiagnostics] = []
    results = []
    for index, task in enumerate(tasks):
        if index in completed:
            part = completed[index][1]
            results.append(completed[index])
        else:
            part = _quarantine_run(annotator, task)
        parts.append(part.diagnostics)
        raw.extend(part.annotations)
    # Each worker process's warm start, once: every stats tuple it sent
    # carries the same attach IO.
    io_parts.extend({result[2]: result[4][3] for result in results}.values())
    annotations = [
        annotator.postprocess_table(table, annotation)
        for table, annotation in zip(tables, raw)
    ]
    if cache_dir is not None:
        # The parent re-reads what the workers flushed, counted like
        # every other cache read outside a pass.
        io_parts.append(annotator.cache_io(cache_dir)[1])
    diagnostics = replace(
        RunDiagnostics.combined(parts + io_parts),
        worker_loads=_worker_loads(results, n_workers),
        tasks_requeued=requeued,
        tasks_quarantined=len(quarantined),
    )
    return BatchAnnotationResult(annotations, diagnostics)
