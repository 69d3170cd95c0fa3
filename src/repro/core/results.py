"""Annotation result models.

The algorithm's output (Section 4 / Figure 3): the rows that contain
information on entities of the requested types, and the cells in which the
entity names occur.  A :class:`CellAnnotation` records one annotated cell
with its Equation 1 score; :class:`TableAnnotation` aggregates a table and
answers the row-level question; :class:`AnnotationRun` aggregates a corpus.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Iterable, Iterator, Sequence

from repro.tables.model import Table


@dataclass(frozen=True)
class WorkerLoad:
    """What one worker process actually did during a parallel corpus run.

    Produced by :mod:`repro.core.parallel` for every worker of a
    ``workers=N`` run: how many queue tasks the worker pulled, how many
    tables and candidate cells those tasks covered, and how long the
    worker was busy annotating (wall-clock inside the worker, excluding
    cache saves).  The corpus-wide view lives on
    :attr:`RunDiagnostics.worker_loads`.

    The memory columns make the cost of standing a worker up auditable
    (and, with the mmap index backend, the saving measurable rather than
    claimed): *peak_rss_kb* is the highest resident set size the worker
    sampled (``/proc/self/statm``, in KiB, read at entry, after attach
    and after each task — not ``ru_maxrss``, which spawn children can
    inherit from the parent on some kernels); *attach_seconds* /
    *attach_rss_kb* are the time and resident-memory growth spent
    materialising the annotator (fork inheritance or spawn unpickling)
    and warm-starting its caches before the first task.  All three are
    0 for workers that completed no task or on hosts without ``/proc``
    and ``resource``.
    """

    worker_id: int
    n_tasks: int
    n_tables: int
    n_cells: int
    busy_seconds: float
    peak_rss_kb: int = 0
    attach_seconds: float = 0.0
    attach_rss_kb: int = 0
    cache_load_bytes: int = field(default=0, compare=False)
    """Bytes of cache files the worker read warm-starting its caches
    during attach (nothing under ``fork``: the worker inherits the
    parent's one load).  Excluded from equality (an IO fact, not an
    annotation fact)."""


@dataclass(frozen=True)
class CellAnnotation:
    """One annotated cell: position, assigned type and score ``S_ij``."""

    table_name: str
    row: int
    column: int
    type_key: str
    score: float
    cell_value: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")


@dataclass(frozen=True)
class DegradedCell:
    """A candidate cell whose resolution was abandoned, not answered.

    Recorded when every search attempt for the cell's query failed (after
    retries and the end-of-corpus repair pass, when enabled) or when the
    cell's chunk task was quarantined after repeated worker crashes.
    Degraded cells are the resilience layer's honesty contract: a run that
    lost cells says *which* cells and *why* instead of silently shrinking.
    """

    table_name: str
    row: int
    column: int
    cell_value: str = ""
    query: str = ""
    reason: str = "search-failure"


@dataclass
class TableAnnotation:
    """All annotations of one table.

    ``degraded`` lists the candidate cells this table *lost* to failures
    (empty on healthy runs, so equality with pre-resilience annotations is
    unaffected).
    """

    table_name: str
    cells: list[CellAnnotation] = field(default_factory=list)
    degraded: list[DegradedCell] = field(default_factory=list)

    def add(self, annotation: CellAnnotation) -> None:
        if annotation.table_name != self.table_name:
            raise ValueError(
                f"annotation for table {annotation.table_name!r} added to "
                f"TableAnnotation of {self.table_name!r}"
            )
        self.cells.append(annotation)

    def of_type(self, type_key: str) -> list[CellAnnotation]:
        """Annotations with the given type."""
        return [cell for cell in self.cells if cell.type_key == type_key]

    def annotated_rows(self, type_key: str) -> set[int]:
        """The paper's primary output: rows holding type-*type_key* entities."""
        return {cell.row for cell in self.of_type(type_key)}

    def annotation_at(self, row: int, column: int) -> CellAnnotation | None:
        """The annotation at a cell, or ``None``."""
        for cell in self.cells:
            if cell.row == row and cell.column == column:
                return cell
        return None

    def __len__(self) -> int:
        return len(self.cells)


@dataclass(frozen=True)
class RunDiagnostics:
    """Aggregate health counters of one corpus annotation run.

    Snapshot deltas over the *whole* run -- every table, not just the last
    one -- taken around the annotation work by the annotator's one raw
    pass, which :meth:`repro.core.annotator.EntityAnnotator.annotate_batch`
    and every worker-pool task run:

    ``search_failures``
        cells skipped because their (shared) engine request failed;
    ``cache_hits`` / ``cache_misses``
        :class:`~repro.core.annotation.SnippetCache` traffic attributable
        to this run (zero when no cache was passed);
    ``queries_issued``
        requests that actually reached the engine;
    ``clock_charges`` / ``virtual_seconds``
        simulated remote calls and latency charged, including geocoding
        when spatial disambiguation is on;
    ``search_retries`` / ``breaker_opens``
        re-issued requests and circuit-breaker open transitions during the
        run (zero unless retries / the breaker are enabled);
    ``degraded_cells`` / ``repaired_cells``
        candidate cells abandoned after every attempt failed, and cells
        recovered by the end-of-corpus repair pass;
    ``tasks_requeued`` / ``tasks_quarantined``
        parallel chunk tasks re-run after a worker crash, and tasks given
        up on (their tables degraded) after exhausting requeues;
    ``worker_loads``
        per-worker load accounting of a ``workers=N`` run (one
        :class:`WorkerLoad` per worker process, empty on in-process runs);
    ``results_cache_hits`` / ``results_cache_misses`` and
    ``label_memo_hits`` / ``label_memo_misses``
        per-cache traffic of the two persistable caches -- batched-path
        ranking lookups and snippet classifications served warm from the
        in-memory caches versus computed;
    ``cache_loads`` / ``cache_saves`` and ``cache_load_bytes`` /
    ``cache_save_bytes``
        cache persistence IO attributable to this run: successful warm
        loads / persisted saves across both caches, and the payload bytes
        they moved;
    ``cache_lock_wait_seconds``
        wall-clock seconds spent waiting on contended cache/artifact
        advisory locks (see :func:`repro.persistence.lock_wait_seconds`).

    The cache IO counters describe *how* the run was served, never what
    it answered, and legitimately differ between warm and cold runs of
    one corpus -- they are excluded from equality so diagnostics parity
    assertions keep comparing annotation facts only.
    """

    n_tables: int
    n_cells: int
    search_failures: int
    cache_hits: int
    cache_misses: int
    queries_issued: int
    clock_charges: int
    virtual_seconds: float
    search_retries: int = 0
    breaker_opens: int = 0
    degraded_cells: int = 0
    repaired_cells: int = 0
    tasks_requeued: int = 0
    tasks_quarantined: int = 0
    worker_loads: tuple[WorkerLoad, ...] = ()
    results_cache_hits: int = field(default=0, compare=False)
    results_cache_misses: int = field(default=0, compare=False)
    label_memo_hits: int = field(default=0, compare=False)
    label_memo_misses: int = field(default=0, compare=False)
    cache_loads: int = field(default=0, compare=False)
    cache_saves: int = field(default=0, compare=False)
    cache_load_bytes: int = field(default=0, compare=False)
    cache_save_bytes: int = field(default=0, compare=False)
    cache_lock_wait_seconds: float = field(default=0.0, compare=False)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of this run's cache lookups served from the cache."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def to_dict(self) -> dict:
        """JSON-serialisable snapshot: every counter plus derived ratios.

        Built by introspecting the dataclass fields (and pinned by a
        completeness test that does the same), so a counter added to the
        dataclass can never silently miss the exported dict.
        """
        payload = {
            spec.name: getattr(self, spec.name) for spec in fields(self)
        }
        payload["worker_loads"] = [
            asdict(load) for load in self.worker_loads
        ]
        payload["cache_hit_rate"] = self.cache_hit_rate
        payload["imbalance_ratio"] = self.imbalance_ratio
        return payload

    @property
    def imbalance_ratio(self) -> float:
        """Busiest worker's share of the work relative to a perfect split.

        ``max(busy_seconds) / mean(busy_seconds)`` over
        :attr:`worker_loads`: 1.0 is a perfectly balanced pool, 2.0 at two
        workers means one worker served the whole corpus while the other
        idled.  Falls back to per-worker cell counts when no worker
        reported busy time, and to 0.0 when fewer than one worker ran
        (nothing to balance).
        """
        if not self.worker_loads:
            return 0.0
        busy = [load.busy_seconds for load in self.worker_loads]
        if not any(busy):
            busy = [float(load.n_cells) for load in self.worker_loads]
        mean = sum(busy) / len(busy)
        return max(busy) / mean if mean else 0.0

    @classmethod
    def combined(cls, parts: "Sequence[RunDiagnostics]") -> "RunDiagnostics":
        """Aggregate of several runs' diagnostics (all counters summed).

        The multi-worker execution layer folds each worker's shard
        diagnostics into one corpus-wide view with this; ``virtual_seconds``
        sums too, so it reports the *total* simulated remote latency paid
        across workers, not the overlapped wall-clock.  ``worker_loads``
        concatenate in part order (parts of an in-process run contribute
        nothing).
        """
        summed = {
            name: sum(getattr(part, name) for part in parts)
            for name in SUMMED_FIELDS
        }
        return cls(
            worker_loads=tuple(
                load for part in parts for load in part.worker_loads
            ),
            **summed,
        )


SUMMED_FIELDS = tuple(
    spec.name for spec in fields(RunDiagnostics) if spec.name != "worker_loads"
)
""":class:`RunDiagnostics` fields :meth:`~RunDiagnostics.combined` sums:
every field but the per-worker loads, which concatenate.  The resident
service records every part it folds under these names."""


@dataclass
class BatchAnnotationResult:
    """The positional answer of one pooled annotation pass.

    Produced by :meth:`repro.core.annotator.EntityAnnotator.annotate_batch`
    (in process or across the worker pool) with post-processed
    annotations, and -- holding raw annotations, one per unit -- by the
    raw pass every worker-pool task runs.  ``annotations[i]`` answers the
    *i*-th input, positionally: same-named tables are **never** merged,
    so two independent service requests shipping tables with the same
    name each get their own answer back; :class:`AnnotationRun` is the
    by-name view ``annotate_tables`` merges from it.  ``diagnostics``
    aggregate over the whole pooled pass.
    """

    annotations: list[TableAnnotation]
    diagnostics: RunDiagnostics


@dataclass
class AnnotationRun:
    """Annotations over a whole corpus, keyed by table name.

    ``diagnostics`` (present on runs produced by
    ``EntityAnnotator.annotate_tables``) aggregates failure and cache
    counters across the whole corpus; it is excluded from equality so two
    runs compare on their annotations alone.
    """

    tables: dict[str, TableAnnotation] = field(default_factory=dict)
    diagnostics: RunDiagnostics | None = field(default=None, compare=False)

    def table(self, table_name: str) -> TableAnnotation:
        """The (possibly empty) annotation set of one table."""
        if table_name not in self.tables:
            self.tables[table_name] = TableAnnotation(table_name=table_name)
        return self.tables[table_name]

    def add(self, annotation: CellAnnotation) -> None:
        self.table(annotation.table_name).add(annotation)

    def merge_table(self, annotation: TableAnnotation) -> None:
        """Fold one table's annotations into the run, merging duplicates.

        A corpus may legitimately contain several *distinct* tables that
        share a name (two sites exporting ``"directory"``); their cells
        belong to the same :class:`TableAnnotation`, exactly as the
        per-cell :meth:`add` path has always treated them.  Every corpus
        assembly point -- ``EntityAnnotator.annotate_tables`` and
        :class:`PerTableAnnotator` -- goes through this method, so
        duplicate names merge identically everywhere instead of the last
        same-named table silently replacing its predecessors.
        """
        existing = self.tables.get(annotation.table_name)
        if existing is None:
            self.tables[annotation.table_name] = annotation
        else:
            existing.cells.extend(annotation.cells)
            existing.degraded.extend(annotation.degraded)

    def degraded_cells(self) -> list[DegradedCell]:
        """Every degraded (abandoned) cell in the run, grouped by table."""
        return [
            cell
            for name in sorted(self.tables)
            for cell in self.tables[name].degraded
        ]

    def all_cells(self) -> Iterator[CellAnnotation]:
        """Every cell annotation in the run, grouped by table."""
        for name in sorted(self.tables):
            yield from self.tables[name].cells

    def of_type(self, type_key: str) -> list[CellAnnotation]:
        return [cell for cell in self.all_cells() if cell.type_key == type_key]

    def __len__(self) -> int:
        return sum(len(table) for table in self.tables.values())


class PerTableAnnotator:
    """Base of the annotators that answer one table at a time (the
    baselines and :class:`~repro.core.hybrid.HybridAnnotator`): a corpus
    is :meth:`annotate_table` per table, merged by name."""

    def annotate_table(self, table: Table, type_keys: Sequence[str]) -> TableAnnotation:
        raise NotImplementedError

    def annotate_tables(
        self, tables: Iterable[Table], type_keys: Sequence[str]
    ) -> AnnotationRun:
        """Annotate a corpus, same-named tables merged in corpus order."""
        run = AnnotationRun()
        for table in tables:
            run.merge_table(self.annotate_table(table, type_keys))
        return run
