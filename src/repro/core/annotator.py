"""The end-to-end entity annotator (Section 5, Figure 5).

``EntityAnnotator`` wires the three stages together:

1. **Pre-processing** (:class:`~repro.core.preprocessing.Preprocessor`)
   keeps only cells that could plausibly name an entity;
2. **Annotation** (:class:`~repro.core.annotation.CellAnnotator`) resolves
   all candidate cells in one batch -- queries augmented with a
   disambiguated city context when spatial disambiguation is enabled,
   deduplicated at the engine, snippets pooled into one classifier call --
   and applies the snippet-majority rule (Equation 1) per cell;
3. **Post-processing** (:mod:`~repro.core.postprocessing`) eliminates
   spurious annotations via the column-coherence score (Equation 2).

There is one pipeline.  :meth:`EntityAnnotator.annotate_batch` runs a
single *raw pass* -- pre-processing, one pooled
:meth:`~repro.core.annotation.CellAnnotator.annotate_values` batch, and
the end-of-run repair when ``config.retries > 0`` -- over whole tables,
the unit of annotation work, then post-processes every table once and
answers by input position.  The candidate cells of *every* table are
pooled, so a query string shared by several tables is searched,
classified and voted on exactly once for the whole run.  Every
worker-pool task runs the same raw pass (the parent post-processes).
:meth:`~EntityAnnotator.annotate_tables` merges that answer by table
name into an :class:`~repro.core.results.AnnotationRun` carrying the
corpus-wide :class:`~repro.core.results.RunDiagnostics`, and
:meth:`~EntityAnnotator.annotate_table` takes its element 0.
:meth:`EntityAnnotator.save_caches` / :meth:`~EntityAnnotator.load_caches`
persist the engine's amortisation state so a second process starts warm.
The per-cell reference the parity suites compare against lives with the
tests, in ``tests/annotation_reference.py``.

>>> import random
>>> from repro.classify.dataset import TextDataset
>>> from repro.classify.snippet import SnippetTypeClassifier
>>> from repro.clock import VirtualClock
>>> from repro.tables.model import Column, ColumnType, Table
>>> from repro.web.documents import WebPage
>>> from repro.web.search import SearchEngine
>>> rng = random.Random(0)
>>> words = "exhibit gallery paintings curator collection museum".split()
>>> dataset = TextDataset()
>>> for _ in range(30):
...     dataset.add(" ".join(rng.choices(words, k=8)), "museum")
...     dataset.add("menu chef cuisine dining wine", "restaurant")
>>> classifier = SnippetTypeClassifier(backend="svm", min_count=1).fit(dataset)
>>> engine = SearchEngine(clock=VirtualClock())
>>> engine.add_pages(
...     [WebPage(url=f"https://web/stone-hall-{i}", title="Stone Hall",
...              body="stone hall " + " ".join(rng.choices(words, k=20)))
...      for i in range(8)]
... )
>>> def directory(name):
...     table = Table(name=name, columns=[Column("Name", ColumnType.TEXT)])
...     table.append_row(["Stone Hall"])
...     return table
>>> annotator = EntityAnnotator(classifier, engine)
>>> run = annotator.annotate_tables(
...     [directory("site-a"), directory("site-b")], ["museum", "restaurant"]
... )
>>> sorted(run.tables)
['site-a', 'site-b']
>>> run.tables["site-a"].cells[0].type_key
'museum'
>>> run.diagnostics.n_tables
2
>>> run.diagnostics.queries_issued  # "Stone Hall" searched once for the corpus
1
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from repro.classify.snippet import SnippetTypeClassifier
from repro.core.annotation import CellAnnotator, SnippetCache
from repro.core.config import AnnotatorConfig
from repro.core.disambiguation import SpatialContextExtractor
from repro.core import parallel
from repro.core.postprocessing import eliminate_spurious
from repro.core.preprocessing import Preprocessor
from repro.core.results import (
    AnnotationRun,
    BatchAnnotationResult,
    CellAnnotation,
    DegradedCell,
    RunDiagnostics,
    TableAnnotation,
)
from repro.geo.geocoder import Geocoder
from repro.observability.tracing import span
from repro.persistence import lock_wait_seconds
from repro.tables.model import Table
from repro.web.search import SearchEngine

ENGINE_CACHE_FILE = "search_results.cache"
"""File name of the persisted engine signature cache inside a cache dir."""

LABEL_MEMO_FILE = "label_memo.cache"
"""File name of the persisted snippet -> label memo inside a cache dir."""


class EntityAnnotator:
    """Discovers and annotates entities of given types in tables.

    Parameters
    ----------
    classifier:
        A fitted :class:`SnippetTypeClassifier` over (at least) the types
        that will be requested.
    engine:
        The web search engine to consult per cell.
    geocoder:
        Required only when ``config.use_spatial_disambiguation`` is on.
    cache:
        Optional shared :class:`SnippetCache`; harnesses evaluating several
        classifier backends over one corpus pass it to avoid re-searching.
    """

    def __init__(
        self,
        classifier: SnippetTypeClassifier,
        engine: SearchEngine,
        config: AnnotatorConfig | None = None,
        geocoder: Geocoder | None = None,
        cache: SnippetCache | None = None,
    ) -> None:
        self.config = config or AnnotatorConfig()
        if self.config.use_spatial_disambiguation and geocoder is None:
            raise ValueError(
                "spatial disambiguation requires a geocoder; pass one or "
                "disable use_spatial_disambiguation"
            )
        self.classifier = classifier
        self.engine = engine
        self.geocoder = geocoder
        self.preprocessor = Preprocessor(self.config)
        self.cell_annotator = CellAnnotator(
            classifier, engine, self.config, cache=cache
        )
        self._context_extractor = (
            SpatialContextExtractor(geocoder, self.config)
            if geocoder is not None
            else None
        )

    # -- single table -------------------------------------------------------------------

    def annotate_table(
        self, table: Table, type_keys: Sequence[str]
    ) -> TableAnnotation:
        """Annotate one table for the requested types (all three stages).

        Element 0 of ``annotate_batch([table], type_keys)``: the same
        pass, repair included, so one table answers the same here, in a
        corpus and through the resident service.
        """
        return self.annotate_batch([table], type_keys).annotations[0]

    def _row_contexts(self, table: Table) -> dict[int, str]:
        """Disambiguated per-row city contexts (empty when disabled)."""
        if self.config.use_spatial_disambiguation and self._context_extractor:
            return self._context_extractor.row_contexts(table)
        return {}

    def _collect_raw(
        self, table_name: str, candidates, decisions
    ) -> TableAnnotation:
        """Fold decisions into a *raw* (pre-post-processing) annotation.

        Cells whose engine request(s) ultimately failed are recorded on
        ``degraded`` -- a lossy run names its losses instead of silently
        shrinking.
        """
        annotation = TableAnnotation(table_name=table_name)
        for candidate, decision in zip(candidates, decisions):
            if decision.annotated:
                annotation.add(
                    CellAnnotation(
                        table_name=table_name,
                        row=candidate.row,
                        column=candidate.column,
                        type_key=decision.type_key,  # type: ignore[arg-type]
                        score=decision.score,
                        cell_value=candidate.value,
                    )
                )
            elif decision.failed:
                annotation.degraded.append(
                    DegradedCell(
                        table_name=table_name,
                        row=candidate.row,
                        column=candidate.column,
                        cell_value=candidate.value,
                        query=decision.query,
                    )
                )
        return annotation

    def postprocess_table(
        self, table: Table, annotation: TableAnnotation
    ) -> TableAnnotation:
        """Apply Equation 2 elimination when configured, else pass through.

        Post-processing is deliberately *table-global* -- the
        column-coherence score weighs whole-column value occurrences over
        all of a table's annotations -- so it runs once per table, in
        the parent process: pool workers annotate their tables raw and
        the parent calls this with each table.
        """
        if self.config.use_postprocessing:
            with span("annotate.postprocess", table=table.name):
                return eliminate_spurious(
                    table,
                    annotation,
                    use_repetition_factor=self.config.use_repetition_factor,
                )
        return annotation

    # -- corpora ---------------------------------------------------------------------------

    def annotate_tables(
        self,
        tables: Iterable[Table],
        type_keys: Sequence[str],
        *,
        workers: int = 1,
        cache_dir=None,
    ) -> AnnotationRun:
        """Annotate a whole corpus: :meth:`annotate_batch`, merged by name.

        A corpus may hold several distinct tables sharing a name; their
        annotations merge, in corpus order, into one
        :class:`~repro.core.results.TableAnnotation`
        (:meth:`~repro.core.results.AnnotationRun.merge_table`).  The
        returned run carries the pass's corpus-wide
        :class:`~repro.core.results.RunDiagnostics`; *workers* and
        *cache_dir* are :meth:`annotate_batch`'s.
        """
        batch = self.annotate_batch(
            tables, type_keys, workers=workers, cache_dir=cache_dir
        )
        run = AnnotationRun(diagnostics=batch.diagnostics)
        for annotation in batch.annotations:
            run.merge_table(annotation)
        return run

    def annotate_batch(
        self,
        tables: Iterable[Table],
        type_keys: Sequence[str],
        *,
        workers: int = 1,
        cache_dir=None,
    ) -> BatchAnnotationResult:
        """The one annotation pass: every table pre-processed, annotated in
        one pooled batch and post-processed.

        ``annotations[i]`` answers input table ``i``, positionally: two
        same-named tables (two service requests shipping ``"directory"``)
        each get their own annotation.  Candidate cells and spatial
        contexts are computed per table, then every (value, context)
        pair of every table goes through a single
        :meth:`~repro.core.annotation.CellAnnotator.annotate_values` batch
        -- one :meth:`~repro.web.search.SearchEngine.search_many`, one
        pooled ``classify_many``, one Equation 1 vote per distinct query
        -- and the decisions are demultiplexed back into per-table
        annotations, each post-processed once against its own table.
        ``diagnostics`` cover the whole pass.

        Output is identical to calling :meth:`annotate_table` once per
        table.  Accounting is identical too whenever a shared
        :class:`~repro.core.annotation.SnippetCache` is in play or no
        query string repeats across tables; without a cache, a query
        shared by several tables is issued (and charged) once here versus
        once per table there -- the protocol-level amortisation that is
        the point of the pooled pass.  The one caveat to output equality:
        a *failed* repeated query is final for the whole pass here, while
        the per-table loop re-issues it table by table (failures are never
        cached) and each re-issue is a fresh occurrence with a fresh
        deterministic failure draw, so under failure injection the two
        can legitimately diverge on repeated queries; with a healthy
        engine, a fully-down engine, or distinct queries, they cannot.

        ``workers=N`` (with more than one table) distributes the tables
        across ``N`` worker *processes*
        (:func:`repro.core.parallel.annotate_tables_parallel`): the parent
        enqueues cost-bounded chunk tasks (about four per worker) that
        idle workers pull as they finish, every worker runs the same raw
        pass over the tables it pulls, and the parent post-processes
        every table once.  Each worker warm-starts from *cache_dir* (when
        given; forked workers inherit the caches the parent loaded once
        before the fork) and
        merge-saves its caches back once at the end of the run -- unless
        the files already hold everything it has -- so concurrent workers
        share one cache directory without losing entries.
        ``diagnostics.worker_loads`` record what every worker really did
        (see ``RunDiagnostics.imbalance_ratio``).  Annotations are
        byte-identical to ``workers=1`` on a healthy (or fully-down)
        engine; under failure injection, repeats of a query inside
        different tasks may diverge exactly like the per-table caveat
        above.  A worker that *dies* mid-run is survived: its task is
        requeued onto a fresh worker up to ``config.task_retries`` times,
        then quarantined with its tables' candidate cells marked degraded.
        With ``workers=1``, *cache_dir* warm-starts this process before
        the pass and merge-saves after it -- the same contract, minus the
        pool.  The end-of-pass repair (``config.retries > 0``) runs inside
        whichever process executes the raw pass.
        """
        tables = list(tables)
        type_keys = list(type_keys)
        if not type_keys:
            raise ValueError("type_keys must be non-empty")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if workers > 1 and len(tables) > 1:
            return parallel.annotate_tables_parallel(
                self, tables, type_keys, workers=workers, cache_dir=cache_dir
            )
        raw = self._annotate_raw(tables, type_keys, cache_dir=cache_dir)
        return BatchAnnotationResult(
            annotations=[
                self.postprocess_table(table, annotation)
                for table, annotation in zip(tables, raw.annotations)
            ],
            diagnostics=raw.diagnostics,
        )

    def _annotate_raw(
        self, tables: Sequence[Table], type_keys: list[str], cache_dir=None
    ) -> BatchAnnotationResult:
        """The one annotation pass, raw: pre-processing, one pooled
        resolution and (with ``config.retries > 0``) the repair pass over
        *tables*, without post-processing.

        ``annotations[i]`` is table ``i``'s raw annotation; the caller
        applies :meth:`postprocess_table` to each.  Diagnostics count the
        tables and their candidate cells.  *cache_dir* warm-starts before
        the pass and merge-saves after it, inside the diagnostics window.
        """
        # Snapshot before the warm start so the diagnostics cover the
        # cache IO spent serving the pass.
        before = self._counters()
        if cache_dir is not None:
            self.load_caches(cache_dir)
        prepped: list[tuple[Table, list]] = []
        pairs: list[tuple[str, str | None]] = []
        with span("annotate.prep", n_tables=len(tables)):
            for table in tables:
                candidates = self.preprocessor.candidate_cells(table)
                contexts = self._row_contexts(table)
                prepped.append((table, candidates))
                pairs.extend(
                    (candidate.value, contexts.get(candidate.row))
                    for candidate in candidates
                )
        decisions = self.cell_annotator.annotate_values(pairs, type_keys)
        repaired = 0
        if self.config.retries > 0:
            # End-of-pass repair: one more pass over the cells that
            # exhausted their retries, issued once the breaker's cooldown
            # (if any) has been waited out on the virtual clock.
            with span("annotate.repair"):
                decisions, repaired = self.cell_annotator.repair_decisions(
                    pairs, decisions, type_keys
                )
        annotations: list[TableAnnotation] = []
        offset = 0
        for table, candidates in prepped:
            n_cells = len(candidates)
            annotations.append(
                self._collect_raw(
                    table.name, candidates, decisions[offset : offset + n_cells]
                )
            )
            offset += n_cells
        if cache_dir is not None:
            self.save_caches(cache_dir)
        return BatchAnnotationResult(
            annotations=annotations,
            diagnostics=self._diagnostics_since(
                before,
                n_tables=len(tables),
                n_cells=len(pairs),
                degraded_cells=sum(
                    len(annotation.degraded) for annotation in annotations
                ),
                repaired_cells=repaired,
            ),
        )

    # -- cache persistence ------------------------------------------------------------------

    def save_caches(self, cache_dir) -> dict[str, bool]:
        """Persist the engine's amortisation caches under *cache_dir*.

        Writes two versioned files: the search engine's token-signature ->
        results cache (``search_results.cache``) and the lifetime
        snippet -> label memo (``label_memo.cache``).  A later process --
        or CLI invocation -- over the same corpus and classifier loads
        them with :meth:`load_caches` and skips the cold start.

        Both writes are merge-on-save under an advisory file lock, so a
        cache directory shared by concurrent workers unions everybody's
        entries instead of keeping only the last writer's.  Returns which
        file was actually written (``False`` means the lock timed out and
        that save was skipped).  A write that would change nothing -- the
        file is unchanged since this annotator last loaded or saved it
        and already holds every entry -- is skipped and reported ``True``
        (see :class:`repro.persistence.PersistedDict`).
        """
        cache_dir = Path(cache_dir)
        with span("cache.flush"):
            return {
                "search_results": self.engine.save_results_cache(
                    cache_dir / ENGINE_CACHE_FILE
                ),
                "label_memo": self.cell_annotator.save_label_memo(
                    cache_dir / LABEL_MEMO_FILE
                ),
            }

    def load_caches(self, cache_dir) -> dict[str, bool]:
        """Warm the engine caches from *cache_dir* (see :meth:`save_caches`).

        Returns which cache loaded, e.g. ``{"search_results": True,
        "label_memo": False}``; a ``False`` means the file was missing or
        stale (corpus grown, classifier retrained, format changed) and
        that cache simply starts cold.  A file unchanged since this
        annotator last loaded or saved it, and already held in memory, is
        not read again.
        """
        cache_dir = Path(cache_dir)
        with span("cache.load"):
            return {
                "search_results": self.engine.load_results_cache(
                    cache_dir / ENGINE_CACHE_FILE
                ),
                "label_memo": self.cell_annotator.load_label_memo(
                    cache_dir / LABEL_MEMO_FILE
                ),
            }

    def cache_io(
        self, cache_dir, *, save: bool = False
    ) -> tuple[dict[str, bool], RunDiagnostics]:
        """:meth:`load_caches` (with *save*, :meth:`save_caches`) outside
        any pass, measured: returns ``(answer, part)``, *part* that IO as
        one :class:`RunDiagnostics` part for the caller to fold in.  The
        pool's fork-parent load, each worker's warm start and flush, and
        the service's warm start and flushes all go through here.  With
        *cache_dir* ``None`` nothing is read or written.
        """
        # A delta, like every cache IO count: a forked worker inherits
        # the parent's lifetime counters.
        before = self._counters()
        answer: dict[str, bool] = {}
        if cache_dir is not None:
            answer = (
                self.save_caches(cache_dir) if save else self.load_caches(cache_dir)
            )
        return answer, self._diagnostics_since(before, n_tables=0, n_cells=0)

    # -- diagnostics ------------------------------------------------------------------------

    def _counters(self) -> dict[str, float]:
        """Snapshot of the counters :class:`RunDiagnostics` deltas over,
        keyed by diagnostics field name."""
        cache = self.cell_annotator.cache
        cells = self.cell_annotator
        engine = self.engine
        clock = engine.clock
        # The results cache and the label memo each count their own file IO.
        files = (engine._results_cache, cells._label_memo)
        return {
            "search_failures": cells.failure_count,
            "cache_hits": cache.hits if cache is not None else 0,
            "cache_misses": cache.misses if cache is not None else 0,
            "queries_issued": engine.query_count,
            "clock_charges": clock.n_charges,
            "virtual_seconds": clock.elapsed_seconds,
            "search_retries": cells.retry_count,
            "breaker_opens": cells.breaker.opens,
            "results_cache_hits": engine._cache_hits,
            "results_cache_misses": engine._cache_misses,
            "label_memo_hits": cells._memo_hits,
            "label_memo_misses": cells._memo_misses,
            "cache_loads": sum(f.loads for f in files),
            "cache_saves": sum(f.saves for f in files),
            "cache_load_bytes": sum(f.load_bytes for f in files),
            "cache_save_bytes": sum(f.save_bytes for f in files),
            "cache_lock_wait_seconds": lock_wait_seconds(),
        }

    def _diagnostics_since(
        self,
        before: dict[str, float],
        n_tables: int,
        n_cells: int,
        degraded_cells: int = 0,
        repaired_cells: int = 0,
    ) -> RunDiagnostics:
        after = self._counters()
        return RunDiagnostics(
            n_tables=n_tables,
            n_cells=n_cells,
            degraded_cells=degraded_cells,
            repaired_cells=repaired_cells,
            **{name: after[name] - before[name] for name in after},
        )
