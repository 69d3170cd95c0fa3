"""Parity and contracts of ``annotate_tables(workers=N)``.

The process-pool execution layer (:mod:`repro.core.parallel`) must be a
pure throughput optimisation: distributing a corpus across workers may
change *where* the work happens, never what comes back.  This suite pins:

* annotations byte-identical to the sequential run (healthy engine and
  fully-down engine alike), with the original corpus table order;
* skewed corpora (one giant table + many small ones) and duplicate table
  names split across tasks -- the merge reassembly must match the
  sequential run cell for cell;
* corpus-wide diagnostics aggregated across every task, with per-worker
  load accounting that sums back to the corpus totals;
* the shared cache directory data flow: workers warm-start from it,
  merge-save back, and the parent ends up warm too;
* argument validation and deterministic cost-bounded chunking
  (including the empty-corpus and zero-worker edge cases).
"""

import multiprocessing
import random

import pytest

from repro.classify.dataset import TextDataset
from repro.classify.snippet import SnippetTypeClassifier
from repro.clock import VirtualClock
from repro.core.annotator import ENGINE_CACHE_FILE, LABEL_MEMO_FILE, EntityAnnotator
from repro.core.config import AnnotatorConfig
from repro.core.parallel import (
    annotate_tables_parallel,
    automatic_chunk_cost,
    chunk_tables,
    table_cost,
)
from repro.core.results import RunDiagnostics, WorkerLoad
from repro.tables.model import Column, ColumnType, Table
from repro.web.documents import WebPage
from repro.web.search import SearchEngine

_WORDS = "exhibit gallery paintings curator collection museum".split()
_NAMES = [f"Venue {i}" for i in range(24)]
_TYPE_KEYS = ["museum", "restaurant"]


def _make_engine() -> SearchEngine:
    engine = SearchEngine(clock=VirtualClock())
    rng = random.Random(0)
    engine.add_pages(
        [
            WebPage(
                url=f"https://x/{name.replace(' ', '-').lower()}-{i}",
                title=name,
                body=f"{name.lower()} " + " ".join(rng.choices(_WORDS, k=30)),
            )
            for name in _NAMES
            for i in range(4)
        ]
    )
    return engine


def _train(seed=1) -> SnippetTypeClassifier:
    rng = random.Random(seed)
    dataset = TextDataset()
    for _ in range(60):
        dataset.add(" ".join(rng.choices(_WORDS, k=12)), "museum")
        dataset.add("menu chef cuisine dining wine", "restaurant")
    return SnippetTypeClassifier(backend="svm", min_count=1).fit(dataset)


@pytest.fixture(scope="module")
def classifier() -> SnippetTypeClassifier:
    return _train()


def _corpus(n_tables=8, rows_per_table=3) -> list[Table]:
    """Distinct-content corpus: every table names its own venues."""
    tables = []
    for index in range(n_tables):
        table = Table(
            name=f"t{index}", columns=[Column("Name", ColumnType.TEXT)]
        )
        for row in range(rows_per_table):
            table.append_row([_NAMES[(index * rows_per_table + row) % len(_NAMES)]])
        tables.append(table)
    return tables


class TestParallelParity:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_byte_identical_to_sequential(self, classifier, workers):
        tables = _corpus()
        sequential = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS)
        parallel = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS, workers=workers)
        assert parallel == sequential
        # Byte-identical, not merely equal: same tables in the same order
        # with value-identical cells (repr covers every field).
        assert repr(sorted(parallel.tables.items())) == repr(
            sorted(sequential.tables.items())
        )
        assert list(parallel.tables) == [table.name for table in tables]

    def test_more_workers_than_tables_clamps(self, classifier):
        tables = _corpus(n_tables=2)
        run = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS, workers=16)
        reference = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS)
        assert run == reference

    def test_single_table_corpus_stays_sequential(self, classifier):
        # One table cannot shard; workers>1 must degrade gracefully.
        tables = _corpus(n_tables=1)
        run = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS, workers=4)
        assert set(run.tables) == {"t0"}

    def test_engine_down_everywhere_matches_sequential(self, classifier):
        tables = _corpus()
        down_a = _make_engine()
        down_a.available = False
        sequential = EntityAnnotator(
            classifier, down_a, AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS)
        down_b = _make_engine()
        down_b.available = False
        parallel = EntityAnnotator(
            classifier, down_b, AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS, workers=2)
        assert parallel == sequential
        assert (
            parallel.diagnostics.search_failures
            == sequential.diagnostics.search_failures
            > 0
        )

    def test_workers_must_be_positive(self, classifier):
        annotator = EntityAnnotator(classifier, _make_engine(), AnnotatorConfig())
        with pytest.raises(ValueError, match="workers"):
            annotator.annotate_tables(_corpus(), _TYPE_KEYS, workers=0)


class TestParallelDiagnostics:
    def test_diagnostics_aggregate_across_workers(self, classifier):
        tables = _corpus()
        sequential = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS)
        parallel = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS, workers=2)
        assert parallel.diagnostics.n_tables == sequential.diagnostics.n_tables
        assert parallel.diagnostics.n_cells == sequential.diagnostics.n_cells
        # Distinct-content corpus: no query spans two shards, so even the
        # issued-query accounting matches the sequential run exactly.
        assert (
            parallel.diagnostics.queries_issued
            == sequential.diagnostics.queries_issued
        )
        assert (
            parallel.diagnostics.clock_charges
            == sequential.diagnostics.clock_charges
        )

    def test_combined_sums_every_counter(self):
        parts = [
            RunDiagnostics(
                n_tables=1,
                n_cells=2,
                search_failures=1,
                cache_hits=3,
                cache_misses=4,
                queries_issued=5,
                clock_charges=6,
                virtual_seconds=1.5,
            ),
            RunDiagnostics(
                n_tables=2,
                n_cells=3,
                search_failures=0,
                cache_hits=1,
                cache_misses=1,
                queries_issued=2,
                clock_charges=2,
                virtual_seconds=0.5,
            ),
        ]
        combined = RunDiagnostics.combined(parts)
        assert combined == RunDiagnostics(
            n_tables=3,
            n_cells=5,
            search_failures=1,
            cache_hits=4,
            cache_misses=5,
            queries_issued=7,
            clock_charges=8,
            virtual_seconds=2.0,
        )


class TestSharedCacheDirectory:
    def test_workers_populate_and_parent_warms(self, classifier, tmp_path):
        tables = _corpus()
        annotator = EntityAnnotator(classifier, _make_engine(), AnnotatorConfig())
        run = annotator.annotate_tables(
            tables, _TYPE_KEYS, workers=2, cache_dir=tmp_path
        )
        assert run.tables
        # The workers merge-saved their shard caches; a fresh "process"
        # over the same corpus and classifier starts warm.
        fresh = EntityAnnotator(classifier, _make_engine(), AnnotatorConfig())
        assert fresh.load_caches(tmp_path) == {
            "search_results": True,
            "label_memo": True,
        }
        # Every shard's entries made it in (merge, not clobber): the
        # merged signature cache answers every table's queries.
        assert fresh.cell_annotator._label_memo
        warm = fresh.annotate_tables(tables, _TYPE_KEYS)
        assert warm == run
        # The parent itself reloaded the merged caches after the pool.
        assert annotator.engine._results_cache

    def test_sequential_run_honours_cache_dir_too(self, classifier, tmp_path):
        tables = _corpus(n_tables=3)
        first = EntityAnnotator(classifier, _make_engine(), AnnotatorConfig())
        first.annotate_tables(tables, _TYPE_KEYS, workers=1, cache_dir=tmp_path)
        second = EntityAnnotator(classifier, _make_engine(), AnnotatorConfig())
        loaded = second.load_caches(tmp_path)
        assert loaded == {"search_results": True, "label_memo": True}


def _file_state(path) -> tuple:
    stat = path.stat()
    return stat.st_ino, stat.st_mtime_ns, path.read_bytes()


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="requires the fork start method",
)


class TestWarmPoolCacheIO:
    """A warm pool reads the cache files once, in the parent before the
    fork, and writes them only when a worker has something new."""

    def _seed(self, classifier, cache_dir, tables):
        EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS, cache_dir=cache_dir)

    def _pool_run(self, classifier, cache_dir, tables, start_method):
        return annotate_tables_parallel(
            EntityAnnotator(classifier, _make_engine(), AnnotatorConfig()),
            tables,
            _TYPE_KEYS,
            workers=2,
            cache_dir=cache_dir,
            start_method=start_method,
        )

    @needs_fork
    def test_warm_run_over_an_unchanged_dir_writes_nothing(
        self, classifier, tmp_path
    ):
        tables = _corpus()
        self._seed(classifier, tmp_path, tables)
        files = [tmp_path / ENGINE_CACHE_FILE, tmp_path / LABEL_MEMO_FILE]
        before = [_file_state(path) for path in files]
        run = self._pool_run(classifier, tmp_path, tables, "fork")
        assert [_file_state(path) for path in files] == before
        diagnostics = run.diagnostics
        assert diagnostics.cache_save_bytes == 0
        assert diagnostics.cache_saves == 0
        assert diagnostics.results_cache_misses == 0
        # One read, the parent's, of both files; the workers inherited it.
        assert diagnostics.cache_loads == 2
        assert diagnostics.cache_load_bytes == sum(
            len(state[2]) for state in before
        )
        assert all(load.cache_load_bytes == 0 for load in diagnostics.worker_loads)
        reference = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_batch(tables, _TYPE_KEYS)
        assert run.annotations == reference.annotations

    def test_cold_run_reports_the_workers_saves(self, classifier, tmp_path):
        run = self._pool_run(classifier, tmp_path, _corpus(), None)
        diagnostics = run.diagnostics
        assert diagnostics.cache_saves >= 2
        assert diagnostics.cache_save_bytes >= (
            (tmp_path / ENGINE_CACHE_FILE).stat().st_size
            + (tmp_path / LABEL_MEMO_FILE).stat().st_size
        )

    def test_cold_run_counts_the_parents_reload(self, classifier, tmp_path):
        annotator = EntityAnnotator(classifier, _make_engine(), AnnotatorConfig())
        files = (annotator.engine._results_cache, annotator.cell_annotator._label_memo)
        run = annotate_tables_parallel(
            annotator, _corpus(), _TYPE_KEYS, workers=2, cache_dir=tmp_path
        )
        # Nothing to read before the pool; afterwards the parent reads
        # back both files the workers wrote, and the run counts it.
        assert [persisted.loads for persisted in files] == [1, 1]
        assert run.diagnostics.cache_loads == 2
        assert run.diagnostics.cache_load_bytes == sum(
            persisted.load_bytes for persisted in files
        ) == sum(
            (tmp_path / name).stat().st_size
            for name in (ENGINE_CACHE_FILE, LABEL_MEMO_FILE)
        )

    def test_new_entries_are_merged_and_a_fresh_annotator_loads_the_union(
        self, classifier, tmp_path
    ):
        # Digits do not reach the search signature, so every "Venue N"
        # query shares one; tables of body words bring new ones.
        seeded = _corpus(n_tables=2)
        tables = seeded + [
            Table(
                name=f"w{index}",
                columns=[Column("Name", ColumnType.TEXT)],
                rows=[[word]],
            )
            for index, word in enumerate(_WORDS)
        ]
        self._seed(classifier, tmp_path, seeded)
        run = self._pool_run(classifier, tmp_path, tables, None)
        assert run.diagnostics.results_cache_misses > 0
        assert run.diagnostics.cache_save_bytes > 0
        fresh = EntityAnnotator(classifier, _make_engine(), AnnotatorConfig())
        fresh.load_caches(tmp_path)
        warm = fresh.annotate_batch(tables, _TYPE_KEYS)
        assert warm.annotations == run.annotations
        assert warm.diagnostics.results_cache_misses == 0
        assert warm.diagnostics.label_memo_misses == 0

    def test_spawn_workers_still_load_their_own_copy(self, classifier, tmp_path):
        tables = _corpus()
        self._seed(classifier, tmp_path, tables)
        run = self._pool_run(classifier, tmp_path, tables, "spawn")
        busy = [load for load in run.diagnostics.worker_loads if load.n_tasks]
        assert busy
        assert all(load.cache_load_bytes > 0 for load in busy)

    def test_spawn_loads_count_every_file_read(self, classifier, tmp_path):
        tables = _corpus()
        self._seed(classifier, tmp_path, tables)
        file_bytes = sum(
            (tmp_path / name).stat().st_size
            for name in (ENGINE_CACHE_FILE, LABEL_MEMO_FILE)
        )
        diagnostics = self._pool_run(
            classifier, tmp_path, tables, "spawn"
        ).diagnostics
        busy = [load for load in diagnostics.worker_loads if load.n_tasks]
        # Each worker that reported in read both files once, nothing new
        # was written, and the parent, which never read them before the
        # pool, read both back once after it.
        assert all(load.cache_load_bytes == file_bytes for load in busy)
        assert diagnostics.cache_loads == 2 * len(busy) + 2
        assert diagnostics.cache_load_bytes == file_bytes * (len(busy) + 1)


def _skewed_corpus(giant_rows=12, n_small=6, small_rows=2) -> list[Table]:
    """One giant table followed by small distinct-content tables."""
    tables = [
        Table(name="giant", columns=[Column("Name", ColumnType.TEXT)])
    ]
    for row in range(giant_rows):
        tables[0].append_row([_NAMES[row % len(_NAMES)]])
    for index in range(n_small):
        table = Table(
            name=f"small-{index}", columns=[Column("Name", ColumnType.TEXT)]
        )
        for row in range(small_rows):
            table.append_row(
                [_NAMES[(giant_rows + index * small_rows + row) % len(_NAMES)]]
            )
        tables.append(table)
    return tables


class TestChunking:
    def test_chunks_preserve_corpus_order(self):
        tables = _skewed_corpus()
        chunks = chunk_tables(tables, 6)
        flattened = [table for chunk in chunks for table in chunk]
        assert [t.name for t in flattened] == [t.name for t in tables]

    def test_multi_table_chunks_respect_the_budget(self):
        tables = _skewed_corpus()
        target = 6
        for chunk in chunk_tables(tables, target):
            if len(chunk) > 1:
                assert sum(table_cost(t) for t in chunk) <= target

    def test_giant_table_travels_alone(self):
        tables = _skewed_corpus(giant_rows=12, n_small=4, small_rows=2)
        chunks = chunk_tables(tables, 6)
        assert [t.name for t in chunks[0]] == ["giant"]
        assert len(chunks) > 2  # the small tables split into several tasks

    def test_chunking_is_deterministic(self):
        tables = _skewed_corpus()
        first = chunk_tables(tables, 5)
        second = chunk_tables(list(tables), 5)
        assert [[t.name for t in chunk] for chunk in first] == [
            [t.name for t in chunk] for chunk in second
        ]

    def test_empty_corpus_yields_no_chunks(self):
        assert chunk_tables([], 10) == []

    def test_non_positive_target_raises(self):
        with pytest.raises(ValueError, match="chunk target"):
            chunk_tables(_skewed_corpus(), 0)

    def test_automatic_cost_aims_for_chunks_per_worker(self):
        tables = _corpus(n_tables=8, rows_per_table=4)
        target = automatic_chunk_cost(tables, workers=2)
        assert target >= 1
        total = sum(table_cost(t) for t in tables)
        # ~4 tasks per worker: the per-chunk budget is total / 8.
        assert target == -(-total // 8)

    def test_table_cost_is_the_cell_count(self):
        table = _skewed_corpus()[0]
        assert table_cost(table) == table.n_rows * table.n_columns
        empty = Table(name="e", columns=[Column("Name", ColumnType.TEXT)])
        assert table_cost(empty) == 1  # still occupies a task slot


class TestWorkStealing:
    def test_skewed_corpus_matches_sequential(self, classifier, monkeypatch):
        tables = _skewed_corpus()
        # Three chunks per worker: the giant alone, then the small tables
        # two to a task.
        monkeypatch.setattr("repro.core.parallel.CHUNKS_PER_WORKER", 3)
        tasks = chunk_tables(tables, automatic_chunk_cost(tables, 2))
        assert [len(task) for task in tasks] == [1, 2, 2, 2]
        sequential = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS)
        pooled = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS, workers=2)
        assert pooled == sequential
        assert repr(sorted(pooled.tables.items())) == repr(
            sorted(sequential.tables.items())
        )
        assert list(pooled.tables) == [table.name for table in tables]

    def test_same_named_tables_in_one_task_postprocess_separately(
        self, classifier, monkeypatch
    ):
        """Two distinct tables named ``dup`` travel in one chunk task.
        Their entities sit in different columns, so post-processing the
        name-merged annotations against either table would drop cells:
        the raw annotations must come home in unit order and each table
        be post-processed against itself before the names merge."""

        def two_columns(name: str, rows: list[list[str]]) -> Table:
            return Table(
                name=name,
                columns=[
                    Column("A", ColumnType.TEXT),
                    Column("B", ColumnType.TEXT),
                ],
                rows=rows,
            )

        tables = [
            two_columns(
                "dup",
                [[_NAMES[0], _NAMES[3]], [_NAMES[1], ""], [_NAMES[2], ""]],
            ),
            two_columns(
                "dup",
                [[_NAMES[4], _NAMES[5]], ["", _NAMES[6]], ["", _NAMES[7]]],
            ),
        ]
        sequential = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS)
        # Half a chunk per worker: the whole corpus is one task.
        monkeypatch.setattr("repro.core.parallel.CHUNKS_PER_WORKER", 0.5)
        pooled = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS, workers=2)
        # Each table kept its own winning column.
        assert {(c.row, c.column) for c in sequential.tables["dup"].cells} == {
            (0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)
        }
        assert sum(load.n_tasks for load in pooled.diagnostics.worker_loads) == 1
        assert pooled == sequential
        assert repr(pooled.tables["dup"]) == repr(sequential.tables["dup"])

    def test_duplicate_table_names_merge_like_sequential(self, classifier):
        # Two *distinct* tables share the name "t" and land in different
        # tasks (the automatic target, 1, gives every table its own).
        # Regression: reassembly used to replace the first "t" annotation
        # with the second instead of merging the cells the way the
        # sequential run does.
        def named(name: str, names: list[str]) -> Table:
            table = Table(
                name=name, columns=[Column("Name", ColumnType.TEXT)]
            )
            for value in names:
                table.append_row([value])
            return table

        tables = [
            named("t", [_NAMES[0], _NAMES[1]]),
            named("mid-0", [_NAMES[2]]),
            named("mid-1", [_NAMES[3]]),
            named("t", [_NAMES[4], _NAMES[5]]),
        ]
        sequential = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS)
        assert automatic_chunk_cost(tables, 2) == 1
        pooled = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS, workers=2)
        # Both same-named tables contributed cells, in corpus order.
        assert {cell.cell_value for cell in sequential.tables["t"].cells} > {
            cell.cell_value for cell in sequential.tables["t"].cells[:1]
        }
        assert pooled == sequential
        assert repr(pooled.tables["t"].cells) == repr(
            sequential.tables["t"].cells
        )
        assert list(pooled.tables) == ["t", "mid-0", "mid-1"]

    def test_batch_keeps_same_named_tables_apart(self, classifier):
        # Two independent requests both ship a table named "directory";
        # each travels in its own task and gets its own answer back.
        tables = [
            Table(
                name="directory",
                columns=[Column("Name", ColumnType.TEXT)],
                rows=[[name] for name in names],
            )
            for names in (_NAMES[0:3], _NAMES[3:5])
        ]
        annotator = EntityAnnotator(classifier, _make_engine(), AnnotatorConfig())
        pooled = annotator.annotate_batch(tables, _TYPE_KEYS, workers=2)
        assert sum(load.n_tasks for load in pooled.diagnostics.worker_loads) == 2
        reference = EntityAnnotator(classifier, _make_engine(), AnnotatorConfig())
        expected = [reference.annotate_table(t, _TYPE_KEYS) for t in tables]
        assert [len(annotation.cells) for annotation in expected] == [3, 2]
        assert repr(pooled.annotations) == repr(expected)

    def test_worker_loads_sum_to_corpus_totals(self, classifier, monkeypatch):
        tables = _skewed_corpus()
        monkeypatch.setattr("repro.core.parallel.CHUNKS_PER_WORKER", 3)
        annotator = EntityAnnotator(classifier, _make_engine(), AnnotatorConfig())
        run = annotator.annotate_tables(tables, _TYPE_KEYS, workers=2)
        loads = run.diagnostics.worker_loads
        assert loads
        assert len(loads) <= 2
        assert sum(load.n_tables for load in loads) == len(tables)
        assert sum(load.n_tables for load in loads) == run.diagnostics.n_tables
        assert sum(load.n_cells for load in loads) == run.diagnostics.n_cells
        expected_tasks = len(chunk_tables(tables, automatic_chunk_cost(tables, 2)))
        assert expected_tasks == 4  # multi-table chunks, the giant alone
        assert sum(load.n_tasks for load in loads) == expected_tasks
        assert all(load.busy_seconds >= 0.0 for load in loads)
        assert [load.worker_id for load in loads] == list(range(len(loads)))

    def test_chunk_cost_of_one_makes_per_table_tasks(self, classifier, monkeypatch):
        tables = _corpus(n_tables=4)  # every table costs 3
        monkeypatch.setattr("repro.core.parallel.CHUNKS_PER_WORKER", 12)
        assert automatic_chunk_cost(tables, 2) == 1
        run = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS, workers=2)
        loads = run.diagnostics.worker_loads
        assert sum(load.n_tasks for load in loads) == len(tables)

    def test_empty_corpus_direct_call_returns_empty_run(self, classifier):
        annotator = EntityAnnotator(classifier, _make_engine(), AnnotatorConfig())
        run = annotate_tables_parallel(annotator, [], _TYPE_KEYS, workers=3)
        assert run.annotations == []
        assert run.diagnostics.n_tables == 0
        assert run.diagnostics.n_cells == 0
        assert run.diagnostics.worker_loads == ()

    def test_direct_call_rejects_non_positive_workers(self, classifier):
        # A direct call with workers=0 used to surface as a cryptic
        # ProcessPoolExecutor error.
        annotator = EntityAnnotator(classifier, _make_engine(), AnnotatorConfig())
        with pytest.raises(ValueError, match="workers"):
            annotate_tables_parallel(
                annotator, _corpus(n_tables=2), _TYPE_KEYS, workers=0
            )

    def test_worker_task_error_propagates(self, classifier, tmp_path):
        # A failing task must raise the worker's error in the parent (not
        # hang the pool or the flush barrier), even with a cache dir.
        annotator = EntityAnnotator(classifier, _make_engine(), AnnotatorConfig())
        with pytest.raises(ValueError, match="type_keys"):
            annotate_tables_parallel(
                annotator,
                _corpus(n_tables=4),
                [],
                workers=2,
                cache_dir=tmp_path,
            )

    def test_idle_workers_get_zero_loads(self):
        # One process drained the whole queue: the pool's other worker
        # must appear as a zero load so imbalance_ratio reports 2.0, not
        # a "perfectly balanced" 1.0.
        from repro.core.parallel import _worker_loads
        from repro.core.results import AnnotationRun as Run

        run = Run()
        run.diagnostics = RunDiagnostics(
            n_tables=3,
            n_cells=30,
            search_failures=0,
            cache_hits=0,
            cache_misses=0,
            queries_issued=0,
            clock_charges=0,
            virtual_seconds=0.0,
        )
        attach_io = RunDiagnostics.combined([])
        loads = _worker_loads(
            [(0, run, 4242, 2.0, (51200, 0.25, 4096, attach_io, []))], n_workers=2
        )
        assert len(loads) == 2
        assert loads[0].n_tasks == 1 and loads[0].busy_seconds == 2.0
        assert loads[0].peak_rss_kb == 51200
        assert loads[0].attach_seconds == 0.25
        assert loads[0].attach_rss_kb == 4096
        assert loads[1].n_tasks == 0 and loads[1].busy_seconds == 0.0
        assert loads[1].peak_rss_kb == 0 and loads[1].attach_rss_kb == 0
        diag = RunDiagnostics(
            n_tables=3,
            n_cells=30,
            search_failures=0,
            cache_hits=0,
            cache_misses=0,
            queries_issued=0,
            clock_charges=0,
            virtual_seconds=0.0,
            worker_loads=loads,
        )
        assert diag.imbalance_ratio == pytest.approx(2.0)

    def test_single_table_direct_call_matches_sequential(self, classifier):
        tables = _corpus(n_tables=1)
        reference = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_batch(tables, _TYPE_KEYS)
        annotator = EntityAnnotator(classifier, _make_engine(), AnnotatorConfig())
        run = annotate_tables_parallel(annotator, tables, _TYPE_KEYS, workers=4)
        assert run.annotations == reference.annotations

    def test_imbalance_ratio_contract(self):
        def diag(loads):
            return RunDiagnostics(
                n_tables=0,
                n_cells=0,
                search_failures=0,
                cache_hits=0,
                cache_misses=0,
                queries_issued=0,
                clock_charges=0,
                virtual_seconds=0.0,
                worker_loads=tuple(loads),
            )

        assert diag([]).imbalance_ratio == 0.0
        balanced = diag(
            [
                WorkerLoad(0, 2, 4, 40, 1.0),
                WorkerLoad(1, 2, 4, 40, 1.0),
            ]
        )
        assert balanced.imbalance_ratio == pytest.approx(1.0)
        skewed = diag(
            [
                WorkerLoad(0, 1, 1, 90, 3.0),
                WorkerLoad(1, 5, 9, 10, 1.0),
            ]
        )
        assert skewed.imbalance_ratio == pytest.approx(1.5)
        # No busy time reported: fall back to cell counts.
        by_cells = diag(
            [
                WorkerLoad(0, 1, 1, 30, 0.0),
                WorkerLoad(1, 1, 1, 10, 0.0),
            ]
        )
        assert by_cells.imbalance_ratio == pytest.approx(1.5)


class TestGracefulInterrupt:
    """Ctrl-C/SIGTERM mid-run must flush worker warmth, then re-raise.

    The seed behaviour tore the pool down on ``KeyboardInterrupt`` without
    merge-saving the caches, losing everything the finished tasks had paid
    for; the driver now routes the interrupt through the same end-of-run
    flush the healthy path uses (and the CLI maps it to exit code 130).
    The interrupt is injected through the ``parallel._wait_ready`` seam --
    the exact point a terminal Ctrl-C lands in the parent, which sits
    waiting on the pool while workers annotate.
    """

    @staticmethod
    def _interrupt_first_wait(monkeypatch):
        from repro.core import parallel

        real_wait = parallel._wait_ready
        calls = {"n": 0}

        def interrupting_wait(targets, timeout):
            calls["n"] += 1
            if calls["n"] == 1:
                raise KeyboardInterrupt()
            return real_wait(targets, timeout)

        monkeypatch.setattr(parallel, "_wait_ready", interrupting_wait)
        return calls

    def test_interrupt_flushes_caches_then_reraises(
        self, classifier, tmp_path, monkeypatch
    ):
        calls = self._interrupt_first_wait(monkeypatch)
        annotator = EntityAnnotator(classifier, _make_engine(), AnnotatorConfig())
        with pytest.raises(KeyboardInterrupt):
            annotate_tables_parallel(
                annotator,
                _corpus(n_tables=4),
                _TYPE_KEYS,
                workers=1,
                cache_dir=tmp_path,
            )
        # The interrupt landed on the very first wait (before any result
        # came home), the parent drained the in-flight task, and the
        # flush still ran: caches on disk despite the interrupt.
        assert calls["n"] >= 1
        assert (tmp_path / "search_results.cache").exists()
        assert (tmp_path / "label_memo.cache").exists()

    def test_interrupt_without_cache_dir_just_reraises(
        self, classifier, monkeypatch
    ):
        self._interrupt_first_wait(monkeypatch)
        annotator = EntityAnnotator(classifier, _make_engine(), AnnotatorConfig())
        with pytest.raises(KeyboardInterrupt):
            annotate_tables_parallel(
                annotator, _corpus(n_tables=4), _TYPE_KEYS, workers=2
            )
