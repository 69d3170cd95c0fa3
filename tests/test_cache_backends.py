"""Parity and contracts of the pluggable cache storage backends.

The sharded disk store (:class:`repro.persistence.ShardedDiskCacheStore`)
must be a pure *storage* change, exactly as the frozen mmap index backend
is for the index layer: where the results cache and label memo persist
may change, never what any layer above computes.  This suite pins:

* the store contract -- round-trip through put/flush/merge/reopen for
  arbitrary picklable values, the pending -> delta -> bucket read tiers,
  pickling by path (unflushed puts do not travel), and
  ``compact_path`` staying loud on a store that is not one;
* delta compaction -- :meth:`merge` rewrites only the bucket files the
  append log touches, leaving every other bucket byte-untouched;
* the robustness conventions -- a truncated delta tail (writer SIGKILLed
  mid-append) keeps every whole record before it, a corrupt bucket file
  serves cold instead of crashing, and a fingerprint mismatch
  invalidates the store;
* the attach guards -- a store opened against a foreign fingerprint is
  refused by the engine and the label memo alike;
* annotation parity at every granularity -- per-cell path, batched
  in-process runs, ``workers=2`` pools under both ``fork`` and
  ``spawn`` warm-starting from shared cache directories, and the
  resident service -- byte-identical between ``cache_backend="memory"``
  and ``"disk"``, with the new cache diagnostics observable on
  :class:`~repro.core.results.RunDiagnostics`.
"""

import dataclasses
import os
import pickle
import random

import numpy as np
import pytest

from repro.classify.dataset import TextDataset
from repro.classify.snippet import SnippetTypeClassifier
from repro.clock import VirtualClock
from repro.core.annotator import (
    ENGINE_CACHE_STORE,
    LABEL_MEMO_STORE,
    EntityAnnotator,
)
from repro.core.config import AnnotatorConfig
from repro.core.parallel import annotate_tables_parallel
from repro.persistence import (
    ArtifactError,
    CacheStore,
    MemoryCacheStore,
    ShardedDiskCacheStore,
    load_cache_payload,
    open_cache_store,
)
from repro.service import protocol
from repro.service.daemon import AnnotationService, ServiceConfig
from repro.tables.model import Column, ColumnType, Table
from repro.web.documents import WebPage
from repro.web.search import SearchEngine

_WORDS = "exhibit gallery paintings curator collection museum".split()
_NAMES = [f"Venue {i}" for i in range(24)]
_TYPE_KEYS = ["museum", "restaurant"]
_KIND = "test-cache"
_FINGERPRINT = ("corpus", 24, "k1")


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


def _corpus(n_tables=6, rows_per_table=3) -> list[Table]:
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


@pytest.fixture(scope="module")
def classifier() -> SnippetTypeClassifier:
    return _train()


def _disk_store(path, **overrides) -> ShardedDiskCacheStore:
    kwargs = {"fingerprint": _FINGERPRINT, "n_buckets": 8}
    kwargs.update(overrides)
    return ShardedDiskCacheStore(path, _KIND, **kwargs)


def _bucket_files(store_path) -> dict[str, int]:
    """Bucket file -> ``st_mtime_ns``, the untouched-bucket witness."""
    from pathlib import Path

    return {
        path.name: os.stat(path).st_mtime_ns
        for path in sorted(Path(store_path).glob("bucket-*.reprocache"))
    }


def _normalised(diagnostics):
    """Diagnostics with the run-order-dependent parts blanked (per-worker
    loads are real measurements; ``virtual_seconds`` sums over tasks in
    completion order, so its last float bit varies run to run)."""
    return dataclasses.replace(
        diagnostics, worker_loads=(), virtual_seconds=0.0
    )


# ---------------------------------------------------------------------- store contract


class TestStoreContract:
    def test_satisfies_the_store_protocol(self, tmp_path):
        disk = _disk_store(tmp_path / "a.cachestore")
        memory = MemoryCacheStore(tmp_path / "a.cache", _KIND, _FINGERPRINT)
        assert isinstance(disk, CacheStore)
        assert isinstance(memory, CacheStore)
        assert disk.backend_name == "disk"
        assert memory.backend_name == "memory"

    def test_open_cache_store_dispatches(self, tmp_path):
        disk = open_cache_store(
            "disk", tmp_path / "a.cachestore", _KIND, _FINGERPRINT
        )
        memory = open_cache_store("memory", tmp_path / "a.cache", _KIND, None)
        assert isinstance(disk, ShardedDiskCacheStore)
        assert isinstance(memory, MemoryCacheStore)
        with pytest.raises(ValueError):
            open_cache_store("tape", tmp_path / "a", _KIND, None)

    def test_round_trip_arbitrary_values(self, tmp_path):
        path = tmp_path / "a.cachestore"
        store = _disk_store(path)
        values = {
            "text": "snippet text",
            "tuple": (("doc", 3), ("doc", 7)),
            "dict": {"k": [1, 2, 3]},
            "norms": np.linspace(0.0, 1.0, 17),
        }
        for key, value in values.items():
            store.put(key, value)
        assert store.flush() > 0
        assert store.merge() > 0
        reopened = _disk_store(path)
        assert reopened.has_entries()
        for key, value in values.items():
            got = reopened.get(key)
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(got, value)
            else:
                assert got == value
        assert not reopened.contains("absent")
        assert reopened.get("absent", "fallback") == "fallback"

    def test_read_tiers_pending_over_delta_over_bucket(self, tmp_path):
        path = tmp_path / "a.cachestore"
        store = _disk_store(path)
        store.put("k", "bucketed")
        store.flush()
        store.merge()
        store.put("k", "deltaed")
        store.flush()
        assert store.get("k") == "deltaed"
        store.put("k", "pending")
        assert store.get("k") == "pending"
        # A reopen sees only what was flushed: the delta log wins over
        # the bucket, the unflushed put never travelled.
        assert _disk_store(path).get("k") == "deltaed"

    def test_pickles_by_path_only(self, tmp_path):
        path = tmp_path / "a.cachestore"
        store = _disk_store(path)
        store.put("persisted", 1)
        store.flush()
        store.put("unflushed", 2)
        payload = pickle.dumps(store, pickle.HIGHEST_PROTOCOL)
        assert len(payload) < 512  # a path, not the entries
        clone = pickle.loads(payload)
        assert clone.get("persisted") == 1
        assert clone.get("unflushed") is None

    def test_flush_of_nothing_is_zero_bytes(self, tmp_path):
        store = _disk_store(tmp_path / "a.cachestore")
        store.put("k", 1)
        assert store.flush() > 0
        assert store.flush() == 0
        assert store.merge() == 1
        assert store.merge() == 0

    def test_compact_path_folds_and_stays_loud(self, tmp_path):
        path = tmp_path / "a.cachestore"
        store = _disk_store(path)
        store.put("k", "v")
        store.flush()
        assert ShardedDiskCacheStore.compact_path(path) == 1
        assert _disk_store(path).get("k") == "v"
        with pytest.raises(ArtifactError):
            ShardedDiskCacheStore.compact_path(tmp_path / "absent.cachestore")

    def test_memory_store_reads_legacy_payload_files(self, tmp_path):
        # The memory backend must stay byte-compatible with files the
        # legacy save paths wrote (same container, same guards).
        path = tmp_path / "legacy.cache"
        first = MemoryCacheStore(path, _KIND, _FINGERPRINT)
        first.put("k", ("v", 1))
        assert first.flush() > 0
        assert load_cache_payload(path, _KIND, _FINGERPRINT) == {"k": ("v", 1)}
        assert MemoryCacheStore(path, _KIND, _FINGERPRINT).get("k") == ("v", 1)


# ------------------------------------------------------------------- delta compaction


class TestDeltaCompaction:
    def test_merge_rewrites_only_touched_buckets(self, tmp_path):
        path = tmp_path / "a.cachestore"
        store = _disk_store(path)
        for index in range(64):
            store.put(f"key-{index}", index)
        store.flush()
        assert store.merge() == 8  # every bucket occupied
        before = _bucket_files(path)
        grown = _disk_store(path)
        grown.put("one-new-key", "delta")
        grown.flush()
        assert grown.merge() == 1
        after = _bucket_files(path)
        changed = [
            name for name, mtime in after.items() if before.get(name) != mtime
        ]
        assert len(changed) == 1  # the one bucket the new key hashes to
        assert len(after) == len(before)
        reopened = _disk_store(path)
        assert reopened.get("one-new-key") == "delta"
        assert reopened.get("key-13") == 13

    def test_loaded_bytes_stays_small_until_probed(self, tmp_path):
        path = tmp_path / "a.cachestore"
        store = _disk_store(path)
        for index in range(64):
            store.put(f"key-{index}", "x" * 256)
        store.flush()
        store.merge()
        reopened = _disk_store(path)
        attach_bytes = reopened.loaded_bytes
        reopened.get("key-0")
        assert reopened.loaded_bytes > attach_bytes  # one bucket paged in
        # Attaching read only the manifest + compacted log, not the 16 KB
        # of bucket payload.
        assert attach_bytes < 2048


# ----------------------------------------------------------------------- robustness


class TestRobustness:
    def test_truncated_delta_tail_keeps_whole_records(self, tmp_path):
        path = tmp_path / "a.cachestore"
        store = _disk_store(path)
        for index in range(5):
            store.put(f"k{index}", f"v{index}")
        store.flush()
        log = path / "delta.log"
        log.write_bytes(log.read_bytes()[:-3])  # writer died mid-append
        survivor = _disk_store(path)
        for index in range(4):
            assert survivor.get(f"k{index}") == f"v{index}"
        assert survivor.get("k4") is None  # the torn tail starts cold
        # The next flush + merge proceeds normally on top of the tear.
        survivor.put("k4", "again")
        survivor.flush()
        assert survivor.merge() >= 1
        assert _disk_store(path).get("k4") == "again"

    def test_corrupt_bucket_serves_cold_not_crash(self, tmp_path):
        path = tmp_path / "a.cachestore"
        store = _disk_store(path, n_buckets=1)
        store.put("k", "v")
        store.flush()
        store.merge()
        (path / "bucket-0000.reprocache").write_bytes(b"garbage")
        assert _disk_store(path, n_buckets=1).get("k") is None

    def test_fingerprint_mismatch_invalidates_the_store(self, tmp_path):
        path = tmp_path / "a.cachestore"
        store = _disk_store(path)
        store.put("k", "v")
        store.flush()
        store.merge()
        foreign = _disk_store(path, fingerprint=("corpus", 25, "k1"))
        assert not foreign.has_entries()
        assert foreign.get("k") is None
        # The stale entries answer a world that no longer exists: the
        # foreign store's first flush resets the layout wholesale.
        foreign.put("k", "new-world")
        foreign.flush()
        assert _disk_store(
            path, fingerprint=("corpus", 25, "k1")
        ).get("k") == "new-world"
        assert not _disk_store(path).has_entries()


# --------------------------------------------------------------------- attach guards


class TestAttachGuards:
    def test_engine_refuses_foreign_fingerprint(self, tmp_path):
        engine = _make_engine()
        store = ShardedDiskCacheStore(
            tmp_path / ENGINE_CACHE_STORE,
            "search-results",
            fingerprint=("some", "other", "world"),
        )
        with pytest.raises(ValueError):
            engine.attach_results_store(store)
        assert engine.results_store is None

    def test_label_memo_refuses_foreign_fingerprint(self, classifier, tmp_path):
        annotator = EntityAnnotator(classifier, _make_engine(), AnnotatorConfig())
        store = ShardedDiskCacheStore(
            tmp_path / LABEL_MEMO_STORE,
            "label-memo",
            fingerprint=("some", "other", "classifier"),
        )
        with pytest.raises(ValueError):
            annotator.cell_annotator.attach_label_store(store)
        assert annotator.cell_annotator.label_store is None

    def test_matching_fingerprints_attach_and_flush(self, classifier, tmp_path):
        engine = _make_engine()
        annotator = EntityAnnotator(classifier, engine, AnnotatorConfig())
        engine.attach_results_store(
            ShardedDiskCacheStore(
                tmp_path / ENGINE_CACHE_STORE,
                "search-results",
                fingerprint=engine.cache_fingerprint(),
            )
        )
        annotator.cell_annotator.attach_label_store(
            ShardedDiskCacheStore(
                tmp_path / LABEL_MEMO_STORE,
                "label-memo",
                fingerprint=classifier.fingerprint(),
            )
        )
        annotator.annotate_table(_corpus(n_tables=1)[0], _TYPE_KEYS)
        assert engine.flush_results_store() > 0
        assert annotator.cell_annotator.flush_label_store() > 0
        assert engine.results_store.has_entries()
        assert annotator.cell_annotator.label_store.has_entries()


# ----------------------------------------------------------------- annotation parity


class TestAnnotationParity:
    def test_batched_runs_cold_and_warm(self, classifier, tmp_path):
        tables = _corpus()
        reference = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS)
        disk_config = AnnotatorConfig(cache_backend="disk", cache_buckets=8)
        cold = EntityAnnotator(
            classifier, _make_engine(), disk_config
        ).annotate_tables(tables, _TYPE_KEYS, cache_dir=tmp_path)
        warm = EntityAnnotator(
            classifier, _make_engine(), disk_config
        ).annotate_tables(tables, _TYPE_KEYS, cache_dir=tmp_path)
        assert cold == reference
        assert warm == reference
        assert repr(sorted(warm.tables.items())) == repr(
            sorted(reference.tables.items())
        )
        # In-process runs have no measured loads, so the diagnostics must
        # agree outright (cache-traffic fields are excluded from
        # comparisons by design -- they describe IO, not annotations).
        assert cold.diagnostics == reference.diagnostics
        assert warm.diagnostics == reference.diagnostics

    def test_per_cell_path_warm_from_store(self, classifier, tmp_path):
        table = _corpus(n_tables=2)[1]
        disk_config = AnnotatorConfig(cache_backend="disk", cache_buckets=8)
        seeder = EntityAnnotator(classifier, _make_engine(), disk_config)
        seeder.annotate_tables(_corpus(), _TYPE_KEYS, cache_dir=tmp_path)
        reference = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        )._annotate_table_per_cell(table, _TYPE_KEYS)
        warm = EntityAnnotator(classifier, _make_engine(), disk_config)
        warm.load_caches(tmp_path)
        assert repr(
            warm._annotate_table_per_cell(table, _TYPE_KEYS)
        ) == repr(reference)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_workers_identical_under_both_start_methods(
        self, classifier, tmp_path, start_method
    ):
        import multiprocessing

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable on this platform")
        tables = _corpus()
        reference = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS)

        def backend_run(backend):
            """Seed the backend's shared directory, then a workers=2 run."""
            cache_dir = tmp_path / backend
            cache_dir.mkdir()
            config = AnnotatorConfig(cache_backend=backend, cache_buckets=8)
            EntityAnnotator(
                classifier, _make_engine(), config
            ).annotate_tables(tables, _TYPE_KEYS, cache_dir=cache_dir)
            return annotate_tables_parallel(
                EntityAnnotator(classifier, _make_engine(), config),
                tables,
                _TYPE_KEYS,
                workers=2,
                cache_dir=cache_dir,
                start_method=start_method,
            )

        memory_run = backend_run("memory")
        disk_run = backend_run("disk")
        assert disk_run == memory_run == reference
        assert repr(sorted(disk_run.tables.items())) == repr(
            sorted(reference.tables.items())
        )
        assert _normalised(disk_run.diagnostics) == _normalised(
            memory_run.diagnostics
        )
        assert disk_run.diagnostics.virtual_seconds == pytest.approx(
            memory_run.diagnostics.virtual_seconds
        )
        assert len(disk_run.diagnostics.worker_loads) == 2
        # Every disk worker warm-started from the one shared store, and
        # said so in its measured load.
        assert all(
            load.cache_load_bytes > 0
            for load in disk_run.diagnostics.worker_loads
            if load.n_tasks
        )

    def test_service_path(self, classifier, tmp_path):
        table = _corpus(n_tables=1, rows_per_table=6)[0]
        reference = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_table(table, _TYPE_KEYS)
        disk_config = AnnotatorConfig(cache_backend="disk", cache_buckets=8)
        EntityAnnotator(
            classifier, _make_engine(), disk_config
        ).annotate_tables(_corpus(), _TYPE_KEYS, cache_dir=tmp_path)
        service = AnnotationService(
            EntityAnnotator(classifier, _make_engine(), disk_config),
            ServiceConfig(cache_dir=str(tmp_path)),
        ).start()
        try:
            response = service.submit(
                protocol.annotate_table_request(table, _TYPE_KEYS, "1")
            )
            assert response.ok
            assert (
                protocol.annotation_from_payload(response.result["annotation"])
                == reference
            )
            stats = service.submit(protocol.stats_request("2")).result
            assert stats["cache_backend"] == "disk"
            assert stats["cache_load_bytes"] > 0
        finally:
            service.stop()


# -------------------------------------------------------------------- observability


class TestCacheDiagnostics:
    def test_counters_cover_the_run_cold_then_warm(self, classifier, tmp_path):
        tables = _corpus()
        disk_config = AnnotatorConfig(cache_backend="disk", cache_buckets=8)
        cold = EntityAnnotator(
            classifier, _make_engine(), disk_config
        ).annotate_tables(tables, _TYPE_KEYS, cache_dir=tmp_path)
        assert cold.diagnostics.results_cache_misses > 0
        assert cold.diagnostics.label_memo_misses > 0
        assert cold.diagnostics.cache_saves >= 2  # both stores flushed
        assert cold.diagnostics.cache_save_bytes > 0
        assert cold.diagnostics.cache_lock_wait_seconds >= 0.0
        warm = EntityAnnotator(
            classifier, _make_engine(), disk_config
        ).annotate_tables(tables, _TYPE_KEYS, cache_dir=tmp_path)
        assert warm.diagnostics.results_cache_hits > 0
        assert warm.diagnostics.label_memo_hits > 0
        assert warm.diagnostics.cache_loads >= 2  # both stores attached
        assert warm.diagnostics.cache_load_bytes > 0

    def test_memory_backend_counters_too(self, classifier, tmp_path):
        tables = _corpus()
        config = AnnotatorConfig()  # memory is the byte-identical default
        EntityAnnotator(classifier, _make_engine(), config).annotate_tables(
            tables, _TYPE_KEYS, cache_dir=tmp_path
        )
        warm = EntityAnnotator(
            classifier, _make_engine(), config
        ).annotate_tables(tables, _TYPE_KEYS, cache_dir=tmp_path)
        assert warm.diagnostics.results_cache_hits > 0
        assert warm.diagnostics.cache_loads >= 2
        assert warm.diagnostics.cache_load_bytes > 0

    def test_disk_backend_reopens_its_stores_on_every_load(
        self, classifier, tmp_path
    ):
        # The skip rule belongs to the pickled-dict files only: a disk
        # load re-opens both stores, so a parent sees deltas its workers
        # flushed since.
        disk_config = AnnotatorConfig(cache_backend="disk", cache_buckets=8)
        EntityAnnotator(classifier, _make_engine(), disk_config).annotate_tables(
            _corpus(), _TYPE_KEYS, cache_dir=tmp_path
        )
        annotator = EntityAnnotator(classifier, _make_engine(), disk_config)
        annotator.load_caches(tmp_path)
        stores = (annotator.engine.results_store, annotator.cell_annotator.label_store)
        loads = annotator.engine.cache_loads + annotator.cell_annotator.cache_loads
        annotator.load_caches(tmp_path)
        assert annotator.engine.results_store is not stores[0]
        assert annotator.cell_annotator.label_store is not stores[1]
        assert (
            annotator.engine.cache_loads + annotator.cell_annotator.cache_loads
            == loads + 2
        )
