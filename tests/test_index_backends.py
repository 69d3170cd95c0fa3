"""Parity and contracts of the pluggable index storage backends.

The frozen mmap backend (:class:`repro.web.backends.FrozenMmapIndex`)
must be a pure *storage* change: compacting an
:class:`~repro.web.index.InvertedIndex` into an artifact and serving
queries from the memory-mapped file may change where the postings live,
never what any layer above computes.  This suite pins:

* the CSR round-trip -- every token, posting array (values *and*
  dtypes), document length, page and corpus statistic identical between
  the in-memory index and the reopened artifact, plus a Hypothesis
  property test over arbitrary corpora (partition-exact and
  order-preserving);
* both content digests preserved bit for bit, so persisted caches keyed
  by ``cache_fingerprint`` interoperate across backends;
* ranking/annotation parity at every granularity -- raw search, per-cell
  path, batched path, ``workers=2`` under both ``fork`` and ``spawn``,
  and the resident service -- byte-identical annotations and equal
  :class:`~repro.core.results.RunDiagnostics` (worker loads normalised:
  busy seconds and RSS are real measurements);
* the artifact contract -- pickling by path, refusal to mutate, loud
  :class:`~repro.persistence.ArtifactError` on foreign kinds, foreign
  layout versions and truncated files, and ``ensure_index_artifact``
  reusing a fresh artifact while rebuilding a stale or corrupt one.
"""

import dataclasses
import logging
import os
import pickle
import random
import tempfile

import numpy as np
import pytest
from annotation_reference import annotate_table_per_cell
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classify.dataset import TextDataset
from repro.classify.snippet import SnippetTypeClassifier
from repro.clock import VirtualClock
from repro.core.annotator import EntityAnnotator
from repro.core.config import AnnotatorConfig
from repro.core.parallel import annotate_tables_parallel
from repro.persistence import (
    ArtifactError,
    open_array_artifact,
    save_array_artifact,
)
from repro.service import protocol
from repro.service.daemon import AnnotationService, ServiceConfig
from repro.tables.model import Column, ColumnType, Table
from repro.web.backends import (
    INDEX_ARTIFACT_KIND,
    INDEX_LAYOUT_VERSION,
    FrozenIndexError,
    FrozenMmapIndex,
    IndexBackend,
    build_index_artifact,
    ensure_index_artifact,
)
from repro.web.documents import WebPage
from repro.web.index import InvertedIndex
from repro.web.search import SearchEngine

_WORDS = "exhibit gallery paintings curator collection museum".split()
_NAMES = [f"Venue {i}" for i in range(24)]
_TYPE_KEYS = ["museum", "restaurant"]


def _make_engine(index=None) -> SearchEngine:
    engine = SearchEngine(clock=VirtualClock(), index=index)
    if index is None:
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


def _layout_1_artifact(index, path):
    """An index artifact in layout 1: no positional sections."""
    build_index_artifact(index, path)
    header, sections = open_array_artifact(path, INDEX_ARTIFACT_KIND)
    header = {**header, "layout_version": 1}
    del header["n_positions"]
    sections = {
        name: np.array(array)
        for name, array in sections.items()
        if name not in ("positions", "position_offsets", "n_words")
    }
    save_array_artifact(path, INDEX_ARTIFACT_KIND, header, sections)
    return path


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


@pytest.fixture(scope="module")
def artifact_path(tmp_path_factory):
    """One artifact built from the canonical test engine's index."""
    return build_index_artifact(
        _make_engine().index, tmp_path_factory.mktemp("idx") / "index.reproidx"
    )


@pytest.fixture()
def frozen(artifact_path) -> FrozenMmapIndex:
    return FrozenMmapIndex.open(artifact_path)


def _normalised(diagnostics):
    """Diagnostics with the run-order-dependent parts blanked: per-worker
    loads are real measurements (busy seconds, attach timings, RSS), and
    ``virtual_seconds`` is summed over tasks in completion order, so its
    last float bit varies run to run even on one backend -- it is
    compared with ``pytest.approx`` separately.  Everything else must
    match exactly."""
    return dataclasses.replace(
        diagnostics, worker_loads=(), virtual_seconds=0.0
    )


# ------------------------------------------------------------------------ round-trip


class TestArtifactRoundTrip:
    def test_satisfies_the_backend_protocol(self, frozen):
        assert isinstance(frozen, IndexBackend)
        assert isinstance(InvertedIndex(), IndexBackend)
        assert frozen.backend_name == "mmap"

    def test_corpus_statistics_identical(self, frozen):
        index = _make_engine().index
        assert frozen.n_documents == index.n_documents
        assert frozen.average_length == index.average_length
        assert frozen.vocabulary_size() == index.vocabulary_size()
        assert frozen.title_boost == index.title_boost
        np.testing.assert_array_equal(
            np.asarray(frozen.lengths), np.asarray(index.lengths)
        )

    def test_every_posting_identical_values_and_dtypes(self, frozen):
        index = _make_engine().index
        assert list(frozen.tokens()) == list(index.tokens())
        for token in index.tokens():
            mem_ids, mem_tfs = index.posting_arrays(token)
            map_ids, map_tfs = frozen.posting_arrays(token)
            assert map_ids.dtype == mem_ids.dtype
            assert map_tfs.dtype == mem_tfs.dtype
            np.testing.assert_array_equal(map_ids, mem_ids)
            np.testing.assert_array_equal(map_tfs, mem_tfs)
            assert frozen.document_frequency(token) == index.document_frequency(
                token
            )
            assert frozen.postings(token) == index.postings(token)

    def test_posting_arrays_are_views_not_copies(self, frozen):
        ids, tfs = frozen.posting_arrays(next(frozen.tokens()))
        assert not ids.flags.owndata
        assert not tfs.flags.owndata

    def test_every_page_identical(self, frozen):
        index = _make_engine().index
        for doc_id in range(index.n_documents):
            assert frozen.page(doc_id) == index.page(doc_id)

    def test_digests_preserved(self, frozen):
        index = _make_engine().index
        assert frozen.content_digest() == index.content_digest()
        assert frozen.fingerprint_digest() == index.fingerprint_digest()

    def test_pickles_by_path_only(self, frozen):
        payload = pickle.dumps(frozen, pickle.HIGHEST_PROTOCOL)
        assert len(payload) < 512  # a path, not a postings store
        clone = pickle.loads(payload)
        assert clone.content_digest() == frozen.content_digest()
        token = next(frozen.tokens())
        np.testing.assert_array_equal(
            clone.posting_arrays(token)[0], frozen.posting_arrays(token)[0]
        )

    def test_annotator_payload_under_half_the_in_memory_one(
        self, classifier, frozen
    ):
        # What a spawn pool pickles to every worker: over the frozen
        # backend the annotator carries an artifact path, not postings.
        def payload_bytes(index=None):
            annotator = EntityAnnotator(
                classifier, _make_engine(index=index), AnnotatorConfig()
            )
            return len(pickle.dumps(annotator, pickle.HIGHEST_PROTOCOL))

        assert payload_bytes(frozen) < 0.5 * payload_bytes()

    def test_refuses_mutation(self, frozen):
        page = WebPage(url="https://x/new", title="New", body="new venue")
        with pytest.raises(FrozenIndexError):
            frozen.add(page)
        with pytest.raises(FrozenIndexError):
            frozen.add_many([page])


# ------------------------------------------------------------------------- contracts


class TestArtifactContracts:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ArtifactError):
            FrozenMmapIndex.open(tmp_path / "absent.reproidx")

    def test_foreign_kind_rejected(self, tmp_path):
        path = tmp_path / "other.reproidx"
        save_array_artifact(
            path, "not-an-index", {}, {"x": np.zeros(3, dtype=np.int64)}
        )
        with pytest.raises(ArtifactError):
            FrozenMmapIndex.open(path)

    def test_foreign_layout_version_rejected(self, tmp_path):
        path = tmp_path / "future.reproidx"
        save_array_artifact(
            path,
            INDEX_ARTIFACT_KIND,
            {"layout_version": 999},
            {"x": np.zeros(3, dtype=np.int64)},
        )
        with pytest.raises(ArtifactError):
            FrozenMmapIndex.open(path)

    def test_layout_1_artifact_rejected(self, tmp_path):
        path = _layout_1_artifact(_make_engine().index, tmp_path / "v1.reproidx")
        with pytest.raises(ArtifactError, match="index layout 1"):
            FrozenMmapIndex.open(path)

    def test_ensure_rebuilds_layout_1_artifact(self, tmp_path, caplog):
        index = _make_engine().index
        path = _layout_1_artifact(index, tmp_path / "index.reproidx")
        with caplog.at_level(logging.WARNING, logger="repro.web.backends"):
            frozen = ensure_index_artifact(index, path)
        assert any(
            "index.artifact_unusable" in record.message for record in caplog.records
        )
        header, _sections = open_array_artifact(path, INDEX_ARTIFACT_KIND)
        assert header["layout_version"] == INDEX_LAYOUT_VERSION
        assert [frozen.n_words(doc) for doc in range(index.n_documents)] == [
            index.n_words(doc) for doc in range(index.n_documents)
        ]

    def test_truncated_file_raises(self, tmp_path):
        path = build_index_artifact(
            _make_engine().index, tmp_path / "cut.reproidx"
        )
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(ArtifactError):
            FrozenMmapIndex.open(path)

    def test_ensure_reuses_fresh_artifact(self, tmp_path):
        index = _make_engine().index
        path = tmp_path / "index.reproidx"
        first = ensure_index_artifact(index, path)
        stamp = os.stat(path).st_mtime_ns
        second = ensure_index_artifact(index, path)
        assert os.stat(path).st_mtime_ns == stamp  # no rebuild
        assert second.fingerprint_digest() == first.fingerprint_digest()

    def test_ensure_rebuilds_stale_artifact(self, tmp_path):
        engine = _make_engine()
        path = tmp_path / "index.reproidx"
        ensure_index_artifact(engine.index, path)
        engine.add_page(
            WebPage(url="https://x/extra", title="Extra", body="extra venue")
        )
        frozen = ensure_index_artifact(engine.index, path)
        assert frozen.fingerprint_digest() == engine.index.fingerprint_digest()
        assert frozen.n_documents == engine.index.n_documents

    def test_ensure_rebuilds_corrupt_artifact(self, tmp_path):
        index = _make_engine().index
        path = tmp_path / "index.reproidx"
        ensure_index_artifact(index, path)
        path.write_bytes(b"garbage")
        frozen = ensure_index_artifact(index, path)
        assert frozen.content_digest() == index.content_digest()


# --------------------------------------------------------------------- engine parity


class TestEngineParity:
    def test_search_byte_identical(self, frozen):
        memory_engine = _make_engine()
        mmap_engine = _make_engine(index=frozen)
        for name in _NAMES:
            assert repr(mmap_engine.search(name)) == repr(
                memory_engine.search(name)
            )

    def test_cache_fingerprint_identical(self, frozen):
        # Persisted result caches are keyed by this: the same corpus must
        # fingerprint the same through either backend, or a backend swap
        # would silently cold-start every cache.
        assert (
            _make_engine(index=frozen).cache_fingerprint()
            == _make_engine().cache_fingerprint()
        )

    def test_use_index_backend_swaps_in_place(self, frozen):
        engine = _make_engine()
        results = [engine.search(name) for name in _NAMES[:4]]
        engine.use_index_backend(frozen)
        assert engine.index.backend_name == "mmap"
        assert [engine.search(name) for name in _NAMES[:4]] == results

    def test_use_index_backend_rejects_different_corpus(self, frozen):
        other = SearchEngine(clock=VirtualClock())
        other.add_page(
            WebPage(url="https://x/one", title="One", body="one venue")
        )
        with pytest.raises(ValueError):
            other.use_index_backend(frozen)


# ----------------------------------------------------------------- annotation parity


class TestAnnotationParity:
    def test_per_cell_path(self, classifier, frozen):
        memory = EntityAnnotator(classifier, _make_engine(), AnnotatorConfig())
        mmap = EntityAnnotator(
            classifier, _make_engine(index=frozen), AnnotatorConfig()
        )
        for table in _corpus(n_tables=2):
            assert repr(
                annotate_table_per_cell(mmap, table, _TYPE_KEYS)
            ) == repr(annotate_table_per_cell(memory, table, _TYPE_KEYS))

    def test_batched_corpus_run(self, classifier, frozen):
        tables = _corpus()
        reference = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS)
        run = EntityAnnotator(
            classifier, _make_engine(index=frozen), AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS)
        assert run == reference
        assert repr(sorted(run.tables.items())) == repr(
            sorted(reference.tables.items())
        )
        # In-process runs have no measured loads, so the diagnostics must
        # agree outright -- virtual clock included.
        assert run.diagnostics == reference.diagnostics

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_workers_identical_under_both_start_methods(
        self, classifier, frozen, start_method
    ):
        import multiprocessing

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable on this platform")
        tables = _corpus()
        reference = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS)

        def parallel_run(index=None):
            return annotate_tables_parallel(
                EntityAnnotator(
                    classifier, _make_engine(index=index), AnnotatorConfig()
                ),
                tables,
                _TYPE_KEYS,
                workers=2,
                start_method=start_method,
            )

        memory_run = parallel_run()
        mmap_run = parallel_run(index=frozen)
        # Annotations byte-identical across granularities and backends.
        assert mmap_run == memory_run == reference
        assert repr(sorted(mmap_run.tables.items())) == repr(
            sorted(reference.tables.items())
        )
        # Diagnostics identical between the backends at the same
        # granularity -- query counts, cache traffic, chunking, all of it
        # (measured per-worker loads normalised; virtual seconds compared
        # approximately, their summation order follows task completion).
        assert _normalised(mmap_run.diagnostics) == _normalised(
            memory_run.diagnostics
        )
        assert mmap_run.diagnostics.virtual_seconds == pytest.approx(
            memory_run.diagnostics.virtual_seconds
        )
        assert len(mmap_run.diagnostics.worker_loads) == 2

    def test_service_path(self, classifier, frozen):
        table = _corpus(n_tables=1, rows_per_table=6)[0]
        reference = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_table(table, _TYPE_KEYS)
        service = AnnotationService(
            EntityAnnotator(
                classifier, _make_engine(index=frozen), AnnotatorConfig()
            ),
            ServiceConfig(),
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
        finally:
            service.stop()


# --------------------------------------------------------------- property (hypothesis)

_page_texts = st.lists(
    st.text(
        alphabet=st.characters(min_codepoint=97, max_codepoint=122),
        min_size=1,
        max_size=6,
    ),
    min_size=1,
    max_size=12,
).map(" ".join)


@settings(max_examples=25, deadline=None)
@given(
    bodies=st.lists(_page_texts, min_size=1, max_size=8),
    title_boost=st.floats(min_value=1.0, max_value=4.0, allow_nan=False),
)
def test_artifact_round_trip_is_partition_exact(bodies, title_boost):
    """For any corpus: the CSR build partitions every posting into exactly
    one token row, preserves per-token append order, and reproduces pages,
    lengths and digests bit for bit after a reopen."""
    index = InvertedIndex(title_boost=title_boost)
    index.add_many(
        WebPage(url=f"https://x/{i}", title=f"p{i}", body=body)
        for i, body in enumerate(bodies)
    )
    with tempfile.TemporaryDirectory() as tmp:
        frozen = FrozenMmapIndex.open(
            build_index_artifact(index, os.path.join(tmp, "index.reproidx"))
        )
        assert list(frozen.tokens()) == list(index.tokens())
        total_postings = 0
        for token in index.tokens():
            mem = list(index.raw_postings(token))
            got = list(zip(*[part.tolist() for part in frozen.posting_arrays(token)]))
            assert got == mem  # order-preserving, value-exact
            total_postings += len(mem)
        assert total_postings == sum(
            len(index.raw_postings(token)) for token in frozen.tokens()
        )
        assert frozen.n_documents == index.n_documents
        assert frozen.average_length == index.average_length
        for doc_id in range(index.n_documents):
            assert frozen.page(doc_id) == index.page(doc_id)
        assert frozen.content_digest() == index.content_digest()
        assert frozen.fingerprint_digest() == index.fingerprint_digest()
