"""Persistence regression: durable engine caches across "processes".

The engine's amortisation state -- the token-signature -> results cache
and the lifetime snippet -> label memo -- must round-trip through disk
(``EntityAnnotator.save_caches`` / ``load_caches``) with three guarantees:

* a warm-started annotator produces byte-identical annotations and
  virtual-clock accounting (warmth changes compute, never protocol);
* stale caches are *refused*: corpus growth, BM25 parameter changes,
  classifier retraining and format-version bumps all invalidate the file,
  mirroring the in-memory cache-drop hooks;
* loading is never a correctness dependency -- missing or corrupt files
  just mean a cold start;
* a load or save that would change nothing is skipped, and one that
  might -- new entries, a replaced, deleted or re-fingerprinted file, a
  cleared cache -- never is;
* every path that warm-starts from a cache directory -- the per-cell
  path, ``workers=2`` pools under both ``fork`` and ``spawn``, and the
  resident service -- answers byte-identically to a cold in-process
  run, and the cache diagnostics see the warm run;
* a file's bytes are a function of its entries alone, so a cold pass
  writes the same files in process and in fork and spawn pools, and a
  file naming a global starts cold without running it.
"""

import logging
import pickle
import random

import pytest
from annotation_reference import annotate_table_per_cell

from repro import persistence
from repro.classify.dataset import TextDataset
from repro.classify.snippet import SnippetTypeClassifier
from repro.clock import VirtualClock
from repro.core.annotator import ENGINE_CACHE_FILE, LABEL_MEMO_FILE, EntityAnnotator
from repro.core.config import AnnotatorConfig
from repro.core.parallel import annotate_tables_parallel
from repro.eval.experiments import ALL_TYPE_KEYS
from repro.service import protocol
from repro.service.daemon import AnnotationService, ServiceConfig
from repro.tables.model import Column, ColumnType, Table
from repro.web.documents import WebPage
from repro.web.index import FrozenIndexError
from repro.web.ranking import BM25Parameters
from repro.web.search import SearchEngine, SearchResult

_WORDS = "exhibit gallery paintings curator collection museum".split()
_NAMES = ["Grand Gallery", "Stone Hall", "Blue Door"]


_TRIPPED: list[str] = []


def _tripwire() -> None:
    _TRIPPED.append("called")


class _CallsTripwire:
    """Unpickles by calling :func:`_tripwire`."""

    def __reduce__(self):
        return _tripwire, ()


def _dump_blob(path, version, fingerprint, payload) -> None:
    """A results-cache file as an old or hostile writer would leave it."""
    with open(path, "wb") as handle:
        pickle.dump(
            {
                "format_version": version,
                "kind": "search-results",
                "fingerprint": fingerprint,
                "payload": payload,
            },
            handle,
        )


def _make_engine(parameters=None, names=_NAMES, pages_per_name=8) -> SearchEngine:
    engine = SearchEngine(clock=VirtualClock(), parameters=parameters)
    rng = random.Random(0)
    engine.add_pages(
        [
            WebPage(
                url=f"https://x/{name.replace(' ', '-').lower()}-{i}",
                title=name,
                body=f"{name.lower()} " + " ".join(rng.choices(_WORDS, k=30)),
            )
            for name in names
            for i in range(pages_per_name)
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


def _table(values) -> Table:
    table = Table(name="t", columns=[Column("Name", ColumnType.TEXT)])
    for value in values:
        table.append_row([value])
    return table


class TestEngineCacheRoundTrip:
    def test_warm_engine_matches_cold(self, classifier, tmp_path):
        first = _make_engine()
        annotator = EntityAnnotator(classifier, first, AnnotatorConfig())
        cold = annotator.annotate_tables([_table(_NAMES)], ["museum", "restaurant"])
        annotator.save_caches(tmp_path)

        second = _make_engine()  # "another process" over the same corpus
        warm_annotator = EntityAnnotator(classifier, second, AnnotatorConfig())
        loaded = warm_annotator.load_caches(tmp_path)
        assert loaded == {"search_results": True, "label_memo": True}
        warm = warm_annotator.annotate_tables(
            [_table(_NAMES)], ["museum", "restaurant"]
        )
        assert warm == cold
        # Identical protocol accounting: warmth never changes charges.
        assert second.clock.n_charges == first.clock.n_charges
        assert second.clock.elapsed_seconds == first.clock.elapsed_seconds
        # ... but the warm engine answered from the signature cache.
        assert warm.diagnostics == cold.diagnostics

    def test_save_then_load_same_engine_is_noop_safe(self, tmp_path):
        engine = _make_engine()
        engine.search_many(_NAMES, k=5)
        engine.save_results_cache(tmp_path / "cache.bin")
        assert engine.load_results_cache(tmp_path / "cache.bin") is True
        assert engine._results_cache.loads == 0  # the file holds nothing new

    def test_missing_file_is_cold_start(self, tmp_path):
        engine = _make_engine()
        assert engine.load_results_cache(tmp_path / "nope.bin") is False

    def test_corrupt_file_is_cold_start(self, tmp_path):
        path = tmp_path / "cache.bin"
        path.write_bytes(b"not a pickle")
        engine = _make_engine()
        assert engine.load_results_cache(path) is False

    def test_corpus_growth_invalidates(self, tmp_path):
        engine = _make_engine()
        engine.search_many(_NAMES, k=5)
        engine.save_results_cache(tmp_path / "cache.bin")
        grown = _make_engine()
        grown.add_page(WebPage(url="https://x/new", title="New", body="new page"))
        assert grown.load_results_cache(tmp_path / "cache.bin") is False

    def test_same_shaped_different_corpus_invalidates(self, tmp_path):
        # Two corpora with identical page counts and body shapes (two
        # worlds differing only in seed, say) must not share a cache:
        # the fingerprint covers content identity, not just size.
        engine = _make_engine()
        engine.search_many(_NAMES, k=5)
        engine.save_results_cache(tmp_path / "cache.bin")
        other = SearchEngine(clock=VirtualClock())
        rng = random.Random(99)
        other.add_pages(
            [
                WebPage(
                    url=f"https://y/{name.replace(' ', '-').lower()}-{i}",
                    title=name,
                    body=f"{name.lower()} " + " ".join(rng.choices(_WORDS, k=30)),
                )
                for name in ["Iron Court", "Green Arch", "Red Loft"]
                for i in range(8)
            ]
        )
        assert other.load_results_cache(tmp_path / "cache.bin") is False

    def test_body_only_difference_invalidates(self, tmp_path):
        # Regression: the fingerprint once covered only url, title and
        # indexed *length*.  Two corpora whose bodies are permutations of
        # the same words collide on all three (same urls, titles, token
        # counts) yet rank different snippets -- they must never validate
        # each other's persisted results.
        def permuted_engine(reverse: bool) -> SearchEngine:
            engine = SearchEngine(clock=VirtualClock())
            words = ["alpha", "beta", "gamma", "delta"]
            body_words = list(reversed(words)) if reverse else words
            engine.add_pages(
                [
                    WebPage(
                        url=f"https://x/page-{i}",
                        title="Page",
                        body=" ".join(body_words),
                    )
                    for i in range(4)
                ]
            )
            return engine

        engine = permuted_engine(reverse=False)
        engine.search_many(["alpha"], k=2)
        engine.save_results_cache(tmp_path / "cache.bin")
        other = permuted_engine(reverse=True)
        assert other.cache_fingerprint() != engine.cache_fingerprint()
        assert other.load_results_cache(tmp_path / "cache.bin") is False

    def test_parameter_change_invalidates(self, tmp_path):
        engine = _make_engine()
        engine.save_results_cache(tmp_path / "cache.bin")
        other = _make_engine(parameters=BM25Parameters(k1=1.2, b=0.5))
        assert other.load_results_cache(tmp_path / "cache.bin") is False

    def test_format_version_bump_invalidates(self, tmp_path, monkeypatch):
        engine = _make_engine()
        engine.save_results_cache(tmp_path / "cache.bin")
        monkeypatch.setattr(persistence, "CACHE_FORMAT_VERSION", 999)
        assert engine.load_results_cache(tmp_path / "cache.bin") is False

    def test_persisted_payload_is_the_results_dict(self, tmp_path):
        engine = _make_engine()
        engine.search_many(_NAMES, k=5)
        engine.save_results_cache(tmp_path / "cache.bin")
        with open(tmp_path / "cache.bin", "rb") as handle:
            blob = pickle.load(handle)
        assert blob["format_version"] == persistence.CACHE_FORMAT_VERSION
        assert type(blob["payload"]) is dict
        assert blob["payload"] == dict(engine._results_cache)

    def test_a_file_naming_a_global_cold_starts_without_calling_it(
        self, tmp_path, caplog
    ):
        # Valid files hold plain values only, so the loader refuses any
        # pickle naming a global: a file dropped into a shared cache
        # directory cannot make a load call code.
        engine = _make_engine()
        path = tmp_path / "cache.bin"
        _dump_blob(
            path,
            persistence.CACHE_FORMAT_VERSION,
            engine.cache_fingerprint(),
            {("trap",): _CallsTripwire()},
        )
        with caplog.at_level(logging.WARNING, logger="repro.persistence"):
            assert engine.load_results_cache(path) is False
        assert _TRIPPED == []
        assert not engine._results_cache
        assert any(
            "cache.file_unreadable" in record.message for record in caplog.records
        )

    def test_format_3_file_of_search_results_cold_starts(self, tmp_path):
        # Format 3 pickled SearchResult objects; such a file names the
        # class, so it starts cold under its own version number and under
        # the current one, and the next save replaces it.
        engine = _make_engine()
        engine.search_many(_NAMES, k=5)
        entries = {
            signature: [SearchResult._make(pair) for pair in pairs]
            for signature, pairs in engine._results_cache.items()
        }
        fresh = _make_engine()
        for version in (3, persistence.CACHE_FORMAT_VERSION):
            path = tmp_path / f"cache-{version}.bin"
            _dump_blob(path, version, engine.cache_fingerprint(), entries)
            assert fresh.load_results_cache(path) is False
            assert not fresh._results_cache
            assert engine.save_results_cache(path) is True
            assert fresh.load_results_cache(path) is True
            assert dict(fresh._results_cache) == dict(engine._results_cache)
            fresh.reset_compute_caches()

    def test_warm_batch_mixing_hits_and_misses_matches_cold(self, tmp_path):
        # A loaded entry is a tuple of (doc id, snippet) pairs; a batch
        # that mixes such hits with signatures ranked in the same batch,
        # and repeats a query, answers as a cold engine does.
        path = tmp_path / "cache.bin"
        seeder = _make_engine()
        seeder.search_many(_NAMES[:2], k=5)
        seeder.save_results_cache(path)
        warm = _make_engine()
        assert warm.load_results_cache(path) is True
        batch = [_NAMES[0], "gallery paintings", _NAMES[2], _NAMES[1],
                 "gallery paintings", _NAMES[0], "zzz"]
        expected = _make_engine().search_many(batch, k=5)
        assert warm.search_many(batch, k=5) == expected
        assert all(expected[:-1]) and expected[-1] == []
        assert (warm._cache_hits, warm._cache_misses) == (2, 3)

    def test_version_1_file_with_page_windows_cold_starts(self, tmp_path):
        # The format-1 payload also pickled per-page snippet windows, and
        # format 2 the BM25 norms beside the results; either file, even
        # for this very corpus, must cold-start, and the next save must
        # replace it with the current format's plain dict.
        engine = _make_engine()
        engine.search_many(_NAMES[:1], k=5)
        stale_entries = dict(engine._results_cache)
        engine.reset_compute_caches()
        legacy = {
            1: {
                "results": stale_entries,
                "page_windows": {0: (["melisse"], {"melisse": [0]})},
                "word_tokens": {"melisse": ("melisse",)},
                "norms": None,
            },
            2: {"results": stale_entries, "norms": None},
        }
        for version, payload in legacy.items():
            path = tmp_path / f"cache-{version}.bin"
            with open(path, "wb") as handle:
                pickle.dump(
                    {
                        "format_version": version,
                        "kind": "search-results",
                        "fingerprint": engine.cache_fingerprint(),
                        "payload": payload,
                    },
                    handle,
                )
            assert engine.load_results_cache(path) is False
            assert not engine._results_cache
            fresh = _make_engine()
            fresh.search_many(_NAMES[1:], k=5)
            assert fresh.save_results_cache(path) is True
            with open(path, "rb") as handle:
                blob = pickle.load(handle)
            assert blob["format_version"] == persistence.CACHE_FORMAT_VERSION
            # Replaced, not merged: nothing of the old payload survives.
            assert blob["payload"] == dict(fresh._results_cache)
            assert not set(stale_entries) & set(blob["payload"])
            assert _make_engine().load_results_cache(path) is True

    def test_add_page_after_a_query_changes_nothing(self, tmp_path):
        # Build, freeze, then query: a page offered after the first query
        # is refused before it can touch the index or either cache.
        path = tmp_path / "cache.bin"
        engine = _make_engine()
        engine.search_many(_NAMES, k=5)
        engine.save_results_cache(path)
        index, results = engine.index, dict(engine._results_cache)
        sync = vars(engine._results_cache).copy()
        with pytest.raises(FrozenIndexError):
            engine.add_page(WebPage(url="https://x/new", title="New", body="new page"))
        assert engine.index is index and index.n_documents == 3 * 8
        assert engine._results_cache == results
        assert vars(engine._results_cache) == sync
        engine.save_results_cache(path)
        assert engine._results_cache.saves == 1  # still in sync: nothing to write


class TestLabelMemoRoundTrip:
    def test_memo_fingerprinted_by_classifier(self, classifier, tmp_path):
        engine = _make_engine()
        annotator = EntityAnnotator(classifier, engine, AnnotatorConfig())
        annotator.annotate_tables([_table(_NAMES)], ["museum", "restaurant"])
        annotator.save_caches(tmp_path)

        # Same training -> same fingerprint -> memo loads.
        twin = EntityAnnotator(_train(), _make_engine(), AnnotatorConfig())
        assert twin.load_caches(tmp_path)["label_memo"] is True
        assert twin.cell_annotator._label_memo

        # Different training -> different fingerprint -> refused.
        other = EntityAnnotator(_train(seed=5), _make_engine(), AnnotatorConfig())
        assert other.load_caches(tmp_path)["label_memo"] is False
        assert not other.cell_annotator._label_memo

    def test_fingerprint_stability_and_sensitivity(self, classifier):
        assert classifier.fingerprint() == classifier.fingerprint()
        assert _train().fingerprint() == classifier.fingerprint()
        assert _train(seed=5).fingerprint() != classifier.fingerprint()
        bayes = SnippetTypeClassifier(backend="bayes", min_count=1)
        with pytest.raises(RuntimeError):
            bayes.fingerprint()

    def test_memo_kind_and_engine_kind_not_interchangeable(
        self, classifier, tmp_path
    ):
        engine = _make_engine()
        annotator = EntityAnnotator(classifier, engine, AnnotatorConfig())
        annotator.annotate_tables([_table(_NAMES)], ["museum"])
        annotator.save_caches(tmp_path)
        # Point each loader at the other's file: both must refuse.
        assert (
            engine.load_results_cache(tmp_path / LABEL_MEMO_FILE) is False
        )
        assert (
            annotator.cell_annotator.load_label_memo(
                tmp_path / ENGINE_CACHE_FILE
            )
            is False
        )


class TestPayloadHelpers:
    """``PersistedDict`` on its own: guards, directories and failed writes."""

    @staticmethod
    def _saved(path, fingerprint, entries) -> persistence.PersistedDict:
        cache = persistence.PersistedDict("k")
        cache.update(entries)
        assert cache.save(path, fingerprint) is True
        return cache

    def test_round_trip(self, tmp_path):
        path = tmp_path / "x.bin"
        self._saved(path, ("f", 1), {"a": 1})
        loaded = persistence.PersistedDict("k")
        assert loaded.load(path, ("f", 1)) is True
        assert loaded == {"a": 1}
        assert (loaded.loads, loaded.load_bytes) == (1, path.stat().st_size)

    def test_fingerprint_mismatch(self, tmp_path):
        path = tmp_path / "x.bin"
        self._saved(path, ("f", 1), {"a": 1})
        loaded = persistence.PersistedDict("k")
        assert loaded.load(path, ("f", 2)) is False
        assert loaded == {} and loaded.loads == 0
        assert persistence.PersistedDict("other").load(path, ("f", 1)) is False

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "x.bin"
        self._saved(path, "f", {1: [1, 2]})
        loaded = persistence.PersistedDict("k")
        assert loaded.load(path, "f") is True
        assert loaded == {1: [1, 2]}

    def test_failed_dump_cleans_up_temp_file(self, tmp_path):
        # Regression: an unpicklable value (or a full disk) used to
        # strand a ``*.tmp.<pid>`` file next to the cache.
        path = tmp_path / "x.bin"
        cache = persistence.PersistedDict("k")
        cache["a"] = lambda: None
        with pytest.raises(Exception):
            cache.save(path, "f")
        assert list(tmp_path.iterdir()) in ([], [persistence.lock_path_for(path)])
        assert not path.exists()
        assert cache.saves == 0


def _file_state(path) -> tuple:
    """What a skipped write must leave alone: inode, mtime and bytes."""
    stat = path.stat()
    return stat.st_ino, stat.st_mtime_ns, path.read_bytes()


class TestSkipUnchangedIO:
    """``PersistedDict``: loads and saves that would change nothing are
    skipped; anything that might have changed either side is not."""

    def _saved(self, tmp_path, queries=_NAMES):
        path = tmp_path / "cache.bin"
        engine = _make_engine()
        engine.search_many(queries, k=5)
        assert engine.save_results_cache(path) is True
        return path

    def test_reload_of_an_unchanged_file_reads_nothing(self, tmp_path):
        path = self._saved(tmp_path)
        engine = _make_engine()
        assert engine.load_results_cache(path) is True
        read = engine._results_cache.load_bytes
        assert read == path.stat().st_size and engine._results_cache.loads == 1
        assert engine.load_results_cache(path) is True
        assert engine._results_cache.load_bytes == read and engine._results_cache.loads == 1

    def test_save_after_load_leaves_the_file_untouched(self, tmp_path):
        path = self._saved(tmp_path)
        before = _file_state(path)
        engine = _make_engine()
        engine.load_results_cache(path)
        engine.search_many(_NAMES, k=5)  # every answer already cached
        assert engine.save_results_cache(path) is True
        assert _file_state(path) == before
        assert engine._results_cache.saves == 0 and engine._results_cache.save_bytes == 0

    def test_save_after_an_insert_writes(self, tmp_path):
        path = self._saved(tmp_path, queries=_NAMES[:1])
        engine = _make_engine()
        engine.load_results_cache(path)
        engine.search_many(_NAMES, k=5)  # two new signatures
        engine.save_results_cache(path)
        assert engine._results_cache.saves == 1
        fresh = _make_engine()
        fresh.load_results_cache(path)
        assert len(fresh._results_cache) == len(engine._results_cache)

    def test_a_save_that_merged_in_other_entries_does_not_skip_a_load(
        self, tmp_path
    ):
        path = self._saved(tmp_path, queries=_NAMES[:1])
        engine = _make_engine()
        engine.search_many(["gallery paintings"], k=5)
        engine.save_results_cache(path)  # the file gains this entry
        assert len(engine._results_cache) == 1
        assert engine.load_results_cache(path) is True
        assert engine._results_cache.loads == 1 and len(engine._results_cache) == 2

    def test_replaced_file_is_never_skipped(self, tmp_path):
        path = self._saved(tmp_path)
        engine = _make_engine()
        engine.load_results_cache(path)
        copy = tmp_path / "copy.bin"
        copy.write_bytes(path.read_bytes())
        copy.replace(path)  # same bytes, new inode
        assert engine.load_results_cache(path) is True
        assert engine._results_cache.loads == 2
        copy.write_bytes(path.read_bytes())
        copy.replace(path)
        engine.save_results_cache(path)
        assert engine._results_cache.saves == 1

    def test_deleted_file_is_never_skipped(self, tmp_path):
        path = self._saved(tmp_path)
        engine = _make_engine()
        engine.load_results_cache(path)
        path.unlink()
        engine.save_results_cache(path)
        assert engine._results_cache.saves == 1 and path.exists()
        path.unlink()
        assert engine.load_results_cache(path) is False

    def test_re_fingerprinted_file_is_never_skipped(self, tmp_path):
        path = self._saved(tmp_path)
        engine = _make_engine()
        engine.load_results_cache(path)
        other = _make_engine(parameters=BM25Parameters(k1=1.2, b=0.5))
        other.search_many(_NAMES, k=5)
        other.save_results_cache(path)  # same path, other fingerprint
        assert engine.load_results_cache(path) is False
        engine.save_results_cache(path)
        assert engine._results_cache.saves == 1
        assert _make_engine().load_results_cache(path) is True

    def test_load_into_a_non_empty_engine_still_saves(self, tmp_path):
        path = self._saved(tmp_path, queries=_NAMES[:1])
        engine = _make_engine()
        engine.search_many(["gallery paintings"], k=5)  # not in the file
        engine.load_results_cache(path)
        engine.save_results_cache(path)
        assert engine._results_cache.saves == 1
        fresh = _make_engine()
        fresh.load_results_cache(path)
        assert len(fresh._results_cache) == 2

    def test_reset_compute_caches_forgets(self, tmp_path):
        path = self._saved(tmp_path)
        engine = _make_engine()
        engine.load_results_cache(path)
        engine.reset_compute_caches()
        assert engine.load_results_cache(path) is True
        assert engine._results_cache.loads == 2 and engine._results_cache
        engine.reset_compute_caches()
        engine.save_results_cache(path)
        assert engine._results_cache.saves == 1

    def test_classifier_swap_forgets(self, classifier, tmp_path):
        annotator = EntityAnnotator(classifier, _make_engine(), AnnotatorConfig())
        annotator.annotate_tables([_table(_NAMES)], ["museum", "restaurant"])
        annotator.save_caches(tmp_path)
        cells = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).cell_annotator
        assert cells.load_label_memo(tmp_path / LABEL_MEMO_FILE) is True
        read = cells._label_memo.load_bytes
        # A retrained twin has the same fingerprint, but the swap resets
        # the memo, so the file must be read again.
        cells.classifier = _train()
        assert cells.load_label_memo(tmp_path / LABEL_MEMO_FILE) is True
        assert cells._label_memo.load_bytes == 2 * read
        assert cells._label_memo
        before = _file_state(tmp_path / LABEL_MEMO_FILE)
        assert cells.save_label_memo(tmp_path / LABEL_MEMO_FILE) is True
        assert _file_state(tmp_path / LABEL_MEMO_FILE) == before

    def test_a_pickled_copy_reads_for_itself(self, tmp_path):
        path = self._saved(tmp_path)
        engine = _make_engine()
        engine.load_results_cache(path)
        copy = pickle.loads(pickle.dumps(engine))
        assert copy.load_results_cache(path) is True
        assert copy._results_cache.load_bytes == 2 * engine._results_cache.load_bytes


# -------------------------------------------------------------- warm-start parity

_VENUES = [f"Venue {i}" for i in range(24)]
_TYPE_KEYS = ["museum", "restaurant"]


def _venue_engine() -> SearchEngine:
    """Engine over 24 venues x 4 pages, so each table names its own."""
    return _make_engine(names=_VENUES, pages_per_name=4)


def _venue_corpus(n_tables=6, rows_per_table=3) -> list[Table]:
    """Distinct-content corpus: every table names its own venues."""
    tables = []
    for index in range(n_tables):
        table = Table(
            name=f"t{index}", columns=[Column("Name", ColumnType.TEXT)]
        )
        for row in range(rows_per_table):
            table.append_row(
                [_VENUES[(index * rows_per_table + row) % len(_VENUES)]]
            )
        tables.append(table)
    return tables


class TestWarmStartParity:
    def test_per_cell_path_warm_from_files(self, classifier, tmp_path):
        table = _venue_corpus(n_tables=2)[1]
        config = AnnotatorConfig()
        seeder = EntityAnnotator(classifier, _venue_engine(), config)
        seeder.annotate_tables(_venue_corpus(), _TYPE_KEYS, cache_dir=tmp_path)
        reference = annotate_table_per_cell(
            EntityAnnotator(classifier, _venue_engine(), AnnotatorConfig()),
            table,
            _TYPE_KEYS,
        )
        warm = EntityAnnotator(classifier, _venue_engine(), config)
        warm.load_caches(tmp_path)
        assert repr(
            annotate_table_per_cell(warm, table, _TYPE_KEYS)
        ) == repr(reference)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_workers_identical_under_both_start_methods(
        self, classifier, tmp_path, start_method
    ):
        import multiprocessing

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable on this platform")
        tables = _venue_corpus()
        reference = EntityAnnotator(
            classifier, _venue_engine(), AnnotatorConfig()
        ).annotate_batch(tables, _TYPE_KEYS)
        # Seed the shared directory, then a warm workers=2 run from it.
        config = AnnotatorConfig()
        EntityAnnotator(
            classifier, _venue_engine(), config
        ).annotate_tables(tables, _TYPE_KEYS, cache_dir=tmp_path)
        warm_run = annotate_tables_parallel(
            EntityAnnotator(classifier, _venue_engine(), config),
            tables,
            _TYPE_KEYS,
            workers=2,
            cache_dir=tmp_path,
            start_method=start_method,
        )
        assert warm_run.annotations == reference.annotations

    def test_service_path(self, classifier, tmp_path):
        table = _venue_corpus(n_tables=1, rows_per_table=6)[0]
        reference = EntityAnnotator(
            classifier, _venue_engine(), AnnotatorConfig()
        ).annotate_table(table, _TYPE_KEYS)
        config = AnnotatorConfig()
        EntityAnnotator(
            classifier, _venue_engine(), config
        ).annotate_tables(_venue_corpus(), _TYPE_KEYS, cache_dir=tmp_path)
        service = AnnotationService(
            EntityAnnotator(classifier, _venue_engine(), config),
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
            assert stats["cache_load_bytes"] > 0
        finally:
            service.stop()


class TestCacheDiagnostics:
    def test_counters_cover_a_warm_run(self, classifier, tmp_path):
        tables = _venue_corpus()
        config = AnnotatorConfig()
        EntityAnnotator(classifier, _venue_engine(), config).annotate_tables(
            tables, _TYPE_KEYS, cache_dir=tmp_path
        )
        warm = EntityAnnotator(
            classifier, _venue_engine(), config
        ).annotate_tables(tables, _TYPE_KEYS, cache_dir=tmp_path)
        assert warm.diagnostics.results_cache_hits > 0
        assert warm.diagnostics.cache_loads >= 2
        assert warm.diagnostics.cache_load_bytes > 0


class TestPooledCacheBytes:
    def test_pooled_cache_files_equal_the_in_process_ones(
        self, small_context, tmp_path
    ):
        # A file is a function of its entries alone: whichever worker
        # saved first, and whichever strings are one object in memory, a
        # cold pass writes the same two files in process, in a fork pool
        # and in a spawn pool.
        import multiprocessing

        engine = small_context.world.search_engine
        classifier = small_context.classifiers["svm"]
        tables = small_context.gft.tables
        runs = [(1, None), (2, None), (2, None)]
        if "spawn" in multiprocessing.get_all_start_methods():
            runs.append((2, "spawn"))
        files = []
        for number, (workers, start_method) in enumerate(runs):
            engine.reset_compute_caches()
            annotator = EntityAnnotator(classifier, engine)
            cache_dir = tmp_path / str(number)
            if start_method is None:
                annotator.annotate_batch(
                    tables, ALL_TYPE_KEYS, workers=workers, cache_dir=cache_dir
                )
            else:
                annotate_tables_parallel(
                    annotator,
                    tables,
                    ALL_TYPE_KEYS,
                    workers=workers,
                    cache_dir=cache_dir,
                    start_method=start_method,
                )
            files.append(
                [
                    (cache_dir / name).read_bytes()
                    for name in (ENGINE_CACHE_FILE, LABEL_MEMO_FILE)
                ]
            )
        for pooled in files[1:]:
            assert pooled == files[0]
