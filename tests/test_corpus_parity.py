"""Parity regression: corpus-at-a-time ``annotate_tables`` versus per table.

The corpus path (``EntityAnnotator.annotate_tables`` default) must be a
pure optimisation over a loop of ``annotate_table`` per table
(``annotation_reference.annotate_per_table``): identical :class:`AnnotationRun` output
-- annotations *and* run diagnostics -- and identical virtual-clock
accounting in every scenario where the two protocols issue the same
requests: mixed-shape corpora, corpora with queries repeated across
tables under a shared :class:`SnippetCache`, spatial disambiguation,
engine-down and failure-injection runs.

The *designed* divergences mirror the table-level batching contract of
PR 1.  Without a shared cache, a query string recurring across tables is
issued (and charged) once per corpus here versus once per table there --
that protocol-level amortisation is the point of the corpus path -- while
annotations still agree exactly.  And a *failed* repeated query is final
for the whole corpus run but retried per table by the sequential loop
(failures are never cached), so under random failure injection the two
retry streams may diverge; parity under failures is therefore asserted
for the deterministic cases (engine fully down, injection over distinct
queries), matching the documented contract.
"""

import random

import pytest
from annotation_reference import annotate_per_table

from repro.classify.dataset import TextDataset
from repro.classify.snippet import SnippetTypeClassifier
from repro.clock import VirtualClock
from repro.core.annotation import SnippetCache
from repro.core.annotator import EntityAnnotator
from repro.core.config import AnnotatorConfig
from repro.eval import experiments
from repro.tables.model import Column, ColumnType, Table
from repro.web.documents import WebPage
from repro.web.search import SearchEngine

_MUSEUM_WORDS = "exhibit gallery paintings curator collection museum".split()
_RESTAURANT_WORDS = "menu chef cuisine dining wine tasting".split()
_MUSEUMS = ["Grand Gallery", "Stone Hall", "Blue Door"]
_RESTAURANTS = ["Old Mill", "River House"]
_TYPE_KEYS = ["museum", "restaurant"]


def _make_engine(**kwargs) -> SearchEngine:
    """Deterministic corpus: typed pages for five entities."""
    engine = SearchEngine(clock=VirtualClock(), **kwargs)
    rng = random.Random(0)
    pages = []
    for names, words in ((_MUSEUMS, _MUSEUM_WORDS), (_RESTAURANTS, _RESTAURANT_WORDS)):
        for name in names:
            for i in range(8):
                pages.append(
                    WebPage(
                        url=f"https://x/{name.replace(' ', '-').lower()}-{i}",
                        title=name,
                        body=f"{name.lower()} " + " ".join(rng.choices(words, k=30)),
                    )
                )
    engine.add_pages(pages)
    return engine


@pytest.fixture(scope="module")
def classifier() -> SnippetTypeClassifier:
    rng = random.Random(1)
    dataset = TextDataset()
    for _ in range(60):
        dataset.add(" ".join(rng.choices(_MUSEUM_WORDS, k=12)), "museum")
        dataset.add(" ".join(rng.choices(_RESTAURANT_WORDS, k=12)), "restaurant")
    return SnippetTypeClassifier(backend="svm", min_count=1).fit(dataset)


def _table(name, values) -> Table:
    table = Table(name=name, columns=[Column("Name", ColumnType.TEXT)])
    for value in values:
        table.append_row([value])
    return table


def _mixed_corpus() -> list[Table]:
    """Mixed shapes: distinct-value, repeated-value, overlapping, unknown."""
    return [
        _table("distinct", _MUSEUMS),
        _table("repeats", [_MUSEUMS[0]] * 3 + _RESTAURANTS),
        _table("overlap", list(reversed(_MUSEUMS)) + [_RESTAURANTS[0]]),
        _table("unknown", ["Nonexistent Place", _MUSEUMS[1]]),
        _table("empty", []),
    ]


def _annotate_both(tables, classifier, engine_factory, config=None, cache_factory=None):
    """Run both corpus paths on separate-but-identical engines."""
    outcomes = []
    for path in ("corpus", "sequential"):
        engine = engine_factory()
        cache = cache_factory() if cache_factory is not None else None
        annotator = EntityAnnotator(
            classifier, engine, config or AnnotatorConfig(), cache=cache
        )
        if path == "corpus":
            run = annotator.annotate_tables(tables, _TYPE_KEYS)
        else:
            run = annotate_per_table(annotator, tables, _TYPE_KEYS)
        outcomes.append(
            {
                "run": run,
                "charges": engine.clock.n_charges,
                "seconds": engine.clock.elapsed_seconds,
                "queries": engine.query_count,
                "failures": annotator.cell_annotator.failure_count,
                "cache": cache,
            }
        )
    return outcomes


def _assert_parity(corpus, sequential):
    assert corpus["run"] == sequential["run"]
    assert corpus["run"].diagnostics == sequential["run"].diagnostics
    assert corpus["charges"] == sequential["charges"]
    assert corpus["seconds"] == sequential["seconds"]
    assert corpus["queries"] == sequential["queries"]
    assert corpus["failures"] == sequential["failures"]


class TestMixedShapeParity:
    def test_shared_cache_full_parity(self, classifier):
        # With a shared SnippetCache both protocols collapse cross-table
        # repeats identically: annotations, diagnostics, clock and cache
        # counters all agree.
        corpus, sequential = _annotate_both(
            _mixed_corpus(), classifier, _make_engine, cache_factory=SnippetCache
        )
        _assert_parity(corpus, sequential)
        assert len(corpus["run"]) > 0
        assert corpus["cache"].hits == sequential["cache"].hits
        assert corpus["cache"].misses == sequential["cache"].misses
        # 6 distinct query strings across the corpus, each issued once.
        assert corpus["queries"] == 6

    def test_no_cross_table_repeats_full_parity_without_cache(self, classifier):
        tables = [
            _table("museums", _MUSEUMS),
            _table("restaurants", _RESTAURANTS),
        ]
        corpus, sequential = _annotate_both(tables, classifier, _make_engine)
        _assert_parity(corpus, sequential)

    def test_cross_table_repeats_dedupe_by_design(self, classifier):
        # Without a cache the protocols intentionally diverge in issued
        # requests: the corpus path resolves each distinct string once for
        # the whole run, the per-table loop once per table.  Annotations
        # and per-table results still match exactly.
        tables = [_table(f"site-{i}", _MUSEUMS) for i in range(4)]
        corpus, sequential = _annotate_both(tables, classifier, _make_engine)
        assert corpus["run"] == sequential["run"]
        assert corpus["queries"] == len(_MUSEUMS)
        assert sequential["queries"] == len(_MUSEUMS) * 4

    def test_empty_corpus(self, classifier):
        corpus, sequential = _annotate_both([], classifier, _make_engine)
        _assert_parity(corpus, sequential)
        assert corpus["run"].diagnostics.n_tables == 0
        assert corpus["run"].diagnostics.n_cells == 0


class TestFailureParity:
    def test_engine_down_distinct_values(self, classifier):
        def down_engine():
            engine = _make_engine()
            engine.available = False
            return engine

        tables = [_table("a", _MUSEUMS), _table("b", _RESTAURANTS)]
        corpus, sequential = _annotate_both(tables, classifier, down_engine)
        _assert_parity(corpus, sequential)
        assert corpus["failures"] == len(_MUSEUMS) + len(_RESTAURANTS)
        assert len(corpus["run"]) == 0
        diag = corpus["run"].diagnostics
        assert diag.search_failures == corpus["failures"]

    def test_failure_injection_same_rng_stream(self, classifier):
        # Distinct values across the corpus: both protocols issue the same
        # query sequence in the same order, so the failure injector drops
        # the same requests and every counter agrees.
        tables = [_table("a", _MUSEUMS), _table("b", _RESTAURANTS)]
        corpus, sequential = _annotate_both(
            tables, classifier, lambda: _make_engine(failure_rate=0.4, seed=7)
        )
        _assert_parity(corpus, sequential)

    def test_engine_down_with_cross_table_repeats(self, classifier):
        # The designed divergence under failures: the corpus path fails a
        # repeated query once for the whole run, the per-table loop retries
        # it per table.  Decisions and failure counts still agree.
        tables = [_table(f"site-{i}", _MUSEUMS) for i in range(3)]

        def down_engine():
            engine = _make_engine()
            engine.available = False
            return engine

        corpus, sequential = _annotate_both(
            tables, classifier, down_engine, cache_factory=SnippetCache
        )
        assert corpus["run"] == sequential["run"]
        assert corpus["failures"] == sequential["failures"] == len(_MUSEUMS) * 3
        assert corpus["cache"].misses == sequential["cache"].misses
        assert corpus["charges"] == len(_MUSEUMS)
        assert sequential["charges"] == len(_MUSEUMS) * 3

    def test_failed_corpus_queries_retried_next_run(self, classifier):
        engine = _make_engine()
        engine.available = False
        annotator = EntityAnnotator(classifier, engine, AnnotatorConfig())
        tables = [_table("a", [_MUSEUMS[0]]), _table("b", [_MUSEUMS[0]])]
        run = annotator.annotate_tables(tables, _TYPE_KEYS)
        assert len(run) == 0
        engine.available = True
        run = annotator.annotate_tables(tables, _TYPE_KEYS)
        assert len(run) == 2  # retried and succeeded in both tables


class TestSpatialParity:
    def test_disambiguation_contexts(self, small_context):
        tables = [
            experiments._efficiency_table(small_context, 15),
            experiments._efficiency_table(small_context, 10, start=40),
        ]
        config = AnnotatorConfig(use_spatial_disambiguation=True)
        world = small_context.world
        results = []
        for path in ("corpus", "sequential"):
            annotator = EntityAnnotator(
                small_context.classifiers["svm"],
                world.search_engine,
                config,
                geocoder=world.geocoder,
            )
            before = (world.clock.n_charges, world.clock.elapsed_seconds)
            if path == "corpus":
                run = annotator.annotate_tables(tables, experiments.ALL_TYPE_KEYS)
            else:
                run = annotate_per_table(
                    annotator, tables, experiments.ALL_TYPE_KEYS
                )
            results.append(
                (
                    run,
                    world.clock.n_charges - before[0],
                    world.clock.elapsed_seconds - before[1],
                )
            )
        assert results[0] == results[1]


class TestDiagnostics:
    def test_diagnostics_aggregate_across_tables(self, classifier):
        # The run-level counters span every table of the run -- the
        # last-table-only view this replaces would report 1 query here.
        engine = _make_engine()
        cache = SnippetCache()
        annotator = EntityAnnotator(
            classifier, engine, AnnotatorConfig(), cache=cache
        )
        tables = [
            _table("a", _MUSEUMS),
            _table("b", _RESTAURANTS),
            _table("c", [_MUSEUMS[0]]),
        ]
        run = annotator.annotate_tables(tables, _TYPE_KEYS)
        diag = run.diagnostics
        assert diag.n_tables == 3
        assert diag.n_cells == 6
        assert diag.queries_issued == 5  # five distinct strings, issued once
        assert diag.search_failures == 0
        assert diag.cache_misses == 5
        assert diag.cache_hits == 1  # table c's repeat of a museum query
        assert diag.cache_hit_rate == pytest.approx(1 / 6)
        assert diag.virtual_seconds == pytest.approx(engine.latency_seconds * 5)
        assert diag.clock_charges == 5

    def test_diagnostics_are_per_run_not_lifetime(self, classifier):
        engine = _make_engine()
        annotator = EntityAnnotator(classifier, engine, AnnotatorConfig())
        tables = [_table("a", _MUSEUMS)]
        first = annotator.annotate_tables(tables, _TYPE_KEYS)
        second = annotator.annotate_tables(tables, _TYPE_KEYS)
        assert first.diagnostics.queries_issued == len(_MUSEUMS)
        assert second.diagnostics.queries_issued == len(_MUSEUMS)
        assert second.diagnostics.n_tables == 1
        # while the annotator-level failure counter stays lifetime
        assert annotator.cell_annotator.failure_count == 0

    def test_diagnostics_excluded_from_run_equality(self, classifier):
        corpus, sequential = _annotate_both(
            [_table(f"site-{i}", _MUSEUMS) for i in range(2)],
            classifier,
            _make_engine,
        )
        # queries_issued legitimately differs without a cache ...
        assert (
            corpus["run"].diagnostics.queries_issued
            != sequential["run"].diagnostics.queries_issued
        )
        # ... yet the runs still compare equal on their annotations.
        assert corpus["run"] == sequential["run"]


class TestExperimentHarnessParity:
    def test_memoised_runs_unchanged_by_corpus_path(self, small_context):
        # The experiment harness annotates corpora through a shared
        # SnippetCache; the corpus path must reproduce the sequential
        # harness run exactly (Table 1/3 inputs stay byte-identical).
        run = small_context.annotation_run(backend="svm", postprocess=False)
        config = AnnotatorConfig(
            use_postprocessing=False, use_spatial_disambiguation=False
        )
        annotator = EntityAnnotator(
            small_context.classifiers["svm"],
            small_context.world.search_engine,
            config,
            cache=small_context.cache,
        )
        replay = annotate_per_table(
            annotator, small_context.gft.tables, experiments.ALL_TYPE_KEYS
        )
        assert replay == run
