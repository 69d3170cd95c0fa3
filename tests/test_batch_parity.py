"""Parity regression: the batched annotation path versus the per-cell path.

The batched engine (``EntityAnnotator.annotate_table`` default) must be a
pure optimisation: identical :class:`TableAnnotation` output *and*
identical virtual-clock accounting to the retained seed per-cell loop, in
every scenario the pipeline supports -- plain tables, spatial
disambiguation, engine failure injection, and tables with repeated cell
values served through a shared :class:`SnippetCache`.
"""

import random

import pytest
from annotation_reference import annotate_table_per_cell

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
_NAMES = ["Grand Gallery", "Stone Hall", "Blue Door", "Old Mill", "River House"]


def _make_engine(**kwargs) -> SearchEngine:
    """A small deterministic corpus: museum-ish pages for five entities."""
    engine = SearchEngine(clock=VirtualClock(), **kwargs)
    rng = random.Random(0)
    pages = []
    for name in _NAMES:
        for i in range(8):
            pages.append(
                WebPage(
                    url=f"https://x/{name.replace(' ', '-').lower()}-{i}",
                    title=name,
                    body=f"{name.lower()} "
                    + " ".join(rng.choices(_MUSEUM_WORDS, k=30)),
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


def _table(values) -> Table:
    table = Table(name="parity", columns=[Column("Name", ColumnType.TEXT)])
    for value in values:
        table.append_row([value])
    return table


def _annotate_both(table, classifier, engine_factory, config=None, cache_factory=None):
    """Run both paths on separate-but-identical engines; return outcomes."""
    outcomes = []
    for path in ("batch", "per_cell"):
        engine = engine_factory()
        cache = cache_factory() if cache_factory is not None else None
        annotator = EntityAnnotator(
            classifier, engine, config or AnnotatorConfig(), cache=cache
        )
        if path == "batch":
            annotation = annotator.annotate_table(table, ["museum", "restaurant"])
        else:
            annotation = annotate_table_per_cell(
                annotator, table, ["museum", "restaurant"]
            )
        outcomes.append(
            {
                "annotation": annotation,
                "charges": engine.clock.n_charges,
                "seconds": engine.clock.elapsed_seconds,
                "queries": engine.query_count,
                "failures": annotator.cell_annotator.failure_count,
                "cache": cache,
            }
        )
    return outcomes


def _assert_parity(batch, per_cell):
    assert batch["annotation"] == per_cell["annotation"]
    assert batch["charges"] == per_cell["charges"]
    assert batch["seconds"] == per_cell["seconds"]
    assert batch["queries"] == per_cell["queries"]
    assert batch["failures"] == per_cell["failures"]


class TestPlainParity:
    def test_distinct_values(self, classifier):
        table = _table(_NAMES)
        batch, per_cell = _annotate_both(table, classifier, _make_engine)
        _assert_parity(batch, per_cell)
        assert len(batch["annotation"].cells) > 0

    def test_unknown_values_unannotated(self, classifier):
        table = _table(["Nonexistent Place", "Another Missing"])
        batch, per_cell = _annotate_both(table, classifier, _make_engine)
        _assert_parity(batch, per_cell)
        assert len(batch["annotation"].cells) == 0


class TestRepeatedValuesParity:
    def test_shared_cache_dedupes_identically(self, classifier):
        # With a shared SnippetCache both paths collapse repeats the same
        # way: charges, virtual seconds and cache counters all agree.
        table = _table(_NAMES * 3)
        batch, per_cell = _annotate_both(
            table, classifier, _make_engine, cache_factory=SnippetCache
        )
        _assert_parity(batch, per_cell)
        assert batch["queries"] == len(_NAMES)
        assert batch["cache"].hits == per_cell["cache"].hits
        assert batch["cache"].misses == per_cell["cache"].misses

    def test_without_cache_batch_dedupes_by_design(self, classifier):
        # Without a cache the paths intentionally diverge in accounting:
        # the batched engine issues each unique query string once (the
        # protocol-level dedup is the optimisation), while the seed
        # per-cell loop pays one request per occurrence.  Annotations
        # still match exactly.
        table = _table(_NAMES * 3)
        batch, per_cell = _annotate_both(table, classifier, _make_engine)
        assert batch["annotation"] == per_cell["annotation"]
        assert batch["queries"] == len(_NAMES)
        assert per_cell["queries"] == len(_NAMES) * 3


class TestFailureParity:
    def test_engine_down(self, classifier):
        def down_engine():
            engine = _make_engine()
            engine.available = False
            return engine

        table = _table(_NAMES)
        batch, per_cell = _annotate_both(table, classifier, down_engine)
        _assert_parity(batch, per_cell)
        assert batch["failures"] == len(_NAMES)
        # Even failed requests charge latency, in both paths.
        assert batch["charges"] == len(_NAMES)

    def test_failure_injection_same_rng_stream(self, classifier):
        # Distinct values: both paths issue one request per cell, drawing
        # from identical failure-injection rng streams (same engine seed).
        table = _table(_NAMES)
        batch, per_cell = _annotate_both(
            table, classifier, lambda: _make_engine(failure_rate=0.4, seed=7)
        )
        _assert_parity(batch, per_cell)

    def test_repeated_values_with_failures_count_misses_like_per_cell(
        self, classifier
    ):
        # The one scenario where the paths legitimately diverge in engine
        # charges: a failed query's duplicates are retried per cell but
        # fail once per batch.  Decisions and cache *counters* still agree.
        table = _table(_NAMES * 2)

        def down_engine():
            engine = _make_engine()
            engine.available = False
            return engine

        batch, per_cell = _annotate_both(
            table, classifier, down_engine, cache_factory=SnippetCache
        )
        assert batch["annotation"] == per_cell["annotation"]
        assert batch["failures"] == per_cell["failures"] == len(_NAMES) * 2
        assert batch["cache"].misses == per_cell["cache"].misses
        assert batch["cache"].hits == per_cell["cache"].hits == 0
        # Charges differ by design: one shared request per unique query in
        # the batch, one retry per duplicate cell in the per-cell path.
        assert batch["charges"] == len(_NAMES)
        assert per_cell["charges"] == len(_NAMES) * 2

    def test_failed_query_not_cached(self, classifier):
        engine = _make_engine()
        engine.available = False
        cache = SnippetCache()
        annotator = EntityAnnotator(
            classifier, engine, AnnotatorConfig(), cache=cache
        )
        annotator.annotate_table(_table(["Grand Gallery"]), ["museum"])
        engine.available = True
        annotation = annotator.annotate_table(_table(["Grand Gallery"]), ["museum"])
        assert len(annotation.cells) == 1  # retried and succeeded


class TestSpatialParity:
    def test_disambiguation_contexts(self, small_context):
        table = experiments._efficiency_table(small_context, 25)
        config = AnnotatorConfig(use_spatial_disambiguation=True)
        world = small_context.world
        results = []
        for path in ("batch", "per_cell"):
            annotator = EntityAnnotator(
                small_context.classifiers["svm"],
                world.search_engine,
                config,
                geocoder=world.geocoder,
            )
            before = (world.clock.n_charges, world.clock.elapsed_seconds)
            if path == "batch":
                annotation = annotator.annotate_table(table, experiments.ALL_TYPE_KEYS)
            else:
                annotation = annotate_table_per_cell(
                    annotator, table, experiments.ALL_TYPE_KEYS
                )
            results.append(
                (
                    annotation,
                    world.clock.n_charges - before[0],
                    world.clock.elapsed_seconds - before[1],
                )
            )
        assert results[0] == results[1]


class TestBackendParity:
    @pytest.mark.parametrize("backend", ["svm", "bayes"])
    def test_backends_agree_across_paths(self, backend):
        rng = random.Random(2)
        dataset = TextDataset()
        for _ in range(50):
            dataset.add(" ".join(rng.choices(_MUSEUM_WORDS, k=12)), "museum")
            dataset.add(" ".join(rng.choices(_RESTAURANT_WORDS, k=12)), "restaurant")
        classifier = SnippetTypeClassifier(backend=backend, min_count=1).fit(dataset)
        table = _table(_NAMES * 2)
        batch, per_cell = _annotate_both(
            table, classifier, _make_engine, cache_factory=SnippetCache
        )
        _assert_parity(batch, per_cell)
