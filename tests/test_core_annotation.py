"""Tests for cell annotation (Equation 1) and the snippet cache."""

import pytest
from annotation_reference import annotate_value_per_cell

from repro.classify.dataset import TextDataset
from repro.classify.snippet import SnippetTypeClassifier
from repro.clock import VirtualClock
from repro.core.annotation import CellAnnotator, SnippetCache
from repro.core.config import AnnotatorConfig
from repro.web.documents import WebPage
from repro.web.search import SearchEngine

_MUSEUM_WORDS = "exhibit gallery paintings curator collection museum".split()
_RESTAURANT_WORDS = "menu chef cuisine dining wine tasting".split()


def _engine(museum_pages=8, restaurant_pages=0, name="Grand Gallery"):
    engine = SearchEngine(clock=VirtualClock())
    import random
    rng = random.Random(0)
    for i in range(museum_pages):
        engine.add_page(WebPage(
            url=f"https://x/m{i}", title=name,
            body=f"{name.lower()} " + " ".join(rng.choices(_MUSEUM_WORDS, k=20)),
        ))
    for i in range(restaurant_pages):
        engine.add_page(WebPage(
            url=f"https://x/r{i}", title=name,
            body=f"{name.lower()} " + " ".join(rng.choices(_RESTAURANT_WORDS, k=20)),
        ))
    return engine


def _classifier():
    import random
    rng = random.Random(1)
    ds = TextDataset()
    for _ in range(60):
        ds.add(" ".join(rng.choices(_MUSEUM_WORDS, k=12)), "museum")
        ds.add(" ".join(rng.choices(_RESTAURANT_WORDS, k=12)), "restaurant")
    return SnippetTypeClassifier(backend="svm", min_count=1).fit(ds)


class TestMajorityRule:
    def test_unanimous_snippets_annotate(self):
        annotator = CellAnnotator(_classifier(), _engine(museum_pages=10))
        decision = annotator.annotate_value("Grand Gallery", ["museum", "restaurant"])
        assert decision.type_key == "museum"
        assert decision.score == 1.0

    def test_split_snippets_fail_majority(self):
        # 5/5 museum vs restaurant pages: neither exceeds k/2 = 5.
        engine = _engine(museum_pages=5, restaurant_pages=5)
        annotator = CellAnnotator(_classifier(), engine)
        decision = annotator.annotate_value("Grand Gallery", ["museum", "restaurant"])
        assert decision.type_key is None

    def test_score_is_count_over_k(self):
        engine = _engine(museum_pages=7, restaurant_pages=3)
        annotator = CellAnnotator(_classifier(), engine)
        decision = annotator.annotate_value("Grand Gallery", ["museum", "restaurant"])
        assert decision.type_key == "museum"
        assert decision.score == pytest.approx(0.7)

    def test_no_results_means_no_annotation(self):
        annotator = CellAnnotator(_classifier(), _engine(museum_pages=5))
        decision = annotator.annotate_value("unknown thing", ["museum"])
        assert decision.type_key is None
        assert not decision.failed

    def test_requested_types_only(self):
        annotator = CellAnnotator(_classifier(), _engine(museum_pages=10))
        decision = annotator.annotate_value("Grand Gallery", ["restaurant"])
        assert decision.type_key is None
        # ... but the snippet counts still record the museum votes.
        assert decision.snippet_counts.get("museum", 0) > 5

    def test_empty_type_list_rejected(self):
        annotator = CellAnnotator(_classifier(), _engine())
        with pytest.raises(ValueError):
            annotator.annotate_value("x", [])

    def test_spatial_context_appended_to_query(self):
        engine = _engine(museum_pages=8)
        annotator = CellAnnotator(_classifier(), engine)
        decision = annotator.annotate_value(
            "Grand Gallery", ["museum"], spatial_context="Lyon"
        )
        assert decision.query == "Grand Gallery Lyon"

    def test_custom_majority_threshold(self):
        engine = _engine(museum_pages=4, restaurant_pages=6)
        config = AnnotatorConfig(majority_fraction=0.3)
        annotator = CellAnnotator(_classifier(), engine, config)
        decision = annotator.annotate_value("Grand Gallery", ["museum", "restaurant"])
        assert decision.type_key == "restaurant"
        assert decision.score == pytest.approx(0.6)


class TestFailureHandling:
    def test_engine_down_flags_failure(self):
        engine = _engine()
        engine.available = False
        annotator = CellAnnotator(_classifier(), engine)
        decision = annotator.annotate_value("Grand Gallery", ["museum"])
        assert decision.failed
        assert decision.type_key is None
        assert annotator.failure_count == 1


class TestSnippetCache:
    def test_cache_hit_skips_engine(self):
        engine = _engine(museum_pages=8)
        cache = SnippetCache()
        annotator = CellAnnotator(_classifier(), engine, cache=cache)
        annotator.annotate_value("Grand Gallery", ["museum"])
        queries_before = engine.query_count
        annotator.annotate_value("Grand Gallery", ["museum"])
        assert engine.query_count == queries_before
        assert cache.hits == 1
        assert cache.misses == 1

    def test_cache_key_includes_k(self):
        cache = SnippetCache()
        cache.put("q", 10, ["a"])
        assert cache.get("q", 5) is None
        assert cache.get("q", 10) == ["a"]

    def test_cache_shared_between_annotators(self):
        engine = _engine(museum_pages=8)
        cache = SnippetCache()
        first = CellAnnotator(_classifier(), engine, cache=cache)
        second = CellAnnotator(_classifier(), engine, cache=cache)
        first.annotate_value("Grand Gallery", ["museum"])
        count = engine.query_count
        second.annotate_value("Grand Gallery", ["museum"])
        assert engine.query_count == count

    def test_miss_counted_even_when_put_never_follows(self):
        # An engine failure aborts the lookup between get and put; the
        # miss must still be visible in the cache statistics.
        engine = _engine(museum_pages=8)
        engine.available = False
        cache = SnippetCache()
        annotator = CellAnnotator(_classifier(), engine, cache=cache)
        decision = annotator.annotate_value("Grand Gallery", ["museum"])
        assert decision.failed
        assert cache.misses == 1
        assert cache.hits == 0

    def test_put_is_pure_storage(self):
        cache = SnippetCache()
        cache.put("q", 10, ["a"])
        assert cache.misses == 0
        assert cache.hits == 0

    def test_hit_rate(self):
        cache = SnippetCache()
        assert cache.hit_rate == 0.0
        cache.get("q", 10)  # miss
        cache.put("q", 10, ["a"])
        cache.get("q", 10)  # hit
        cache.get("q", 10)  # hit
        assert cache.hit_rate == pytest.approx(2 / 3)


class TestBatchedAnnotateValues:
    def test_matches_per_value_decisions(self):
        engine = _engine(museum_pages=8)
        classifier = _classifier()
        batch_annotator = CellAnnotator(classifier, _engine(museum_pages=8))
        per_cell_annotator = CellAnnotator(classifier, engine)
        pairs = [("Grand Gallery", None), ("Grand Gallery", "Lyon"), ("zzz", None)]
        batched = batch_annotator.annotate_values(pairs, ["museum", "restaurant"])
        singles = [
            annotate_value_per_cell(
                per_cell_annotator, value, ["museum", "restaurant"], ctx
            )
            for value, ctx in pairs
        ]
        assert batched == singles

    def test_empty_batch(self):
        annotator = CellAnnotator(_classifier(), _engine())
        assert annotator.annotate_values([], ["museum"]) == []

    def test_empty_type_list_rejected(self):
        annotator = CellAnnotator(_classifier(), _engine())
        with pytest.raises(ValueError):
            annotator.annotate_values([("x", None)], [])
