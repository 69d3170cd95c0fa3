"""Tests for snippet clustering (the future-work ambiguity solution)."""

import random

import pytest

from repro.classify.dataset import TextDataset
from repro.classify.snippet import SnippetTypeClassifier
from repro.clock import VirtualClock
from repro.core.clustering import (
    ClusteredCellAnnotator,
    cluster_snippets,
    cosine_similarity,
)
from repro.web.documents import WebPage
from repro.web.search import SearchEngine

_MUSEUM = "exhibit gallery paintings curator museum collection".split()
_LABEL = "records label vinyl roster pressing releases".split()


class TestCosine:
    def test_identical_direction(self):
        assert cosine_similarity({"a": 1.0, "b": 2.0}, {"a": 2.0, "b": 4.0}) == (
            pytest.approx(1.0)
        )

    def test_orthogonal(self):
        assert cosine_similarity({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_empty_inputs(self):
        assert cosine_similarity({}, {"a": 1.0}) == 0.0

    def test_symmetric(self):
        a, b = {"a": 1.0, "b": 0.5}, {"a": 0.2, "c": 0.9}
        assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a))


class TestClusterSnippets:
    def test_two_senses_two_clusters(self):
        rng = random.Random(0)
        snippets = [" ".join(rng.choices(_MUSEUM, k=10)) for _ in range(5)]
        snippets += [" ".join(rng.choices(_LABEL, k=10)) for _ in range(5)]
        clusters = cluster_snippets(snippets, threshold=0.2)
        assert len(clusters) == 2
        assert {frozenset(c) for c in clusters} == {
            frozenset(range(5)), frozenset(range(5, 10)),
        }

    def test_clusters_partition_input(self):
        rng = random.Random(1)
        snippets = [" ".join(rng.choices(_MUSEUM + _LABEL, k=8)) for _ in range(12)]
        clusters = cluster_snippets(snippets)
        flattened = sorted(i for cluster in clusters for i in cluster)
        assert flattened == list(range(12))

    def test_sorted_by_size(self):
        rng = random.Random(2)
        snippets = [" ".join(rng.choices(_MUSEUM, k=10)) for _ in range(7)]
        snippets += [" ".join(rng.choices(_LABEL, k=10)) for _ in range(3)]
        clusters = cluster_snippets(snippets, threshold=0.2)
        sizes = [len(c) for c in clusters]
        assert sizes == sorted(sizes, reverse=True)

    def test_empty_input(self):
        assert cluster_snippets([]) == []

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            cluster_snippets(["a"], threshold=0.0)


def _ambiguous_engine():
    """Five museum pages and five jazz-label pages for the same name."""
    engine = SearchEngine(clock=VirtualClock())
    rng = random.Random(3)
    for i in range(5):
        engine.add_page(WebPage(
            url=f"https://x/m{i}", title="Melisse",
            body="melisse " + " ".join(rng.choices(_MUSEUM, k=18)),
        ))
        engine.add_page(WebPage(
            url=f"https://x/l{i}", title="Melisse",
            body="melisse " + " ".join(rng.choices(_LABEL, k=18)),
        ))
    return engine


def _classifier():
    rng = random.Random(4)
    ds = TextDataset()
    for _ in range(60):
        ds.add(" ".join(rng.choices(_MUSEUM, k=12)), "museum")
        ds.add(" ".join(rng.choices(_LABEL, k=12)), "music_label")
    return SnippetTypeClassifier(backend="svm", min_count=1).fit(ds)


class TestClusteredCellAnnotator:
    def test_resolves_split_that_defeats_plain_majority(self):
        # Plain Eq. 1: 5/5 split -> no annotation.  Clustered: the museum
        # cluster is unanimous -> annotated.
        from repro.core.annotation import CellAnnotator

        engine = _ambiguous_engine()
        classifier = _classifier()
        plain = CellAnnotator(classifier, engine)
        assert plain.annotate_value("Melisse", ["museum"]).type_key is None

        clustered = ClusteredCellAnnotator(classifier, engine)
        decision = clustered.annotate_value("Melisse", ["museum"])
        assert decision.type_key == "museum"
        assert decision.score == pytest.approx(0.5)
        assert len(decision.clusters) >= 2

    def test_no_results(self):
        annotator = ClusteredCellAnnotator(_classifier(), _ambiguous_engine())
        assert annotator.annotate_value("zzz", ["museum"]).type_key is None

    def test_engine_failure_flagged(self):
        engine = _ambiguous_engine()
        engine.available = False
        annotator = ClusteredCellAnnotator(_classifier(), engine)
        assert annotator.annotate_value("Melisse", ["museum"]).failed

    def test_small_clusters_rejected(self):
        annotator = ClusteredCellAnnotator(
            _classifier(), _ambiguous_engine(), min_cluster_fraction=0.9
        )
        decision = annotator.annotate_value("Melisse", ["museum"])
        assert decision.type_key is None  # no cluster holds 9/10 snippets

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusteredCellAnnotator(
                _classifier(), _ambiguous_engine(), cluster_majority=0.0
            )
        annotator = ClusteredCellAnnotator(_classifier(), _ambiguous_engine())
        with pytest.raises(ValueError):
            annotator.annotate_value("Melisse", [])

    def test_batch_makes_one_search_and_one_classification(self, monkeypatch):
        values = ["Melisse", "zzz", "Melisse", "records label"]
        single = ClusteredCellAnnotator(_classifier(), _ambiguous_engine())
        expected = [single.annotate_value(value, ["museum"]) for value in values]
        engine, classifier = _ambiguous_engine(), _classifier()
        calls = []
        search_many, classify_many = engine.search_many, classifier.classify_many
        monkeypatch.setattr(
            engine,
            "search_many",
            lambda queries, k: calls.append(("search", list(queries)))
            or search_many(queries, k=k),
        )
        monkeypatch.setattr(
            classifier,
            "classify_many",
            lambda snippets: calls.append(("classify", len(snippets)))
            or classify_many(snippets),
        )
        annotator = ClusteredCellAnnotator(classifier, engine)
        assert annotator.annotate_values(values, ["museum"]) == expected
        assert [name for name, _ in calls] == ["search", "classify"]
        assert calls[0][1] == values

    def test_batch_flags_each_value_when_the_engine_is_down(self):
        engine = _ambiguous_engine()
        engine.available = False
        annotator = ClusteredCellAnnotator(_classifier(), engine)
        decisions = annotator.annotate_values(["Melisse", "zzz"], ["museum"])
        assert [decision.failed for decision in decisions] == [True, True]
