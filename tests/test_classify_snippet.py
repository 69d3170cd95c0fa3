"""Tests for the multi-class snippet classifier facade."""

import random

import pytest

from repro.classify.base import LabelEncoder, OneVsRestClassifier
from repro.classify.dataset import TextDataset
from repro.classify.linear_svm import LinearSVM
from repro.classify.snippet import OTHER_LABEL, SnippetTypeClassifier

_POOLS = {
    "museum": "exhibit gallery collection paintings curator museum artifacts".split(),
    "restaurant": "menu chef cuisine dining wine dishes tasting".split(),
    "singer": "vocals album lyrics concert ballad chart touring".split(),
}


def _corpus(n_per_class=40, seed=0):
    rng = random.Random(seed)
    ds = TextDataset()
    for label, pool in _POOLS.items():
        for _ in range(n_per_class):
            ds.add(" ".join(rng.choices(pool, k=10)), label)
    return ds


class TestLabelEncoder:
    def test_roundtrip(self):
        enc = LabelEncoder().fit(["b", "a", "b"])
        codes = enc.transform(["a", "b"])
        assert enc.inverse_transform(codes) == ["a", "b"]

    def test_sorted_classes(self):
        enc = LabelEncoder().fit(["z", "a"])
        assert enc.classes_ == ["a", "z"]

    def test_unknown_label_raises(self):
        enc = LabelEncoder().fit(["a"])
        with pytest.raises(KeyError):
            enc.transform(["zzz"])


class TestOneVsRest:
    def test_one_estimator_per_class(self):
        from repro.text.vectorizer import SnippetVectorizer

        ds = _corpus(10)
        X = SnippetVectorizer(min_count=1).fit_transform(ds.texts)
        ovr = OneVsRestClassifier(lambda: LinearSVM()).fit(X, ds.labels)
        assert len(ovr.estimators_) == 3
        assert ovr.decision_matrix(X).shape == (len(ds), 3)

    def test_unfitted_raises(self):
        from scipy import sparse
        import numpy as np

        ovr = OneVsRestClassifier(lambda: LinearSVM())
        with pytest.raises(RuntimeError):
            ovr.decision_matrix(sparse.csr_matrix(np.zeros((1, 2))))


class TestSnippetTypeClassifier:
    @pytest.fixture(scope="class", params=["svm", "bayes", "kernel-svm"])
    def fitted(self, request):
        return SnippetTypeClassifier(backend=request.param, min_count=1).fit(
            _corpus(30)
        )

    def test_classifies_clear_snippets(self, fitted):
        assert fitted.classify("the gallery shows paintings and artifacts") == "museum"
        assert fitted.classify("a tasting menu by the chef with wine") == "restaurant"

    def test_classify_many_matches_classify(self, fitted):
        snippets = ["curator gallery exhibit", "lyrics album concert"]
        assert fitted.classify_many(snippets) == [
            fitted.classify(s) for s in snippets
        ]

    def test_types_listed(self, fitted):
        assert fitted.types_ == ["museum", "restaurant", "singer"]

    def test_empty_batch(self, fitted):
        assert fitted.classify_many([]) == []

    def test_evaluate_reports_per_type(self, fitted):
        report = fitted.evaluate(_corpus(8, seed=9))
        assert set(report.per_class) == {"museum", "restaurant", "singer"}
        assert report.macro_f1() > 0.9


class TestAbstention:
    def test_svm_abstains_on_gibberish(self):
        clf = SnippetTypeClassifier(backend="svm", min_count=1).fit(_corpus(30))
        # Tokens never seen in training -> zero vector -> no positive margin.
        assert clf.classify("zyzzyva qwerty flibber") == OTHER_LABEL

    def test_bayes_never_abstains(self):
        clf = SnippetTypeClassifier(backend="bayes", min_count=1).fit(_corpus(30))
        assert clf.classify("zyzzyva qwerty flibber") in _POOLS

    def test_explicit_other_class_trainable(self):
        ds = _corpus(20)
        rng = random.Random(4)
        for _ in range(20):
            ds.add(" ".join(rng.choices("stock market trading shares".split(), k=8)),
                   OTHER_LABEL)
        clf = SnippetTypeClassifier(backend="bayes", min_count=1).fit(ds)
        assert clf.classify("stock market shares") == OTHER_LABEL
        # OTHER is not reported as a type.
        assert OTHER_LABEL not in clf.types_


class TestValidation:
    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            SnippetTypeClassifier(backend="forest")

    def test_empty_training_set(self):
        with pytest.raises(ValueError):
            SnippetTypeClassifier().fit(TextDataset())

    def test_unfitted_classify(self):
        with pytest.raises(RuntimeError):
            SnippetTypeClassifier().classify("anything")
