"""The multi-class snippet-typing classifier the annotator consumes.

Section 5.2.1: "Given a set of types Γ = {t1, ..., tj}, we train a
multi-class text classifier to determine whether a snippet is the
description of an entity of a given type."  ``SnippetTypeClassifier`` wraps
the feature pipeline, a vocabulary and one of the classifier backends
("svm", "bayes", or "kernel-svm") behind a single
``classify(snippet) -> type`` interface.

Snippets that describe none of the target types surface as the reserved
``OTHER_LABEL``.  How a backend produces it differs, and the difference is
the mechanism behind the paper's Table 1 contrast:

* the SVM backends are one-vs-rest *margin* classifiers: when every
  binary decision function is negative, no class claims the snippet and
  the classifier abstains with ``OTHER_LABEL`` -- this is why the paper's
  SVM keeps its precision on noisy cells;
* Naive Bayes compares posteriors and always has an arg-max, so it never
  abstains (matching the LingPipe classifier's behaviour) -- weak, generic
  evidence still yields a type, which is why the paper observes very high
  recall but poor precision for Bayes.

An explicit OTHER class (trained on background snippets) can additionally
be included in the training data; the paper does not do this, and the
corpus experiments here follow the paper.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.classify.base import OneVsRestClassifier
from repro.classify.dataset import TextDataset
from repro.classify.kernel_svm import KernelSVC
from repro.classify.linear_svm import LinearSVM
from repro.classify.metrics import ClassificationReport
from repro.classify.naive_bayes import MultinomialNaiveBayes
from repro.text.vectorizer import SnippetVectorizer

OTHER_LABEL = "__other__"

_BACKENDS = ("svm", "bayes", "kernel-svm")


class SnippetTypeClassifier:
    """Multi-class snippet classifier over a set of entity types.

    Parameters
    ----------
    backend:
        ``"svm"`` (linear SVM one-vs-rest, the corpus-scale default),
        ``"bayes"`` (multinomial Naive Bayes) or ``"kernel-svm"``
        (RBF C-SVC via SMO; faithful but quadratic -- small corpora only).
    min_count:
        Vocabulary frequency cut-off; tokens seen fewer times are dropped.
    """

    def __init__(self, backend: str = "svm", min_count: int = 2) -> None:
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
        self.backend = backend
        self.vectorizer = SnippetVectorizer(min_count=min_count)
        self._model: OneVsRestClassifier | MultinomialNaiveBayes | None = None
        self.types_: list[str] = []

    # -- training ----------------------------------------------------------------

    def fit(self, dataset: TextDataset) -> "SnippetTypeClassifier":
        """Train on a labelled snippet dataset.

        Labels are type names; background snippets must carry
        :data:`OTHER_LABEL`.
        """
        if len(dataset) == 0:
            raise ValueError("cannot train on an empty dataset")
        X = self.vectorizer.fit_transform(dataset.texts)
        self.types_ = sorted(set(dataset.labels) - {OTHER_LABEL})
        if self.backend == "bayes":
            model: OneVsRestClassifier | MultinomialNaiveBayes = MultinomialNaiveBayes()
            model.fit(X, dataset.labels)
        else:
            # The class itself is the factory: unlike a local lambda it
            # pickles by reference, so a fitted classifier can ship to
            # ``spawn``-ed worker processes.
            factory = KernelSVC if self.backend == "kernel-svm" else LinearSVM
            model = OneVsRestClassifier(factory)
            model.fit(X, dataset.labels)
        self._model = model
        return self

    # -- inference ------------------------------------------------------------------

    def classify(self, snippet: str) -> str:
        """Type of the entity *snippet* describes (or :data:`OTHER_LABEL`)."""
        return self.classify_many([snippet])[0]

    def classify_many(self, snippets: Sequence[str]) -> list[str]:
        """Classify a batch of snippets at once (one vectorizer pass).

        Margin backends abstain with :data:`OTHER_LABEL` when no binary
        classifier fires; Naive Bayes always returns its arg-max posterior.
        """
        if self._model is None:
            raise RuntimeError("SnippetTypeClassifier is not fitted")
        if not snippets:
            return []
        X = self.vectorizer.transform(snippets)
        if isinstance(self._model, MultinomialNaiveBayes):
            return self._model.predict(X)
        margins = self._model.decision_matrix(X)
        best = margins.argmax(axis=1)
        classes = np.asarray(self._model.encoder.classes_, dtype=object)
        labels = np.where(
            margins[np.arange(margins.shape[0]), best] >= 0.0,
            classes[best],
            OTHER_LABEL,
        )
        return labels.tolist()

    def decision_matrix(self, snippets: Sequence[str]):
        """Per-class scores; column order follows the fitted label encoder."""
        if self._model is None:
            raise RuntimeError("SnippetTypeClassifier is not fitted")
        X = self.vectorizer.transform(snippets)
        if isinstance(self._model, MultinomialNaiveBayes):
            return self._model.joint_log_likelihood(X)
        return self._model.decision_matrix(X)

    @property
    def classes_(self) -> list[str]:
        """All labels the model can emit, including :data:`OTHER_LABEL`."""
        if self._model is None:
            return []
        return list(self._model.encoder.classes_)

    def fingerprint(self) -> str:
        """Hex digest identifying this fitted model.

        Covers the backend, the fitted vocabulary and every learned
        weight -- exactly the state that determines the snippet -> label
        function -- and nothing usage-dependent (memos, caches), so the
        digest is stable across processes.  Two independently trained
        classifiers agree on it iff they classify identically; it versions
        the persisted snippet -> label memo, which must never be served to
        a different model.
        """
        if self._model is None:
            raise RuntimeError("SnippetTypeClassifier is not fitted")
        import hashlib

        from scipy import sparse

        hasher = hashlib.sha256()

        def feed(value) -> None:
            if isinstance(value, np.ndarray):
                hasher.update(str((value.dtype, value.shape)).encode())
                hasher.update(np.ascontiguousarray(value).tobytes())
            elif sparse.issparse(value):
                csr = value.tocsr()
                feed(csr.data)
                feed(csr.indices)
                feed(csr.indptr)
                hasher.update(str(csr.shape).encode())
            elif isinstance(value, (list, tuple)):
                for item in value:
                    feed(item)
            elif isinstance(value, dict):
                for key in sorted(value):
                    feed(key)
                    feed(value[key])
            else:
                hasher.update(repr(value).encode())

        feed(self.backend)
        feed(self.vectorizer.vocabulary.min_count)
        feed(list(self.vectorizer.vocabulary))
        feed(self.classes_)
        if isinstance(self._model, MultinomialNaiveBayes):
            feed(self._model.feature_log_prob_)
            feed(self._model.class_log_prior_)
        else:
            for estimator in self._model.estimators_:
                feed(vars(estimator))
        return hasher.hexdigest()

    # -- evaluation --------------------------------------------------------------------

    def evaluate(self, dataset: TextDataset) -> ClassificationReport:
        """Per-type P/R/F on a held-out dataset (Table 2's classifier test)."""
        predictions = self.classify_many(dataset.texts)
        labels = sorted(set(dataset.labels) - {OTHER_LABEL})
        return ClassificationReport.from_predictions(
            dataset.labels, predictions, labels=labels
        )
