"""The snippet vectorizer against its per-text dict oracle.

:meth:`~repro.text.vectorizer.SnippetVectorizer.transform` maps whitespace
words to feature ids through a memo and counts ``(row, id)`` pairs with
numpy in chunks; :func:`vectorizer_reference.reference_transform` builds
one feature dict per text.  The two must agree bit for bit -- shape,
``indptr``, ``indices``, ``data`` and every dtype -- on texts with
possessives, upper case, digits and punctuation glued to words, tabs,
newlines and ideographic spaces, empty texts, texts of out-of-vocabulary
tokens only, and batches longer than one chunk; ``fit_transform`` must
equal ``fit`` then ``transform``.  The memo is usage state: it resets
when the pipeline's flags change, stays out of the classifier
fingerprint, and a pickled classifier labels as the original does.
"""

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from vectorizer_reference import reference_transform

from repro.classify.dataset import TextDataset
from repro.classify.snippet import SnippetTypeClassifier
from repro.text import vectorizer as vectorizer_module
from repro.text.vectorizer import SnippetVectorizer

_TRAINING = [
    "The Louvre museum in Paris",
    "A fine museum of modern art, Paris",
    "Simpson's tavern serves menu wine",
    "chef's menu: wine and cheese",
    "rock'n'roll hotel near the museum",
    "Hotel CAFÉ museum museums",
]
_word = st.one_of(
    st.sampled_from(
        ["museum", "Museum,", "MUSEUM", "simpson's", "Simpson's", "chef's",
         "rock'n'roll", "42", "art42", "(paris)", "--", "café", "İstanbul",
         "the", "The", "of", "zebra", "quixotic", "wine.", "x'", "'s"]
    ),
    st.text(alphabet="abcmuseAMS'0.-é", min_size=1, max_size=7),
)
_text = st.lists(
    st.tuples(st.sampled_from(["", " ", "  ", "\t", "\n", "\u3000"]), _word),
    max_size=20,
).map(lambda pairs: "".join(sep + word for sep, word in pairs))


def _assert_identical(actual, expected) -> None:
    assert actual.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


def _fitted(min_count: int = 1, texts=_TRAINING) -> SnippetVectorizer:
    return SnippetVectorizer(min_count=min_count).fit(texts)


@settings(max_examples=150, deadline=None)
@given(texts=st.lists(_text, max_size=12), min_count=st.sampled_from([1, 2]))
def test_transform_matches_the_oracle(texts, min_count):
    vectorizer = _fitted(min_count)
    expected = reference_transform(vectorizer, texts)
    _assert_identical(vectorizer.transform(texts), expected)
    # A second pass answers from the warm memo.
    _assert_identical(vectorizer.transform(texts), expected)


@settings(max_examples=25, deadline=None)
@given(texts=st.lists(_text, min_size=1, max_size=8), repeat=st.integers(1, 400))
def test_batches_across_chunks_match_the_oracle(texts, repeat):
    batch = (texts * repeat)[: 3 * vectorizer_module._CHUNK_TEXTS + 7]
    vectorizer = _fitted()
    _assert_identical(
        vectorizer.transform(batch), reference_transform(vectorizer, batch)
    )


@settings(max_examples=100, deadline=None)
@given(texts=st.lists(_text, max_size=12), min_count=st.sampled_from([1, 2]))
def test_fit_transform_is_fit_then_transform(texts, min_count):
    texts = texts + _TRAINING
    fitted = SnippetVectorizer(min_count=min_count)
    combined = fitted.fit_transform(texts)
    separate = SnippetVectorizer(min_count=min_count).fit(texts)
    assert list(fitted.vocabulary) == list(separate.vocabulary)
    _assert_identical(combined, separate.transform(texts))
    _assert_identical(combined, reference_transform(separate, texts))


def test_edge_batches():
    vectorizer = _fitted(min_count=2)
    for texts in (
        [],
        [""],
        ["", " \t\n\u3000 ", ""],
        ["zebra quixotic", "zebra"],  # every token out of vocabulary
        ["the of and", "museum the"],  # stopwords only, then mixed
        ["42 -- (1989)"],  # no token at all
    ):
        _assert_identical(
            vectorizer.transform(texts), reference_transform(vectorizer, texts)
        )


def test_large_random_batch_matches_the_oracle():
    rng = random.Random(7)
    words = "museum Museum, wine. chef's the of zebra art42 Paris café".split()
    seps = [" ", "\t", "\n", "\u3000", ""]
    texts = [
        "".join(
            rng.choice(seps) + rng.choice(words) for _ in range(rng.randint(0, 30))
        )
        for _ in range(2 * vectorizer_module._CHUNK_TEXTS + 300)
    ]
    vectorizer = _fitted(min_count=2, texts=texts[:500])
    _assert_identical(
        vectorizer.transform(texts), reference_transform(vectorizer, texts)
    )
    _assert_identical(
        SnippetVectorizer(min_count=2).fit_transform(texts),
        reference_transform(SnippetVectorizer(min_count=2).fit(texts), texts),
    )


@pytest.mark.parametrize("flag", ["remove_stopwords", "apply_stemming"])
def test_word_memo_resets_when_the_pipeline_flags_change(flag):
    vectorizer = _fitted()
    texts = ["The museums of Paris", "the museum", "museums"]
    vectorizer.transform(texts)
    assert vectorizer._word_ids
    setattr(vectorizer.pipeline, flag, False)
    changed = vectorizer.transform(texts)
    _assert_identical(changed, reference_transform(vectorizer, texts))
    assert changed.data.tobytes() != _fitted().transform(texts).data.tobytes()
    setattr(vectorizer.pipeline, flag, True)
    _assert_identical(
        vectorizer.transform(texts), reference_transform(vectorizer, texts)
    )


# ----------------------------------------------------------- classifiers


def _oracle_fit_transform(self, texts):
    self.fit(texts)
    return reference_transform(self, texts)


@pytest.mark.parametrize("backend", ["svm", "bayes"])
def test_training_fingerprint_matches_the_oracle_path(
    backend, small_context, monkeypatch
):
    trained = small_context.classifiers[backend]
    monkeypatch.setattr(SnippetVectorizer, "fit_transform", _oracle_fit_transform)
    oracle = SnippetTypeClassifier(backend=backend).fit(small_context.train_set)
    assert trained.fingerprint() == oracle.fingerprint()


def test_memo_is_not_part_of_the_fingerprint():
    dataset = TextDataset()
    for text in _TRAINING * 2:
        dataset.add(text, "museum" if "museum" in text else "restaurant")
    classifier = SnippetTypeClassifier(backend="svm", min_count=1).fit(dataset)
    before = classifier.fingerprint()
    memo = classifier.vectorizer._word_ids
    seen = len(memo)
    classifier.classify_many(["museum of zebra", "the quixotic menu wine"])
    assert len(memo) > seen
    assert classifier.fingerprint() == before
    memo.clear()
    assert classifier.fingerprint() == before


def test_pickled_classifier_labels_identically(small_context):
    classifier = small_context.classifiers["svm"]
    texts = list(small_context.test_set.texts)
    labels = classifier.classify_many(texts)  # warms the word memo
    clone = pickle.loads(pickle.dumps(classifier))
    assert clone.fingerprint() == classifier.fingerprint()
    assert clone.classify_many(texts) == labels
    assert np.array_equal(
        clone.decision_matrix(texts), classifier.decision_matrix(texts)
    )
