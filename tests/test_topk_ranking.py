"""Top-k selection and the English mask, in RAM and mapped.

The engine ranks only what it keeps: it masks the matched documents to
English ones (:attr:`~repro.web.index.FrozenIndex.english_mask`),
keeps every document scoring at least the k-th best score, and sorts just
that set by (score descending, doc id ascending).  These tests pin that
design against :func:`search_reference.ranked_doc_ids`, the full sort of
every matched document walked past the non-English ones:

* the results equal the oracle for corpora with duplicated pages (exact
  score ties straddling k-th place), interleaved non-English pages, and
  every k from 1 to past the English match count;
* the mask equals ``[page(d).language == "en" ...]`` on an empty index,
  an all-French corpus, and on mmap without decoding a page.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from search_reference import ranked_doc_ids

from repro.text.tokenization import tokenize
from repro.web.documents import WebPage
from repro.web.index import FrozenIndex, IndexBuilder
from repro.web.search import SearchEngine

_VOCAB = ["hotel", "melisse", "quay", "gallery", "museum", "chef", "rooms"]
_word = st.sampled_from(_VOCAB)
_text = st.lists(_word, min_size=1, max_size=8).map(" ".join)
# A distinct page: its title, body and language, and how many copies of
# it the corpus holds (copies score identically for every query).
_page = st.tuples(
    _text, _text, st.sampled_from(["en", "en", "fr", "de"]),
    st.integers(min_value=1, max_value=4),
)
_query = st.lists(_word, min_size=1, max_size=3).map(" ".join)


def _indexes(pages):
    """``(memory, mmap)`` over *pages*, and the artifact's directory."""
    builder = IndexBuilder()
    builder.add_many(pages)
    memory = builder.freeze()
    tmp = tempfile.TemporaryDirectory()
    frozen = FrozenIndex.open(memory.save(os.path.join(tmp.name, "index.reproidx")))
    return (memory, frozen), tmp


def _corpus(distinct, order):
    """Every copy of every distinct page, shuffled by *order*, each under
    its own url."""
    copies = [
        (title, body, language)
        for title, body, language, n_copies in distinct
        for _ in range(n_copies)
    ]
    order.shuffle(copies)
    return [
        WebPage(url=f"https://x/{doc_id}", title=title, body=body,
                language=language)
        for doc_id, (title, body, language) in enumerate(copies)
    ]


def _ranked_ids(engine, query, k):
    return [int(hit.url.rsplit("/", 1)[1]) for hit in engine.search(query, k)]


@settings(max_examples=80, deadline=None)
@given(
    distinct=st.lists(_page, min_size=1, max_size=8),
    queries=st.lists(_query, min_size=1, max_size=3),
    order=st.randoms(use_true_random=False),
)
def test_top_k_equals_the_full_sort(distinct, queries, order):
    pages = _corpus(distinct, order)
    backends, tmp = _indexes(pages)
    with tmp:
        for index in backends:
            engine = SearchEngine(index=index)
            for query in queries:
                tokens = engine._filter_tokens(tokenize(query))
                everything = ranked_doc_ids(index, tokens, len(pages))
                for k in range(1, len(everything) + 3):
                    assert _ranked_ids(engine, query, k) == everything[:k], (
                        index.backend_name, query, k,
                    )


@pytest.mark.parametrize("backend", ["memory", "mmap"])
@pytest.mark.parametrize("k", [1, 5, 10, 23, 24, 30])
def test_ties_across_kth_place_keep_the_lowest_doc_ids(backend, k):
    # 24 identical English pages tie exactly behind one better page, with
    # French copies of the better page interleaved; the k-th place falls
    # inside the tie, so the tie must be broken by doc id.
    pages = []
    for i in range(24):
        pages.append(WebPage(url=f"https://x/{len(pages)}", title="Quay",
                             body="quay rooms"))
        if i % 3 == 0:
            pages.append(WebPage(url=f"https://x/{len(pages)}",
                                 title="Quay Quay", body="quay quay",
                                 language="fr"))
    pages.append(WebPage(url=f"https://x/{len(pages)}", title="Quay Quay",
                         body="quay quay"))
    (memory, frozen), tmp = _indexes(pages)
    with tmp:
        engine = SearchEngine(index=memory if backend == "memory" else frozen)
        ties = [d for d, page in enumerate(pages)
                if page.language == "en" and page.title == "Quay"]
        assert _ranked_ids(engine, "quay", k) == ([len(pages) - 1] + ties)[:k]
        assert _ranked_ids(engine, "quay", k) == ranked_doc_ids(
            engine.index, ["quay"], k
        )


# -- the English mask -------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    languages=st.lists(
        st.sampled_from(["en", "fr", "e", "eng", "ne", "in", ""]), max_size=12
    )
)
def test_mask_equals_the_page_languages(languages):
    pages = [
        WebPage(url=f"https://x/{i}", title="t", body="b", language=language)
        for i, language in enumerate(languages)
    ]
    backends, tmp = _indexes(pages)
    with tmp:
        for index in backends:
            mask = index.english_mask
            assert mask.dtype == np.bool_
            assert mask.tolist() == [
                index.page(d).language == "en" for d in range(len(pages))
            ]


@pytest.mark.parametrize("backend", ["memory", "mmap"])
def test_mask_of_an_empty_index_is_empty(backend):
    (memory, frozen), tmp = _indexes([])
    with tmp:
        index = memory if backend == "memory" else frozen
        assert index.english_mask.shape == (0,)
        assert SearchEngine(index=index).search("hotel") == []


@pytest.mark.parametrize("backend", ["memory", "mmap"])
def test_an_all_french_corpus_answers_nothing(backend):
    pages = [
        WebPage(url=f"https://x/{i}", title="Hotel Melisse",
                body="hotel melisse rooms", language="fr")
        for i in range(5)
    ]
    (memory, frozen), tmp = _indexes(pages)
    with tmp:
        index = memory if backend == "memory" else frozen
        assert not index.english_mask.any()
        assert SearchEngine(index=index).search("hotel melisse", k=3) == []


def test_mmap_mask_decodes_no_page(monkeypatch):
    pages = [
        WebPage(url=f"https://x/{i}", title="Quay", body="quay",
                language="en" if i % 2 else "fr")
        for i in range(6)
    ]
    decoded = []
    field = FrozenIndex.field
    monkeypatch.setattr(
        FrozenIndex,
        "field",
        lambda self, doc_id, part: decoded.append(doc_id) or field(self, doc_id, part),
    )
    (_, frozen), tmp = _indexes(pages)
    with tmp:
        assert frozen.english_mask.tolist() == [False, True] * 3
        assert decoded == []
        assert frozen.english_mask.tolist() == [
            frozen.page(d).language == "en" for d in range(len(pages))
        ]
