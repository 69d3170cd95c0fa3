"""Positional postings: parity with the reference oracles on both backends.

The index records, per (token, doc) posting, the positions of the body
words that yield the token, and the search engine builds query-biased
snippets from those positions alone.  These properties pin that design
against the straightforward versions in ``search_reference.py``, for the
in-memory :class:`~repro.web.index.InvertedIndex` and for the frozen
:class:`~repro.web.backends.FrozenMmapIndex` built from it:

* every snippet equals :func:`extract_snippet`, which re-tokenises the
  body -- for bodies shorter than, as long as and longer than the window,
  possessives, digits, punctuation-only words, non-ASCII whitespace,
  tokens found only in a title and queries matching nothing;
* every posting's term frequency equals ``title_boost`` times the title's
  token count plus the body's, as whole-text :func:`tokenize` counts them,
  which pins that tokenising the body word by word loses nothing;
* the sparse scorer the engine uses equals the dense oracle bitwise.
"""

import os
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from search_reference import bm25_score_array, extract_snippet

from repro.text.tokenization import tokenize
from repro.web.backends import FrozenMmapIndex, build_index_artifact
from repro.web.documents import WebPage
from repro.web.index import InvertedIndex
from repro.web.ranking import bm25_matched_scores
from repro.web.search import SearchEngine
from repro.web.snippets import DEFAULT_SNIPPET_WORDS

# Body words never contain "q", so the q-words titles may carry yield
# title-only tokens.  "İ" lower-cases to two characters and "é" is not a
# word character, so both split tokens differently from plain ASCII.
_body_word = st.one_of(
    st.sampled_from(
        ["simpson's", "Simpson's", "o'neil's", "rock'n'roll", "42", "1989)",
         "--", "...", "!", "café", "İstanbul", "hotel", "Hotel,", "the"]
    ),
    st.text(alphabet="abcdeABE'0.-!éİ", min_size=1, max_size=7),
)
_separator = st.sampled_from([" ", "  ", "\t", "\n", "\x85", "\u2028", "\u3000"])
_body = st.lists(st.tuples(_separator, _body_word), max_size=45).map(
    lambda pairs: "".join(sep + word for sep, word in pairs)
)
_title = st.lists(
    st.one_of(_body_word, st.sampled_from(["quay", "Qbert", "quiche's"])),
    min_size=1,
    max_size=4,
).map(" ".join)
_query = st.lists(
    st.one_of(_body_word, st.sampled_from(["quay", "qbert", "zzz"])),
    min_size=1,
    max_size=4,
).map(" ".join)


def _indexes(pages, title_boost=3.0):
    """The in-memory index over *pages* and a frozen copy of it, as the
    pair ``(memory, mmap)``; the artifact's directory is returned too."""
    memory = InvertedIndex(title_boost=title_boost)
    memory.add_many(pages)
    tmp = tempfile.TemporaryDirectory()
    frozen = FrozenMmapIndex.open(
        build_index_artifact(memory, os.path.join(tmp.name, "index.reproidx"))
    )
    return (memory, frozen), tmp


def _pages(titles_and_bodies):
    return [
        WebPage(url=f"https://x/{doc_id}", title=title, body=body)
        for doc_id, (title, body) in enumerate(titles_and_bodies)
    ]


@settings(max_examples=60, deadline=None)
@given(
    docs=st.lists(st.tuples(_title, _body), min_size=1, max_size=6),
    queries=st.lists(_query, min_size=1, max_size=5),
    max_words=st.sampled_from([1, 3, DEFAULT_SNIPPET_WORDS]),
)
def test_snippets_equal_the_oracle(docs, queries, max_words):
    pages = _pages(docs)
    backends, tmp = _indexes(pages)
    with tmp:
        for index in backends:
            engine = SearchEngine(index=index)
            for query in queries:
                tokens = frozenset(tokenize(query))
                for doc_id, page in enumerate(pages):
                    assert engine._snippet_for(doc_id, tokens, max_words) == (
                        extract_snippet(page.body, query, max_words)
                    ), (index.backend_name, page.body, query)


@pytest.mark.parametrize("n_words", [0, 1, 19, 20, 21, 40])
@pytest.mark.parametrize("backend", ["memory", "mmap"])
def test_search_snippets_around_the_window_size(n_words, backend):
    words = [f"filler{'abcde'[i % 5]}" for i in range(n_words)]
    if n_words > 5:
        words[n_words // 2] = "melisse's"
    pages = _pages([("Melisse", " ".join(words)), ("Quay melisse", "x y")])
    (memory, frozen), tmp = _indexes(pages)
    with tmp:
        engine = SearchEngine(index=memory if backend == "memory" else frozen)
        for query in ["melisse", "quay", "fillera 7", "zzz"]:
            for hit in engine.search(query, k=5):
                page = next(p for p in pages if p.url == hit.url)
                assert hit.snippet == extract_snippet(page.body, query)


@settings(max_examples=60, deadline=None)
@given(
    docs=st.lists(st.tuples(_title, _body), min_size=1, max_size=6),
    title_boost=st.floats(min_value=1.0, max_value=4.0, allow_nan=False),
)
def test_word_by_word_counts_equal_whole_text_tokenisation(docs, title_boost):
    pages = _pages(docs)
    backends, tmp = _indexes(pages, title_boost)
    with tmp:
        for index in backends:
            for doc_id, page in enumerate(pages):
                expected: Counter[str] = Counter()
                for token in tokenize(page.title):
                    expected[token] += title_boost
                for token in tokenize(page.body):
                    expected[token] += 1.0
                got = {}
                for token in index.tokens():
                    ids, tfs = index.posting_arrays(token)
                    found = np.flatnonzero(ids == doc_id)
                    if found.size:
                        got[token] = float(tfs[found[0]])
                assert got == dict(expected)
                assert index.document_length(doc_id) == float(
                    sum(expected.values())
                )
                words = page.body.split()
                assert index.n_words(doc_id) == len(words)
                for token in expected:
                    assert list(index.word_positions(token, doc_id)) == [
                        position
                        for position, word in enumerate(words)
                        if token in tokenize(word)
                    ]


@settings(max_examples=60, deadline=None)
@given(
    docs=st.lists(st.tuples(_title, _body), min_size=1, max_size=8),
    queries=st.lists(_query, min_size=1, max_size=5),
)
def test_sparse_scorer_equals_the_dense_oracle(docs, queries):
    backends, tmp = _indexes(_pages(docs))
    with tmp:
        for index in backends:
            for query in queries:
                tokens = tokenize(query)
                dense = bm25_score_array(index, tokens)
                ids, scores = bm25_matched_scores(index, tokens)
                expected_ids = np.flatnonzero(dense > 0.0)
                assert ids.tolist() == expected_ids.tolist()
                assert np.array_equal(scores, dense[expected_ids])
