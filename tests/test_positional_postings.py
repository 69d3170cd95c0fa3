"""The bodies' word-id stream: parity with the reference oracles, in RAM and mapped.

The index stores each body as a stream of word ids over its distinct
words, and each token's list of the words that yield it; the search
engine builds query-biased snippets from those alone.  These properties
pin that design against the straightforward versions in
``search_reference.py``, for a :class:`~repro.web.index.FrozenIndex` in
RAM and mapped from its saved artifact:

* every body's stream decodes to ``body.split()``, and the positions it
  gives a token (:func:`batch_word_positions`) equal
  :meth:`ReferenceIndex.word_positions` -- for empty and
  whitespace-only bodies, tabs, newlines and repeated whitespace,
  punctuation-only words such as ``...`` and words that yield several
  tokens;
* every snippet :func:`~repro.web.snippets.batch_snippets` renders
  equals :func:`extract_snippet`, which re-tokenises the body -- for
  bodies shorter than, as long as and longer than the window,
  possessives, digits, punctuation-only words, non-ASCII whitespace,
  tokens found only in a title and queries matching nothing, and for a
  batch across the 1,024-result chunk boundary;
* the window picked from hit positions alone (the oracle
  :func:`best_window_start`, which ``tests/test_search_batch_oracle.py``
  checks the batch kernel against) equals the per-word scan
  :func:`window_scan_start` -- with several equally dense windows (the
  earliest wins), hits only in the last window and bodies of exactly
  ``max_words + 1`` words;
* every posting's term frequency equals ``title_boost`` times the title's
  token count plus the body's, as whole-text :func:`tokenize` counts them,
  which pins that tokenising the body word by word loses nothing;
* the sparse scorer the engine uses (per-token gains, then their sum)
  equals the dense oracle bitwise.
"""

import os
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from search_reference import (
    ReferenceIndex,
    batch_word_positions,
    body_word_ids,
    best_window_start,
    bm25_score_array,
    extract_snippet,
    window_scan_start,
)

from repro.text.tokenization import tokenize
from repro.web.documents import WebPage
from repro.web.index import FrozenIndex, IndexBuilder
from repro.web.ranking import (
    BM25Parameters,
    bm25_norms,
    bm25_sum,
    bm25_token_gains,
)
from repro.web.search import SearchEngine
from repro.web.snippets import DEFAULT_SNIPPET_WORDS, SNIPPET_CHUNK, batch_snippets

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
    """The frozen index over *pages* in RAM and mapped from a saved
    artifact, as the pair ``(memory, mmap)``; the artifact's directory is
    returned too."""
    builder = IndexBuilder(title_boost=title_boost)
    builder.add_many(pages)
    memory = builder.freeze()
    tmp = tempfile.TemporaryDirectory()
    frozen = FrozenIndex.open(memory.save(os.path.join(tmp.name, "index.reproidx")))
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
    every_doc = range(len(pages))
    groups = [(frozenset(tokenize(query)), every_doc) for query in queries]
    with tmp:
        for index in backends:
            snippets = iter(batch_snippets(index, groups, max_words))
            for query in queries:
                for page, snippet in zip(pages, snippets):
                    assert snippet == (
                        extract_snippet(page.body, query, max_words)
                    ), (index.backend_name, page.body, query)


# Bodies built to stress the split: empty or whitespace-only, runs of
# mixed whitespace before, between and after words, punctuation-only
# words, and words that yield several tokens or none.
_edge_word = st.sampled_from(
    ["...", "--", "!", ".", "rock'n'roll", "o'neil's", "a.b.c", "e-mail",
     "hotel", "Hotel,", "café", "42", "İstanbul", "..hotel..", "x"]
)
_whitespace = st.text(
    alphabet=" \t\n\r\x0b\x0c\x85\u2028\u3000", min_size=1, max_size=4
)
_edge_body = st.one_of(
    st.just(""),
    _whitespace,
    st.tuples(
        st.lists(st.tuples(_whitespace, _edge_word), max_size=30), _whitespace
    ).map(lambda parts: "".join(sep + word for sep, word in parts[0]) + parts[1]),
)


@settings(max_examples=80, deadline=None)
@given(
    bodies=st.lists(_edge_body, min_size=1, max_size=6),
    queries=st.lists(
        st.lists(_edge_word, min_size=1, max_size=3).map(" ".join),
        min_size=1,
        max_size=4,
    ),
)
def test_word_stream_equals_the_split_body(bodies, queries):
    pages = _pages([("Page", body) for body in bodies])
    reference = ReferenceIndex(pages)
    backends, tmp = _indexes(pages)
    every_doc = list(range(len(pages)))
    with tmp:
        for index in backends:
            for doc_id, page in enumerate(pages):
                words = [index.words[w] for w in body_word_ids(index, doc_id)]
                assert words == page.body.split(), index.backend_name
            for token in reference.postings:
                assert batch_word_positions(index, token, every_doc) == [
                    reference.word_positions(token, doc_id) for doc_id in every_doc
                ], (index.backend_name, token)
            groups = [(frozenset(tokenize(query)), every_doc) for query in queries]
            assert batch_snippets(index, groups) == [
                extract_snippet(page.body, query)
                for query in queries
                for page in pages
            ], index.backend_name


@pytest.mark.parametrize("backend", ["memory", "mmap"])
def test_edge_bodies_across_the_chunk_boundary(backend):
    # Empty, whitespace-only and "..."-only bodies among long ones, in
    # groups that straddle each chunk boundary.
    bodies = ["", " \t\n ", "... ... ...", "rock'n'roll " * 30,
              "\n".join(f"hotel{i % 7} ..." for i in range(45))]
    pages = _pages([("Page", body) for body in bodies])
    queries = ["hotel3 rock", "roll", "...", "zzz", "n hotel6"]
    groups = [
        (frozenset(tokenize(query)), [(i + j) % len(pages) for j in range(37)])
        for i, query in enumerate(queries * 12)
    ]
    assert sum(len(doc_ids) for _, doc_ids in groups) > 2 * SNIPPET_CHUNK
    expected = [
        extract_snippet(pages[doc_id].body, query)
        for query, (_, doc_ids) in zip(queries * 12, groups)
        for doc_id in doc_ids
    ]
    (memory, frozen), tmp = _indexes(pages)
    with tmp:
        index = memory if backend == "memory" else frozen
        assert batch_snippets(index, groups) == expected


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


@st.composite
def _hit_patterns(draw):
    """``(per-word 0/1 hits, max_words)`` for a body longer than the window:
    random hits, a periodic pattern (every window that starts on a period
    boundary is equally dense), hits only in the last window, and bodies
    of exactly ``max_words + 1`` words."""
    max_words = draw(st.integers(min_value=1, max_value=DEFAULT_SNIPPET_WORDS))
    shape = draw(st.sampled_from(["random", "periodic", "last", "one-over"]))
    if shape == "one-over":
        n_words = max_words + 1
    else:
        n_words = draw(st.integers(min_value=max_words + 1, max_value=80))
    if shape == "periodic":
        period = draw(st.integers(min_value=1, max_value=max_words + 3))
        phase = draw(st.integers(min_value=0, max_value=period - 1))
        return [int(i % period == phase) for i in range(n_words)], max_words
    hits = draw(st.lists(st.integers(0, 1), min_size=n_words, max_size=n_words))
    if shape == "last":
        hits[: n_words - max_words] = [0] * (n_words - max_words)
    return hits, max_words


@settings(max_examples=300, deadline=None)
@given(pattern=_hit_patterns())
def test_window_from_hit_positions_equals_the_scan(pattern):
    hits, max_words = pattern
    positions = [position for position, hit in enumerate(hits) if hit]
    assert best_window_start(positions, max_words) == (
        window_scan_start(hits, max_words)
    )


@pytest.mark.parametrize("backend", ["memory", "mmap"])
@pytest.mark.parametrize(
    "hit_positions",
    [[0, 5, 10, 15, 20], [2, 9, 16], [19, 20], [20], [0, 20], [40], [18, 19]],
)
@pytest.mark.parametrize("n_words", [21, 41])
def test_engine_windows_on_tied_and_trailing_hits(backend, hit_positions, n_words):
    words = [f"filler{'abcde'[i % 5]}" for i in range(n_words)]
    for position in hit_positions:
        if position < n_words:
            words[position] = "melisse"
    pages = _pages([("Melisse", " ".join(words))])
    (memory, frozen), tmp = _indexes(pages)
    with tmp:
        index = memory if backend == "memory" else frozen
        assert batch_snippets(index, [({"melisse"}, [0])]) == [
            extract_snippet(pages[0].body, "melisse")
        ]
        hit = SearchEngine(index=index).search("melisse")[0]
        assert hit.snippet == extract_snippet(pages[0].body, "melisse")


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
                assert index.lengths[doc_id] == float(
                    sum(expected.values())
                )
                words = page.body.split()
                assert len(body_word_ids(index, doc_id)) == len(words)
                for token in expected:
                    assert batch_word_positions(index, token, [doc_id]) == [[
                        position
                        for position, word in enumerate(words)
                        if token in tokenize(word)
                    ]]


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
                parameters = BM25Parameters()
                norms = bm25_norms(index, parameters)
                gains = [
                    bm25_token_gains(index, token, parameters, norms)
                    for token in tokens
                ]
                ids, scores = bm25_sum(
                    index.n_documents, [g for g in gains if g is not None]
                )
                expected_ids = np.flatnonzero(dense > 0.0)
                assert ids.tolist() == expected_ids.tolist()
                assert np.array_equal(scores, dense[expected_ids])
