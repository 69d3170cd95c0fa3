"""The search batch against its oracles, in RAM and mapped.

A :meth:`~repro.web.search.SearchEngine.search_many` batch ranks each
uncached signature with per-token BM25 gains computed once per cold pass,
then finds every result's snippet window in one array pass per
:data:`~repro.web.snippets.SNIPPET_CHUNK` results
(:func:`~repro.web.snippets.batch_snippets`,
:func:`~repro.web.snippets.window_starts`).  These properties pin that
design against the straightforward versions in ``search_reference.py``:

* the window kernel equals :func:`best_window_start`, one row at a time,
  on random hits, equally dense windows (the earliest wins), hits at
  position 0 and at the window's edge, bodies no longer than the window
  and rows without hits;
* every snippet of a batch equals :func:`extract_snippet`, for batches
  just under, at and across the 1,024-result chunk boundary, on the
  memory and mmap backends;
* the engine's results, cache counters and pickled results cache equal
  :class:`ReferenceSearchEngine`'s byte for byte, which shares each
  document's url and title strings across results as the engine must;
* the per-token gains are computed once per token per cold pass, forgotten
  by a reset, a parameter change and a pickle, and a result decodes only
  its page's url and title.
"""

import os
import pickle
import random
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from search_reference import (
    ReferenceSearchEngine,
    best_window_start,
    extract_snippet,
)

from repro.text.tokenization import tokenize
from repro.web import search as search_module
from repro.web.documents import WebPage
from repro.web.index import FrozenIndex, IndexBuilder
from repro.web.ranking import BM25Parameters
from repro.web.search import SearchEngine
from repro.web.snippets import (
    DEFAULT_SNIPPET_WORDS,
    POSITION_BITS,
    SNIPPET_CHUNK,
    batch_snippets,
    window_starts,
)


def _indexes(pages):
    """``(memory, mmap)`` over *pages*, and the artifact's directory."""
    builder = IndexBuilder()
    builder.add_many(pages)
    memory = builder.freeze()
    tmp = tempfile.TemporaryDirectory()
    frozen = FrozenIndex.open(memory.save(os.path.join(tmp.name, "index.reproidx")))
    return (memory, frozen), tmp


# -- the window kernel ----------------------------------------------------------------


@st.composite
def _hit_rows(draw):
    """``(max_words, rows)``: each row the sorted, distinct hit positions
    of one body -- random hits, a periodic pattern (equally dense
    windows), hits at 0 and around the window's edge, a body no longer
    than the window, or none at all."""
    max_words = draw(st.integers(min_value=1, max_value=DEFAULT_SNIPPET_WORDS))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        shape = draw(
            st.sampled_from(["random", "periodic", "edges", "short", "none"])
        )
        if shape == "short":
            n_words = draw(st.integers(min_value=0, max_value=max_words))
        else:
            n_words = draw(st.integers(min_value=max_words + 1, max_value=90))
        if shape == "none" or n_words == 0:
            rows.append([])
        elif shape == "periodic":
            period = draw(st.integers(min_value=1, max_value=max_words + 3))
            phase = draw(st.integers(min_value=0, max_value=period - 1))
            rows.append([p for p in range(n_words) if p % period == phase])
        elif shape == "edges":
            edges = {0, max_words - 1, max_words, n_words - 1, n_words - max_words}
            extra = draw(st.sets(st.integers(0, n_words - 1), max_size=4))
            rows.append(sorted(p for p in edges | extra if 0 <= p < n_words))
        else:
            rows.append(sorted(draw(st.sets(st.integers(0, n_words - 1)))))
    return max_words, rows


def _keys(rows):
    return np.array(
        [(row << POSITION_BITS) | p for row, hits in enumerate(rows) for p in hits],
        dtype=np.int64,
    )


@settings(max_examples=400, deadline=None)
@given(case=_hit_rows())
def test_window_kernel_equals_the_oracle(case):
    max_words, rows = case
    starts = window_starts(_keys(rows), len(rows), max_words)
    assert starts.tolist() == [best_window_start(hits, max_words) for hits in rows]


@pytest.mark.parametrize(
    ("hits", "expected"),
    [
        ([0, 5, 10, 15, 20], 0),  # a tie with the leading window keeps it
        ([19, 20], 1),  # the first window holding both ends on 20
        ([20], 1),  # a lone hit past the leading window
        ([0, 20], 0),  # hits at 0 and at the edge: one each, a tie
        ([2, 30, 31], 12),  # the later, denser pair wins
        ([], 0),
    ],
)
def test_window_kernel_on_hand_picked_rows(hits, expected):
    assert best_window_start(hits, DEFAULT_SNIPPET_WORDS) == expected
    starts = window_starts(_keys([hits]), 1, DEFAULT_SNIPPET_WORDS)
    assert starts.tolist() == [expected]


# -- batch snippets -------------------------------------------------------------------

_body_word = st.one_of(
    st.sampled_from(
        ["simpson's", "Simpson's", "o'neil's", "42", "1989)", "--", "!",
         "café", "İstanbul", "hotel", "Hotel,", "the", "melisse", "quay"]
    ),
    st.text(alphabet="abcdeABE'0.-!é", min_size=1, max_size=6),
)
_body = st.lists(
    st.tuples(st.sampled_from([" ", "\t", "\n", "\u3000"]), _body_word),
    max_size=50,
).map(lambda pairs: "".join(sep + word for sep, word in pairs))
_query = st.lists(
    st.one_of(_body_word, st.sampled_from(["quay", "zzz"])), min_size=1, max_size=4
).map(" ".join)


def _pages(bodies, languages=None):
    return [
        WebPage(
            url=f"https://x/{doc_id}",
            title=f"Page {doc_id}",
            body=body,
            language="en" if languages is None else languages[doc_id],
        )
        for doc_id, body in enumerate(bodies)
    ]


@settings(max_examples=60, deadline=None)
@given(
    bodies=st.lists(_body, min_size=1, max_size=6),
    batch=st.lists(
        st.tuples(_query, st.lists(st.integers(0, 5), max_size=8)), max_size=6
    ),
    max_words=st.sampled_from([1, 3, DEFAULT_SNIPPET_WORDS]),
)
def test_batch_snippets_equal_the_oracle(bodies, batch, max_words):
    pages = _pages(bodies)
    groups = [
        (frozenset(tokenize(query)), [d % len(pages) for d in doc_ids])
        for query, doc_ids in batch
    ]
    expected = [
        extract_snippet(pages[doc_id].body, query, max_words)
        for (query, _), (_, doc_ids) in zip(batch, groups)
        for doc_id in doc_ids
    ]
    backends, tmp = _indexes(pages)
    with tmp:
        for index in backends:
            assert batch_snippets(index, groups, max_words) == expected, (
                index.backend_name
            )


def _seeded_corpus(n_pages=40, seed=7):
    """Bodies of 0 to 60 words over a small vocabulary, so queries hit
    often, tie often, and some bodies are no longer than the window."""
    rng = random.Random(seed)
    vocab = ["hotel", "melisse", "quay", "gallery", "museum", "chef's",
             "Rooms,", "42", "the", "wine", "cafe", "park"]
    bodies = [
        " ".join(rng.choice(vocab) for _ in range(rng.choice([0, 3, 20, 21, 45, 60])))
        for _ in range(n_pages)
    ]
    languages = [rng.choice(["en", "en", "en", "fr"]) for _ in range(n_pages)]
    return _pages(bodies, languages), vocab


@pytest.mark.parametrize("backend", ["memory", "mmap"])
@pytest.mark.parametrize(
    "n_results",
    [SNIPPET_CHUNK - 1, SNIPPET_CHUNK, SNIPPET_CHUNK + 1, 2 * SNIPPET_CHUNK + 300],
)
def test_batches_across_the_chunk_boundary(backend, n_results):
    pages, vocab = _seeded_corpus()
    rng = random.Random(n_results)
    groups, queries = [], []
    while sum(len(doc_ids) for _, doc_ids in groups) < n_results:
        query = " ".join(rng.sample(vocab, rng.randint(1, 3)))
        size = min(rng.randint(1, 37), n_results - sum(len(d) for _, d in groups))
        doc_ids = [rng.randrange(len(pages)) for _ in range(size)]
        groups.append((frozenset(tokenize(query)), doc_ids))
        queries.append(query)
    expected = [
        extract_snippet(pages[doc_id].body, query)
        for query, (_, doc_ids) in zip(queries, groups)
        for doc_id in doc_ids
    ]
    assert len(expected) == n_results
    (memory, frozen), tmp = _indexes(pages)
    with tmp:
        index = memory if backend == "memory" else frozen
        assert batch_snippets(index, groups) == expected


# -- the engine against the oracle engine ---------------------------------------------


def _engines(index):
    return SearchEngine(index=index), ReferenceSearchEngine(index=index)


def _saved_bytes(engine, directory, name):
    path = os.path.join(directory, name)
    assert engine.save_results_cache(path)
    with open(path, "rb") as handle:
        return handle.read()


def _assert_same_engines(engine, reference, tmp_dir):
    assert engine._cache_hits == reference._cache_hits
    assert engine._cache_misses == reference._cache_misses
    assert dict(engine._results_cache) == dict(reference._results_cache)
    assert pickle.dumps(
        dict(engine._results_cache), protocol=pickle.HIGHEST_PROTOCOL
    ) == pickle.dumps(dict(reference._results_cache), protocol=pickle.HIGHEST_PROTOCOL)
    assert _saved_bytes(engine, tmp_dir, "engine.cache") == _saved_bytes(
        reference, tmp_dir, "reference.cache"
    )


@settings(max_examples=40, deadline=None)
@given(
    bodies=st.lists(_body, min_size=1, max_size=8),
    languages=st.lists(st.sampled_from(["en", "en", "fr"]), min_size=8, max_size=8),
    batches=st.lists(st.lists(_query, max_size=6), min_size=1, max_size=3),
    k=st.integers(min_value=1, max_value=5),
)
def test_engine_equals_the_oracle_engine(bodies, languages, batches, k):
    # Duplicated bodies score identically: ties straddle the k-th place.
    pages = _pages(bodies + bodies[:2], (languages + languages)[: len(bodies) + 2])
    backends, tmp = _indexes(pages)
    with tmp:
        for index in backends:
            engine, reference = _engines(index)
            for batch in batches:
                got = engine.search_many(batch, k=k)
                assert got == reference.search_many(batch, k=k)
            _assert_same_engines(engine, reference, tmp.name)


@pytest.mark.parametrize("backend", ["memory", "mmap"])
def test_engine_batch_across_the_chunk_boundary(backend):
    pages, vocab = _seeded_corpus(n_pages=120, seed=11)
    rng = random.Random(3)
    queries = [" ".join(rng.sample(vocab, rng.randint(1, 3))) for _ in range(90)]
    (memory, frozen), tmp = _indexes(pages)
    with tmp:
        index = memory if backend == "memory" else frozen
        engine, reference = _engines(index)
        got = engine.search_many(queries, k=40)
        assert sum(len(results) for results in got) > SNIPPET_CHUNK
        assert got == reference.search_many(queries, k=40)
        # One query at a time, then warm: the same results and cache bytes.
        single = SearchEngine(index=index)
        assert [single.search(query, k=40) for query in queries] == got
        _assert_same_engines(engine, reference, tmp.name)
        engine.reset_compute_caches()
        assert engine.search_many(queries, k=40) == got


# -- compute caches and page decodes --------------------------------------------------


def _engine_over(pages):
    engine = SearchEngine()
    engine.add_pages(pages)
    return engine


def test_gains_are_computed_once_per_token_per_cold_pass(monkeypatch):
    pages, _ = _seeded_corpus()
    engine = _engine_over(pages)
    computed = []
    gains = search_module.bm25_token_gains
    monkeypatch.setattr(
        search_module,
        "bm25_token_gains",
        lambda index, token, *rest: computed.append(token)
        or gains(index, token, *rest),
    )
    queries = ["hotel melisse", "melisse quay", "quay hotel", "hotel"]
    first = engine.search_many(queries, k=5)
    assert sorted(computed) == ["hotel", "melisse", "quay"]
    engine.search_many(["hotel gallery"], k=5)
    assert sorted(computed) == ["gallery", "hotel", "melisse", "quay"]
    computed.clear()
    engine.reset_compute_caches()
    assert engine.search_many(queries, k=5) == first
    assert sorted(computed) == ["hotel", "melisse", "quay"]
    computed.clear()
    engine.parameters = BM25Parameters(k1=1.2)
    engine.search_many(queries, k=5)
    assert sorted(computed) == ["hotel", "melisse", "quay"]


def test_a_pickled_engine_carries_no_gains_or_page_fields():
    pages, _ = _seeded_corpus()
    engine = _engine_over(pages)
    first = engine.search_many(["hotel melisse", "quay"], k=5)
    assert engine._gains and engine._url_titles
    copy = pickle.loads(pickle.dumps(engine))
    assert copy._gains == {} and copy._url_titles == {}
    assert dict(copy._results_cache) == dict(engine._results_cache)
    assert copy.search_many(["hotel melisse", "quay", "gallery"], k=5)[:2] == first


def test_a_result_decodes_its_url_and_title_only(monkeypatch):
    pages, _ = _seeded_corpus()
    engine = _engine_over(pages)
    engine.index
    decoded = []
    field = FrozenIndex.field
    monkeypatch.setattr(
        FrozenIndex,
        "field",
        lambda self, doc_id, part: decoded.append((doc_id, part))
        or field(self, doc_id, part),
    )
    results = engine.search_many(["hotel", "hotel melisse"], k=5)
    n_results = sum(len(hits) for hits in results)
    docs = {int(hit.url.rsplit("/", 1)[1]) for hits in results for hit in hits}
    assert n_results > len(docs)  # some documents answer both queries
    # Each document's url and title once; snippets come from the word
    # stream, so no body and no language is decoded.
    assert sorted(d for d, part in decoded if part == 0) == sorted(docs)
    assert sorted(d for d, part in decoded if part == 1) == sorted(docs)
    assert not [part for _, part in decoded if part >= 2]
