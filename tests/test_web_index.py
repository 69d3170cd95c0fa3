"""Tests for web pages, the inverted index and BM25 ranking."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from search_reference import ReferenceIndex, bm25_score_array, bm25_scores

from repro.web.documents import WebPage
from repro.web.index import IndexBuilder
from repro.web.ranking import BM25Parameters


def _page(url, title, body, language="en"):
    return WebPage(url=f"https://x.example/{url}", title=title, body=body,
                   language=language)


def _frozen(pages, title_boost=3.0):
    builder = IndexBuilder(title_boost=title_boost)
    builder.add_many(pages)
    return builder.freeze()


class TestWebPage:
    def test_requires_http_url(self):
        with pytest.raises(ValueError):
            WebPage(url="ftp://x", title="t", body="b")

    def test_requires_url(self):
        with pytest.raises(ValueError):
            WebPage(url="", title="t", body="b")

    def test_text_joins_title_and_body(self):
        page = _page("a", "Title", "Body")
        assert page.text == "Title\nBody"


_PAGES = [
    _page("1", "Louvre Museum", "the louvre is a museum in paris"),
    _page("2", "Melisse", "a restaurant in santa monica"),
    _page("3", "Paris guide", "museums and restaurants of paris"),
]


class TestInvertedIndex:
    @pytest.fixture()
    def index(self):
        return _frozen(_PAGES)

    def test_document_count(self, index):
        assert index.n_documents == 3

    def test_document_frequency(self, index):
        assert index.document_frequency("paris") == 2
        assert index.document_frequency("zzz") == 0

    def test_title_tokens_boosted(self, index):
        ids, tfs = index.posting_arrays("museum")
        # doc 0 has 'museum' in title (boost 3) and once in body -> 4.
        assert dict(zip(ids.tolist(), tfs.tolist()))[0] == 4.0

    def test_average_length_positive(self, index):
        assert index.average_length > 0

    def test_add_many_bulk_indexes(self):
        builder = IndexBuilder()
        doc_ids = builder.add_many(
            [_page("1", "A", "alpha beta"), _page("2", "B", "beta gamma")]
        )
        assert doc_ids == [0, 1]
        index = builder.freeze()
        assert index.n_documents == 2
        assert index.document_frequency("beta") == 2

    def test_invalid_title_boost(self):
        with pytest.raises(ValueError):
            IndexBuilder(title_boost=0.5)

    def test_posting_arrays_match_postings(self, index):
        arrays = index.posting_arrays("paris")
        postings = ReferenceIndex(_PAGES).postings["paris"]
        assert list(arrays[0]) == sorted(postings)

    def test_vocabulary_size(self, index):
        assert index.vocabulary_size() > 5


class TestBM25:
    @pytest.fixture()
    def index(self):
        return _frozen([
            _page("1", "melisse restaurant", "melisse menu melisse chef"),
            _page("2", "louvre", "museum paintings gallery"),
            _page("3", "paris food", "menu wine melisse"),
        ])

    def test_matching_docs_scored(self, index):
        scores = bm25_scores(index, ["melisse"])
        assert set(scores) == {0, 2}

    def test_higher_tf_scores_higher(self, index):
        scores = bm25_scores(index, ["melisse"])
        assert scores[0] > scores[2]

    def test_multi_token_accumulates(self, index):
        single = bm25_scores(index, ["menu"])
        double = bm25_scores(index, ["menu", "melisse"])
        assert double[0] > single[0]

    def test_no_match_empty(self, index):
        assert bm25_scores(index, ["zzz"]) == {}

    def test_empty_query_empty(self, index):
        assert bm25_scores(index, []) == {}

    def test_score_array_zeros_for_nonmatching(self, index):
        array = bm25_score_array(index, ["museum"])
        assert array[1] > 0
        assert array[0] == 0.0

    def test_scores_non_negative(self, index):
        array = bm25_score_array(index, ["melisse", "menu", "museum"])
        assert np.all(array >= 0)

    def test_empty_index(self):
        assert bm25_scores(_frozen([]), ["x"]) == {}

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BM25Parameters(k1=-1.0)
        with pytest.raises(ValueError):
            BM25Parameters(b=1.5)

    def test_b_zero_removes_length_normalisation(self):
        idx = _frozen(
            [_page("1", "", "menu " * 2),
             _page("2", "", "menu menu " + "filler " * 50)],
            title_boost=1.0,
        )
        flat = bm25_scores(idx, ["menu"], BM25Parameters(b=0.0))
        assert flat[0] == pytest.approx(flat[1])


@given(st.lists(st.sampled_from(["menu", "wine", "chef", "museum"]),
                min_size=1, max_size=6))
def test_bm25_more_query_terms_never_lower_score(tokens):
    idx = _frozen([_page("1", "doc", "menu wine chef museum gallery")])
    partial = bm25_score_array(idx, tokens[:1])
    full = bm25_score_array(idx, tokens)
    assert full[0] >= partial[0] - 1e-12
