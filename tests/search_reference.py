"""Reference oracles for the search engine's ranking and snippets.

The engine scores sparsely (:func:`repro.web.ranking.bm25_matched_scores`)
and picks snippet windows from the index's word positions
(:meth:`repro.web.search.SearchEngine._snippet_for`).  These are the
straightforward versions of both -- a dense BM25 pass over every document
and a snippet extractor that re-tokenises the body -- kept only so the
tests can check the engine against them.
"""

from __future__ import annotations

import math

import numpy as np

from repro.text.tokenization import tokenize
from repro.web.backends import IndexBackend
from repro.web.ranking import BM25Parameters, bm25_norms
from repro.web.snippets import (
    DEFAULT_SNIPPET_WORDS,
    best_window_start,
    render_window,
)


def bm25_score_array(
    index: IndexBackend,
    query_tokens: list[str],
    parameters: BM25Parameters | None = None,
) -> np.ndarray:
    """Dense BM25 score per document (zeros for non-matching documents)."""
    parameters = parameters or BM25Parameters()
    n_docs = index.n_documents
    scores = np.zeros(n_docs, dtype=np.float64)
    if n_docs == 0 or not query_tokens:
        return scores
    norms = bm25_norms(index, parameters)
    for token in query_tokens:
        arrays = index.posting_arrays(token)
        if arrays is None:
            continue
        ids, tfs = arrays
        df = ids.shape[0]
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        gains = idf * (tfs * (parameters.k1 + 1.0)) / (
            tfs + parameters.k1 * norms[ids]
        )
        np.add.at(scores, ids, gains)
    return scores


def bm25_scores(
    index: IndexBackend,
    query_tokens: list[str],
    parameters: BM25Parameters | None = None,
) -> dict[int, float]:
    """BM25 scores as a doc-id -> score mapping (matching documents only)."""
    array = bm25_score_array(index, query_tokens, parameters)
    matched = np.flatnonzero(array > 0.0)
    return {int(doc_id): float(array[doc_id]) for doc_id in matched}


def extract_snippet(
    body: str, query: str, max_words: int = DEFAULT_SNIPPET_WORDS
) -> str:
    """Best *max_words*-word window of *body* for *query*.

    Falls back to the leading window when no query token occurs in the
    body.  The returned snippet preserves the original word forms (only
    whitespace is normalised) and carries a trailing ellipsis when
    truncated.
    """
    if max_words < 1:
        raise ValueError(f"max_words must be >= 1, got {max_words}")
    words = body.split()
    if len(words) <= max_words:
        return " ".join(words)
    query_tokens = set(tokenize(query))
    hits = [
        1 if any(token in query_tokens for token in tokenize(word)) else 0
        for word in words
    ]
    best_start = best_window_start(hits, len(words), max_words)
    return render_window(words, best_start, max_words)
