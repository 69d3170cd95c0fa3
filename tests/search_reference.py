"""Reference oracles for the index, the search engine's ranking and snippets.

:class:`ReferenceIndex` is the inverted index spelled out with dicts
(token -> {doc: (tf, positions)}), sharing nothing with
:mod:`repro.web.index` but :func:`~repro.text.tokenization.tokenize`, so
tests can check every :class:`~repro.web.index.FrozenIndex` accessor
against it, wherever the frozen arrays live.

The engine scores sparsely (:func:`repro.web.ranking.bm25_sum` of
per-token :func:`repro.web.ranking.bm25_token_gains`),
selects only the top k English documents
(:meth:`repro.web.search.SearchEngine._top_k`) and picks the snippet
windows of a whole batch of results at once from the bodies' word-id
streams the index records (:func:`repro.web.snippets.batch_snippets`,
:func:`repro.web.snippets.window_starts`).  These are the straightforward
versions -- a dense BM25 pass over every document, a full sort of every
matched document walked past the non-English ones, one result's window
picked from its sorted hit positions by bisection
(:func:`best_window_start`), and a snippet extractor that re-tokenises
the body and slides the window over every word, rendered from the split
body (:func:`render_window`) -- kept only so the tests
can check the engine against them.  :class:`ReferenceSearchEngine` puts
them together into an engine that ranks and renders one result at a time.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left
from typing import Sequence

import numpy as np

from repro.text.tokenization import tokenize
from repro.web.documents import WebPage
from repro.web.index import FrozenIndex
from repro.web.ranking import BM25Parameters, bm25_norms
from repro.web.search import SearchEngine
from repro.web.snippets import DEFAULT_SNIPPET_WORDS


class ReferenceIndex:
    """The index's contents, computed page by page with dicts.

    A posting's tf is ``title_boost`` per title token plus 1.0 per body
    token; its positions are the indexes, in ``body.split()``, of the
    words whose tokens include it.  A document's length is the sum of
    its tfs, and the digests hash the documented page fields in order.
    """

    def __init__(self, pages: list[WebPage], title_boost: float = 3.0) -> None:
        self.pages = list(pages)
        self.title_boost = title_boost
        self.postings: dict[str, dict[int, tuple[float, list[int]]]] = {}
        self.lengths: list[float] = []
        self.n_words: list[int] = []
        content = hashlib.sha256(repr(title_boost).encode())
        identity = hashlib.sha256()
        for doc_id, page in enumerate(self.pages):
            tfs: dict[str, float] = {}
            positions: dict[str, list[int]] = {}
            for token in tokenize(page.title):
                tfs[token] = tfs.get(token, 0.0) + title_boost
            words = page.body.split()
            for position, word in enumerate(words):
                for token in tokenize(word):
                    tfs[token] = tfs.get(token, 0.0) + 1.0
                    hits = positions.setdefault(token, [])
                    if position not in hits:
                        hits.append(position)
            for token, tf in tfs.items():
                self.postings.setdefault(token, {})[doc_id] = (
                    tf, positions.get(token, []),
                )
            self.lengths.append(float(sum(tfs.values())))
            self.n_words.append(len(words))
            content.update(b"\x00t\x00" + page.title.encode())
            content.update(b"\x00b\x00" + page.body.encode())
            identity.update(page.url.encode() + b"\x00")
            identity.update(page.language.encode() + b"\x00")
        self.content_digest = content.hexdigest()
        identity.update(self.content_digest.encode())
        self.fingerprint_digest = identity.hexdigest()
        total = 0.0
        for length in self.lengths:  # left to right, as a running sum
            total += length
        self.average_length = total / len(self.pages) if self.pages else 0.0
        self.english_mask = [page.language == "en" for page in self.pages]

    def word_positions(self, token: str, doc_id: int) -> list[int]:
        return self.postings.get(token, {}).get(doc_id, (0.0, []))[1]


def batch_word_positions(
    index: FrozenIndex, token: str, docs: list[int]
) -> list[list[int]]:
    """Per entry of *docs* (any order, repeats allowed), the positions of
    *token* in that document's body, as the index's word stream answers
    them: the positions whose word id is one of
    :meth:`~repro.web.index.FrozenIndex.token_words`."""
    yields = set(index.token_words(token).tolist())
    return [
        [
            position
            for position, word_id in enumerate(body_word_ids(index, doc_id))
            if word_id in yields
        ]
        for doc_id in docs
    ]


def body_word_ids(index: FrozenIndex, doc_id: int) -> list[int]:
    """Document *doc_id*'s slice of the index's word-id stream."""
    offsets = index.word_id_offsets
    return index.word_ids[offsets[doc_id] : offsets[doc_id + 1]].tolist()


def render_window(words: list[str], best_start: int, max_words: int) -> str:
    """Render the chosen window with ellipses marking truncation."""
    window = words[best_start : best_start + max_words]
    prefix = "... " if best_start > 0 else ""
    suffix = " ..." if best_start + max_words < len(words) else ""
    return f"{prefix}{' '.join(window)}{suffix}"


def bm25_score_array(
    index: FrozenIndex,
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
    index: FrozenIndex,
    query_tokens: list[str],
    parameters: BM25Parameters | None = None,
) -> dict[int, float]:
    """BM25 scores as a doc-id -> score mapping (matching documents only)."""
    array = bm25_score_array(index, query_tokens, parameters)
    matched = np.flatnonzero(array > 0.0)
    return {int(doc_id): float(array[doc_id]) for doc_id in matched}


def ranked_doc_ids(
    index: FrozenIndex, query_tokens: list[str], k: int
) -> list[int]:
    """The top-*k* English documents for *query_tokens*, best first.

    Sorts every matched document by score descending, then doc id
    ascending, and walks that order, skipping pages whose language is not
    English, until *k* are found.
    """
    scores = bm25_score_array(index, query_tokens)
    matched = np.flatnonzero(scores > 0.0)
    ranked = []
    for doc_id in matched[np.lexsort((matched, -scores[matched]))]:
        if index.page(int(doc_id)).language != "en":
            continue
        ranked.append(int(doc_id))
        if len(ranked) == k:
            break
    return ranked


def best_window_start(hits: Sequence[int], max_words: int) -> int:
    """First start of the densest *max_words* window over a body whose
    query hits are at the sorted, distinct word positions *hits*.

    Ties keep the earliest window, so no hits yields the leading window.
    The earliest densest window starts at 0 or ends on a hit (otherwise
    the window one word earlier would score as much), so only those
    starts are scored, each by one bisection: O(h log h) in the number
    of hits, whatever the body length.
    """
    best_start = 0
    best_score = bisect_left(hits, max_words)
    for end, position in enumerate(hits, 1):
        start = position - max_words + 1
        if start > 0:
            score = end - bisect_left(hits, start, 0, end)
            if score > best_score:
                best_score = score
                best_start = start
    return best_start


def window_scan_start(hits: list[int], max_words: int) -> int:
    """First start of the densest *max_words* window over per-word 0/1
    *hits*, found by sliding the window over every word.

    Only a strictly higher score moves the window, so ties keep the
    earliest and an all-zero *hits* yields the leading window.
    """
    window_score = sum(hits[:max_words])
    best_score = window_score
    best_start = 0
    for start in range(1, len(hits) - max_words + 1):
        window_score += hits[start + max_words - 1] - hits[start - 1]
        if window_score > best_score:
            best_score = window_score
            best_start = start
    return best_start


def scan_window_start(
    words: list[str], query_tokens, max_words: int = DEFAULT_SNIPPET_WORDS
) -> int:
    """The window start :func:`extract_snippet` picks over *words* for the
    distinct *query_tokens*: each word re-tokenised, then the scan."""
    if len(words) <= max_words:
        return 0
    hits = [
        1 if any(token in query_tokens for token in tokenize(word)) else 0
        for word in words
    ]
    return window_scan_start(hits, max_words)


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
    best_start = scan_window_start(words, set(tokenize(query)), max_words)
    return render_window(words, best_start, max_words)


class ReferenceSearchEngine(SearchEngine):
    """The search engine ranking with the dense oracle and rendering each
    result on its own: a full sort (:func:`ranked_doc_ids`) and the
    window found by re-tokenising the decoded body
    (:func:`scan_window_start`).  Request accounting and the results
    cache are the engine's own, so the two engines' caches can be
    compared entry by entry and pickled byte by byte.
    """

    def _top_k(self, effective: list[str], k: int) -> list[int]:
        return ranked_doc_ids(self._index, effective, k)

    def _store_results(self, ranked: dict[tuple, list[int]]) -> None:
        for signature, doc_ids in ranked.items():
            results = []
            for doc_id in doc_ids:
                body = self._index.page(doc_id).body
                start = scan_window_start(body.split(), set(signature[1]))
                snippet = render_window(
                    body.split(None, start + DEFAULT_SNIPPET_WORDS),
                    start,
                    DEFAULT_SNIPPET_WORDS,
                )
                results.append((doc_id, snippet))
            self._results_cache[signature] = tuple(results)
