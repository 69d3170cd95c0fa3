"""Okapi BM25 ranking over the inverted index (vectorised)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.web.backends import IndexBackend


@dataclass(frozen=True)
class BM25Parameters:
    """The two free parameters of BM25, at their customary defaults."""

    k1: float = 1.5
    b: float = 0.75

    def __post_init__(self) -> None:
        if self.k1 < 0:
            raise ValueError(f"k1 must be >= 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {self.b}")

    def as_tuple(self) -> tuple[float, float]:
        """``(k1, b)`` -- the parametrisation's persistable identity.

        Part of the fingerprint that versions the search engine's ranking
        caches on disk: results computed under one (k1, b) are invalid
        under any other, exactly as the in-memory cache-drop hook treats
        them.
        """
        return (self.k1, self.b)


def bm25_norms(
    index: IndexBackend, parameters: BM25Parameters
) -> np.ndarray:
    """Per-document length normalisation ``1 - b + b * len/avg_len``.

    The single definition shared by the scorer and the search engine's
    norms cache.
    """
    average_length = index.average_length or 1.0
    return 1.0 - parameters.b + parameters.b * (index.lengths / average_length)


def bm25_matched_scores(
    index: IndexBackend,
    query_tokens: list[str],
    parameters: BM25Parameters | None = None,
    norms: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """BM25 over matching documents only: ``(doc_ids, scores)`` arrays.

    Uses the standard idf form ``ln(1 + (N - df + 0.5) / (df + 0.5))``,
    which is non-negative for any document frequency.  Cost is
    proportional to the postings touched, not the corpus size.
    ``doc_ids`` is ascending; ``scores`` accumulates per-token gains in
    query-token order, so a document's score is the same float sum a
    dense per-document accumulator would give.  *norms* lets the caller
    hoist the per-document length normalisation out of a query loop.
    """
    parameters = parameters or BM25Parameters()
    n_docs = index.n_documents
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
    if n_docs == 0 or not query_tokens:
        return empty
    if norms is None:
        norms = bm25_norms(index, parameters)
    id_chunks: list[np.ndarray] = []
    gain_chunks: list[np.ndarray] = []
    for token in query_tokens:
        arrays = index.posting_arrays(token)
        if arrays is None:
            continue
        ids, tfs = arrays
        df = ids.shape[0]
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        gain_chunks.append(
            idf * (tfs * (parameters.k1 + 1.0)) / (tfs + parameters.k1 * norms[ids])
        )
        id_chunks.append(ids)
    if not id_chunks:
        return empty
    all_ids = np.concatenate(id_chunks)
    all_gains = np.concatenate(gain_chunks)
    matched, inverse = np.unique(all_ids, return_inverse=True)
    # bincount sums weights in array order == token order per document.
    scores = np.bincount(inverse, weights=all_gains, minlength=matched.shape[0])
    positive = scores > 0.0
    return matched[positive], scores[positive]

