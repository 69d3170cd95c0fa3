"""Okapi BM25 ranking over the inverted index (vectorised)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.web.index import FrozenIndex


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
    index: FrozenIndex, parameters: BM25Parameters
) -> np.ndarray:
    """Per-document length normalisation ``1 - b + b * len/avg_len``.

    The single definition shared by the scorer and the search engine's
    norms cache.
    """
    average_length = index.average_length or 1.0
    return 1.0 - parameters.b + parameters.b * (index.lengths / average_length)


def bm25_token_gains(
    index: FrozenIndex,
    token: str,
    parameters: BM25Parameters,
    norms: np.ndarray,
) -> tuple[np.ndarray, np.ndarray] | None:
    """``(doc_ids, gains)``: the BM25 gain of *token* in each document
    holding it, doc ids ascending, or ``None`` when no document does.

    Uses the standard idf form ``ln(1 + (N - df + 0.5) / (df + 0.5))``,
    which is positive for any document frequency, so every gain is too.
    A pure function of the index, *parameters* and their *norms*: the
    search engine computes it once per token and reuses it across queries.
    """
    arrays = index.posting_arrays(token)
    if arrays is None:
        return None
    ids, tfs = arrays
    df = ids.shape[0]
    idf = math.log(1.0 + (index.n_documents - df + 0.5) / (df + 0.5))
    return ids, idf * (tfs * (parameters.k1 + 1.0)) / (
        tfs + parameters.k1 * norms[ids]
    )


def bm25_sum(
    n_documents: int, token_gains: list[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """``(doc_ids, scores)`` of the documents matching any of the query
    tokens whose :func:`bm25_token_gains` are *token_gains*, in query-token
    order.

    The gains go into one ``bincount`` over the documents, whose positive
    entries are the matches: ``doc_ids`` is ascending, and each score
    accumulates per-token gains in query-token order, the same float sum
    a dense per-document accumulator would give.  One token's gains are
    its scores as they are (``0.0 + gain == gain``), returned without a
    copy.
    """
    if not token_gains:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    if len(token_gains) == 1:
        return token_gains[0]
    # bincount sums weights in array order == token order per document.
    ids = np.concatenate([ids for ids, _ in token_gains])
    gains = np.concatenate([gains for _, gains in token_gains])
    scores = np.bincount(ids, weights=gains, minlength=n_documents)
    matched = np.flatnonzero(scores > 0.0)
    return matched, scores[matched]
