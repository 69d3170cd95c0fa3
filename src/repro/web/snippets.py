"""Query-biased snippet windows.

Real engines summarise a result page with a ~20-word window centred on the
query terms ("most of them are less than 20 words long", Section 5.2).  We
reproduce that: find the body window with the highest density of query
tokens and render it, ellipsised when it does not span the whole body.
:func:`batch_snippets` takes every result's hit positions from the
index's word positions and picks the windows of a whole batch of results
at once (:func:`window_starts`); only the split and the render are per
result.
"""

from __future__ import annotations

from typing import Collection, Sequence

import numpy as np

from repro.web.index import FrozenIndex

DEFAULT_SNIPPET_WORDS = 20

SNIPPET_CHUNK = 1024
"""Results whose windows are found in one array pass: bounds the pass's
temporaries whatever the batch size."""

POSITION_BITS = 32
"""A hit key is ``row << POSITION_BITS | position`` (positions are int32)."""


def batch_snippets(
    index: FrozenIndex,
    groups: Sequence[tuple[Collection[str], Sequence[int]]],
    max_words: int = DEFAULT_SNIPPET_WORDS,
) -> list[str]:
    """The snippet of every result in *groups*, in order: each group is a
    query's distinct tokens and its results' doc ids.

    A snippet is the densest *max_words*-word window of the result's body
    for the query's tokens, ellipsised when truncated, or the leading
    window when no token occurs in the body.  The windows of each
    :data:`SNIPPET_CHUNK` results are found in one array pass: one
    ``searchsorted`` per token finds its postings among the results
    naming it, ``np.unique`` merges their word positions into each
    result's sorted hits, and :func:`window_starts` picks every window.
    Then each body is decoded and split only up to its window's end (the
    unsplit rest is one more piece, which is all the trailing ellipsis
    needs) to render it.
    """
    docs = [doc_id for _, doc_ids in groups for doc_id in doc_ids]
    doc_array = np.array(docs, dtype=np.int64)
    bounds = []  # each group's tokens and its rows in `docs`
    stop = 0
    for tokens, doc_ids in groups:
        bounds.append((tokens, stop, stop + len(doc_ids)))
        stop += len(doc_ids)
    starts: list[int] = []
    for first in range(0, len(docs), SNIPPET_CHUNK):
        last = min(first + SNIPPET_CHUNK, len(docs))
        rows_of: dict[str, list[int]] = {}
        for tokens, lo, hi in bounds:
            if lo < last and hi > first:
                for token in tokens:
                    rows_of.setdefault(token, []).extend(
                        range(max(lo, first), min(hi, last))
                    )
        hit_rows = [np.empty(0, dtype=np.int64)]
        postings = [np.empty(0, dtype=np.int64)]
        for token, rows in rows_of.items():
            rows = np.array(rows, dtype=np.int64)
            found, token_postings = index.postings_of(token, doc_array[rows])
            hit_rows.append(rows[found] - first)
            postings.append(token_postings)
        owners, positions = index.posting_positions(np.concatenate(postings))
        keys = np.unique(
            (np.concatenate(hit_rows)[owners] << POSITION_BITS) | positions
        )
        starts.extend(window_starts(keys, last - first, max_words).tolist())
    return [
        render_window(
            index.field(doc_id, 2).split(None, start + max_words), start, max_words
        )
        for doc_id, start in zip(docs, starts)
    ]


def window_starts(keys: np.ndarray, n_rows: int, max_words: int) -> np.ndarray:
    """Per row, the first start of the densest *max_words* window over
    that row's body, whose query hits are the sorted, distinct int64 hit
    *keys* (``row << POSITION_BITS | position``, as ``np.unique`` leaves
    them).

    Ties keep the earliest window, so a row without hits gets the leading
    window.  The earliest densest window starts at 0 or ends on a hit
    (otherwise the window one word earlier would score as much), so only
    those starts are scored: a window ending on a hit scores the hits from
    its start to that hit, one ``searchsorted`` for all of them, and wins
    only by beating the leading window and every earlier candidate.
    """
    best = np.zeros(n_rows, dtype=np.int64)
    if keys.size == 0:
        return best
    row_keys = np.arange(n_rows, dtype=np.int64) << POSITION_BITS
    lead = np.searchsorted(keys, row_keys + max_words) - np.searchsorted(
        keys, row_keys
    )
    rows = keys >> POSITION_BITS
    starts = (keys & ((1 << POSITION_BITS) - 1)) - (max_words - 1)
    # Keys of one row are contiguous, so the hits from `start` through
    # hit i are i + 1 minus the first hit at or after `start`.
    scores = np.arange(1, keys.size + 1) - np.searchsorted(
        keys, (rows << POSITION_BITS) + np.maximum(starts, 0)
    )
    beats = np.flatnonzero((starts > 0) & (scores > lead[rows]))
    if beats.size:
        # Per row, the best score first, then the earliest hit.
        order = beats[np.lexsort((beats, -scores[beats], rows[beats]))]
        winners, first = np.unique(rows[order], return_index=True)
        best[winners] = starts[order[first]]
    return best


def render_window(words: list[str], best_start: int, max_words: int) -> str:
    """Render the chosen window with ellipses marking truncation."""
    window = words[best_start : best_start + max_words]
    prefix = "... " if best_start > 0 else ""
    suffix = " ..." if best_start + max_words < len(words) else ""
    return f"{prefix}{' '.join(window)}{suffix}"
