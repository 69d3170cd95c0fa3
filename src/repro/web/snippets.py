"""Query-biased snippet windows.

Real engines summarise a result page with a ~20-word window centred on the
query terms ("most of them are less than 20 words long", Section 5.2).  We
reproduce that: find the body window with the highest density of query
tokens and render it, ellipsised when it does not span the whole body.
:func:`batch_snippets` reads every result's body as the index's word-id
stream, marks the words that yield a query token, picks the windows of a
whole batch of results at once (:func:`window_starts`) and renders each
window by joining the index's decoded words; no body is decoded or split.
"""

from __future__ import annotations

from typing import Collection, Sequence

import numpy as np

from repro.web.index import FrozenIndex

DEFAULT_SNIPPET_WORDS = 20

SNIPPET_CHUNK = 1024
"""Results whose windows are found in one array pass: bounds the pass's
temporaries by the words of that many bodies, whatever the batch size."""

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
    window when no token occurs in the body.  A group's query words are
    the body words yielding one of its tokens
    (:meth:`~repro.web.index.FrozenIndex.token_words`).  Per
    :data:`SNIPPET_CHUNK` results, one gather reads their bodies' word
    ids, one more marks the hits against a (group, query word) mask over
    just the chunk's groups and their query words, the hit keys come out
    sorted, :func:`window_starts` picks every window and :func:`_render`
    renders them all.
    """
    docs = np.array(
        [doc_id for _, doc_ids in groups for doc_id in doc_ids], dtype=np.int64
    )
    group_of = np.repeat(
        np.arange(len(groups), dtype=np.int64), [len(doc_ids) for _, doc_ids in groups]
    )
    yielded = [
        (group, index.token_words(token))
        for group, (tokens, _) in enumerate(groups)
        for token in tokens
    ]
    # Every group's query words, in group order.
    pair_groups = np.repeat(
        np.array([group for group, _ in yielded], dtype=np.int64),
        [word_ids.shape[0] for _, word_ids in yielded],
    )
    pair_words = np.concatenate(
        [word_ids for _, word_ids in yielded] + [np.empty(0, dtype=np.int32)]
    )
    # Each word's column in the current chunk's mask; 0 for no query word.
    column_of = np.zeros(len(index.words), dtype=np.int64)
    offsets = index.word_id_offsets
    snippets: list[str] = []
    for first in range(0, docs.shape[0], SNIPPET_CHUNK):
        chunk = docs[first : first + SNIPPET_CHUNK]
        chunk_groups = group_of[first : first + SNIPPET_CHUNK]
        lowest = chunk_groups[0]
        lo, hi = np.searchsorted(pair_groups, [lowest, chunk_groups[-1] + 1])
        query_words, columns = np.unique(pair_words[lo:hi], return_inverse=True)
        column_of[query_words] = np.arange(1, query_words.shape[0] + 1)
        mask = np.zeros(
            (chunk_groups[-1] - lowest + 1, query_words.shape[0] + 1), dtype=bool
        )
        mask[pair_groups[lo:hi] - lowest, columns + 1] = True
        begins = offsets[chunk]
        counts = offsets[chunk + 1] - begins
        # The chunk's bodies back to back: each word's row, its position
        # in that row's body and its word id.
        rows = np.repeat(np.arange(chunk.shape[0], dtype=np.int64), counts)
        row_starts = np.cumsum(counts) - counts
        at = np.arange(rows.shape[0], dtype=np.int64) - row_starts[rows]
        body = index.word_ids[begins[rows] + at]
        hits = mask[chunk_groups[rows] - lowest, column_of[body]]
        column_of[query_words] = 0
        starts = window_starts(
            (rows[hits] << POSITION_BITS) | at[hits], chunk.shape[0], max_words
        )
        snippets += _render(index, body, row_starts, counts, starts, max_words)
    return snippets


def _render(
    index: FrozenIndex,
    body: np.ndarray,
    row_starts: np.ndarray,
    counts: np.ndarray,
    starts: np.ndarray,
    max_words: int,
) -> list[str]:
    """Each row's window of *body* (the rows' word ids back to back, row
    *r* from ``row_starts[r]``, ``counts[r]`` words long) from
    ``starts[r]``: its words joined by spaces, after an ellipsis when it
    starts past 0 and before one when the body goes on past it.

    Every row's items are laid out in one object array, each followed by
    a space or, after a row's last item, a newline (an empty window is
    one empty item); one ``join`` and one ``split`` make every row's
    text.  No word holds whitespace, so the newlines split exactly the
    rows."""
    widths = np.minimum(counts - starts, max_words)
    leads = (starts > 0).astype(np.int64)
    n_items = leads + widths + (starts + max_words < counts)
    empty = n_items == 0
    n_items[empty] = 1
    ends = np.cumsum(n_items)
    pieces = np.empty(2 * int(ends[-1]), dtype=object)
    pieces[0::2] = "..."
    pieces[1::2] = " "
    pieces[2 * ends - 1] = "\n"
    pieces[2 * (ends - n_items)[empty]] = ""
    # Word i of the windows back to back (row r's from first[r]) is
    # item i + (an offset per row) of the layout and word i + (another
    # offset per row) of *body*.
    first = np.cumsum(widths) - widths
    words = np.arange(first[-1] + widths[-1], dtype=np.int64)
    slot = np.repeat(ends - n_items + leads - first, widths) + words
    at = np.repeat(row_starts + starts - first, widths) + words
    pieces[2 * slot] = index.words[body[at]]
    return "".join(pieces.tolist()).split("\n")[:-1]


def window_starts(keys: np.ndarray, n_rows: int, max_words: int) -> np.ndarray:
    """Per row, the first start of the densest *max_words* window over
    that row's body, whose query hits are the sorted, distinct int64 hit
    *keys* (``row << POSITION_BITS | position``).

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
