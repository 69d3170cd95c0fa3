"""Query-biased snippet windows.

Real engines summarise a result page with a ~20-word window centred on the
query terms ("most of them are less than 20 words long", Section 5.2).  We
reproduce that: find the body window with the highest density of query
tokens and render it, ellipsised when it does not span the whole body.
The search engine marks a query's hits from the index's word positions
(:meth:`repro.web.search.SearchEngine._snippet_for`).
"""

from __future__ import annotations

from typing import Sequence

DEFAULT_SNIPPET_WORDS = 20


def best_window_start(
    hits: Sequence[int], n_words: int, max_words: int
) -> int:
    """First start of the densest *max_words* window over per-word *hits*.

    Ties keep the earliest window (only a strictly higher score moves the
    window), so an all-zero *hits* yields the leading window.
    """
    window_score = sum(hits[:max_words])
    best_score = window_score
    best_start = 0
    for start in range(1, n_words - max_words + 1):
        window_score += hits[start + max_words - 1] - hits[start - 1]
        if window_score > best_score:
            best_score = window_score
            best_start = start
    return best_start


def render_window(words: list[str], best_start: int, max_words: int) -> str:
    """Render the chosen window with ellipses marking truncation."""
    window = words[best_start : best_start + max_words]
    prefix = "... " if best_start > 0 else ""
    suffix = " ..." if best_start + max_words < len(words) else ""
    return f"{prefix}{' '.join(window)}{suffix}"

