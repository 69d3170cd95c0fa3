"""Query-biased snippet windows.

Real engines summarise a result page with a ~20-word window centred on the
query terms ("most of them are less than 20 words long", Section 5.2).  We
reproduce that: find the body window with the highest density of query
tokens and render it, ellipsised when it does not span the whole body.
The search engine takes a query's hit positions from the index's word
positions (:meth:`repro.web.search.SearchEngine._snippet_for`).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

DEFAULT_SNIPPET_WORDS = 20


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


def render_window(words: list[str], best_start: int, max_words: int) -> str:
    """Render the chosen window with ellipses marking truncation."""
    window = words[best_start : best_start + max_words]
    prefix = "... " if best_start > 0 else ""
    suffix = " ..." if best_start + max_words < len(words) else ""
    return f"{prefix}{' '.join(window)}{suffix}"
