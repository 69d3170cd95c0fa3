"""Web-search substrate: the Microsoft Bing stand-in (Section 5.2).

The annotation step submits a cell's content to a search engine and
consumes the top-k results, "each consisting of a link to a Web page, its
title and a short summary of its content, often referred to as a snippet.
Only results in English are considered."  This package provides that
contract over a synthetic corpus:

* :mod:`repro.web.documents` -- the page model;
* :mod:`repro.web.index` -- an inverted index with term statistics;
* :mod:`repro.web.ranking` -- BM25 scoring;
* :mod:`repro.web.snippets` -- query-biased snippet extraction;
* :mod:`repro.web.search` -- the engine facade with top-k results, an
  English-only filter, a virtual-latency model and failure injection.
"""

from repro.web.documents import WebPage
from repro.web.index import InvertedIndex
from repro.web.ranking import BM25Parameters
from repro.web.search import SearchEngine, SearchEngineUnavailable, SearchResult

__all__ = [
    "BM25Parameters",
    "InvertedIndex",
    "SearchEngine",
    "SearchEngineUnavailable",
    "SearchResult",
    "WebPage",
]
