"""Web-search substrate: the Microsoft Bing stand-in (Section 5.2).

The annotation step submits a cell's content to a search engine and
consumes the top-k results, "each consisting of a link to a Web page, its
title and a short summary of its content, often referred to as a snippet.
Only results in English are considered."  This package provides that
contract over a synthetic corpus:

* :mod:`repro.web.documents` -- the page model;
* :mod:`repro.web.index` -- the inverted index: an :class:`IndexBuilder`
  that takes every page, then one immutable CSR :class:`FrozenIndex`
  that answers every query (build, freeze, then query);
* :mod:`repro.web.backends` -- where that index's arrays live: in RAM,
  or mapped from an artifact file shared by every process on a host;
* :mod:`repro.web.ranking` -- BM25 scoring;
* :mod:`repro.web.snippets` -- query-biased snippet extraction;
* :mod:`repro.web.search` -- the engine facade with top-k results, an
  English-only filter, a virtual-latency model and failure injection.
"""

from repro.web.documents import WebPage
from repro.web.index import FrozenIndex, IndexBuilder
from repro.web.ranking import BM25Parameters
from repro.web.search import SearchEngine, SearchEngineUnavailable, SearchResult

__all__ = [
    "BM25Parameters",
    "FrozenIndex",
    "IndexBuilder",
    "SearchEngine",
    "SearchEngineUnavailable",
    "SearchResult",
    "WebPage",
]
