"""The search-engine facade: the Microsoft Bing stand-in.

Implements the exact contract the annotation step consumes (Section 5.2):
submit a query, receive the top-k results as (url, title, snippet) triples,
English results only.  Each query charges a configurable latency to the
shared :class:`~repro.clock.VirtualClock`; the Section 6.4 efficiency
experiment reads that clock.

One query entry point, :meth:`SearchEngine.search_many`, resolves a batch
of queries for table-at-a-time annotation; :meth:`SearchEngine.search` is
``search_many([query])[0]`` that raises on failure instead of answering
``None``.  Latency accounting is per unique issued query *string* (a
remote engine is hit once per distinct request), in first-occurrence
order, so for a batch of distinct queries the clock and the failure
injector see exactly what one :meth:`search` call per query would.
Compute is amortised: result lists are cached per query *token
signature* (tokenisation drops digits and stopwords, so many distinct
strings rank identically), BM25 runs sparsely over only the matched
postings, and query-biased snippets come from the index's positional
postings -- a body is split only to render its winning window.

Failure injection: setting :attr:`SearchEngine.available` to ``False`` makes
every query raise :class:`SearchEngineUnavailable`, and ``failure_rate``
drops queries pseudo-randomly -- both are exercised by the failure-handling
tests of the annotator.  Failure is decided per issued query, *before* any
compute cache is consulted: a dropped request returns nothing even when the
engine could have answered it from cache.  The failure-rate draw is a
deterministic hash of ``(seed, query text, occurrence index)`` rather than
a shared RNG stream, so every execution tier -- per-cell, batched,
multi-process, service -- agrees on exactly *which* requests drop for a
given workload, and a retry of the same query (its next occurrence) gets a
fresh draw.  Scripted faults beyond the uniform rate (fail the first K
issues of a query, every Nth request, outage windows, latency spikes) are
installed via :attr:`SearchEngine.fault_plan`
(a :class:`repro.resilience.FaultPlan`).

The signature -> results cache is also *durable*: :meth:`SearchEngine.save_results_cache`
writes it (with the BM25 length norms) to disk, fingerprinted by
the corpus content (size, urls, indexed titles/bodies) and the BM25
parameters, and :meth:`SearchEngine.load_results_cache` warms a fresh
engine -- in another process -- over the same corpus.  Saves are
merge-on-save under an advisory file lock, so concurrent workers sharing
one cache directory union their entries instead of clobbering each other.

>>> from repro.clock import VirtualClock
>>> from repro.web.documents import WebPage
>>> def build_engine():
...     engine = SearchEngine(clock=VirtualClock())
...     engine.add_page(WebPage(url="https://web/melisse", title="Hotel Melisse",
...                             body="hotel melisse rooms lodging suites"))
...     return engine
>>> engine = build_engine()
>>> [hit.title for hit in engine.search("Hotel Melisse", k=3)]
['Hotel Melisse']
>>> batch = engine.search_many(["Hotel Melisse", "Hotel Melisse"], k=3)
>>> [hit.title for hit in batch[1]]
['Hotel Melisse']
>>> engine.clock.n_charges  # search() charged 1; the duplicate batch, 1
2
>>> import os, tempfile
>>> tmp = tempfile.TemporaryDirectory()
>>> path = os.path.join(tmp.name, "search_results.cache")
>>> engine.save_results_cache(path)
True
>>> warm = build_engine()  # a second process over the same corpus
>>> warm.load_results_cache(path)
True
>>> tmp.cleanup()
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.clock import VirtualClock
from repro.observability.tracing import span
from repro.persistence import CacheFileSync
from repro.resilience import FaultPlan, deterministic_unit
from repro.text.stopwords import ENGLISH_STOPWORDS
from repro.text.tokenization import tokenize
from repro.web.backends import IndexBackend
from repro.web.documents import WebPage
from repro.web.index import InvertedIndex
from repro.web.ranking import BM25Parameters, bm25_matched_scores, bm25_norms
from repro.web.snippets import (
    DEFAULT_SNIPPET_WORDS,
    best_window_start,
    render_window,
)

DEFAULT_SEARCH_LATENCY = 0.3
"""Virtual seconds charged per search request."""

MAX_DF_RATIO = 0.35
"""Query tokens occurring in more than this fraction of documents are
ignored during ranking, as real engines effectively do with ubiquitous
words; stopwords are dropped outright."""


class SearchEngineUnavailable(RuntimeError):
    """Raised when the engine is down or a request is dropped."""


@dataclass(frozen=True)
class SearchResult:
    """One search hit: link, title and the query-biased snippet."""

    url: str
    title: str
    snippet: str


class SearchEngine:
    """BM25-ranked keyword search over a synthetic page corpus."""

    def __init__(
        self,
        clock: VirtualClock | None = None,
        latency_seconds: float = DEFAULT_SEARCH_LATENCY,
        parameters: BM25Parameters | None = None,
        failure_rate: float = 0.0,
        seed: int = 13,
        index: IndexBackend | None = None,
    ) -> None:
        if not 0.0 <= failure_rate <= 1.0:
            raise ValueError(f"failure_rate must be in [0, 1], got {failure_rate}")
        self.clock = clock or VirtualClock()
        self.latency_seconds = latency_seconds
        self.parameters = parameters or BM25Parameters()
        self.failure_rate = failure_rate
        self.available = True
        self._seed = seed
        # Scripted deterministic faults (see repro.resilience.FaultPlan);
        # None means only `available` / `failure_rate` apply.
        self.fault_plan: FaultPlan | None = None
        # query text -> how many times this engine has issued it; the
        # occurrence index keys the failure-rate draw and FaultPlan's
        # fail-first-K schedule, and gives retries a fresh draw.
        self._query_occurrences: dict[str, int] = {}
        # The index storage backend (repro.web.backends.IndexBackend):
        # mutable in-memory by default, or an injected frozen mmap-backed
        # index shared zero-copy across processes.
        self._index: IndexBackend = index if index is not None else InvertedIndex()
        # -- query compute caches (invalidated whenever the corpus grows) --
        # token signature -> ranked SearchResult list
        self._results_cache: dict[tuple, list[SearchResult]] = {}
        self._norms: np.ndarray | None = None
        self._cache_n_docs = 0
        self._cache_parameters = self.parameters
        self.query_count = 0
        # What the last load/save of the results cache file left in sync
        # (repro.persistence.CacheFileSync); forgotten on every clear.
        self._results_file = CacheFileSync()
        # -- cache IO accounting (observability only; never semantics) ---
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_loads = 0
        self._cache_saves = 0
        self._cache_load_bytes = 0
        self._cache_save_bytes = 0

    # -- corpus ------------------------------------------------------------------------

    def add_page(self, page: WebPage) -> None:
        """Add one page to the searchable corpus."""
        self._index.add(page)

    def add_pages(self, pages) -> None:
        """Bulk-index many pages in one indexing pass."""
        self._index.add_many(pages)

    @property
    def n_pages(self) -> int:
        return self._index.n_documents

    @property
    def index(self) -> IndexBackend:
        """The index storage backend serving this engine's queries."""
        return self._index

    def use_index_backend(self, backend: IndexBackend) -> None:
        """Swap the engine onto *backend* (e.g. a frozen mmap artifact).

        The replacement must index the *same corpus* -- same content
        digest -- so every ranking/window compute cache, and every
        persisted cache keyed by :meth:`cache_fingerprint`, stays valid
        verbatim: cached values are pure functions of (corpus,
        parameters), never of the storage representation.
        """
        if backend.content_digest() != self._index.content_digest():
            raise ValueError(
                "cannot swap index backends across different corpora: "
                "content digests differ"
            )
        self._index = backend

    # -- querying -----------------------------------------------------------------------

    def search(self, query: str, k: int = 10) -> list[SearchResult]:
        """Top-*k* English results for *query*, best first.

        ``search_many([query], k)[0]``, except that a failed request
        raises :class:`SearchEngineUnavailable` with its reason ("search
        engine is down", "request dropped by fault plan" or "request
        dropped").  An empty or no-match query yields an empty result
        list, as a real engine would.
        """
        outcome = self._resolve([query], k)[query]
        if isinstance(outcome, str):
            raise SearchEngineUnavailable(outcome)
        return list(outcome)

    def search_many(
        self, queries: Sequence[str], k: int = 10
    ) -> list[list[SearchResult] | None]:
        """Resolve a batch of queries, one issued request per unique query.

        Returns a list aligned with *queries*; each entry is the top-*k*
        result list of that query, or ``None`` when its (single, shared)
        request failed.  Duplicate query strings are issued -- and charged
        to the virtual clock -- exactly once, in first-occurrence order, so
        for a batch of distinct queries the latency accounting is identical
        to calling :meth:`search` per query.  Unlike :meth:`search`,
        failures are reported per query rather than raised, so one dropped
        request cannot abort a whole table.
        """
        with span("search.search_many", n_queries=len(queries)) as many_span:
            resolved = self._resolve(queries, k)
            many_span.tag(n_unique=len(resolved))
        # Copy per entry: callers may mutate their result lists without
        # corrupting the signature cache.
        return [
            None if isinstance(resolved[query], str) else list(resolved[query])
            for query in queries
        ]

    def _resolve(
        self, queries: Sequence[str], k: int
    ) -> dict[str, list[SearchResult] | str]:
        """Issue each unique query once: its cached result list, or the
        failure reason :meth:`_issue_request` gave when it was dropped."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self._validate_caches()
        resolved: dict[str, list[SearchResult] | str] = {}
        for query in queries:
            if query not in resolved:
                reason = self._issue_request(query)
                resolved[query] = (
                    reason if reason is not None else self._ranked_results(query, k)
                )
        return resolved

    def _issue_request(self, query: str) -> str | None:
        """Account one issued request and decide its fate.

        Returns ``None`` on success or a human-readable failure reason when
        the request is dropped.  A dropped request is still charged: the
        remote round-trip happened, it just failed.  The decision is a pure
        function of the engine's seed, the query text, how many times this
        engine has issued that text (its occurrence index), the global
        request index, and the installed :class:`FaultPlan` -- never of a
        shared RNG stream -- so identical workloads fail identically across
        every execution tier.
        """
        request_index = self.query_count
        occurrence = self._query_occurrences.get(query, 0)
        self._query_occurrences[query] = occurrence + 1
        plan = self.fault_plan
        if plan is not None:
            plan.maybe_kill(query)
        self._charge_request()
        if plan is not None:
            extra = plan.extra_latency(request_index)
            if extra:
                self.clock.wait(extra)
        if not self.available:
            return "search engine is down"
        if plan is not None and plan.should_fail(query, occurrence, request_index):
            return "request dropped by fault plan"
        if self.failure_rate and (
            deterministic_unit(self._seed, query, occurrence) < self.failure_rate
        ):
            return "request dropped"
        return None

    def _charge_request(self) -> None:
        """Account one issued request: one virtual-clock charge."""
        self.clock.charge(self.latency_seconds)
        self.query_count += 1

    def reset_failure_injection(self) -> None:
        """Forget per-query occurrence counters (and nothing else).

        After a reset, re-issuing a query gets the occurrence-0 draw again:
        tests use this to run a no-retry baseline and a retrying pass
        over the same corpus with *identical* first-attempt failures.
        """
        self._query_occurrences.clear()

    # -- ranking core ---------------------------------------------------------------------

    def _validate_caches(self) -> None:
        """Drop ranking caches when the corpus or BM25 parameters changed."""
        n_docs = self._index.n_documents
        if n_docs != self._cache_n_docs or self.parameters != self._cache_parameters:
            self._results_cache.clear()
            self._norms = None
            self._results_file.forget()
            self._cache_n_docs = n_docs
            self._cache_parameters = self.parameters

    def reset_compute_caches(self) -> None:
        """Forget every query compute cache: ranked results and length norms.

        This is what "cold" means: empty query caches over a built
        (positional) index.  Snippet windows are not a cache -- they come
        from the index's word positions, which are corpus data and stay.
        Accounting state (clock, query counts, rng) is untouched.
        Benchmarks call this to measure cold passes.
        """
        self._results_cache.clear()
        self._norms = None
        self._results_file.forget()

    # -- cache persistence ----------------------------------------------------------------

    def cache_fingerprint(self) -> tuple:
        """Identity token versioning the on-disk ranking caches.

        Covers the state the in-memory cache-drop hook
        (:meth:`_validate_caches`) watches -- corpus size plus the BM25
        parametrisation -- and, because a file may meet an engine the
        in-memory hook never could, actual corpus identity: page urls plus
        the index's content digest over every indexed title and body
        (which fully determine the postings).  Hashing only url/title/
        length let two corpora whose *bodies* differ but collide on those
        fields validate each other's persisted results -- and serve wrong
        rankings; folding the indexed token content in closes that hole.

        The digest itself is the backend's
        (:meth:`~repro.web.index.InvertedIndex.fingerprint_digest`): the
        in-memory backend maintains it incrementally, the frozen mmap
        backend stores it in the artifact header, and both produce the
        same bytes for the same corpus -- so caches written under one
        backend warm an engine running the other.
        """
        index = self._index
        return (
            "bm25",
            index.n_documents,
            index.fingerprint_digest(),
            self.parameters.as_tuple(),
        )

    @staticmethod
    def merge_results_payloads(existing: dict, fresh: dict) -> dict:
        """Union two persisted ranking payloads of one fingerprint.

        Every entry is a pure function of (corpus, parameters, query), so
        same-keyed entries are interchangeable and the union is simply the
        combined key set (fresh entries win ties).  This is the
        merge-on-save hook that lets concurrent workers share one cache
        directory: a worker persisting its shard's entries folds in --
        never clobbers -- what other workers already saved.
        """
        return {
            "results": {**existing["results"], **fresh["results"]},
            "norms": (
                fresh["norms"] if fresh["norms"] is not None else existing["norms"]
            ),
        }

    @staticmethod
    def _payload_sizes(payload: dict) -> tuple:
        """Entry counts of a results payload (see :class:`CacheFileSync`)."""
        return (len(payload["results"]), payload["norms"] is not None)

    def _results_payload(self) -> dict:
        """The persisted view of the compute caches (shallow references)."""
        return {"results": self._results_cache, "norms": self._norms}

    def save_results_cache(self, path) -> bool:
        """Persist the signature -> results cache (and length norms) to *path*.

        The file is fingerprinted by :meth:`cache_fingerprint`; stale
        in-memory entries are dropped first so a cache surviving corpus
        growth is never written out.  The write is merge-on-save under an
        advisory lock (see :func:`repro.persistence.save_cache_payload`):
        entries already persisted by another process against the same
        fingerprint survive.  A save that would change nothing -- the
        file is unchanged since this engine last loaded or saved it and
        already holds every entry -- is skipped (see
        :class:`~repro.persistence.CacheFileSync`).  Returns ``False``
        when the lock could not be acquired and the save was skipped.
        """
        self._validate_caches()
        snapshot = {
            name: dict(value) if isinstance(value, dict) else value
            for name, value in self._results_payload().items()
        }
        written = self._results_file.save(
            path,
            "search-results",
            self.cache_fingerprint(),
            self._payload_sizes,
            snapshot,
            merge=self.merge_results_payloads,
        )
        if written is None:
            return False
        if written:
            self._cache_saves += 1
            self._cache_save_bytes += written
        return True

    def load_results_cache(self, path) -> bool:
        """Warm the compute caches from a file written by :meth:`save_results_cache`.

        Returns ``True`` when the file matched this engine's current
        fingerprint (same corpus size and BM25 parameters) and was merged
        in -- or is unchanged since this engine last read or wrote it and
        already merged in, when nothing is read at all; anything else --
        missing file, other format version, corpus grown since the save
        -- leaves the engine cold and returns ``False``.  Accounting
        state (clock, query counts, rng) is never restored: a warm start
        changes compute, not protocol semantics.
        """
        self._validate_caches()
        read = self._results_file.load(
            path,
            "search-results",
            self.cache_fingerprint(),
            self._payload_sizes,
            self._results_payload,
            self._absorb_results,
        )
        if read is None:
            return False
        if read:
            self._cache_loads += 1
            self._cache_load_bytes += read
        return True

    def _absorb_results(self, payload: dict) -> None:
        self._results_cache.update(payload["results"])
        if self._norms is None and payload["norms"] is not None:
            self._norms = payload["norms"]
        self._cache_n_docs = self._index.n_documents
        self._cache_parameters = self.parameters

    # -- cache IO accounting ---------------------------------------------------------------

    @property
    def cache_hits(self) -> int:
        """Ranking lookups served from cache."""
        return self._cache_hits

    @property
    def cache_misses(self) -> int:
        """Ranking lookups that had to compute."""
        return self._cache_misses

    @property
    def cache_loads(self) -> int:
        """Cache file loads that read the file."""
        return self._cache_loads

    @property
    def cache_saves(self) -> int:
        """Cache file saves that wrote the file."""
        return self._cache_saves

    @property
    def cache_load_bytes(self) -> int:
        """Bytes read to warm this engine."""
        return self._cache_load_bytes

    @property
    def cache_save_bytes(self) -> int:
        """Bytes written persisting this engine's caches."""
        return self._cache_save_bytes

    def _ranked_results(self, query: str, k: int) -> list[SearchResult]:
        """Top-*k* results, cached per token signature.

        Ranking depends only on the effective token sequence and snippet
        extraction only on the query token set, so queries differing in
        digits, punctuation or filtered words (``"Melisse #1"`` versus
        ``"Melisse #2"``) share one computation.
        """
        query_tokens = tokenize(query)
        effective = self._filter_tokens(query_tokens)
        signature = (tuple(effective), frozenset(query_tokens), k)
        cached = self._results_cache.get(signature)
        if cached is not None:
            self._cache_hits += 1
            return cached
        self._cache_misses += 1
        if self._norms is None:
            self._norms = bm25_norms(self._index, self.parameters)
        matched, scores = bm25_matched_scores(
            self._index, effective, self.parameters, norms=self._norms
        )
        results: list[SearchResult] = []
        if matched.size:
            # Deterministic order: score descending, then doc id ascending.
            order = matched[np.lexsort((matched, -scores))]
            token_set = signature[1]
            for doc_id in order:
                page = self._index.page(int(doc_id))
                if page.language != "en":
                    continue
                results.append(
                    SearchResult(
                        url=page.url,
                        title=page.title,
                        snippet=self._snippet_for(int(doc_id), token_set),
                    )
                )
                if len(results) == k:
                    break
        self._results_cache[signature] = results
        return results

    def _filter_tokens(self, tokens: list[str]) -> list[str]:
        """Stopword and document-frequency filtering of query tokens."""
        tokens = [t for t in tokens if t not in ENGLISH_STOPWORDS]
        n_docs = self._index.n_documents
        if n_docs == 0:
            return tokens
        cap = MAX_DF_RATIO * n_docs
        filtered = [
            t for t in tokens if self._index.document_frequency(t) <= cap
        ]
        # If the cap removed everything, keep the original tokens: a query
        # made only of common words should still return *something*.
        return filtered or tokens

    # -- positional snippet extraction ---------------------------------------------------

    def _snippet_for(
        self,
        doc_id: int,
        query_tokens: frozenset[str],
        max_words: int = DEFAULT_SNIPPET_WORDS,
    ) -> str:
        """Query-biased snippet of an indexed page: the densest
        *max_words*-word body window for *query_tokens*, ellipsised when
        truncated, or the leading window when no token occurs in the body.

        Hits come from the index's word positions, so the body is split
        only to render the chosen window.
        """
        index = self._index
        n_words = index.n_words(doc_id)
        hits = None
        if n_words > max_words:  # a shorter body is its own snippet
            for token in query_tokens:
                positions = index.word_positions(token, doc_id)
                if positions:
                    if hits is None:
                        hits = bytearray(n_words)
                    for position in positions:
                        hits[position] = 1
        # No query token in the body: the leading window wins.
        best_start = 0 if hits is None else best_window_start(hits, n_words, max_words)
        return render_window(index.page(doc_id).body.split(), best_start, max_words)
