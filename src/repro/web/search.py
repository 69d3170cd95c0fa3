"""The search-engine facade: the Microsoft Bing stand-in.

Implements the exact contract the annotation step consumes (Section 5.2):
submit a query, receive the top-k English results, each a document id
and its query-biased snippet -- the snippet is all the annotation step
reads (Section 5.2, Eq. 1).  A caller that wants a result's url or title
asks the index: ``engine.index.page(hit.doc_id)``.  Each query charges a
configurable latency to the shared :class:`~repro.clock.VirtualClock`;
the Section 6.4 efficiency experiment reads that clock.

One query entry point, :meth:`SearchEngine.search_many`, resolves a batch
of queries for table-at-a-time annotation; :meth:`SearchEngine.search` is
``search_many([query])[0]`` that raises on failure instead of answering
``None``.  Latency accounting is per unique issued query *string* (a
remote engine is hit once per distinct request), in first-occurrence
order, so for a batch of distinct queries the clock and the failure
injector see exactly what one :meth:`search` call per query would.
Compute is amortised: result lists are cached per query *token
signature* (tokenisation drops digits and stopwords, so many distinct
strings rank identically), and a batch resolves the signatures the cache
lacks in bulk.  BM25 sums per-token gain arrays over only the matched
postings, each token's computed once per cold pass, and only the top k
are ranked: the matched documents are masked to English ones with the
index's per-document English mask, every document scoring at least the
k-th best score is kept (so ties at the boundary survive), and only that
small set is sorted by score descending, then doc id ascending -- the
same k a full sort would give.  Query-biased snippets come from the
index's word-id streams: every result's window in the batch is chosen
and rendered in one array pass per chunk of results
(:func:`~repro.web.snippets.batch_snippets`); no page field is decoded.

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

The signature -> results cache is also *durable*: it is a
:class:`~repro.persistence.PersistedDict` whose entries are tuples of
(doc id, snippet) pairs, which :meth:`SearchEngine.save_results_cache`
writes to disk as a plain dict, fingerprinted by the corpus content
(size, urls, indexed titles/bodies) and the BM25 parameters, and
:meth:`SearchEngine.load_results_cache` warms a fresh engine -- in
another process -- over the same corpus.  The fingerprint folds the
index's content digest, so a cached doc id names the same page
wherever the entry is loaded.
Saves are merge-on-save under an advisory file lock, so concurrent workers
sharing one cache directory union their entries instead of clobbering each
other.  The BM25 length norms are not persisted: they are a pure function
of the index and the parameters, recomputed in microseconds.

>>> from repro.clock import VirtualClock
>>> from repro.web.documents import WebPage
>>> def build_engine():
...     engine = SearchEngine(clock=VirtualClock())
...     engine.add_page(WebPage(url="https://web/melisse", title="Hotel Melisse",
...                             body="hotel melisse rooms lodging suites"))
...     return engine
>>> engine = build_engine()
>>> hits = engine.search("Hotel Melisse", k=3)
>>> [engine.index.page(hit.doc_id).title for hit in hits]
['Hotel Melisse']
>>> batch = engine.search_many(["Hotel Melisse", "Hotel Melisse"], k=3)
>>> [engine.index.page(hit.doc_id).url for hit in batch[1]]
['https://web/melisse']
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

from typing import NamedTuple, Sequence

import numpy as np

from repro.clock import VirtualClock
from repro.observability.tracing import span
from repro.persistence import PersistedDict
from repro.resilience import FaultPlan, deterministic_unit
from repro.text.stopwords import ENGLISH_STOPWORDS
from repro.text.tokenization import tokenize
from repro.web.documents import WebPage
from repro.web.index import FrozenIndex, FrozenIndexError, IndexBuilder
from repro.web.ranking import (
    BM25Parameters,
    bm25_norms,
    bm25_sum,
    bm25_token_gains,
)
from repro.web.snippets import batch_snippets

DEFAULT_SEARCH_LATENCY = 0.3
"""Virtual seconds charged per search request."""

MAX_DF_RATIO = 0.35
"""Query tokens occurring in more than this fraction of documents are
ignored during ranking, as real engines effectively do with ubiquitous
words; stopwords are dropped outright."""


class SearchEngineUnavailable(RuntimeError):
    """Raised when the engine is down or a request is dropped."""


class SearchResult(NamedTuple):
    """One search hit: its page's doc id and the query-biased snippet."""

    doc_id: int
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
        index: FrozenIndex | None = None,
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
        # Pages go into the builder until first use freezes it (see
        # `index`); an injected index is frozen already.
        self._builder = IndexBuilder() if index is None else None
        self._index = index
        # -- query compute caches (invalidated when the BM25 parameters change) --
        # token signature -> ranked (doc id, snippet) pairs; owns its
        # cache file and that file's IO counters.
        self._results_cache = PersistedDict("search-results")
        self._norms: np.ndarray | None = None
        # token -> its BM25 (doc ids, gains) over the English documents,
        # or None when unindexed.
        self._gains: dict[str, tuple[np.ndarray, np.ndarray] | None] = {}
        self._cache_parameters = self.parameters
        self.query_count = 0
        # -- ranking cache accounting (observability only; never semantics) --
        self._cache_hits = 0
        self._cache_misses = 0

    # -- corpus ------------------------------------------------------------------------

    def add_page(self, page: WebPage) -> None:
        """Add one page to the searchable corpus.

        Build, freeze, then query: pages can be added only until the
        first query or read of :attr:`index` freezes the corpus; after
        that this raises :class:`~repro.web.index.FrozenIndexError` and
        changes nothing.
        """
        self._open_builder().add(page)

    def add_pages(self, pages) -> None:
        """Add many pages, in order (see :meth:`add_page`)."""
        self._open_builder().add_many(pages)

    def _open_builder(self) -> IndexBuilder:
        if self._builder is None:
            raise FrozenIndexError(
                "the corpus is frozen once queried: add every page first"
            )
        return self._builder

    @property
    def index(self) -> FrozenIndex:
        """The frozen index serving this engine's queries.  The first
        read freezes the pages added so far and releases the builder."""
        if self._builder is not None:
            self._index, self._builder = self._builder.freeze(), None
        return self._index

    def __getstate__(self) -> dict:
        self.index  # a builder's hashers do not pickle; its frozen index does
        # The per-token gains are rebuilt on demand; they would pickle a
        # mapped index's postings.
        return {**self.__dict__, "_gains": {}}

    def use_index_backend(self, backend: FrozenIndex) -> None:
        """Swap the engine onto *backend* (e.g. a frozen mmap artifact).

        The replacement must index the *same corpus* -- same content
        digest -- so every ranking/window compute cache, and every
        persisted cache keyed by :meth:`cache_fingerprint`, stays valid
        verbatim: cached values are pure functions of (corpus,
        parameters), never of the storage representation.
        """
        if backend.content_digest() != self.index.content_digest():
            raise ValueError(
                "cannot swap index backends across different corpora: "
                "content digests differ"
            )
        self._index = backend
        self._gains.clear()  # views of the old sections

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
        return list(map(SearchResult._make, outcome))

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
        return [
            None
            if isinstance(resolved[query], str)
            else list(map(SearchResult._make, resolved[query]))
            for query in queries
        ]

    def _resolve(
        self, queries: Sequence[str], k: int
    ) -> dict[str, tuple[tuple[int, str], ...] | str]:
        """Issue each unique query once: its cached (doc id, snippet)
        pairs, or the failure reason :meth:`_issue_request` gave when it
        was dropped.

        Result lists are cached per token signature (:meth:`_signature`).
        The signatures the cache lacks are ranked one by one and their
        results then rendered together (:meth:`_store_results`); a query
        whose signature an earlier query of the batch already ranked is
        a cache hit, as it would be one query at a time.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        # The first query freezes the corpus, answered or not; the ranking
        # helpers below read the frozen index as `self._index`.
        self.index
        self._validate_caches()
        resolved: dict[str, tuple[tuple[int, str], ...] | str] = {}
        signatures: dict[str, tuple] = {}
        ranked: dict[tuple, list[int]] = {}
        for query in dict.fromkeys(queries):
            reason = self._issue_request(query)
            if reason is not None:
                resolved[query] = reason
                continue
            signature = signatures[query] = self._signature(query, k)
            if signature in self._results_cache or signature in ranked:
                self._cache_hits += 1
            else:
                self._cache_misses += 1
                ranked[signature] = self._top_k(signature[0], k)
        if ranked:
            self._store_results(ranked)
        for query, signature in signatures.items():
            resolved[query] = self._results_cache[signature]
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
        """Drop ranking caches when the BM25 parameters changed."""
        if self.parameters != self._cache_parameters:
            self.reset_compute_caches()
            self._cache_parameters = self.parameters

    def reset_compute_caches(self) -> None:
        """Forget every query compute cache: ranked results, length
        norms and per-token gains.

        This is what "cold" means: empty query caches over a built
        index.  Snippet windows are not a cache -- they come from the
        index's word-id streams, which are corpus data and stay.
        Accounting state (clock, query counts, rng) is untouched.
        Benchmarks call this to measure cold passes.
        """
        self._results_cache.clear()
        self._norms = None
        self._gains.clear()

    # -- cache persistence ----------------------------------------------------------------

    def cache_fingerprint(self) -> tuple:
        """Identity token versioning the on-disk ranking caches.

        Covers the BM25 parametrisation the in-memory cache-drop hook
        (:meth:`_validate_caches`) watches and, because a file may meet
        an engine over another corpus, corpus identity: its size, page
        urls and languages, and the index's content digest over every
        indexed title and body (which fully determine the postings).
        Hashing only url/title/length let two corpora whose *bodies*
        differ but collide on those fields validate each other's
        persisted results -- and serve wrong rankings; folding the
        indexed token content in closes that hole.

        The digest is the frozen index's
        (:meth:`~repro.web.index.FrozenIndex.fingerprint_digest`), kept in
        its header wherever its arrays live -- so caches written under
        one storage backend warm an engine running the other.
        """
        index = self.index
        return (
            "bm25",
            index.n_documents,
            index.fingerprint_digest(),
            self.parameters.as_tuple(),
        )

    def save_results_cache(self, path) -> bool:
        """Persist the signature -> results cache to *path*.

        The file is fingerprinted by :meth:`cache_fingerprint`; entries
        computed under other BM25 parameters are dropped first.  The
        write is merge-on-save under an advisory lock, and skipped when
        the file already holds every entry (see
        :meth:`repro.persistence.PersistedDict.save`): entries already
        persisted by another process against the same fingerprint
        survive.  Returns ``False`` when the lock could not be acquired
        and the save was skipped.
        """
        self._validate_caches()
        return self._results_cache.save(path, self.cache_fingerprint())

    def load_results_cache(self, path) -> bool:
        """Warm the results cache from a file written by :meth:`save_results_cache`.

        Returns ``True`` when the file matched this engine's current
        fingerprint (same corpus and BM25 parameters) and was merged in
        -- or is unchanged since this engine last read or wrote it and
        already merged in, when nothing is read at all; anything else --
        missing file, other format version, other corpus -- leaves the
        engine cold and returns ``False``.  Accounting state (clock,
        query counts, rng) is never restored: a warm start changes
        compute, not protocol semantics.
        """
        self._validate_caches()
        return self._results_cache.load(path, self.cache_fingerprint())

    # -- ranking and snippets ------------------------------------------------------------

    def _signature(self, query: str, k: int) -> tuple:
        """The results-cache key of *query*: its effective ranking tokens,
        its sorted distinct tokens, and *k*.

        Ranking depends only on the effective token sequence and snippet
        extraction only on the query token set, so queries differing in
        digits, punctuation or filtered words (``"Melisse #1"`` versus
        ``"Melisse #2"``) share one computation.  The token set is kept
        sorted, so a pickled signature does not follow string-hash order
        and the cache file's bytes do not depend on ``PYTHONHASHSEED``.
        """
        query_tokens = tokenize(query)
        effective = self._filter_tokens(query_tokens)
        return (tuple(effective), tuple(sorted(set(query_tokens))), k)

    def _top_k(self, effective: Sequence[str], k: int) -> list[int]:
        """The top-*k* English doc ids for the *effective* tokens, best first.

        Each token's gains are computed once per cold pass, masked to
        the English documents; of the documents they match, every one
        scoring at least the k-th best is kept (so ties at the boundary
        survive), and those are ordered by score descending, then doc id
        ascending.
        """
        index = self._index
        token_gains = []
        for token in effective:
            if token not in self._gains:
                if self._norms is None:
                    self._norms = bm25_norms(index, self.parameters)
                gains = bm25_token_gains(index, token, self.parameters, self._norms)
                if gains is not None:
                    # A document's score sums its own gains only, so
                    # masking before the sum keeps the English scores.
                    english = index.english_mask[gains[0]]
                    gains = (gains[0][english], gains[1][english])
                self._gains[token] = gains
            if self._gains[token] is not None:
                token_gains.append(self._gains[token])
        matched, scores = bm25_sum(index.n_documents, token_gains)
        if matched.size > k:
            threshold = np.partition(scores, matched.size - k)[matched.size - k]
            top = scores >= threshold
            matched, scores = matched[top], scores[top]
        return matched[np.lexsort((matched, -scores))[:k]].tolist()

    def _filter_tokens(self, tokens: list[str]) -> list[str]:
        """Stopword and document-frequency filtering of query tokens."""
        tokens = [t for t in tokens if t not in ENGLISH_STOPWORDS]
        index = self._index
        if index.n_documents == 0:
            return tokens
        cap = MAX_DF_RATIO * index.n_documents
        filtered = [t for t in tokens if index.document_frequency(t) <= cap]
        # If the cap removed everything, keep the original tokens: a query
        # made only of common words should still return *something*.
        return filtered or tokens

    def _store_results(self, ranked: dict[tuple, list[int]]) -> None:
        """Cache each signature's *ranked* doc ids paired with their
        snippets, found for the whole batch at once
        (:func:`~repro.web.snippets.batch_snippets`)."""
        snippets = iter(
            batch_snippets(
                self._index,
                [(signature[1], doc_ids) for signature, doc_ids in ranked.items()],
            )
        )
        for signature, doc_ids in ranked.items():
            self._results_cache[signature] = tuple(zip(doc_ids, snippets))
