"""Cell annotation via search + snippet classification (Section 5.2, Eq. 1).

For a cell value ``v`` (optionally augmented with disambiguated spatial
context), the annotator retrieves the top-k snippets, classifies each one,
and annotates the cell with the winning type ``t_max`` provided strictly
more than ``k/2`` snippets were classified as ``t_max``.  The annotation
score is ``S_ij = s_t / k`` (Equation 1).

:meth:`CellAnnotator.annotate_values` annotates any number of cells at
once (a table's worth, or a whole corpus's when called from
``EntityAnnotator.annotate_tables``): unique queries are resolved through
:meth:`~repro.web.search.SearchEngine.search_many`, every retrieved
snippet is pooled into a single ``classify_many`` call (deduplicated,
since classification is a pure function of the snippet text), the
Equation 1 vote is computed once per distinct query, and the decisions
are demultiplexed back onto the cells.  :meth:`CellAnnotator.annotate_value`
is that pass over one cell.  The seed's cell-by-cell loop -- one engine
round trip and one classifier call per cell -- lives with the tests, in
``tests/annotation_reference.py``, as the reference the batched pass is
compared against.

The batched path amortises across calls through two long-lived memos: a
snippet-text -> label memo (classification is a pure function of the
text), a :class:`~repro.persistence.PersistedDict` that
:meth:`CellAnnotator.save_label_memo` /
:meth:`~CellAnnotator.load_label_memo` persist to disk so a second
process starts warm, and the optional shared :class:`SnippetCache`.

The :class:`SnippetCache` counts a miss for every lookup that finds
nothing, whether or not a ``put`` follows, so engine failures stay visible
in the hit rate:

>>> cache = SnippetCache()
>>> cache.get("Hotel Melisse", 10) is None
True
>>> cache.put("Hotel Melisse", 10, ["melisse lodging rooms"])
>>> cache.get("Hotel Melisse", 10)
['melisse lodging rooms']
>>> (cache.hits, cache.misses, cache.hit_rate)
(1, 1, 0.5)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.classify.snippet import SnippetTypeClassifier
from repro.core.config import AnnotatorConfig
from repro.observability.tracing import span
from repro.persistence import PersistedDict
from repro.resilience import CircuitBreaker, RetryPolicy
from repro.web.search import SearchEngine

_FAILED = object()
"""Sentinel marking a unique query whose (single) engine request failed."""


@dataclass(frozen=True)
class CellDecision:
    """Outcome of annotating one cell value."""

    type_key: str | None
    score: float
    snippet_counts: dict[str, int] = field(default_factory=dict)
    query: str = ""
    failed: bool = False

    @property
    def annotated(self) -> bool:
        return self.type_key is not None


class SnippetCache:
    """Shared (query, k) -> snippets cache.

    Different classifier backends evaluated over the same corpus reuse the
    same searches; caching the snippet lists avoids recomputing BM25 while
    leaving each engine call's latency accounting to the first requester.

    Accounting lives entirely in :meth:`get`: a lookup that finds nothing
    is a miss whether or not a ``put`` ever follows (an engine failure
    after a miss used to be invisible).  :meth:`put` is pure storage.
    """

    def __init__(self) -> None:
        self._store: dict[tuple[str, int], list[str]] = {}
        self.hits = 0
        self.misses = 0

    def get(self, query: str, k: int) -> list[str] | None:
        snippets = self._store.get((query, k))
        if snippets is None:
            self.misses += 1
        else:
            self.hits += 1
        return snippets

    def put(self, query: str, k: int, snippets: list[str]) -> None:
        self._store[(query, k)] = snippets

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class CellAnnotator:
    """Annotates individual cell values against a set of target types."""

    def __init__(
        self,
        classifier: SnippetTypeClassifier,
        engine: SearchEngine,
        config: AnnotatorConfig | None = None,
        cache: SnippetCache | None = None,
    ) -> None:
        self.classifier = classifier
        self.engine = engine
        self.config = config or AnnotatorConfig()
        self.cache = cache
        self.failure_count = 0
        self.retry_count = 0
        self.retry_policy = RetryPolicy(
            retries=self.config.retries,
            backoff_seconds=self.config.retry_backoff_ms / 1000.0,
            seed=self.config.seed,
        )
        self.breaker = CircuitBreaker(
            self.config.breaker_threshold,
            self.config.breaker_cooldown_seconds,
            self.engine.clock,
        )
        # snippet text -> label, filled by the batched path.  Classification
        # is a pure function of the text, so a long-lived annotator streaming
        # many tables about overlapping entities classifies each distinct
        # snippet once.  Bounded by the distinct snippets seen; cleared
        # automatically when self.classifier is swapped out.  Owns its
        # cache file and that file's IO counters.
        self._label_memo = PersistedDict("label-memo")
        self._label_memo_owner: SnippetTypeClassifier = classifier
        # -- label-memo accounting (observability only) --------------------
        self._memo_hits = 0
        self._memo_misses = 0

    # -- one cell ----------------------------------------------------------------------

    def annotate_value(
        self,
        value: str,
        type_keys: list[str],
        spatial_context: str | None = None,
    ) -> CellDecision:
        """Decide whether *value* names an entity of one of *type_keys*.

        *spatial_context* (a city name) is appended to the query, the
        Section 5.2.2 disambiguation.  A search-engine failure (after the
        configured retries, if any) yields an unannotated decision flagged
        ``failed=True`` -- the algorithm degrades gracefully rather than
        aborting the table.  This is :meth:`annotate_values` over the one
        pair.
        """
        return self.annotate_values([(value, spatial_context)], type_keys)[0]

    # -- batched path ------------------------------------------------------------------

    def annotate_values(
        self,
        values_with_context: Sequence[tuple[str, str | None]],
        type_keys: list[str],
    ) -> list[CellDecision]:
        """Annotate a batch of (value, spatial_context) pairs at once.

        The batch may be one table's cells (``annotate_table``) or a whole
        corpus's (``annotate_tables``).  Decisions match the seed's
        cell-by-cell loop (one search and one classification per pair),
        but the work is batched at every layer:

        * unique queries are resolved through the engine's
          :meth:`~repro.web.search.SearchEngine.search_many` (one request,
          one virtual-clock charge per unique query; the shared
          :class:`SnippetCache` is consulted first and populated after);
        * every retrieved snippet is pooled and deduplicated into a single
          ``classify_many`` call -- one vectorizer pass and one
          decision-matrix product for the whole batch;
        * labels are folded into one Equation 1 vote per *distinct* query
          and the (frozen, shareable) decisions are demultiplexed back onto
          the cells, including per-cell failure handling.

        A failed unique query fails every cell sharing it (each counts
        toward :attr:`failure_count`) and is not cached, so a later batch
        retries it.

        Accounting note: duplicate query strings within one batch are
        issued (and charged) once *by design* -- the protocol-level
        deduplication is the point of the batched path.  A cell-by-cell
        loop only collapses duplicates through a shared
        :class:`SnippetCache`, so for a table with repeated values and
        *no* cache it charges once per occurrence where this path charges
        once per unique query; with distinct values, or any values plus a
        shared cache, the two account identically.
        """
        if not type_keys:
            raise ValueError("type_keys must be non-empty")
        queries = [
            value if context is None else f"{value} {context}"
            for value, context in values_with_context
        ]
        with span("annotate.resolve_queries", n_cells=len(queries)) as resolve_span:
            snippets_by_query = self._resolve_queries(queries)
            resolve_span.tag(n_unique=len(snippets_by_query))
        with span("annotate.classify"):
            self._classify_pooled(snippets_by_query)
        with span("annotate.vote"):
            return self._demux(queries, snippets_by_query, type_keys)

    def _resolve_queries(self, queries: Sequence[str]) -> dict[str, object]:
        """Resolve unique queries: cache first, then batched search rounds.

        Returns query -> snippet list, with :data:`_FAILED` marking queries
        whose engine request(s) failed.  With retries enabled, queries that
        fail in one :meth:`search_many` round are re-issued together in the
        next round after their (deterministic, per-query) backoff is
        charged to the virtual clock.  Because both the backoff and the
        failure draw are pure functions of the query and its attempt /
        occurrence index, a query fails here exactly when retrying it
        alone, attempt after attempt, would fail it -- the rounds only
        change *when* requests are issued, not their outcomes.  The breaker
        is consulted at round boundaries (the batched path's granularity):
        once it opens, the remaining pending queries fail fast uncharged.
        """
        k = self.config.top_k
        snippets_by_query: dict[str, object] = {}
        to_issue: list[str] = []
        for query in queries:
            if query in snippets_by_query:
                # Within-batch duplicate: served by the shared resolution;
                # its cache accounting happens at demux time, once the
                # shared request's outcome is known.
                continue
            cached = self.cache.get(query, k) if self.cache is not None else None
            if cached is not None:
                snippets_by_query[query] = cached
            else:
                snippets_by_query[query] = _FAILED  # placeholder until issued
                to_issue.append(query)
        pending = to_issue
        attempt = 0
        while pending:
            if not self.breaker.allow():
                break  # remaining queries stay _FAILED, uncharged
            failed_round: list[str] = []
            for query, results in zip(
                pending, self.engine.search_many(pending, k=k)
            ):
                if results is None:
                    self.breaker.record_failure()
                    failed_round.append(query)
                    continue
                self.breaker.record_success()
                snippets = [result.snippet for result in results]
                snippets_by_query[query] = snippets
                if self.cache is not None:
                    self.cache.put(query, k, snippets)
            attempt += 1
            if not failed_round or attempt > self.retry_policy.retries:
                break
            for query in failed_round:
                self.retry_count += 1
                self.engine.clock.wait(self.retry_policy.backoff_for(query, attempt))
            pending = failed_round
        return snippets_by_query

    def _classify_pooled(self, snippets_by_query: dict[str, object]) -> None:
        """Classify every resolved snippet into the lifetime label memo.

        Snippets from all queries are pooled, deduplicated against both the
        batch and the annotator-lifetime snippet -> label memo:
        classification is a pure function of the text, so each distinct
        snippet is vectorised and classified exactly once.
        """
        label_memo = self._active_label_memo()
        pool_index: dict[str, int] = {}
        pooled: list[str] = []
        for snippets in snippets_by_query.values():
            if snippets is _FAILED:
                continue
            for snippet in snippets:  # type: ignore[union-attr]
                if snippet in label_memo:
                    self._memo_hits += 1
                    continue
                if snippet in pool_index:
                    continue
                self._memo_misses += 1
                pool_index[snippet] = len(pooled)
                pooled.append(snippet)
        if pooled:
            with span("annotate.classify_gemm", n_snippets=len(pooled)):
                labels = self.classifier.classify_many(pooled)
            for snippet, position in pool_index.items():
                label_memo[snippet] = labels[position]

    def _demux(
        self,
        queries: Sequence[str],
        snippets_by_query: dict[str, object],
        type_keys: list[str],
    ) -> list[CellDecision]:
        """Demultiplex resolved queries back into per-cell decisions.

        The Equation 1 vote is a pure function of a query's snippet labels,
        so it is computed once per distinct query and the (frozen) decision
        is shared by every cell carrying that query -- across tables, when
        the batch spans a corpus.  Duplicate occurrences are accounted
        against the cache the way a cell-by-cell loop would see them: a hit
        when the shared resolution succeeded, another miss when it failed
        (failures are never cached); every failed occurrence counts toward
        :attr:`failure_count`.
        """
        label_memo = self._label_memo
        decisions: list[CellDecision] = []
        decided: dict[str, CellDecision] = {}
        for query in queries:
            snippets = snippets_by_query[query]
            decision = decided.get(query)
            if decision is None:
                if snippets is _FAILED:
                    decision = CellDecision(
                        type_key=None, score=0.0, query=query, failed=True
                    )
                elif not snippets:
                    decision = CellDecision(type_key=None, score=0.0, query=query)
                else:
                    cell_labels = [
                        label_memo[snippet]
                        for snippet in snippets  # type: ignore[union-attr]
                    ]
                    decision = self._decide(cell_labels, type_keys, query)
                decided[query] = decision
            elif self.cache is not None:
                if snippets is _FAILED:
                    self.cache.misses += 1
                else:
                    self.cache.hits += 1
            if snippets is _FAILED:
                self.failure_count += 1
            decisions.append(decision)
        return decisions

    # -- end-of-corpus repair ----------------------------------------------------------

    def repair_decisions(
        self,
        values_with_context: Sequence[tuple[str, str | None]],
        decisions: Sequence[CellDecision],
        type_keys: list[str],
    ) -> tuple[list[CellDecision], int]:
        """Re-issue every failed decision's query once, at end of corpus.

        If the breaker is open, the repair pass first waits out the
        remaining cooldown on the virtual clock so its probe is admitted.
        Each failed cell gets a fresh retry cycle (fresh occurrence
        indices, so fresh failure draws).  Returns the repaired decision
        list and how many cells recovered.  :attr:`failure_count` is
        adjusted so it counts cells whose resolution was *finally*
        abandoned, not intermediate attempts.
        """
        failed_indices = [
            index for index, decision in enumerate(decisions) if decision.failed
        ]
        repaired_decisions = list(decisions)
        if not failed_indices:
            return repaired_decisions, 0
        if self.breaker.is_open:
            self.engine.clock.wait(self.breaker.seconds_until_probe())
        retried = self.annotate_values(
            [values_with_context[index] for index in failed_indices], type_keys
        )
        # The first pass already counted these occurrences; only cells
        # still failed after the repair belong in the final tally.
        self.failure_count -= len(failed_indices)
        repaired = 0
        for index, decision in zip(failed_indices, retried):
            if not decision.failed:
                repaired += 1
            repaired_decisions[index] = decision
        return repaired_decisions, repaired

    # -- label-memo lifecycle and persistence ---------------------------------------------

    def _active_label_memo(self) -> PersistedDict:
        """The lifetime snippet -> label memo, cleared on classifier swap."""
        if self._label_memo_owner is not self.classifier:
            self._label_memo.clear()
            self._label_memo_owner = self.classifier
        return self._label_memo

    def save_label_memo(self, path) -> bool:
        """Persist the lifetime snippet -> label memo to *path*.

        The file is fingerprinted with the fitted classifier's identity
        (backend, labels, weights): a process holding a differently
        trained classifier will refuse to load it rather than serve wrong
        labels.  The write is merge-on-save under an advisory lock, and
        skipped when the file already holds every label (see
        :meth:`repro.persistence.PersistedDict.save`); returns ``False``
        when the lock timed out and the save was skipped.
        """
        memo = self._active_label_memo()  # a classifier swap clears first
        return memo.save(path, self.classifier.fingerprint())

    def load_label_memo(self, path) -> bool:
        """Warm the snippet -> label memo from *path*.

        Returns ``True`` when the file existed, carried the current format
        version and matched this classifier's fingerprint (nothing is
        read when the file is unchanged since this annotator last read or
        wrote it and the memo already holds it); stale or foreign files
        are ignored and ``False`` is returned.
        """
        memo = self._active_label_memo()  # a classifier swap clears first
        return memo.load(path, self.classifier.fingerprint())

    # -- Equation 1 --------------------------------------------------------------------

    def _decide(
        self, labels: Sequence[str], type_keys: list[str], query: str
    ) -> CellDecision:
        """Majority vote over snippet labels (Equation 1)."""
        counts: dict[str, int] = {}
        for label in labels:
            counts[label] = counts.get(label, 0) + 1
        # t_max over the *requested* types only; OTHER and off-request
        # labels never annotate, they only eat votes.
        best_type: str | None = None
        best_count = 0
        for type_key in type_keys:
            count = counts.get(type_key, 0)
            if count > best_count:
                best_count = count
                best_type = type_key
        if best_type is None or best_count <= self.config.majority_count:
            return CellDecision(
                type_key=None, score=0.0, snippet_counts=counts, query=query
            )
        return CellDecision(
            type_key=best_type,
            score=best_count / self.config.top_k,
            snippet_counts=counts,
            query=query,
        )
