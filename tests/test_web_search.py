"""Tests for snippet extraction and the search-engine facade."""

import pytest
from search_reference import extract_snippet

from repro.clock import VirtualClock
from repro.resilience import FaultPlan
from repro.web.documents import WebPage
from repro.web.index import FrozenIndexError
from repro.web.search import SearchEngine, SearchEngineUnavailable


class TestExtractSnippet:
    def test_short_body_returned_whole(self):
        assert extract_snippet("just five words in body", "query") == (
            "just five words in body"
        )

    def test_window_centres_on_query_terms(self):
        body = " ".join(["filler"] * 30 + ["melisse", "restaurant"] + ["pad"] * 30)
        snippet = extract_snippet(body, "melisse", max_words=10)
        assert "melisse" in snippet

    def test_ellipsis_markers(self):
        body = " ".join(["a"] * 30 + ["target"] + ["b"] * 30)
        snippet = extract_snippet(body, "target", max_words=5)
        assert snippet.startswith("... ")
        assert snippet.endswith(" ...")

    def test_leading_window_fallback_when_no_match(self):
        body = " ".join(f"w{i}" for i in range(50))
        snippet = extract_snippet(body, "absent", max_words=8)
        assert snippet.startswith("w0 w1")

    def test_max_words_respected(self):
        body = " ".join(["x"] * 100)
        snippet = extract_snippet(body, "x", max_words=20)
        words = [w for w in snippet.split() if w != "..."]
        assert len(words) == 20

    def test_invalid_max_words(self):
        with pytest.raises(ValueError):
            extract_snippet("body", "q", max_words=0)


def _engine(**kwargs):
    engine = SearchEngine(clock=VirtualClock(), **kwargs)
    engine.add_pages([
        WebPage(url="https://x/melisse-0", title="Melisse - Official",
                body="melisse menu chef cuisine santa monica dining"),
        WebPage(url="https://x/melisse-1", title="Melisse | Guide",
                body="melisse reviews dining wine menu"),
        WebPage(url="https://x/label", title="Melisse Records",
                body="melisse jazz label vinyl roster"),
        WebPage(url="https://x/fr", title="Melisse", body="melisse cuisine",
                language="fr"),
        WebPage(url="https://x/noise", title="Weather", body="forecast rainfall"),
    ])
    return engine


class TestSearch:
    def test_returns_ranked_results(self):
        engine = _engine()
        results = engine.search("melisse", k=10)
        assert len(results) == 3  # french page filtered, noise unmatched
        assert all(
            "melisse" in engine.index.page(r.doc_id).title.lower()
            for r in results
        )

    def test_k_limits_results(self):
        assert len(_engine().search("melisse", k=2)) == 2

    def test_english_only(self):
        engine = _engine()
        results = engine.search("melisse", k=10)
        assert [engine.index.page(r.doc_id).language for r in results] == [
            "en"
        ] * 3

    def test_city_context_boosts_entity_pages(self):
        engine = _engine()
        results = engine.search("melisse santa monica", k=1)
        assert engine.index.page(results[0].doc_id).url == "https://x/melisse-0"

    def test_no_match_empty(self):
        assert _engine().search("zebra", k=5) == []

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            _engine().search("melisse", k=0)

    def test_stopwords_ignored_in_ranking(self):
        engine = _engine()
        with_stop = engine.search("the melisse", k=3)
        without = engine.search("melisse", k=3)
        assert [r.doc_id for r in with_stop] == [r.doc_id for r in without]

    def test_query_count_increments(self):
        engine = _engine()
        engine.search("melisse")
        engine.search("weather")
        assert engine.query_count == 2


class TestLatency:
    def test_clock_charged_per_query(self):
        engine = _engine(latency_seconds=0.3)
        engine.search("melisse")
        engine.search("nothing at all")
        assert engine.clock.elapsed_seconds == pytest.approx(0.6)


class TestFailureInjection:
    def test_unavailable_engine_raises(self):
        engine = _engine()
        engine.available = False
        with pytest.raises(SearchEngineUnavailable):
            engine.search("melisse")

    def test_unavailable_still_charges_latency(self):
        engine = _engine(latency_seconds=0.5)
        engine.available = False
        with pytest.raises(SearchEngineUnavailable):
            engine.search("melisse")
        assert engine.clock.elapsed_seconds == pytest.approx(0.5)

    def test_failure_rate_drops_some_requests(self):
        engine = _engine(failure_rate=0.5, seed=3)
        outcomes = []
        for _ in range(40):
            try:
                engine.search("melisse")
                outcomes.append(True)
            except SearchEngineUnavailable:
                outcomes.append(False)
        assert any(outcomes) and not all(outcomes)

    def test_invalid_failure_rate(self):
        with pytest.raises(ValueError):
            SearchEngine(failure_rate=1.5)

    # search() resolves through the same per-query path as search_many();
    # each failure must still raise with the reason that dropped it.

    def test_down_engine_reason(self):
        engine = _engine()
        engine.available = False
        with pytest.raises(SearchEngineUnavailable, match=r"^search engine is down$"):
            engine.search("melisse")

    def test_fault_plan_reason(self):
        engine = _engine()
        engine.fault_plan = FaultPlan(fail_first={"melisse": 1})
        with pytest.raises(
            SearchEngineUnavailable, match=r"^request dropped by fault plan$"
        ):
            engine.search("melisse")
        assert len(engine.search("melisse", k=3)) == 3  # its retry succeeds

    def test_failure_rate_reason(self):
        engine = _engine(failure_rate=1.0)
        with pytest.raises(SearchEngineUnavailable, match=r"^request dropped$"):
            engine.search("melisse")


class TestDeterminism:
    def test_same_query_same_results(self):
        engine = _engine()
        first = engine.search("melisse", k=5)
        second = engine.search("melisse", k=5)
        assert first == second


class TestSearchMany:
    def test_matches_per_query_search(self):
        batch_engine = _engine()
        single_engine = _engine()
        queries = ["melisse", "melisse santa monica", "weather", "zebra"]
        batched = batch_engine.search_many(queries, k=3)
        singles = [single_engine.search(query, k=3) for query in queries]
        assert batched == singles

    def test_duplicates_issued_once(self):
        engine = _engine(latency_seconds=0.3)
        results = engine.search_many(["melisse", "melisse", "weather"], k=2)
        assert engine.query_count == 2
        assert engine.clock.elapsed_seconds == pytest.approx(0.6)
        assert results[0] == results[1]

    def test_token_signature_shares_compute_but_not_charges(self):
        # "melisse #1" and "melisse #2" tokenise identically (digits are
        # dropped), so they must return identical results, yet each unique
        # query string is still a separate (charged) engine request.
        engine = _engine(latency_seconds=0.3)
        first, second = engine.search_many(["melisse #1", "melisse #2"], k=3)
        assert first == second
        assert engine.query_count == 2
        assert engine.clock.elapsed_seconds == pytest.approx(0.6)

    def test_unavailable_engine_yields_none_and_charges(self):
        engine = _engine(latency_seconds=0.5)
        engine.available = False
        results = engine.search_many(["melisse", "weather"], k=2)
        assert results == [None, None]
        assert engine.clock.elapsed_seconds == pytest.approx(1.0)

    def test_failure_rate_drops_individual_queries(self):
        engine = _engine(failure_rate=0.5, seed=3)
        results = engine.search_many(["melisse"] * 1 + ["weather"] * 1, k=2)
        # Same rng stream as per-query search: some of many requests drop.
        many = engine.search_many([f"melisse q{i}" for i in range(40)], k=2)
        assert any(r is None for r in many)
        assert any(r is not None for r in many)
        assert len(results) == 2

    def test_pages_added_after_a_batch_are_refused(self):
        engine = _engine()
        before = engine.search_many(["melisse"], k=10)[0]
        with pytest.raises(FrozenIndexError):
            engine.add_page(
                WebPage(
                    url="https://x/melisse-new",
                    title="Melisse Melisse Melisse",
                    body="melisse melisse melisse melisse",
                )
            )
        assert engine.search_many(["melisse"], k=10)[0] == before

    def test_a_failed_query_freezes_the_corpus_too(self):
        engine = _engine()
        engine.available = False
        assert engine.search_many(["melisse"]) == [None]
        with pytest.raises(FrozenIndexError):
            engine.add_pages([WebPage(url="https://x/late", title="Late", body="late")])

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            _engine().search_many(["melisse"], k=0)

    def test_empty_batch(self):
        engine = _engine()
        assert engine.search_many([], k=3) == []
        assert engine.query_count == 0

    def test_caller_mutation_does_not_corrupt_cache(self):
        engine = _engine()
        first = engine.search_many(["melisse"], k=3)[0]
        first.clear()
        assert len(engine.search_many(["melisse"], k=3)[0]) == 3

    def test_parameter_change_invalidates_cached_rankings(self):
        from repro.web.ranking import BM25Parameters

        engine = _engine()
        engine.search_many(["melisse santa monica"], k=3)
        engine.parameters = BM25Parameters(k1=0.01, b=0.0)
        batched = engine.search_many(["melisse santa monica"], k=3)[0]
        fresh = engine.search("melisse santa monica", k=3)
        assert batched == fresh

    def test_reset_compute_caches_preserves_results_and_accounting(self):
        engine = _engine()
        before = engine.search_many(["melisse", "weather"], k=3)
        queries = engine.query_count
        engine.reset_compute_caches()
        assert engine.query_count == queries
        assert engine.search_many(["melisse", "weather"], k=3) == before
