"""The resilience layer: retry/backoff, circuit breaker, fault plans.

Covers the building blocks of :mod:`repro.resilience` in isolation --
deterministic draws, backoff schedules, breaker state machine, scripted
fault plans, the clock's charge-free ``wait`` -- and then their
integration at the search boundary: a flaky engine loses cells without
retries, recovers them with retries, and a zero-fault run through the
fully-armed resilience stack stays byte-identical to the seed pipeline.
"""

from __future__ import annotations

import random

import pytest

from repro.classify.dataset import TextDataset
from repro.classify.snippet import SnippetTypeClassifier
from repro.clock import VirtualClock
from repro.core.annotator import EntityAnnotator
from repro.core.config import AnnotatorConfig
from repro.resilience import (
    CircuitBreaker,
    FaultPlan,
    RetryPolicy,
    deterministic_unit,
)
from repro.tables.model import Column, ColumnType, Table
from repro.web.documents import WebPage
from repro.web.search import SearchEngine, SearchEngineUnavailable

_WORDS = "exhibit gallery paintings curator collection museum".split()
_NAMES = [f"Venue {i}" for i in range(24)]
_TYPE_KEYS = ["museum", "restaurant"]


def _make_engine(**kwargs) -> SearchEngine:
    engine = SearchEngine(clock=VirtualClock(), **kwargs)
    rng = random.Random(0)
    engine.add_pages(
        [
            WebPage(
                url=f"https://x/{name.replace(' ', '-').lower()}-{i}",
                title=name,
                body=f"{name.lower()} " + " ".join(rng.choices(_WORDS, k=30)),
            )
            for name in _NAMES
            for i in range(4)
        ]
    )
    return engine


@pytest.fixture(scope="module")
def classifier() -> SnippetTypeClassifier:
    rng = random.Random(1)
    dataset = TextDataset()
    for _ in range(60):
        dataset.add(" ".join(rng.choices(_WORDS, k=12)), "museum")
        dataset.add("menu chef cuisine dining wine", "restaurant")
    return SnippetTypeClassifier(backend="svm", min_count=1).fit(dataset)


def _corpus(n_tables=8, rows_per_table=3) -> list[Table]:
    tables = []
    for index in range(n_tables):
        table = Table(name=f"t{index}", columns=[Column("Name", ColumnType.TEXT)])
        for row in range(rows_per_table):
            table.append_row([_NAMES[(index * rows_per_table + row) % len(_NAMES)]])
        tables.append(table)
    return tables


# ------------------------------------------------------------------ primitives


class TestDeterministicUnit:
    def test_stable_and_in_unit_interval(self):
        draws = [deterministic_unit(13, "query", n) for n in range(100)]
        assert draws == [deterministic_unit(13, "query", n) for n in range(100)]
        assert all(0.0 <= draw < 1.0 for draw in draws)

    def test_distinguishes_every_part(self):
        base = deterministic_unit(13, "q", 0)
        assert deterministic_unit(14, "q", 0) != base
        assert deterministic_unit(13, "r", 0) != base
        assert deterministic_unit(13, "q", 1) != base

    def test_roughly_uniform(self):
        draws = [deterministic_unit(7, "u", n) for n in range(2000)]
        mean = sum(draws) / len(draws)
        assert 0.45 < mean < 0.55


class TestRetryPolicy:
    def test_backoff_grows_exponentially_within_jitter(self):
        policy = RetryPolicy(retries=3, backoff_seconds=0.2, multiplier=2.0)
        for attempt in (1, 2, 3):
            base = 0.2 * 2.0 ** (attempt - 1)
            backoff = policy.backoff_for("some query", attempt)
            assert base * 0.9 <= backoff <= base * 1.1

    def test_backoff_is_deterministic_per_query_and_attempt(self):
        policy = RetryPolicy(retries=2)
        assert policy.backoff_for("q", 1) == policy.backoff_for("q", 1)
        assert policy.backoff_for("q", 1) != policy.backoff_for("q", 2)

    def test_zero_jitter_is_exact(self):
        policy = RetryPolicy(retries=1, backoff_seconds=0.5, jitter_fraction=0.0)
        assert policy.backoff_for("q", 1) == 0.5
        assert policy.backoff_for("q", 2) == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"retries": -1},
            {"backoff_seconds": -0.1},
            {"multiplier": 0.5},
            {"jitter_fraction": 1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            RetryPolicy().backoff_for("q", 0)


class TestVirtualClockWait:
    def test_wait_advances_time_without_charging(self):
        clock = VirtualClock()
        clock.charge(0.5)
        clock.wait(2.0)
        assert clock.elapsed_seconds == 2.5
        assert clock.n_charges == 1


class TestCircuitBreaker:
    def _breaker(self, threshold=3, cooldown=10.0):
        clock = VirtualClock()
        return CircuitBreaker(threshold, cooldown, clock), clock

    def test_threshold_zero_never_opens(self):
        breaker, _ = self._breaker(threshold=0)
        for _ in range(50):
            breaker.record_failure()
            assert breaker.allow()
        assert not breaker.is_open
        assert breaker.opens == 0

    def test_opens_after_consecutive_failures(self):
        breaker, _ = self._breaker(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert not breaker.is_open
        breaker.record_failure()
        assert breaker.is_open
        assert breaker.opens == 1
        assert not breaker.allow()

    def test_success_resets_the_streak(self):
        breaker, _ = self._breaker(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert not breaker.is_open

    def test_half_open_probe_after_cooldown_then_close(self):
        breaker, clock = self._breaker(threshold=2, cooldown=10.0)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.is_open
        assert breaker.seconds_until_probe() == 10.0
        clock.wait(10.0)
        assert breaker.allow()  # the half-open probe
        assert breaker.probes == 1
        breaker.record_success()
        assert not breaker.is_open
        assert breaker.closes == 1

    def test_failed_probe_rearms_the_cooldown(self):
        breaker, clock = self._breaker(threshold=1, cooldown=5.0)
        breaker.record_failure()
        clock.wait(5.0)
        assert breaker.allow()
        breaker.record_failure()  # probe failed
        assert breaker.is_open
        assert breaker.seconds_until_probe() == 5.0

    def test_validation(self):
        clock = VirtualClock()
        with pytest.raises(ValueError, match="threshold"):
            CircuitBreaker(-1, 1.0, clock)
        with pytest.raises(ValueError, match="cooldown"):
            CircuitBreaker(1, -1.0, clock)


class TestFaultPlan:
    def test_fail_first_k_occurrences(self):
        plan = FaultPlan(fail_first={"q": 2})
        assert plan.should_fail("q", 0, 0)
        assert plan.should_fail("q", 1, 1)
        assert not plan.should_fail("q", 2, 2)
        assert not plan.should_fail("other", 0, 3)

    def test_fail_every_nth_is_one_based(self):
        plan = FaultPlan(fail_every_nth=3)
        outcomes = [plan.should_fail("q", 0, index) for index in range(6)]
        assert outcomes == [False, False, True, False, False, True]

    def test_outage_windows_are_half_open(self):
        plan = FaultPlan(outage_windows=((5, 8),))
        assert not plan.should_fail("q", 0, 4)
        assert plan.should_fail("q", 0, 5)
        assert plan.should_fail("q", 0, 7)
        assert not plan.should_fail("q", 0, 8)

    def test_latency_spikes(self):
        plan = FaultPlan(latency_spikes={4: 2.5})
        assert plan.extra_latency(4) == 2.5
        assert plan.extra_latency(5) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="fail_every_nth"):
            FaultPlan(fail_every_nth=-1)
        with pytest.raises(ValueError, match="outage window"):
            FaultPlan(outage_windows=((3, 1),))


# ----------------------------------------------------- the search boundary


class TestEngineFaultInjection:
    def test_failure_rate_is_deterministic_across_engines(self):
        outcomes = []
        for _ in range(2):
            engine = _make_engine(failure_rate=0.3)
            failed = []
            for name in _NAMES:
                try:
                    engine.search(name)
                    failed.append(False)
                except SearchEngineUnavailable:
                    failed.append(True)
            outcomes.append(failed)
        assert outcomes[0] == outcomes[1]
        assert any(outcomes[0]) and not all(outcomes[0])

    def test_retry_gets_a_fresh_draw(self):
        engine = _make_engine(failure_rate=0.3)
        # Find a query whose first draw fails but a later occurrence
        # succeeds: re-issuing is what the retry policy banks on.
        for name in _NAMES:
            try:
                engine.search(name)
            except SearchEngineUnavailable:
                for _ in range(8):
                    try:
                        engine.search(name)
                        return
                    except SearchEngineUnavailable:
                        continue
        pytest.fail("no query recovered on retry at rate 0.3")

    def test_reset_failure_injection_replays_first_draws(self):
        engine = _make_engine(failure_rate=0.3)

        def first_failures():
            failed = set()
            for name in _NAMES:
                try:
                    engine.search(name)
                except SearchEngineUnavailable:
                    failed.add(name)
            return failed

        first = first_failures()
        engine.reset_failure_injection()
        assert first_failures() == first

    def test_fault_plan_drops_are_charged(self):
        engine = _make_engine()
        engine.fault_plan = FaultPlan(fail_first={"Venue 0": 1})
        with pytest.raises(SearchEngineUnavailable):
            engine.search("Venue 0")
        assert engine.clock.n_charges == 1
        engine.search("Venue 0")  # second occurrence passes
        assert engine.clock.n_charges == 2

    def test_latency_spike_adds_wait_not_charges(self):
        engine = _make_engine()
        engine.fault_plan = FaultPlan(latency_spikes={0: 3.0})
        baseline = _make_engine()
        engine.search("Venue 0")
        baseline.search("Venue 0")
        assert engine.clock.n_charges == baseline.clock.n_charges == 1
        assert (
            engine.clock.elapsed_seconds
            == baseline.clock.elapsed_seconds + 3.0
        )


# ------------------------------------------------------- pipeline integration


class TestRetryRecovery:
    def test_retries_recover_cells_the_seed_loses(self, classifier):
        tables = _corpus()
        baseline_engine = _make_engine(failure_rate=0.3)
        baseline = EntityAnnotator(
            classifier, baseline_engine, AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS)
        resilient_engine = _make_engine(failure_rate=0.3)
        resilient = EntityAnnotator(
            classifier,
            resilient_engine,
            AnnotatorConfig(retries=3, retry_backoff_ms=100.0),
        ).annotate_tables(tables, _TYPE_KEYS)
        # Same first-attempt draws, so retries can only help -- and at
        # rate 0.3 with 3 retries plus the repair pass they help a lot.
        assert baseline.diagnostics.degraded_cells > 0
        assert (
            resilient.diagnostics.degraded_cells
            < baseline.diagnostics.degraded_cells
        )
        assert resilient.diagnostics.search_retries > 0
        # Retries charge the clock per re-issued request and wait out the
        # backoff in virtual time.
        assert resilient_engine.query_count > baseline_engine.query_count
        assert (
            resilient_engine.clock.elapsed_seconds
            > baseline_engine.clock.elapsed_seconds
        )

    def test_retrying_run_keeps_the_coverage_bar(self, classifier):
        # Failure rate 0.2 on distinct-content tables: the no-retry run
        # loses cells, while two retries plus the repair pass, on the same
        # first-attempt draws, keep at least 95% of the candidate cells.
        tables = _corpus()
        baseline = EntityAnnotator(
            classifier, _make_engine(failure_rate=0.2), AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS)
        resilient = EntityAnnotator(
            classifier,
            _make_engine(failure_rate=0.2),
            AnnotatorConfig(retries=2),
        ).annotate_tables(tables, _TYPE_KEYS)
        n_cells = resilient.diagnostics.n_cells
        assert n_cells == baseline.diagnostics.n_cells == 24
        assert baseline.diagnostics.degraded_cells > 0
        assert 1 - resilient.diagnostics.degraded_cells / n_cells >= 0.95

    def test_degraded_cells_name_their_losses(self, classifier):
        tables = _corpus()
        run = EntityAnnotator(
            classifier, _make_engine(failure_rate=0.3), AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS)
        degraded = run.degraded_cells()
        assert degraded
        assert run.diagnostics.degraded_cells == len(degraded)
        for cell in degraded:
            assert cell.reason == "search-failure"
            assert cell.query
            assert cell.table_name in run.tables
            # A cell is degraded or annotated, never both.
            assert run.tables[cell.table_name].annotation_at(
                cell.row, cell.column
            ) is None

    def test_repair_pass_counts_recovered_cells(self, classifier):
        tables = _corpus()
        run = EntityAnnotator(
            classifier,
            _make_engine(failure_rate=0.3),
            AnnotatorConfig(retries=1, retry_backoff_ms=50.0),
        ).annotate_tables(tables, _TYPE_KEYS)
        # With only one retry at rate 0.3 some cells exhaust the inline
        # cycle; the end-of-corpus repair pass must pick up at least part
        # of them (fresh occurrence indices, fresh draws).
        assert run.diagnostics.repaired_cells >= 0
        assert (
            run.diagnostics.degraded_cells + run.diagnostics.repaired_cells
            <= sum(len(t.rows) for t in tables)
        )

    def test_zero_faults_byte_identical_under_full_armor(self, classifier):
        tables = _corpus()
        seed = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS)
        armored_engine = _make_engine()
        armored = EntityAnnotator(
            classifier,
            armored_engine,
            AnnotatorConfig(retries=3, breaker_threshold=5),
        ).annotate_tables(tables, _TYPE_KEYS)
        assert armored == seed
        assert repr(sorted(armored.tables.items())) == repr(
            sorted(seed.tables.items())
        )
        # No retries happened, nothing degraded, accounting untouched.
        assert armored.diagnostics.search_retries == 0
        assert armored.diagnostics.degraded_cells == 0
        assert (
            armored.diagnostics.virtual_seconds
            == seed.diagnostics.virtual_seconds
        )


class TestBreakerAtTheBoundary:
    def test_open_breaker_sheds_load_on_a_dead_engine(self, classifier):
        tables = _corpus()
        unguarded_engine = _make_engine()
        unguarded_engine.available = False
        EntityAnnotator(
            classifier,
            unguarded_engine,
            AnnotatorConfig(retries=2, retry_backoff_ms=100.0),
        ).annotate_tables(tables, _TYPE_KEYS)
        guarded_engine = _make_engine()
        guarded_engine.available = False
        guarded_run = EntityAnnotator(
            classifier,
            guarded_engine,
            AnnotatorConfig(
                retries=2,
                retry_backoff_ms=100.0,
                breaker_threshold=3,
                breaker_cooldown_seconds=3600.0,
            ),
        ).annotate_tables(tables, _TYPE_KEYS)
        # The breaker opened on the first round of failures; the retry
        # rounds (and the repair pass, still inside the cooldown) fail
        # fast instead of hammering the dead engine again.
        assert guarded_run.diagnostics.breaker_opens >= 1
        assert guarded_engine.query_count < unguarded_engine.query_count
        # Every cell still accounted for: all degraded, none lost.
        assert guarded_run.diagnostics.degraded_cells == sum(
            len(table.rows) for table in tables
        )

    def test_breaker_recovers_after_cooldown(self, classifier):
        # Outage window covering the first requests: the breaker opens,
        # the repair pass waits out the cooldown and recovers everything.
        # The corpus has 12 unique queries; the window covers exactly the
        # first pooled round, so the retry rounds are shed by the open
        # breaker and the repair pass (request indices >= 12, past the
        # outage) recovers every cell.
        tables = _corpus(n_tables=4)
        engine = _make_engine()
        engine.fault_plan = FaultPlan(outage_windows=((0, 12),))
        run = EntityAnnotator(
            classifier,
            engine,
            AnnotatorConfig(
                retries=2,
                retry_backoff_ms=100.0,
                breaker_threshold=3,
                breaker_cooldown_seconds=60.0,
            ),
        ).annotate_tables(tables, _TYPE_KEYS)
        healthy = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS)
        assert run.diagnostics.breaker_opens >= 1
        # After the repair pass behind the cooldown, the outage is over
        # (request indices past the window) and every cell resolves.
        assert run.diagnostics.degraded_cells == 0
        assert dict(run.tables) == dict(healthy.tables)
