"""Tests for the observability layer (repro.observability).

The contracts under test:

* **spans** -- nesting records parent links and trace ids; the disabled
  path returns one shared no-op object and records nothing; the buffer
  is bounded; JSONL export and the per-stage summary round-trip;
* **metrics** -- the registry merge is associative and commutative
  (property-based), histograms refuse mismatched buckets, and the
  Prometheus text exposition parses line by line;
* **structured logging** -- every event is one JSON object carrying the
  event name and the active trace id;
* **diagnostics completeness** -- every ``RunDiagnostics`` field
  reaches ``to_dict()``, ``combined`` sums every per-part counter
  (introspected, so a new counter cannot silently go missing), and the
  service's ``stats`` view reads every counter it reports from the
  service's registry, agreeing with the ``metrics`` exposition;
* **parity** -- annotations are byte-identical with tracing enabled at
  every tier (per-cell, batched, corpus, multi-worker pool, service),
  because spans only observe;
* **crash tolerance** -- a SIGKILLed pool worker yields a synthesised
  ``pool.task.aborted`` span on the parent, never a leaked open span.
"""

from __future__ import annotations

import json
import logging
import random
import re
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classify.dataset import TextDataset
from repro.classify.snippet import SnippetTypeClassifier
from repro.clock import VirtualClock
from repro.core.annotator import EntityAnnotator
from repro.core.config import AnnotatorConfig
from repro.core.results import SUMMED_FIELDS, RunDiagnostics
from repro.observability import metrics as obs_metrics
from repro.observability import tracing
from repro.observability.log import get_logger
from repro.observability.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
)
from repro.observability.tracing import TraceBuffer, span
from repro.resilience import FaultPlan
from repro.service import daemon as daemon_module
from repro.service import protocol
from repro.service.daemon import AnnotationService, ServiceConfig
from repro.tables.model import Column, ColumnType, Table
from repro.web.documents import WebPage
from repro.web.search import SearchEngine
from service_batching import run_as_one_batch

_WORDS = "exhibit gallery paintings curator collection museum".split()
_NAMES = [f"Venue {i}" for i in range(24)]
_TYPE_KEYS = ["museum", "restaurant"]


@pytest.fixture(autouse=True)
def _clean_observability_state():
    """Every test starts (and leaves) with tracing off and metrics empty."""
    tracing.reset_tracing()
    obs_metrics.reset_registry()
    yield
    tracing.reset_tracing()
    obs_metrics.reset_registry()


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


def _corpus(n_tables=6, rows_per_table=3) -> list[Table]:
    tables = []
    for index in range(n_tables):
        table = Table(
            name=f"t{index}", columns=[Column("Name", ColumnType.TEXT)]
        )
        for row in range(rows_per_table):
            table.append_row(
                [_NAMES[(index * rows_per_table + row) % len(_NAMES)]]
            )
        tables.append(table)
    return tables


# ----------------------------------------------------------------------- spans


class TestSpans:
    def test_disabled_span_is_one_shared_noop(self):
        first = span("annotate.vote")
        second = span("search.search_many", n_queries=5)
        assert first is second  # the singleton: no per-call allocation
        with first:
            first.tag(extra=1)
        assert len(tracing.get_buffer()) == 0

    def test_nesting_records_parent_links_and_trace_id(self):
        trace_id = tracing.enable_tracing()
        with span("outer"):
            with span("middle"):
                with span("inner", depth=3):
                    pass
        records = tracing.get_buffer().snapshot()
        assert [r["name"] for r in records] == ["inner", "middle", "outer"]
        inner, middle, outer = records
        assert outer["parent_id"] is None
        assert middle["parent_id"] == outer["span_id"]
        assert inner["parent_id"] == middle["span_id"]
        assert {r["trace_id"] for r in records} == {trace_id}
        assert inner["tags"] == {"depth": 3}
        assert all(r["status"] == "ok" for r in records)
        assert all(r["wall_seconds"] >= 0.0 for r in records)

    def test_exception_marks_span_error_and_pops_stack(self):
        tracing.enable_tracing()
        with pytest.raises(ValueError):
            with span("will.fail"):
                raise ValueError("boom")
        (record,) = tracing.get_buffer().snapshot()
        assert record["status"] == "error"
        # The stack unwound: a following span is a root again.
        with span("next"):
            pass
        assert tracing.get_buffer().snapshot()[-1]["parent_id"] is None

    def test_thread_local_trace_id_overrides_default(self):
        default = tracing.enable_tracing()
        assert tracing.current_trace_id() == default
        tracing.set_trace_id("req-override")
        with span("handler"):
            pass
        tracing.set_trace_id(None)
        with span("loop"):
            pass
        handler, loop = tracing.get_buffer().snapshot()
        assert handler["trace_id"] == "req-override"
        assert loop["trace_id"] == default

    def test_buffer_is_bounded_and_counts_drops(self):
        buffer = TraceBuffer(max_spans=4)
        for i in range(7):
            buffer.append({"name": f"s{i}", "wall_seconds": 0.0})
        assert len(buffer) == 4
        assert buffer.dropped == 3
        assert [r["name"] for r in buffer.snapshot()] == ["s3", "s4", "s5", "s6"]

    def test_record_span_synthesises_finished_record(self):
        tracing.enable_tracing(trace_id="abc")
        tracing.record_span(
            "pool.task.aborted", 1.25, status="aborted", task_index=7
        )
        (record,) = tracing.get_buffer().snapshot()
        assert record["name"] == "pool.task.aborted"
        assert record["status"] == "aborted"
        assert record["wall_seconds"] == 1.25
        assert record["trace_id"] == "abc"
        assert record["tags"] == {"task_index": 7}

    def test_export_jsonl_and_summarize(self, tmp_path):
        tracing.enable_tracing()
        for _ in range(3):
            with span("stage.a"):
                pass
        tracing.record_span("stage.b", 2.0, status="aborted")
        path = tmp_path / "spans.jsonl"
        assert tracing.get_buffer().export_jsonl(str(path)) == 4
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        spans = [json.loads(line) for line in lines]
        rows = {row["name"]: row for row in tracing.summarize(spans)}
        assert rows["stage.a"]["count"] == 3
        assert rows["stage.b"]["aborted"] == 1
        assert rows["stage.b"]["wall_seconds"] == 2.0

    def test_virtual_seconds_recorded_when_clock_registered(self):
        clock = VirtualClock()
        tracing.enable_tracing()
        tracing.set_clock(clock)
        with span("search.search_many"):
            clock.charge(0.3)
            clock.charge(0.2)
        (record,) = tracing.get_buffer().snapshot()
        assert record["virtual_seconds"] == pytest.approx(0.5)


# --------------------------------------------------------------------- metrics


_METRIC_NAMES = ["a.hits", "b.miss", "c.depth"]

_ops = st.lists(
    st.tuples(
        st.sampled_from(["counter", "gauge", "histogram"]),
        st.sampled_from(_METRIC_NAMES),
        st.integers(min_value=0, max_value=12),
    ),
    max_size=12,
)


def _registry_from(ops) -> MetricsRegistry:
    registry = MetricsRegistry()
    for kind, name, value in ops:
        if kind == "counter":
            registry.inc(name, value)
        elif kind == "gauge":
            registry.set_gauge(name, value)
        else:
            registry.observe(name, float(value))
    return registry


class TestMetrics:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        registry.inc("pool.tasks")
        registry.inc("pool.tasks", 2)
        registry.set_gauge("queue.depth", 3)
        registry.set_gauge("queue.depth", 1)
        registry.observe("latency", 0.004)
        assert registry.counter_value("pool.tasks") == 3
        assert registry.gauge_value("queue.depth") == 1
        histogram = registry.histogram_value("latency")
        assert histogram.count == 1 and histogram.sum == 0.004
        with pytest.raises(ValueError):
            registry.inc("pool.tasks", -1)

    def test_histogram_bucket_mismatch_raises(self):
        left = Histogram((0.1, 1.0))
        right = Histogram((0.5, 5.0))
        with pytest.raises(ValueError):
            left.merge(right)

    def test_merge_semantics(self):
        worker = MetricsRegistry()
        worker.inc("pool.tasks", 2)
        worker.set_gauge("peak.rss", 100)
        worker.observe("seconds", 0.2)
        parent = MetricsRegistry()
        parent.inc("pool.tasks", 1)
        parent.set_gauge("peak.rss", 250)
        parent.observe("seconds", 3.0)
        parent.merge(worker)
        assert parent.counter_value("pool.tasks") == 3  # counters sum
        assert parent.gauge_value("peak.rss") == 250  # gauges high-water
        histogram = parent.histogram_value("seconds")
        assert histogram.count == 2  # histograms bucket-sum
        assert histogram.sum == pytest.approx(3.2)

    @settings(max_examples=60, deadline=None)
    @given(_ops, _ops, _ops)
    def test_merge_is_associative_and_commutative(self, ops_a, ops_b, ops_c):
        # Integer-valued observations keep the float sums exact, so the
        # dict comparison is equality, not approximation -- the same
        # contract RunDiagnostics.combined relies on for worker fold-in.
        a, b, c = map(_registry_from, (ops_a, ops_b, ops_c))
        left = MetricsRegistry.merged(
            [MetricsRegistry.merged([a, b]), c]
        ).to_dict()
        right = MetricsRegistry.merged(
            [a, MetricsRegistry.merged([b, c])]
        ).to_dict()
        assert left == right
        forward = MetricsRegistry.merged([a, b]).to_dict()
        backward = MetricsRegistry.merged([b, a]).to_dict()
        assert forward == backward

    def test_prometheus_exposition_parses(self):
        registry = MetricsRegistry()
        registry.inc("service.requests", 3)
        registry.set_gauge("service.pending_requests", 2)
        registry.observe("service.request_latency_seconds", 0.004)
        registry.observe("service.request_latency_seconds", 40.0)
        text = registry.render_prometheus()
        assert text.endswith("\n")
        assert "# TYPE repro_service_requests_total counter" in text
        assert "repro_service_requests_total 3" in text
        assert "repro_service_pending_requests 2" in text
        assert (
            "# TYPE repro_service_request_latency_seconds histogram" in text
        )
        sample = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? -?[0-9.+eE-]+$|^# TYPE .+$'
        )
        for line in text.strip().splitlines():
            assert sample.match(line), line
        # Cumulative bucket series: monotone, ending at the total count.
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_service_request_latency_seconds_bucket")
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 2
        assert "repro_service_request_latency_seconds_count 2" in text


# ----------------------------------------------------------- structured logging


class TestStructuredLog:
    def test_event_is_one_json_object(self, caplog):
        logger = get_logger("repro.test.observability")
        with caplog.at_level(logging.WARNING, logger="repro.test.observability"):
            logger.warning(
                "cache.file_unreadable", path="/x", outcome="starting cold"
            )
        (record,) = caplog.records
        payload = json.loads(record.message)
        assert payload["event"] == "cache.file_unreadable"
        assert payload["level"] == "warning"
        assert payload["outcome"] == "starting cold"
        assert "trace_id" not in payload  # tracing off -> byte-stable

    def test_trace_id_joins_log_events_when_tracing(self, caplog):
        trace_id = tracing.enable_tracing()
        logger = get_logger("repro.test.observability")
        with caplog.at_level(logging.INFO, logger="repro.test.observability"):
            logger.info("pool.task_requeued", task_index=4)
        payload = json.loads(caplog.records[0].message)
        assert payload["trace_id"] == trace_id
        assert payload["task_index"] == 4


# ------------------------------------------------------ diagnostics completeness

# combined() concatenates the worker loads and sums every other field.
_NON_SUMMED = {"worker_loads"}


def _diagnostics_with(offset: int) -> RunDiagnostics:
    values = {}
    for index, spec in enumerate(fields(RunDiagnostics)):
        if spec.name == "worker_loads":
            values[spec.name] = ()
        elif spec.type in ("float", float):
            values[spec.name] = float(offset + index)
        else:
            values[spec.name] = offset + index
    return RunDiagnostics(**values)


class TestDiagnosticsCompleteness:
    def test_to_dict_covers_every_field(self):
        diagnostics = _diagnostics_with(1)
        payload = diagnostics.to_dict()
        for spec in fields(RunDiagnostics):
            assert spec.name in payload, f"to_dict() misses {spec.name}"
            if spec.name not in _NON_SUMMED:
                assert payload[spec.name] == getattr(diagnostics, spec.name)
        assert "cache_hit_rate" in payload
        assert "imbalance_ratio" in payload
        json.dumps(payload)  # JSON-serialisable end to end

    def test_combined_sums_every_counter(self):
        a, b = _diagnostics_with(1), _diagnostics_with(100)
        combined = RunDiagnostics.combined([a, b])
        for spec in fields(RunDiagnostics):
            if spec.name in _NON_SUMMED:
                continue
            expected = getattr(a, spec.name) + getattr(b, spec.name)
            assert getattr(combined, spec.name) == expected, (
                f"combined() does not sum {spec.name}"
            )

    def test_service_stats_payload_covers_every_field(self, classifier):
        service = AnnotationService(
            EntityAnnotator(classifier, _make_engine(), AnnotatorConfig())
        )
        part = _diagnostics_with(1)
        counts = {
            "service.batches": 2,
            "service.batched_requests": 3,
            "service.poisoned_requests": 4,
            "service.flushes": 5,
        }
        service.registry.merge(daemon_module._part(part, counts))
        for name in SUMMED_FIELDS:
            assert service.registry.counter_value(
                "annotation." + name
            ) == getattr(part, name), f"a part's {name} is not recorded"
        payload = service.stats()
        assert {
            key: payload[key]
            for key in ("requests", "batches", "poisoned_requests", "flushes")
        } == {"requests": 3, "batches": 2, "poisoned_requests": 4, "flushes": 5}
        assert (payload["tables"], payload["cells"]) == (
            part.n_tables,
            part.n_cells,
        )
        # Every other counter is the folded diagnostics field of its name.
        shared = [key for key in payload if key in RunDiagnostics.__dataclass_fields__]
        assert len(shared) == 17
        for key in shared:
            assert payload[key] == getattr(part, key), key
        assert payload["mean_batch_size"] == part.n_tables / 2
        assert payload["coalescing_ratio"] == 3 / 2
        assert payload["warm_hit_rate"] == part.cache_hit_rate
        json.dumps(payload)

    def test_zero_denominator_guards(self, classifier):
        stats = AnnotationService(
            EntityAnnotator(classifier, _make_engine(), AnnotatorConfig())
        ).stats()
        assert stats["mean_batch_size"] == 0.0
        assert stats["coalescing_ratio"] == 0.0
        assert stats["warm_hit_rate"] == 0.0
        diagnostics = RunDiagnostics(
            n_tables=0,
            n_cells=0,
            search_failures=0,
            cache_hits=0,
            cache_misses=0,
            queries_issued=0,
            clock_charges=0,
            virtual_seconds=0.0,
        )
        assert diagnostics.cache_hit_rate == 0.0
        assert diagnostics.imbalance_ratio == 0.0


# ------------------------------------------------------------- tracing parity


class TestTracingParity:
    def test_annotations_identical_with_tracing_enabled(self, classifier):
        """Spans only observe: per-cell, batched/corpus and pooled runs
        are byte-identical to their untraced references."""
        tables = _corpus()
        reference_run = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS)
        reference_cells = [
            EntityAnnotator(
                classifier, _make_engine(), AnnotatorConfig()
            ).annotate_table(table, _TYPE_KEYS)
            for table in tables
        ]
        reference_batch = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_batch(tables, _TYPE_KEYS)

        tracing.enable_tracing()
        traced_cells = [
            EntityAnnotator(
                classifier, _make_engine(), AnnotatorConfig()
            ).annotate_table(table, _TYPE_KEYS)
            for table in tables
        ]
        assert traced_cells == reference_cells
        traced_batch = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_batch(tables, _TYPE_KEYS)
        assert traced_batch.annotations == reference_batch.annotations
        traced_run = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS)
        assert dict(traced_run.tables) == dict(reference_run.tables)
        pooled = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS, workers=2)
        assert dict(pooled.tables) == dict(reference_run.tables)
        assert repr(sorted(pooled.tables.items())) == repr(
            sorted(reference_run.tables.items())
        )
        # The traced pooled run shipped per-task worker spans home.
        names = [r["name"] for r in tracing.get_buffer().snapshot()]
        assert "pool.run" in names
        assert "pool.task" in names

    def test_service_parity_with_tracing_enabled(self, classifier):
        table = _corpus(n_tables=1, rows_per_table=4)[0]
        reference = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_table(table, _TYPE_KEYS)
        tracing.enable_tracing()
        service = AnnotationService(
            EntityAnnotator(classifier, _make_engine(), AnnotatorConfig()),
            ServiceConfig(),
        ).start()
        try:
            response = service.submit(
                protocol.annotate_table_request(
                    table, _TYPE_KEYS, "1", trace_id="req-trace-1"
                )
            )
        finally:
            service.stop()
        assert response.ok
        assert (
            protocol.annotation_from_payload(response.result["annotation"])
            == reference
        )


# --------------------------------------------------------- pool task counters


class TestPoolTaskCounters:
    def test_untraced_pool_run_counts_every_task(self, classifier):
        assert not tracing.tracing_enabled()
        tables = _corpus(n_tables=8)
        run = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS, workers=2)
        loads = run.diagnostics.worker_loads
        n_tasks = sum(load.n_tasks for load in loads)
        assert n_tasks >= 2
        registry = obs_metrics.get_registry()
        assert registry.counter_value("pool.tasks") == n_tasks
        assert registry.counter_value("pool.task_cells") == run.diagnostics.n_cells
        assert tracing.get_buffer().snapshot() == []


# --------------------------------------------------------- pool crash tolerance


class TestPoolCrashTracing:
    def test_killed_worker_yields_aborted_span_not_a_leak(
        self, classifier, tmp_path
    ):
        tables = _corpus(n_tables=8)
        engine = _make_engine()
        engine.fault_plan = FaultPlan(
            kill_on_query="Venue 5",
            kill_once_token=str(tmp_path / "kill.token"),
        )
        tracing.enable_tracing()
        run = EntityAnnotator(
            classifier, engine, AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS, workers=2)
        assert run.diagnostics.tasks_requeued >= 1
        records = tracing.get_buffer().snapshot()
        aborted = [r for r in records if r["name"] == "pool.task.aborted"]
        assert aborted, "the parent must synthesise the dead worker's span"
        assert all(r["status"] == "aborted" for r in aborted)
        assert all(r["tags"]["outcome"] == "requeued" for r in aborted)
        # No leaked open span: the parent's stack fully unwound, so a new
        # span is a root, and the pool.run span itself closed cleanly.
        with span("after"):
            pass
        assert tracing.get_buffer().snapshot()[-1]["parent_id"] is None
        assert any(
            r["name"] == "pool.run" and r["status"] == "ok" for r in records
        )
        # And the crash surfaced on the metrics registry.
        registry = obs_metrics.get_registry()
        assert registry.counter_value("pool.tasks_requeued") >= 1


# ------------------------------------------------------------- service surface


class TestServiceObservability:
    def test_metrics_request_returns_parseable_exposition(self, classifier):
        table = _corpus(n_tables=1, rows_per_table=3)[0]
        service = AnnotationService(
            EntityAnnotator(classifier, _make_engine(), AnnotatorConfig()),
            ServiceConfig(),
        ).start()
        try:
            assert service.submit(
                protocol.annotate_table_request(table, _TYPE_KEYS, "1")
            ).ok
            response = service.submit(protocol.metrics_request("2"))
        finally:
            service.stop()
        assert response.ok
        text = response.result["exposition"]
        assert "# TYPE repro_service_requests_total counter" in text
        assert "repro_service_requests_annotate_table_total 1" in text
        assert (
            "# TYPE repro_service_request_latency_seconds histogram" in text
        )
        assert "repro_service_pending_requests" in text
        # Request latency histogram counted the annotate request.
        match = re.search(
            r"repro_service_annotate_latency_seconds_count (\d+)", text
        )
        assert match and int(match.group(1)) == 1

    def test_stats_and_metrics_agree(self, classifier, tmp_path):
        annotator = EntityAnnotator(classifier, _make_engine(), AnnotatorConfig())
        real_annotate_batch = annotator.annotate_batch

        def poisoned_annotate_batch(tables, type_keys, **kwargs):
            if any(table.name == "poison" for table in tables):
                raise RuntimeError("simulated annotator blow-up")
            return real_annotate_batch(tables, type_keys, **kwargs)

        annotator.annotate_batch = poisoned_annotate_batch
        service = AnnotationService(
            annotator, ServiceConfig(cache_dir=str(tmp_path))
        ).start()
        try:
            tables = _corpus(n_tables=3, rows_per_table=3)
            for index, table in enumerate(tables):
                assert service.submit(
                    protocol.annotate_table_request(table, _TYPE_KEYS, str(index))
                ).ok
            poison = Table(name="poison", columns=[Column("Name", ColumnType.TEXT)])
            poison.append_row([_NAMES[0]])
            assert not service.submit(
                protocol.annotate_table_request(poison, _TYPE_KEYS, "p")
            ).ok
            service.flush()
            stats = service.submit(protocol.stats_request("s")).result
            text = service.submit(protocol.metrics_request("m")).result[
                "exposition"
            ]
        finally:
            service.stop()
        assert (
            stats["requests"],
            stats["batches"],
            stats["poisoned_requests"],
            stats["flushes"],
        ) == (3, 3, 1, 1)
        assert stats["queries_issued"] > 0
        assert stats["cache_saves"] == 2
        exposed = {
            name: float(value)
            for name, value in re.findall(r"^(repro_\w+_total) (\S+)$", text, re.M)
        }
        shared = {
            "requests": "repro_service_batched_requests_total",
            "batches": "repro_service_batches_total",
            "poisoned_requests": "repro_service_poisoned_requests_total",
            "flushes": "repro_service_flushes_total",
            "tables": "repro_annotation_n_tables_total",
            "cells": "repro_annotation_n_cells_total",
            "queries_issued": "repro_annotation_queries_issued_total",
        }
        shared.update(
            {
                key: f"repro_annotation_{key}_total"
                for key in stats
                if key.startswith(("cache_", "results_cache_", "label_memo_"))
            }
        )
        assert len(shared) == 18
        for key, series in shared.items():
            assert exposed[series] == stats[key], key
        # The payload's keys and JSON types, in order.
        floats = {
            "cache_lock_wait_seconds",
            "mean_batch_size",
            "coalescing_ratio",
            "warm_hit_rate",
            "uptime_seconds",
        }
        assert [(key, type(value)) for key, value in stats.items()] == [
            (key, str if key == "index_backend" else float if key in floats else int)
            for key in (
                "requests", "batches", "tables", "cells", "queries_issued",
                "cache_hits", "cache_misses", "search_failures",
                "search_retries", "breaker_opens", "degraded_cells",
                "repaired_cells", "poisoned_requests", "flushes",
                "results_cache_hits", "results_cache_misses",
                "label_memo_hits", "label_memo_misses", "cache_loads",
                "cache_saves", "cache_load_bytes", "cache_save_bytes",
                "cache_lock_wait_seconds", "mean_batch_size",
                "coalescing_ratio", "warm_hit_rate", "uptime_seconds",
                "max_batch_tables", "index_backend",
            )
        ]

    def test_request_trace_links_admission_batch_and_stages(self, classifier):
        table = _corpus(n_tables=1, rows_per_table=3)[0]
        tracing.enable_tracing()
        service = AnnotationService(
            EntityAnnotator(classifier, _make_engine(), AnnotatorConfig()),
            ServiceConfig(),
        ).start()
        try:
            assert service.submit(
                protocol.annotate_table_request(
                    table, _TYPE_KEYS, "1", trace_id="trace-xyz"
                )
            ).ok
        finally:
            service.stop()
        records = tracing.get_buffer().snapshot()
        by_name = {}
        for record in records:
            by_name.setdefault(record["name"], []).append(record)
        (request_span,) = by_name["service.request"]
        assert request_span["trace_id"] == "trace-xyz"
        (batch_span,) = by_name["service.batch"]
        # The batch span links back to the coalesced request's trace.
        assert "trace-xyz" in batch_span["tags"]["trace_ids"]
        # Per-stage engine work was traced inside the pooled pass.
        for stage in (
            "annotate.resolve_queries",
            "annotate.classify",
            "annotate.vote",
            "search.search_many",
        ):
            assert stage in by_name, f"missing {stage} span"
        # The admission->batch->stages chain covers the request's wall
        # time: the pooled pass accounts for (almost) everything the
        # request waited on.
        assert batch_span["wall_seconds"] <= request_span["wall_seconds"]
        stage_wall = sum(r["wall_seconds"] for r in by_name["annotate.resolve_queries"])
        assert stage_wall <= batch_span["wall_seconds"]

    def test_coalesced_pool_pass_traces_pool_tasks_and_demuxes(self, classifier):
        # Two same-named cells requests queued behind a running pass share
        # the next one, which a workers=2 service runs on its pool: the
        # trace carries the workers' task spans, and each request still
        # gets exactly its own cell back.
        tracing.enable_tracing()
        service = AnnotationService(
            EntityAnnotator(classifier, _make_engine(), AnnotatorConfig()),
            ServiceConfig(workers=2),
        ).start()
        requests = [
            protocol.annotate_cells_request(
                [value], _TYPE_KEYS, str(index), trace_id=f"trace-{index}"
            )
            for index, value in enumerate(["Venue 0", "Venue 1", "Venue 2"])
        ]
        try:
            responses = run_as_one_batch(
                service,
                lambda: service.submit(requests[0]),
                [lambda r=request: service.submit(r) for request in requests[1:]],
            )
        finally:
            service.stop()
        reference = EntityAnnotator(classifier, _make_engine(), AnnotatorConfig())
        for request, response in zip(requests, responses):
            assert response.ok
            expected = reference.annotate_table(
                protocol.table_for_request(request), _TYPE_KEYS
            )
            assert expected.cells  # a real decision, not an empty answer
            assert response.result["cells"] == protocol.cell_decisions(expected, 1)
            assert protocol.annotation_from_payload(
                response.result["annotation"]
            ) == expected
        records = tracing.get_buffer().snapshot()
        batches = [r for r in records if r["name"] == "service.batch"]
        assert [b["tags"]["trace_ids"] for b in batches] == [
            ["trace-0"],
            ["trace-1", "trace-2"],
        ]
        tasks = [r for r in records if r["name"] == "pool.task"]
        assert len(tasks) == 2
        assert {r["trace_id"] for r in tasks} == {"trace-1"}
