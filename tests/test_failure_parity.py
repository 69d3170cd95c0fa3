"""Failure parity: every execution tier fails the *same* queries.

The failure draw is a pure function of ``(engine seed, query text,
occurrence index)`` (:func:`repro.resilience.deterministic_unit`), never
of a shared RNG stream or of request ordering.  That is what lets the
repo keep one correctness story across its four execution tiers: for a
workload of distinct queries, the per-cell loop, the batched
``search_many`` path, and the multi-process pool must all drop exactly
the same requests under the same seeded failure rate -- with and without
retries -- and therefore degrade exactly the same cells.
"""

from __future__ import annotations

import random

import pytest
from annotation_reference import annotate_table_per_cell

from repro.classify.dataset import TextDataset
from repro.classify.snippet import SnippetTypeClassifier
from repro.clock import VirtualClock
from repro.core.annotator import EntityAnnotator
from repro.core.config import AnnotatorConfig
from repro.core.results import AnnotationRun
from repro.resilience import FaultPlan
from repro.tables.model import Column, ColumnType, Table
from repro.web.documents import WebPage
from repro.web.search import SearchEngine, SearchEngineUnavailable

_WORDS = "exhibit gallery paintings curator collection museum".split()
_NAMES = [f"Venue {i}" for i in range(24)]
_TYPE_KEYS = ["museum", "restaurant"]
_RATE = 0.3


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
    """Distinct-content corpus: no query string repeats anywhere."""
    tables = []
    for index in range(n_tables):
        table = Table(name=f"t{index}", columns=[Column("Name", ColumnType.TEXT)])
        for row in range(rows_per_table):
            table.append_row([_NAMES[(index * rows_per_table + row) % len(_NAMES)]])
        tables.append(table)
    return tables


def _degraded_queries(run_or_annotation) -> set[str]:
    if hasattr(run_or_annotation, "degraded_cells"):
        return {cell.query for cell in run_or_annotation.degraded_cells()}
    return {cell.query for cell in run_or_annotation.degraded}


# ------------------------------------------------------------- engine level


class TestEngineLevelParity:
    @pytest.mark.parametrize("rounds", [1, 3])
    def test_search_and_search_many_drop_the_same_queries(self, rounds):
        """Per-query ``search`` and batched ``search_many`` agree on
        which (query, occurrence) requests fail -- over several issue
        rounds, i.e. matching occurrence indices."""
        per_query = _make_engine(failure_rate=_RATE)
        batched = _make_engine(failure_rate=_RATE)
        for _ in range(rounds):
            singles = []
            for name in _NAMES:
                try:
                    per_query.search(name)
                    singles.append(False)
                except SearchEngineUnavailable:
                    singles.append(True)
            many = [
                results is None for results in batched.search_many(_NAMES)
            ]
            assert singles == many
        # Same workload, same accounting.
        assert per_query.query_count == batched.query_count


# ----------------------------------------------------------- pipeline level


class TestPipelineFailureParity:
    @pytest.mark.parametrize("retries", [0, 2])
    def test_per_cell_and_batched_degrade_the_same_cells(
        self, classifier, retries
    ):
        table = _corpus(n_tables=1, rows_per_table=12)[0]
        config = AnnotatorConfig(retries=retries, retry_backoff_ms=100.0)
        per_cell = annotate_table_per_cell(
            EntityAnnotator(classifier, _make_engine(failure_rate=_RATE), config),
            table,
            _TYPE_KEYS,
        )
        batched = EntityAnnotator(
            classifier, _make_engine(failure_rate=_RATE), config
        ).annotate_table(table, _TYPE_KEYS)
        assert _degraded_queries(per_cell) == _degraded_queries(batched)
        assert per_cell == batched

    @pytest.mark.parametrize(
        "retries, failure_rate", [(1, 0.3), (1, 0.7), (2, 0.5)]
    )
    def test_annotate_table_repairs_like_annotate_tables(
        self, classifier, retries, failure_rate
    ):
        """One table answers the same through ``annotate_table`` as
        through ``annotate_tables`` (the service's path): both run the
        end-of-pass repair.  Each regime leaves cells that only the
        repair pass recovers."""
        table = _corpus(n_tables=1, rows_per_table=12)[0]
        config = AnnotatorConfig(retries=retries, retry_backoff_ms=100.0)

        def annotator() -> EntityAnnotator:
            return EntityAnnotator(
                classifier, _make_engine(failure_rate=failure_rate), config
            )

        single = annotator().annotate_table(table, _TYPE_KEYS)
        run = annotator().annotate_tables([table], _TYPE_KEYS)
        assert run.diagnostics.repaired_cells > 0
        assert single == run.tables[table.name]

    @pytest.mark.parametrize("retries", [0, 2])
    def test_workers_degrade_the_same_cells_as_sequential(
        self, classifier, retries
    ):
        """``annotate_tables(workers=2)`` on a distinct-content corpus:
        every query's attempt sequence (first issue, retries, repair
        re-issue) lives inside one worker, so its occurrence indices --
        and hence its failure draws -- match the sequential run's."""
        tables = _corpus()
        config = AnnotatorConfig(retries=retries, retry_backoff_ms=100.0)
        sequential = EntityAnnotator(
            classifier, _make_engine(failure_rate=_RATE), config
        ).annotate_tables(tables, _TYPE_KEYS)
        parallel = EntityAnnotator(
            classifier, _make_engine(failure_rate=_RATE), config
        ).annotate_tables(tables, _TYPE_KEYS, workers=2)
        assert _degraded_queries(parallel) == _degraded_queries(sequential)
        assert parallel == sequential
        assert (
            parallel.diagnostics.degraded_cells
            == sequential.diagnostics.degraded_cells
        )
        assert (
            parallel.diagnostics.search_failures
            == sequential.diagnostics.search_failures
        )

    def test_failure_count_matches_degraded_accounting(self, classifier):
        tables = _corpus()
        annotator = EntityAnnotator(
            classifier, _make_engine(failure_rate=_RATE), AnnotatorConfig()
        )
        run = annotator.annotate_tables(tables, _TYPE_KEYS)
        # Post-processing can only *drop* annotated cells, never revive a
        # failed one, so the degraded list is exactly the failure tally.
        assert annotator.cell_annotator.failure_count == len(
            run.degraded_cells()
        )
        assert run.diagnostics.search_failures == len(run.degraded_cells())

    def test_execution_matrix_identical_payloads(self, classifier):
        """The full execution matrix on a skewed distinct-content corpus:
        per-cell, batched sequential and workers=2 stealing -- crossed
        with three fault regimes (healthy, seeded failure rate, scripted
        :class:`FaultPlan`) -- all produce byte-identical per-table
        payloads and degrade the same queries."""
        giant = Table(name="giant", columns=[Column("Name", ColumnType.TEXT)])
        for row in range(14):
            giant.append_row([_NAMES[row]])
        smalls = []
        for index in range(5):
            small = Table(
                name=f"s{index}", columns=[Column("Name", ColumnType.TEXT)]
            )
            for row in range(2):
                small.append_row([_NAMES[14 + index * 2 + row]])
            smalls.append(small)
        tables = [giant, *smalls]

        def payload(run_or_tables):
            if isinstance(run_or_tables, AnnotationRun):
                annotations = run_or_tables.tables
            else:
                annotations = run_or_tables
            return {name: repr(a) for name, a in annotations.items()}

        regimes = {
            "healthy": (0.0, None),
            "seeded-rate": (_RATE, None),
            "fault-plan": (
                0.0,
                FaultPlan(fail_first={_NAMES[2]: 1, _NAMES[7]: 3, _NAMES[19]: 1}),
            ),
        }
        for regime, (rate, plan) in regimes.items():

            def annotator():
                engine = _make_engine(failure_rate=rate)
                engine.fault_plan = plan
                return EntityAnnotator(classifier, engine, AnnotatorConfig())

            per_cell = {
                table.name: annotate_table_per_cell(
                    annotator(), table, _TYPE_KEYS
                )
                for table in tables
            }
            arms = {
                "batched": annotator().annotate_tables(tables, _TYPE_KEYS),
                "stealing": annotator().annotate_tables(
                    tables, _TYPE_KEYS, workers=2
                ),
            }
            reference = payload(per_cell)
            reference_degraded = set().union(
                *[_degraded_queries(a) for a in per_cell.values()]
            )
            for arm, run in arms.items():
                assert payload(run) == reference, (regime, arm)
                assert _degraded_queries(run) == reference_degraded, (
                    regime,
                    arm,
                )

    def test_service_batch_agrees_with_annotate_tables(self, classifier):
        """The service's pooled ``annotate_batch`` rides the same batched
        resolution, so it degrades the same cells as the corpus path."""
        tables = _corpus(n_tables=4)
        corpus_run = EntityAnnotator(
            classifier, _make_engine(failure_rate=_RATE), AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS)
        batch = EntityAnnotator(
            classifier, _make_engine(failure_rate=_RATE), AnnotatorConfig()
        ).annotate_batch(tables, _TYPE_KEYS)
        batch_queries = set().union(
            *[_degraded_queries(a) for a in batch.annotations]
        )
        assert batch_queries == _degraded_queries(corpus_run)
        assert list(batch.annotations) == [
            corpus_run.tables[table.name] for table in tables
        ]
