"""End-to-end integration tests: world -> training -> annotation -> eval -> RDF."""

import pytest

from repro.core import AnnotatorConfig, EntityAnnotator
from repro.core.annotation import SnippetCache
from repro.eval.evaluator import evaluate_annotations
from repro.rdfstore.extract import extract_pois
from repro.rdfstore.facets import FacetedBrowser
from repro.rdfstore.store import PoiStore
from repro.synth.types import TYPE_SPECS

ALL_KEYS = [spec.key for spec in TYPE_SPECS]


class TestFullPipeline:
    @pytest.fixture(scope="class")
    def run(self, small_world, small_context):
        annotator = EntityAnnotator(
            small_context.classifiers["svm"],
            small_world.search_engine,
            AnnotatorConfig(),
            cache=SnippetCache(),
        )
        return annotator.annotate_tables(small_context.gft.tables, ALL_KEYS)

    def test_corpus_level_f_measure(self, run, small_context):
        result = evaluate_annotations(run, small_context.gft.gold)
        assert result.micro_f1() > 0.6

    def test_annotations_point_at_real_cells(self, run, small_context):
        for cell in run.all_cells():
            table = small_context.gft.table(cell.table_name)
            assert 0 <= cell.row < table.n_rows
            assert 0 <= cell.column < table.n_columns
            assert table.cell(cell.row, cell.column) == cell.cell_value

    def test_row_discovery_output(self, run, small_context):
        # The paper's primary output: which rows hold entities of a type.
        table = next(t for t in small_context.gft.tables
                     if t.name.startswith("gft-museum"))
        gold_rows = {
            ref.row for ref in small_context.gft.gold.of_table(table.name)
        }
        found_rows = run.table(table.name).annotated_rows("museum")
        assert found_rows <= set(range(table.n_rows))
        overlap = len(found_rows & gold_rows) / max(1, len(gold_rows))
        assert overlap > 0.5

    def test_rdf_extraction_closes_the_loop(self, run, small_context):
        store = PoiStore()
        poi_keys = [s.key for s in TYPE_SPECS if s.category == "poi"]
        for table in small_context.gft.tables:
            records = extract_pois(
                table, run.table(table.name), type_keys=poi_keys
            )
            store.add_all(records)
        assert len(store) > 20
        browser = FacetedBrowser(store)
        by_type = browser.facet_counts("type")
        assert set(by_type) <= set(poi_keys)
        # City facet populated from Location columns.
        assert browser.facet_counts("city")

    def test_unknown_entities_annotated(self, run, small_world, small_context):
        # The headline claim: entities absent from the catalogue still get
        # discovered and typed.
        unknown_names = {
            e.table_name
            for e in small_world.table_entities("museum")
            if not e.in_kb
        }
        annotated_unknown = [
            c for c in run.of_type("museum") if c.cell_value in unknown_names
        ]
        assert annotated_unknown, "no unknown museum was discovered"


class TestDeterminism:
    def test_same_world_same_annotations(self, small_world, small_context):
        annotator_a = EntityAnnotator(
            small_context.classifiers["svm"], small_world.search_engine
        )
        annotator_b = EntityAnnotator(
            small_context.classifiers["svm"], small_world.search_engine
        )
        table = small_context.gft.tables[0]
        first = annotator_a.annotate_table(table, ALL_KEYS)
        second = annotator_b.annotate_table(table, ALL_KEYS)
        assert first.cells == second.cells


class TestFailureInjection:
    def test_flaky_engine_loses_recall_not_crashes(self, small_world, small_context):
        engine = small_world.search_engine
        original_rate = engine.failure_rate
        annotator = EntityAnnotator(
            small_context.classifiers["svm"], engine, AnnotatorConfig()
        )
        table = small_context.gft.tables[0]
        baseline = annotator.annotate_table(table, ALL_KEYS)
        engine.failure_rate = 0.6
        try:
            flaky_annotator = EntityAnnotator(
                small_context.classifiers["svm"], engine, AnnotatorConfig()
            )
            flaky = flaky_annotator.annotate_table(table, ALL_KEYS)
        finally:
            engine.failure_rate = original_rate
        assert len(flaky.cells) <= len(baseline.cells)
        assert flaky_annotator.cell_annotator.failure_count > 0
