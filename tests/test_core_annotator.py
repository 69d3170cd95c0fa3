"""Tests for the end-to-end EntityAnnotator and result models."""

import pytest

from repro.core import AnnotatorConfig, EntityAnnotator
from repro.core.results import AnnotationRun, CellAnnotation, TableAnnotation
from repro.synth.types import TYPE_SPECS
from repro.tables.model import Column, ColumnType, Table

ALL_KEYS = [spec.key for spec in TYPE_SPECS]


class TestResultModels:
    def test_cell_annotation_score_bounds(self):
        with pytest.raises(ValueError):
            CellAnnotation("t", 0, 0, "museum", 1.5)

    def test_table_annotation_rejects_foreign_cells(self):
        table_annotation = TableAnnotation(table_name="a")
        with pytest.raises(ValueError):
            table_annotation.add(CellAnnotation("b", 0, 0, "museum", 1.0))

    def test_annotated_rows(self):
        ta = TableAnnotation(table_name="t")
        ta.add(CellAnnotation("t", 3, 0, "museum", 0.9))
        ta.add(CellAnnotation("t", 5, 0, "museum", 0.7))
        ta.add(CellAnnotation("t", 5, 1, "hotel", 0.8))
        assert ta.annotated_rows("museum") == {3, 5}
        assert ta.annotated_rows("hotel") == {5}

    def test_annotation_at(self):
        ta = TableAnnotation(table_name="t")
        cell = CellAnnotation("t", 1, 2, "museum", 0.6)
        ta.add(cell)
        assert ta.annotation_at(1, 2) is cell
        assert ta.annotation_at(0, 0) is None

    def test_run_aggregation(self):
        run = AnnotationRun()
        run.add(CellAnnotation("t1", 0, 0, "museum", 0.9))
        run.add(CellAnnotation("t2", 0, 0, "hotel", 0.8))
        assert len(run) == 2
        assert [c.table_name for c in run.all_cells()] == ["t1", "t2"]
        assert len(run.of_type("hotel")) == 1


@pytest.fixture(scope="module")
def annotator(small_world, small_context):
    return EntityAnnotator(
        small_context.classifiers["svm"],
        small_world.search_engine,
        AnnotatorConfig(),
        geocoder=small_world.geocoder,
    )


class TestAnnotateTable:
    def test_finds_museum_rows(self, small_world, annotator):
        entities = small_world.table_entities("museum")[:6]
        table = Table(
            name="museums",
            columns=[Column("Name", ColumnType.TEXT),
                     Column("City", ColumnType.LOCATION)],
            rows=[[e.table_name, e.city.name] for e in entities],
        )
        annotation = annotator.annotate_table(table, ["museum"])
        rows = annotation.annotated_rows("museum")
        assert len(rows) >= len(entities) - 2  # allow ambiguity misses
        assert all(cell.column == 0 for cell in annotation.cells)

    def test_type_restriction_respected(self, small_world, annotator):
        entities = small_world.table_entities("museum")[:4]
        table = Table(
            name="museums2",
            columns=[Column("Name", ColumnType.TEXT)],
            rows=[[e.table_name] for e in entities],
        )
        annotation = annotator.annotate_table(table, ["hotel"])
        assert all(cell.type_key == "hotel" for cell in annotation.cells)
        assert len(annotation.cells) == 0

    def test_empty_types_rejected(self, annotator):
        table = Table(name="x", columns=[Column("A")], rows=[["v"]])
        with pytest.raises(ValueError):
            annotator.annotate_table(table, [])

    def test_annotate_tables_runs_whole_corpus(self, small_world, annotator):
        tables = []
        for key in ("museum", "hotel"):
            entities = small_world.table_entities(key)[:3]
            tables.append(Table(
                name=f"corpus-{key}",
                columns=[Column("Name", ColumnType.TEXT)],
                rows=[[e.table_name] for e in entities],
            ))
        run = annotator.annotate_tables(tables, ALL_KEYS)
        assert set(run.tables) == {"corpus-museum", "corpus-hotel"}

    def test_requires_geocoder_for_disambiguation(self, small_context, small_world):
        with pytest.raises(ValueError):
            EntityAnnotator(
                small_context.classifiers["svm"],
                small_world.search_engine,
                AnnotatorConfig(use_spatial_disambiguation=True),
            )

    def test_failure_counter_survives_outage(self, small_world, small_context):
        engine = small_world.search_engine
        annotator = EntityAnnotator(
            small_context.classifiers["svm"], engine, AnnotatorConfig()
        )
        table = Table(
            name="down", columns=[Column("Name", ColumnType.TEXT)],
            rows=[["Some Entity"], ["Another Entity"]],
        )
        engine.available = False
        try:
            annotation = annotator.annotate_table(table, ["museum"])
        finally:
            engine.available = True
        assert len(annotation.cells) == 0
        assert annotator.cell_annotator.failure_count == 2
