"""The per-table annotators' shared corpus loop.

The four baselines and the hybrid annotator answer one table at a time;
their ``annotate_tables`` is :class:`repro.core.results.PerTableAnnotator`'s
one loop, which merges same-named tables instead of letting the last one
replace the others.
"""

import pytest

from repro.baselines.giuliano import GiulianoAnnotator
from repro.baselines.limaye import LimayeAnnotator
from repro.baselines.type_in_name import TypeInNameAnnotator
from repro.baselines.type_in_snippet import TypeInSnippetAnnotator
from repro.core.annotation import SnippetCache
from repro.core.hybrid import HybridAnnotator
from repro.tables.model import Column, ColumnType, Table

_TYPE_KEYS = ["museum", "school", "university"]


def _annotators(world, context):
    engine = world.search_engine
    return {
        "tin": TypeInNameAnnotator(),
        "tis": TypeInSnippetAnnotator(engine, cache=SnippetCache()),
        "limaye": LimayeAnnotator(world.catalogue),
        "giuliano": GiulianoAnnotator(engine, cache=SnippetCache()).fit(
            context.train_set
        ),
        "hybrid": HybridAnnotator(
            context.classifiers["svm"],
            engine,
            world.catalogue,
            cache=SnippetCache(),
        ),
    }


def _directories(world):
    """Two distinct tables, both named ``"directory"``: known museums,
    schools and universities, and a cell carrying its type word."""
    entities = [
        entity
        for type_key in _TYPE_KEYS
        for entity in world.table_entities(type_key)
        if entity.in_kb
    ]
    return [
        Table(
            name="directory",
            columns=[Column("Name", ColumnType.TEXT)],
            rows=[[entity.table_name] for entity in entities[half::2]]
            + [[f"{label} Museum"]],
        )
        for half, label in enumerate(["Railway", "Harbour"])
    ]


@pytest.mark.parametrize("name", ["tin", "tis", "limaye", "giuliano", "hybrid"])
def test_same_named_tables_keep_both_tables_cells(small_world, small_context, name):
    annotator = _annotators(small_world, small_context)[name]
    tables = _directories(small_world)
    per_table = [annotator.annotate_table(table, _TYPE_KEYS) for table in tables]
    assert all(annotation.cells for annotation in per_table)
    run = annotator.annotate_tables(tables, _TYPE_KEYS)
    assert list(run.tables) == ["directory"]
    assert run.tables["directory"].cells == [
        cell for annotation in per_table for cell in annotation.cells
    ]
