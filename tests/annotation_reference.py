"""Reference annotation loops the parity suites compare the library with.

Not collected by pytest (no ``test_`` prefix); test modules import it as
a sibling module.
"""

from __future__ import annotations

from repro.core.results import AnnotationRun


def annotate_per_table(annotator, tables, type_keys) -> AnnotationRun:
    """One ``annotate_table`` per table, merged in corpus order.

    The per-table reference for ``annotate_tables``: the diagnostics come
    from one ``_counters()`` snapshot before the loop and one after it,
    so they compare like with like with the corpus pass's single window
    (the float ``virtual_seconds`` included).
    """
    tables = list(tables)
    before = annotator._counters()
    run = AnnotationRun()
    for table in tables:
        run.merge_table(annotator.annotate_table(table, type_keys))
    run.diagnostics = annotator._diagnostics_since(
        before,
        n_tables=len(tables),
        n_cells=sum(
            len(annotator.preprocessor.candidate_cells(table)) for table in tables
        ),
        degraded_cells=sum(
            len(annotation.degraded) for annotation in run.tables.values()
        ),
    )
    return run
