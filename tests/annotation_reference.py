"""Reference annotation loops the parity suites compare the library with.

Not collected by pytest (no ``test_`` prefix); test modules import it as
a sibling module.
"""

from __future__ import annotations

from repro.core.annotation import CellDecision
from repro.core.results import AnnotationRun
from repro.web.search import SearchEngineUnavailable


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


def annotate_value_per_cell(
    cell_annotator, value, type_keys, spatial_context=None
):
    """The seed's one-cell decision: one engine round trip, one classify.

    *cell_annotator* is a :class:`~repro.core.annotation.CellAnnotator`;
    its shared :class:`~repro.core.annotation.SnippetCache`, failure and
    retry counters, retry policy and breaker are used and advanced exactly
    as the library's batched pass uses them, so the two can be compared
    decision for decision and counter for counter.
    """
    if not type_keys:
        raise ValueError("type_keys must be non-empty")
    query = value if spatial_context is None else f"{value} {spatial_context}"
    k = cell_annotator.config.top_k
    cache = cell_annotator.cache
    snippets = cache.get(query, k) if cache is not None else None
    if snippets is None:
        results = _search_with_retry(cell_annotator, query, k)
        if results is None:
            cell_annotator.failure_count += 1
            return CellDecision(
                type_key=None, score=0.0, query=query, failed=True
            )
        snippets = [result.snippet for result in results]
        if cache is not None:
            cache.put(query, k, snippets)
    if not snippets:
        return CellDecision(type_key=None, score=0.0, query=query)
    labels = cell_annotator.classifier.classify_many(snippets)
    return cell_annotator._decide(labels, type_keys, query)


def _search_with_retry(cell_annotator, query, k):
    """One query through the retry policy and circuit breaker.

    Returns the result list, or ``None`` when every admitted attempt
    failed (or the breaker refused to admit one).  Backoff between
    attempts advances the virtual clock via
    :meth:`~repro.clock.VirtualClock.wait`; an open breaker fails fast
    without charging anything.  With ``retries=0`` and the breaker
    disabled this is exactly one plain :meth:`SearchEngine.search` call.
    """
    engine = cell_annotator.engine
    breaker = cell_annotator.breaker
    policy = cell_annotator.retry_policy
    attempts = 1 + policy.retries
    for attempt in range(1, attempts + 1):
        if not breaker.allow():
            return None
        try:
            results = engine.search(query, k=k)
        except SearchEngineUnavailable:
            breaker.record_failure()
            if attempt < attempts:
                cell_annotator.retry_count += 1
                engine.clock.wait(policy.backoff_for(query, attempt))
            continue
        breaker.record_success()
        return results
    return None


def annotate_table_per_cell(annotator, table, type_keys):
    """The seed's cell-by-cell table annotation, post-processed.

    One :func:`annotate_value_per_cell` per candidate cell of *table*
    under *annotator* (an :class:`~repro.core.annotator.EntityAnnotator`),
    with the annotator's row contexts and post-processing; no repair
    pass.  The per-cell reference for ``annotate_table``.
    """
    type_keys = list(type_keys)
    if not type_keys:
        raise ValueError("type_keys must be non-empty")
    candidates = annotator.preprocessor.candidate_cells(table)
    contexts = annotator._row_contexts(table)
    decisions = [
        annotate_value_per_cell(
            annotator.cell_annotator,
            candidate.value,
            type_keys,
            spatial_context=contexts.get(candidate.row),
        )
        for candidate in candidates
    ]
    return annotator.postprocess_table(
        table, annotator._collect_raw(table.name, candidates, decisions)
    )
