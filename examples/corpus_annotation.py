"""Corpus-at-a-time annotation with persistable engine caches.

Many sites publish overlapping views of the same entity directory.  This
example annotates a 12-table corpus of shuffled restaurant listings three
ways:

1. **corpus-at-a-time** (``EntityAnnotator.annotate_tables``): every cell
   of every table pooled into one search/classify pass, so each distinct
   name is searched, classified and voted on once for the whole corpus;
2. **per-table** (``annotate_table`` once per table), to show the pooled
   run produces identical annotations while issuing a fraction of the
   engine queries;
3. **warm-started**: the first run's caches are persisted with
   ``save_caches`` and loaded by a fresh annotator -- standing in for a
   second process -- which then annotates a brand-new corpus over the same
   directory without paying the cold start.

Run with::

    python examples/corpus_annotation.py
"""

import random
import tempfile
import time

from repro import (
    AnnotationRun,
    AnnotatorConfig,
    Column,
    ColumnType,
    EntityAnnotator,
    Table,
    quickstart_world,
)


def build_corpus(world, n_tables=12, n_rows=30, start=0):
    """n_tables shuffled views of one restaurant directory."""
    rng = random.Random(42 + start)
    restaurants = world.table_entities("restaurant")
    directory = [
        f"{restaurants[i % len(restaurants)].table_name} #{start + i}"
        for i in range(n_rows)
    ]
    tables = []
    for index in range(n_tables):
        table = Table(
            name=f"site-{start}-{index}",
            columns=[Column("Name", ColumnType.TEXT)],
        )
        order = list(range(n_rows))
        rng.shuffle(order)
        for row in order:
            table.append_row([directory[row]])
        tables.append(table)
    return tables


def main() -> None:
    print("Building world + training classifier (a few seconds) ...")
    world, classifier = quickstart_world(small=True)
    engine = world.search_engine
    types = ["restaurant", "museum"]
    corpus = build_corpus(world)

    # 1. Corpus-at-a-time: one pooled pass over all 12 tables.
    annotator = EntityAnnotator(classifier, engine, AnnotatorConfig())
    start = time.perf_counter()
    run = annotator.annotate_tables(corpus, types)
    corpus_seconds = time.perf_counter() - start
    diag = run.diagnostics
    print(
        f"\ncorpus-at-a-time: {diag.n_tables} tables, {diag.n_cells} cells, "
        f"{len(run)} annotations in {corpus_seconds:.3f}s"
    )
    print(
        f"  engine queries issued: {diag.queries_issued} "
        f"(one per distinct name, corpus-wide)"
    )

    # 2. Per-table baseline: identical output, many more engine requests.
    baseline = EntityAnnotator(classifier, engine, AnnotatorConfig())
    queries_before = engine.query_count
    sequential = AnnotationRun()
    for table in corpus:
        sequential.merge_table(baseline.annotate_table(table, types))
    print(
        f"per-table loop:   identical annotations: {sequential == run}; "
        f"engine queries issued: {engine.query_count - queries_before}"
    )

    # 3. Persist the caches and warm-start a "second process".
    with tempfile.TemporaryDirectory() as cache_dir:
        annotator.save_caches(cache_dir)
        engine.reset_compute_caches()  # forget everything in-memory
        fresh_corpus = build_corpus(world, start=1000)  # new strings, same directory
        warm_annotator = EntityAnnotator(classifier, engine, AnnotatorConfig())
        loaded = warm_annotator.load_caches(cache_dir)
        start = time.perf_counter()
        warm_run = warm_annotator.annotate_tables(fresh_corpus, types)
        warm_seconds = time.perf_counter() - start
    print(
        f"warm start:       loaded {loaded}; fresh corpus annotated in "
        f"{warm_seconds:.3f}s ({len(warm_run)} annotations)"
    )

    print("\nfirst annotated rows of site-0-0:")
    for cell in run.tables["site-0-0"].cells[:5]:
        print(
            f"  row {cell.row:3d}  {cell.cell_value!r} -> {cell.type_key} "
            f"(score {cell.score:.2f})"
        )


if __name__ == "__main__":
    main()
