"""Benchmark: real wall-clock throughput of the batched annotation engine.

Unlike E1 (``test_bench_efficiency``), which reports *virtual* network
seconds and must keep reproducing the paper's ~0.5 s/row accounting, this
benchmark measures the actual compute cost of the in-process pipeline on
synthetic directory tables of 100-2,000 rows, comparing the batched
table-at-a-time path (the ``annotate_table`` default) against the retained
seed per-cell path.  Both paths must agree on every annotation.

The measured regime is a stream of same-shape tables over one entity
directory: the batched engine pays a cold start on the first table
(reported as ``batch_cold_seconds``) and is then timed at steady state,
which is where a production deployment serving sustained traffic lives.
Results land in ``benchmarks/output/BENCH_throughput.json`` so future
performance work has a trajectory to beat.

The corpus-level scenario (PR 2) annotates a 20-table same-directory corpus
three ways -- cold corpus-at-a-time, then per-table batching and
corpus-at-a-time both warm-started from the cold run's persisted caches --
asserting the corpus path is >= 2x the per-table loop under equal caches
and that the warm start beats the cold one.

The multi-worker scenario (PR 3) annotates a 20-table distinct-content
corpus with ``annotate_tables(workers=2)`` versus ``workers=1``, both runs
warm-starting from -- and merge-saving back into -- one shared cache
directory, with the engine sleeping its per-request latency for real (the
paper's Section 6.4 latency-dominated regime, which is exactly what a
worker pool overlaps).  The parallel run must be byte-identical to the
single-worker run and >= 1.5x faster wall-clock.

The skewed-corpus scenario (PR 4) annotates the size mix real web-table
corpora exhibit -- one 2,000-row giant table followed by 19 small tables
-- at ``workers=2`` under both schedulers.  Static contiguous sharding
hands whichever shard holds the giant table nearly the whole run; the
work-stealing chunk queue must beat it wall-clock, report a lower
per-worker imbalance ratio, and stay byte-identical to ``workers=1``.

The splitting arm (PR 7) runs the same skewed corpus a fourth way:
stealing with ``split_giant_tables`` on, so the giant table is cut into
row-range slice tasks instead of travelling alone.  Table-atomic
stealing is ceilinged by the giant table itself (its holder does 2,000
of the 3,900 latency units, a vs-static ceiling of 2,900/2,000 =
1.45x); splitting spreads the giant across the pool (~1,950 units per
worker, vs-static asymptote 2,900/1,950 = 1.487x), so beating 1.46x
vs static is proof the scheduler escaped the table-atomic ceiling --
while staying byte-identical to ``workers=1``.  Two measurement choices
keep the arms near their latency-unit physics: an untimed seed pass
warms the engine's in-memory compute caches (inherited copy-on-write by
every forked worker; a cache hit still sleeps its per-request latency),
and ``SKEW_SLICE_COST`` makes every task a uniform 50-cell slice so the
pool can actually reach the 1,950-unit ideal -- with cache-file loads
or coarse slices, fixed costs of ~2 s per arm swamp the 0.25 s that
separates the 1.45x ceiling from the 1.487x asymptote.

The resident-service scenario (PR 5) starts a live
:class:`~repro.service.daemon.AnnotationDaemon` on a Unix socket and
drives it with N concurrent clients (one same-directory table each),
versus annotating the same tables with N one-shot cold invocations.  The
daemon's responses must be byte-identical to the in-process baseline, the
micro-batcher must genuinely coalesce (coalescing ratio > 1), and warm
resident serving must beat the one-shot loop wall-clock.

The flaky-engine scenario (PR 6) annotates a distinct-content corpus
under deterministic failure injection at rate 0.2, once with the seed's
no-retry behaviour (which abandons roughly 20% of the candidate cells)
and once with retries=2 plus the end-of-corpus repair pass.  Both runs
fail the same first attempts, so the coverage gap is exactly what the
resilience layer recovered: the retrying run must keep >= 95% of the
candidate cells.

The index-backend scenario (PR 8) annotates a distinct-content corpus at
``workers=2`` under the ``spawn`` start method twice: over the in-memory
index backend (each worker unpickles a private copy of the whole
annotator -- postings, pages and all) and over a frozen mmap artifact
built from the same index (workers receive the artifact *path* and map
the same physical file read-only).  Both pools must be byte-identical to
the single-worker in-memory reference; at full scale the mmap pool's
pickled payload and per-worker incremental attach RSS must each be a
small fraction of the in-memory pool's.

The observability scenario (PR 10) times a warm batched workload with
tracing disabled and enabled.  Disabled instrumentation must be free:
the measured per-call cost of the no-op span path, multiplied by the
span count of a traced run, must stay <= 2% of the untraced wall time
(the zero-overhead-when-disabled contract); the tracing-on overhead is
measured and reported alongside it in the JSON artifact.

Set ``REPRO_THROUGHPUT_SMOKE=1`` (CI) to run a single small size with no
artifact writing and no speedup assertions (the workers=2 pool, both
schedulers, the splitting arm, the shared cache directory, the live
daemon, the flaky engine and both index backends are still exercised,
and parity/coverage-ordering still asserted).  Set
``REPRO_INDEX_BACKEND=mmap`` to run every *other* scenario over the
frozen mmap backend too -- their parity flags then double as an
end-to-end backend check at every granularity.
"""

import json
import os

from repro.eval import experiments

SMOKE = os.environ.get("REPRO_THROUGHPUT_SMOKE") == "1"
SIZES = (100,) if SMOKE else (100, 500, 1000, 2000)
CORPUS_SHAPE = (5, 20) if SMOKE else (20, 200)  # (tables, rows per table)
PARALLEL_SHAPE = (6, 20) if SMOKE else (20, 100)  # (tables, rows per table)
PARALLEL_LATENCY = 0.001 if SMOKE else 0.008  # real seconds per request
WORKERS = 2
SKEW_SHAPE = (40, 5, 8) if SMOKE else (2000, 19, 100)
"""(giant table rows, small table count, small table rows)."""
SKEW_LATENCY = 0.001 if SMOKE else 0.008  # real seconds per request
SKEW_SLICE_COST = 10 if SMOKE else 50
"""Per-slice cell budget for the splitting arm (``--max-slice-cost``).

At full scale 50 divides the giant table's 2,000 rows, the small tables'
100 rows and the per-worker ideal of 1,950 latency units exactly, so the
queue becomes 78 uniform slice tasks and both workers converge on the
1,950-unit ideal; a coarser budget leaves a runt slice plus 400-cell
small chunks whose granularity strands ~100+ units on one worker."""
SERVICE_SHAPE = (4, 10) if SMOKE else (8, 60)  # (clients, rows per table)
FLAKY_SHAPE = (4, 15) if SMOKE else (8, 50)  # (tables, rows per table)
FLAKY_FAILURE_RATE = 0.2
FLAKY_RETRIES = 2
MMAP_SHAPE = (4, 10) if SMOKE else (6, 50)  # (tables, rows per table)
INDEX_BACKEND = os.environ.get("REPRO_INDEX_BACKEND", "memory")
"""Index backend the non-mmap scenarios run over (``REPRO_INDEX_BACKEND``,
CI sets ``mmap``); the index-backend scenario always measures both."""
SERVICE_WINDOW_MS = 250.0
"""Micro-batching window: generous enough that concurrently-released
clients always share a tick (the batch closes early once all have
arrived, so the window is not a latency floor)."""

MIN_STEADY_SPEEDUP = 5.0
"""Required steady-state speedup on the 500-row table (the ISSUE target)."""

MIN_CORPUS_SPEEDUP = 2.0
"""Required warm corpus-at-a-time speedup over warm per-table batching."""

MIN_PARALLEL_SPEEDUP = 1.5
"""Required workers=2 wall-clock gain over workers=1 (latency regime)."""

MIN_SKEW_SPEEDUP = 1.2
"""Required work-stealing wall-clock gain over static shards on the
skewed corpus (the theoretical ceiling at this shape is ~1.45x: static
costs giant+9 small = 2,900 latency units on one worker versus ~2,000
for the stealing queue's busiest worker)."""

MIN_SPLIT_SPEEDUP = 1.46
"""Required splitting-arm wall-clock gain over static shards on the
skewed corpus (the ISSUE 7 acceptance bar): above table-atomic
stealing's 1.45x ceiling, below the splitting asymptote of 1.487x --
only reachable by actually cutting the giant table into slices."""

MIN_SERVICE_SPEEDUP = 1.5
"""Required resident-service wall-clock gain over N one-shot cold
invocations (the daemon coalesces N same-directory tables into pooled
passes over one warm engine, so each distinct string is searched and
classified once instead of once per invocation)."""

MIN_FLAKY_COVERAGE = 0.95
"""Required candidate-cell coverage of the retrying annotator at
failure rate 0.2 (the ISSUE 6 acceptance criterion; the no-retry
baseline loses ~20% of the cells on the same failure draws)."""

MAX_MMAP_PAYLOAD_FRACTION = 0.5
"""Required bound on the mmap pool's pickled payload relative to the
in-memory pool's (the ISSUE 8 acceptance criterion: the frozen backend
ships a path, not the postings; in practice the ratio is < 0.01 -- the
bound is generous because the payload also carries the classifier,
which both backends pay alike on a small training set)."""

MAX_MMAP_ATTACH_RSS_FRACTION = 0.5
"""Required bound on per-worker incremental attach RSS, mmap over
in-memory: a spawn worker on the in-memory backend unpickles a private
postings + page store, one on the frozen artifact only maps it."""

MAX_TRACING_OFF_OVERHEAD = 0.02
"""Required bound on the disabled instrumentation's cost: per-call no-op
span cost x spans a traced run records, as a fraction of the untraced
wall time (the PR 10 zero-overhead-when-disabled acceptance criterion;
in practice the ratio is < 0.001)."""

OBS_ROUNDS = 3 if SMOKE else 7
OBS_SHAPE = (6, 5)  # (tables, rows per table)


def test_bench_throughput(benchmark, full_context, artifact_dir, save_artifact):
    result = benchmark.pedantic(
        experiments.run_throughput,
        args=(full_context,),
        kwargs={
            "sizes": SIZES,
            "corpus_tables": CORPUS_SHAPE[0],
            "corpus_rows": CORPUS_SHAPE[1],
            "workers": WORKERS,
            "parallel_tables": PARALLEL_SHAPE[0],
            "parallel_rows": PARALLEL_SHAPE[1],
            "parallel_latency_seconds": PARALLEL_LATENCY,
            "skew_giant_rows": SKEW_SHAPE[0],
            "skew_small_tables": SKEW_SHAPE[1],
            "skew_small_rows": SKEW_SHAPE[2],
            "skew_latency_seconds": SKEW_LATENCY,
            "max_slice_cost": SKEW_SLICE_COST,
            "service_clients": SERVICE_SHAPE[0],
            "service_rows": SERVICE_SHAPE[1],
            "service_window_ms": SERVICE_WINDOW_MS,
            "flaky_tables": FLAKY_SHAPE[0],
            "flaky_rows": FLAKY_SHAPE[1],
            "flaky_failure_rate": FLAKY_FAILURE_RATE,
            "retries": FLAKY_RETRIES,
            "index_backend": INDEX_BACKEND,
            "mmap_tables": MMAP_SHAPE[0],
            "mmap_rows": MMAP_SHAPE[1],
        },
        rounds=1,
        iterations=1,
    )

    # Correctness first: the batch path must reproduce the per-cell path's
    # annotations exactly, at every size, in smoke mode too -- the corpus
    # scenario's three runs (cold, warm per-table, warm corpus) must agree
    # on every annotation -- the multi-worker run must agree with the
    # single-worker (and seed) runs over the shared cache directory --
    # and the skewed corpus must come back identical under workers=1,
    # static shards and the work-stealing queue alike.
    assert all(row.identical for row in result.rows)
    assert result.corpus is not None
    assert result.corpus.identical
    assert result.corpus.caches_loaded
    assert result.parallel is not None
    assert result.parallel.identical
    assert result.parallel.workers == WORKERS
    assert result.skewed is not None
    assert result.skewed.identical
    assert result.skewed.workers == WORKERS
    # The chunker split the skewed corpus finer than one task per worker
    # (otherwise there is nothing to steal).
    assert result.skewed.stealing_tasks > WORKERS
    # The splitting arm genuinely cut the giant table into row-range
    # slices -- more tasks than the table-atomic stealing queue -- and
    # (asserted via `identical` above) reassembled them byte-identically
    # to the workers=1 run.
    assert result.skewed.tables_split >= 1
    assert result.skewed.splitting_tasks > result.skewed.stealing_tasks
    assert result.skewed.effective_chunk_cost > 0
    # The live daemon answered every concurrent client with exactly the
    # annotations the in-process one-shot baseline produced.
    assert result.service is not None
    assert result.service.identical
    assert result.service.requests == SERVICE_SHAPE[0]
    # Flaky engine: both runs saw the same first-attempt failure draws,
    # so retries can only help -- and must have actually retried.
    assert result.flaky is not None
    assert result.flaky.resilient_coverage >= result.flaky.baseline_coverage
    assert result.flaky.search_retries > 0
    # Index backends: both spawn pools -- annotator pickled per worker
    # vs frozen mmap artifact shared by path -- must reproduce the
    # single-worker in-memory reference byte for byte, and the frozen
    # artifact must genuinely exist and ship a smaller payload even at
    # smoke scale (a path pickles smaller than a postings store at any
    # corpus size).
    assert result.mmap is not None
    assert result.mmap.identical
    assert result.mmap.workers == WORKERS
    assert result.mmap.artifact_bytes > 0
    assert result.mmap.mmap_payload_bytes < result.mmap.memory_payload_bytes

    if SMOKE:
        return

    save_artifact("throughput", result.render())
    payload = result.to_json()
    (artifact_dir / "BENCH_throughput.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    # The headline claim: >= 5x steady-state wall-clock speedup on the
    # 500-row efficiency table versus the seed per-cell loop.
    assert result.speedup_at(500) >= MIN_STEADY_SPEEDUP

    # At every size the batch path must at least not collapse versus the
    # per-cell loop (generous margin: small sizes never reach steady state
    # within the stream, and wall-clock is noisy).
    for row in result.rows:
        assert row.batch_steady_seconds <= 1.5 * row.per_cell_seconds

    # Corpus-at-a-time: >= 2x over per-table batching on the 20-table
    # same-directory corpus (both warm-started from persisted caches, so
    # only the corpus-level structure differs), and the persisted-cache
    # warm start must beat the cold start outright.
    assert result.corpus.corpus_speedup >= MIN_CORPUS_SPEEDUP
    assert result.corpus.corpus_seconds < result.corpus.cold_seconds

    # Multi-worker: >= 1.5x wall-clock over single-worker on the 20-table
    # distinct-content corpus under real per-request latency -- workers
    # overlap the remote waits the paper's cost model is dominated by,
    # so the gain holds on any core count.
    assert result.parallel.speedup >= MIN_PARALLEL_SPEEDUP

    # Skewed corpus: the work-stealing queue must beat static contiguous
    # sharding wall-clock (the ISSUE 4 acceptance criterion) and keep the
    # pool measurably better balanced.
    assert result.skewed.speedup_vs_static >= MIN_SKEW_SPEEDUP
    assert result.skewed.stealing_seconds < result.skewed.static_seconds
    assert result.skewed.stealing_imbalance <= result.skewed.static_imbalance

    # Row-range splitting: past the table-atomic ceiling (the ISSUE 7
    # acceptance criterion) -- the splitting arm must beat static shards
    # by more than atomic stealing ever could at this shape, beat the
    # atomic stealing arm outright, and keep the pool at least as
    # balanced as it.
    assert result.skewed.splitting_speedup_vs_static >= MIN_SPLIT_SPEEDUP
    assert result.skewed.splitting_seconds < result.skewed.stealing_seconds
    assert (
        result.skewed.splitting_imbalance
        <= result.skewed.stealing_imbalance * 1.05
    )

    # Resident service: warm micro-batched serving must beat N one-shot
    # cold invocations (the ISSUE 5 acceptance criterion), and the
    # admission layer must have genuinely coalesced concurrent requests
    # into shared corpus passes.
    assert result.service.speedup >= MIN_SERVICE_SPEEDUP
    assert result.service.coalescing_ratio > 1.0

    # Flaky engine: at failure rate 0.2 the retrying annotator recovers
    # near-full coverage (the ISSUE 6 acceptance criterion) while the
    # no-retry baseline demonstrably lost cells on the same draws.
    assert result.flaky.resilient_coverage >= MIN_FLAKY_COVERAGE
    assert result.flaky.baseline_coverage < result.flaky.resilient_coverage
    assert result.flaky.baseline_degraded > 0

    # Index backends: at full scale the frozen artifact's shipping bill
    # must be a small fraction of the in-memory pool's on both axes that
    # matter for N-worker deployments (the ISSUE 8 acceptance criterion)
    # -- bytes pickled to each spawn worker, and RSS each worker grows
    # while becoming ready.
    assert result.mmap.payload_fraction <= MAX_MMAP_PAYLOAD_FRACTION
    assert result.mmap.attach_rss_fraction <= MAX_MMAP_ATTACH_RSS_FRACTION


def test_bench_observability(artifact_dir):
    """Disabled tracing must be free; enabled tracing's cost is reported.

    Self-contained workload (no paper-scale context needed): a warm
    batched annotator over a small synthetic directory, timed at steady
    state with tracing off and on.  The off/on runs must also agree on
    every annotation -- spans only observe.
    """
    import random
    import time

    from repro.classify.dataset import TextDataset
    from repro.classify.snippet import SnippetTypeClassifier
    from repro.clock import VirtualClock
    from repro.core.annotation import SnippetCache
    from repro.core.annotator import EntityAnnotator
    from repro.core.config import AnnotatorConfig
    from repro.observability import metrics as obs_metrics
    from repro.observability import tracing
    from repro.observability.tracing import span
    from repro.tables.model import Column, ColumnType, Table
    from repro.web.documents import WebPage
    from repro.web.search import SearchEngine

    words = "exhibit gallery paintings curator collection museum".split()
    names = [f"Venue {i}" for i in range(24)]
    rng = random.Random(0)
    engine = SearchEngine(clock=VirtualClock())
    engine.add_pages(
        [
            WebPage(
                url=f"https://x/{name.replace(' ', '-').lower()}-{i}",
                title=name,
                body=f"{name.lower()} " + " ".join(rng.choices(words, k=30)),
            )
            for name in names
            for i in range(4)
        ]
    )
    dataset = TextDataset()
    train_rng = random.Random(1)
    for _ in range(60):
        dataset.add(" ".join(train_rng.choices(words, k=12)), "museum")
        dataset.add("menu chef cuisine dining wine", "restaurant")
    classifier = SnippetTypeClassifier(backend="svm", min_count=1).fit(dataset)
    annotator = EntityAnnotator(
        classifier, engine, AnnotatorConfig(), cache=SnippetCache()
    )
    n_tables, n_rows = OBS_SHAPE
    tables = []
    for index in range(n_tables):
        table = Table(
            name=f"t{index}", columns=[Column("Name", ColumnType.TEXT)]
        )
        for row in range(n_rows):
            table.append_row([names[(index * n_rows + row) % len(names)]])
        tables.append(table)
    type_keys = ["museum", "restaurant"]

    tracing.reset_tracing()
    obs_metrics.reset_registry()
    try:
        reference = annotator.annotate_batch(tables, type_keys)  # warm-up

        def timed_rounds():
            best = float("inf")
            result = None
            for _ in range(OBS_ROUNDS):
                t0 = time.perf_counter()
                result = annotator.annotate_batch(tables, type_keys)
                best = min(best, time.perf_counter() - t0)
            return best, result

        off_seconds, off_result = timed_rounds()
        assert off_result.annotations == reference.annotations

        tracing.enable_tracing()
        tracing.get_buffer().clear()
        annotator.annotate_batch(tables, type_keys)
        spans_per_run = len(tracing.get_buffer().drain())
        assert spans_per_run > 0
        on_seconds, on_result = timed_rounds()
        assert on_result.annotations == reference.annotations

        # The disabled path: one boolean check + a shared no-op object.
        tracing.disable_tracing()
        iterations = 200_000
        t0 = time.perf_counter()
        for _ in range(iterations):
            with span("bench.noop", tag=1):
                pass
        noop_seconds = (time.perf_counter() - t0) / iterations
    finally:
        tracing.reset_tracing()
        obs_metrics.reset_registry()

    overhead_off = spans_per_run * noop_seconds / off_seconds
    overhead_on = on_seconds / off_seconds - 1.0
    assert overhead_off <= MAX_TRACING_OFF_OVERHEAD, (
        f"disabled spans cost {overhead_off:.4%} of the untraced run "
        f"({spans_per_run} spans x {noop_seconds * 1e9:.0f} ns)"
    )

    if SMOKE:
        return
    artifact = artifact_dir / "BENCH_throughput.json"
    payload = json.loads(artifact.read_text()) if artifact.exists() else {}
    payload["observability"] = {
        "spans_per_run": spans_per_run,
        "noop_span_seconds": noop_seconds,
        "untraced_seconds": off_seconds,
        "traced_seconds": on_seconds,
        "tracing_off_overhead": overhead_off,
        "tracing_on_overhead": overhead_on,
    }
    artifact.write_text(json.dumps(payload, indent=2) + "\n")
