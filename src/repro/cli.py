"""Command-line entry point: regenerate any paper artefact, or serve.

Usage::

    python -m repro.cli table1            # Table 1
    python -m repro.cli table2 table3     # several at once
    python -m repro.cli all               # everything
    python -m repro.cli table1 --small    # fast, reduced-scale world
    python -m repro.cli table1 --small --cache-dir .repro-cache

    # frozen mmap index artifacts (shared zero-copy across processes)
    python -m repro.cli index build --small --out .repro-cache/index.reproidx
    python -m repro.cli table1 --small \\
        --index-backend mmap --index-artifact .repro-cache/index.reproidx

    # the resident annotation service
    python -m repro.cli serve --socket /tmp/repro.sock --small \\
        --cache-dir .repro-cache --workers 2
    python -m repro.cli client ping --socket /tmp/repro.sock
    python -m repro.cli client annotate --socket /tmp/repro.sock \\
        --table my_table.json --types museum,restaurant
    python -m repro.cli client annotate --socket /tmp/repro.sock \\
        --cells "Louvre,Old Mill" --types museum,restaurant
    python -m repro.cli client metrics --socket /tmp/repro.sock
    python -m repro.cli client shutdown --socket /tmp/repro.sock

    # end-to-end tracing (see docs/architecture.md, "Observability")
    python -m repro.cli table1 --small --trace --trace-out run.jsonl
    python -m repro.cli trace summarize --in run.jsonl

The first experiment of a session pays for world construction and
classifier training; subsequent experiments reuse the cached context.
``--cache-dir`` makes the search engine's ranking caches durable: the
``search_results.cache`` file in that directory is loaded before the
experiments run and saved back after, so a *second* invocation over the
same world skips the ranking/snippet cold start (the cache is
fingerprinted and ignored whenever the world differs).  It is one of the
two versioned pickled files of :mod:`repro.persistence` -- the other is
the label memo, ``label_memo.cache`` -- the only on-disk cache format.
Saves are merge-on-save under an advisory lock, so concurrent
invocations sharing a cache directory never lose entries.

``--index-backend memory|mmap`` picks where the frozen index's arrays
live (:mod:`repro.web.backends`).  ``mmap`` swaps the engine onto the
same layout mapped from an on-disk artifact -- written on demand, or
reused from ``--index-artifact`` / ``<cache-dir>/index.reproidx`` when
its fingerprint still matches the world -- so every worker process and
daemon on the host shares one physical copy of the postings through the
OS page cache instead of pickling or duplicating the index per process.
``index build`` writes that artifact explicitly (same
``--small``/``--seed`` world knobs), so fleets can write it once up
front.

``serve`` keeps the warm engine resident: one process pays the cold start,
then any number of ``client`` invocations (or :class:`ServiceClient`
users) annotate against it.  The daemon answers a lone request at once;
requests that queue while a pass runs (up to ``--max-batch-tables``)
share the next pooled corpus pass; ``--workers N`` runs each pass on a
pool of ``N`` worker processes, and ``--retries``, ``--retry-backoff-ms`` and
``--breaker-threshold`` arm the resilience layer at the search boundary
(bounded retries with deterministic backoff, a consecutive-failure
circuit breaker; both default off).  A ``Ctrl-C``/``SIGTERM`` anywhere --
serving, or mid-experiment -- flushes the accumulated cache warmth
before exiting with code 130.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path
from typing import Callable

from repro.core.annotator import ENGINE_CACHE_FILE
from repro.core.config import INDEX_BACKENDS
from repro.eval import ablation, experiments, extensions
from repro.observability.tracing import span
from repro.synth.world import WorldConfig

SIGINT_EXIT_CODE = 130
"""Conventional 128+SIGINT exit status for interrupted invocations."""

_EXPERIMENTS: dict[str, Callable] = {
    "table1": experiments.run_table1,
    "table2": experiments.run_table2,
    "table3": experiments.run_table3,
    "comparison": experiments.run_comparison,
    "efficiency": experiments.run_efficiency,
    "coverage": experiments.run_coverage,
    "figure6": experiments.run_figure6,
    "figure7": experiments.run_figure7,
    "ablation-repetition": ablation.run_repetition_ablation,
    "ablation-topk": ablation.run_topk_ablation,
    "hybrid": extensions.run_hybrid,
    "clustering": extensions.run_clustering,
    "giuliano": extensions.run_giuliano,
}


def main(argv: list[str] | None = None) -> int:
    """Run the requested experiments (or the service subcommands)."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "client":
        return _client_main(argv[1:])
    if argv and argv[0] == "index":
        return _index_main(argv[1:])
    if argv and argv[0] == "trace":
        return _trace_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=[*_EXPERIMENTS, "all"],
        help="which artefacts to regenerate",
    )
    parser.add_argument(
        "--small",
        action="store_true",
        help="use the reduced-scale world (fast; for smoke-testing)",
    )
    parser.add_argument(
        "--seed", type=int, default=13, help="world seed (default 13)"
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help=(
            "directory for persistable engine caches; loaded before the "
            "experiments and saved back after, so a second invocation "
            "starts warm (safe to share between concurrent invocations: "
            "saves are merge-on-save under an advisory lock)"
        ),
    )
    _add_index_backend_arguments(parser)
    _add_trace_arguments(parser)
    args = parser.parse_args(argv)
    names = list(_EXPERIMENTS) if "all" in args.experiments else args.experiments
    config = (
        WorldConfig.small(seed=args.seed)
        if args.small
        else WorldConfig(seed=args.seed)
    )
    tracing_on = args.trace or args.trace_out is not None
    if tracing_on:
        from repro.observability import tracing

        trace_id = tracing.enable_tracing()
        print(f"[tracing enabled: trace {trace_id}]", file=sys.stderr)
    start = time.time()
    context = experiments.build_context(config)
    if tracing_on:
        # Spans record virtual time alongside wall time from here on.
        tracing.set_clock(context.world.clock)
    print(
        f"[context ready in {time.time() - start:.1f}s: "
        f"{context.world.page_count} pages, "
        f"{len(context.gft.tables)} GFT tables, "
        f"{len(context.wiki.tables)} wiki tables]\n",
        file=sys.stderr,
    )
    artifact_path = _apply_index_backend(
        context.world.search_engine,
        args.index_backend,
        args.index_artifact,
        args.cache_dir,
    )
    if artifact_path is not None:
        print(
            f"[index backend mmap: serving from {artifact_path}]\n",
            file=sys.stderr,
        )
    engine_cache = None
    if args.cache_dir is not None:
        engine_cache = args.cache_dir / ENGINE_CACHE_FILE
        loaded = context.world.search_engine.load_results_cache(engine_cache)
        print(
            f"[engine cache {'warm from' if loaded else 'cold; will save to'} "
            f"{engine_cache}]\n",
            file=sys.stderr,
        )
    interrupted = False
    try:
        for name in names:
            start = time.time()
            runner = _EXPERIMENTS[name]
            with span("cli.experiment", experiment=name):
                result = runner(context)
            print(result.render())
            print(f"[{name} in {time.time() - start:.1f}s]\n", file=sys.stderr)
    except KeyboardInterrupt:
        # Graceful interruption: flush whatever warmth this process
        # accumulated, then report 130.
        interrupted = True
        print("\n[interrupted; flushing caches]", file=sys.stderr)
    if engine_cache is not None:
        context.world.search_engine.save_results_cache(engine_cache)
        print(f"[engine cache saved to {engine_cache}]", file=sys.stderr)
    if tracing_on:
        spans = tracing.get_buffer().snapshot()
        if args.trace_out is not None:
            count = tracing.get_buffer().export_jsonl(str(args.trace_out))
            print(
                f"[trace {trace_id}: {count} span(s) written to "
                f"{args.trace_out}]",
                file=sys.stderr,
            )
        print(
            _render_trace_table(tracing.summarize(spans)), file=sys.stderr
        )
    return SIGINT_EXIT_CODE if interrupted else 0


def _add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    """The search-boundary resilience knobs of ``serve``."""
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help=(
            "extra search attempts per dropped request (default 0: one "
            "attempt, seed behaviour); with retries the annotator backs "
            "off exponentially on the virtual clock, marks exhausted "
            "cells degraded, and repairs them in an end-of-corpus pass"
        ),
    )
    parser.add_argument(
        "--retry-backoff-ms",
        type=float,
        default=200.0,
        help=(
            "base backoff before the first retry, in virtual "
            "milliseconds; doubles per subsequent retry (default 200)"
        ),
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=0,
        help=(
            "consecutive search failures that open the circuit breaker "
            "(fail fast until a cooldown probe succeeds); 0 (default) "
            "disables the breaker"
        ),
    )


def _add_index_backend_arguments(parser: argparse.ArgumentParser) -> None:
    """The index storage-backend knobs, shared by experiments and serve."""
    parser.add_argument(
        "--index-backend",
        choices=list(INDEX_BACKENDS),
        default="memory",
        help=(
            "where the frozen index's arrays live: 'memory' (default) "
            "keeps them on this process's heap; 'mmap' maps the same "
            "layout from an on-disk artifact that every worker process "
            "and daemon on this host shares zero-copy through the OS "
            "page cache"
        ),
    )
    parser.add_argument(
        "--index-artifact",
        type=Path,
        default=None,
        help=(
            "artifact path for --index-backend mmap (default: "
            "<cache-dir>/index.reproidx, or a temporary directory); an "
            "existing artifact is reused when its fingerprint matches "
            "the world, rebuilt otherwise -- see 'index build'"
        ),
    )


def _add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    """The tracing knobs, shared by experiments and serve."""
    parser.add_argument(
        "--trace",
        action="store_true",
        help=(
            "record staged spans for this run (a fresh trace id is "
            "minted and propagated through pool workers); a per-stage "
            "breakdown is printed to stderr at the end"
        ),
    )
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        help=(
            "write the recorded spans to this JSONL file (implies "
            "--trace; summarise it later with 'trace summarize')"
        ),
    )


def _render_trace_table(rows) -> str:
    """Fixed-width per-stage breakdown of :func:`tracing.summarize` rows."""
    header = (
        f"{'stage':<34} {'count':>7} {'wall s':>10} {'mean ms':>9} "
        f"{'virt s':>9} {'err':>4} {'abrt':>4}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['name']:<34} {row['count']:>7} "
            f"{row['wall_seconds']:>10.3f} "
            f"{row['mean_seconds'] * 1000.0:>9.2f} "
            f"{row['virtual_seconds']:>9.2f} "
            f"{row['errors']:>4} {row['aborted']:>4}"
        )
    total_wall = sum(row["wall_seconds"] for row in rows)
    total_count = sum(row["count"] for row in rows)
    lines.append(
        f"{'total':<34} {total_count:>7} {total_wall:>10.3f}"
    )
    return "\n".join(lines)


# -- trace summaries --------------------------------------------------------------------


def _trace_main(argv: list[str]) -> int:
    """``repro.cli trace``: summarise an exported span JSONL file."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments trace",
        description=(
            "Summarise a span export (--trace-out of an experiment run, "
            "or TraceBuffer.export_jsonl) into a per-stage breakdown."
        ),
    )
    parser.add_argument(
        "action", choices=["summarize"], help="what to do with the trace"
    )
    parser.add_argument(
        "--in",
        dest="path",
        required=True,
        type=Path,
        help="span JSONL file to read",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the breakdown as JSON instead of a table",
    )
    args = parser.parse_args(argv)
    from repro.observability import tracing

    try:
        text = args.path.read_text(encoding="utf-8")
    except OSError as error:
        print(f"error: cannot read {args.path}: {error}", file=sys.stderr)
        return 1
    spans = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            spans.append(json.loads(line))
    rows = tracing.summarize(spans)
    trace_ids = sorted(
        {record["trace_id"] for record in spans if record.get("trace_id")}
    )
    if args.json:
        print(
            json.dumps(
                {"traces": trace_ids, "n_spans": len(spans), "stages": rows},
                indent=2,
            )
        )
        return 0
    label = ", ".join(trace_ids) if trace_ids else "none"
    print(f"[{len(spans)} span(s) across trace(s): {label}]")
    print(_render_trace_table(rows))
    return 0


def _apply_index_backend(
    engine, index_backend: str, index_artifact, cache_dir
) -> Path | None:
    """Swap *engine* onto the frozen mmap backend when requested.

    Returns the artifact path in use, or ``None`` under the memory
    backend.  The artifact is built from the engine's current corpus
    unless a fresh one (matching fingerprint) already exists at the
    resolved path.
    """
    if index_backend != "mmap":
        return None
    from repro.web.backends import ensure_index_artifact

    if index_artifact is not None:
        path = Path(index_artifact)
    elif cache_dir is not None:
        path = Path(cache_dir) / "index.reproidx"
    else:
        import tempfile

        path = Path(tempfile.mkdtemp(prefix="repro-index-")) / "index.reproidx"
    engine.use_index_backend(ensure_index_artifact(engine.index, path))
    return path


# -- index artifacts --------------------------------------------------------------------


def _index_main(argv: list[str]) -> int:
    """``repro.cli index``: build the frozen mmap index artifact."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments index",
        description=(
            "Save the world's frozen index as an artifact that any "
            "number of processes map read-only (used by "
            "--index-backend mmap)."
        ),
    )
    parser.add_argument(
        "action", choices=["build"], help="what to do with the artifact"
    )
    parser.add_argument(
        "--out",
        required=True,
        type=Path,
        help="artifact file to write (conventionally *.reproidx)",
    )
    parser.add_argument(
        "--small",
        action="store_true",
        help="use the reduced-scale world (fast; for smoke-testing)",
    )
    parser.add_argument(
        "--seed", type=int, default=13, help="world seed (default 13)"
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="rebuild even when the existing artifact's fingerprint matches",
    )
    args = parser.parse_args(argv)
    from repro.web.backends import ensure_index_artifact

    config = (
        WorldConfig.small(seed=args.seed)
        if args.small
        else WorldConfig(seed=args.seed)
    )
    start = time.time()
    context = experiments.build_context(config)
    index = context.world.search_engine.index
    print(
        f"[context ready in {time.time() - start:.1f}s: "
        f"{context.world.page_count} pages]",
        file=sys.stderr,
    )
    start = time.time()
    if args.force:
        index.save(args.out)
    else:
        ensure_index_artifact(index, args.out)
    print(
        f"[index artifact at {args.out}: {index.n_documents} pages, "
        f"{index.vocabulary_size()} tokens, "
        f"{args.out.stat().st_size} bytes, {time.time() - start:.1f}s]"
    )
    return 0


# -- the resident service ---------------------------------------------------------------


def _serve_main(argv: list[str]) -> int:
    """``repro.cli serve``: hold one warm annotator behind a local socket."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments serve",
        description=(
            "Start the resident annotation daemon: one warm engine + "
            "classifier behind a Unix socket; requests that queue while a "
            "pass runs share the next pooled corpus pass."
        ),
    )
    parser.add_argument(
        "--socket", required=True, type=Path, help="Unix socket path to listen on"
    )
    parser.add_argument(
        "--small",
        action="store_true",
        help="use the reduced-scale world (fast startup; for smoke-testing)",
    )
    parser.add_argument(
        "--seed", type=int, default=13, help="world seed (default 13)"
    )
    parser.add_argument(
        "--backend",
        choices=["svm", "bayes"],
        default="svm",
        help="snippet classifier backend to serve with (default svm)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help=(
            "warm-start from and flush back into this engine-cache "
            "directory (merge-on-save under an advisory lock, so sharing "
            "it with concurrent CLI runs is safe)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "worker processes per pooled pass (default 1: in-process; "
            "only large batches benefit from a pool)"
        ),
    )
    parser.add_argument(
        "--max-batch-tables",
        type=int,
        default=32,
        help="most requests pooled into one pass (default 32)",
    )
    parser.add_argument(
        "--flush-interval",
        type=float,
        default=0.0,
        help=(
            "seconds between periodic cache flushes while serving "
            "(default 0: flush only on shutdown; needs --cache-dir)"
        ),
    )
    _add_resilience_arguments(parser)
    _add_index_backend_arguments(parser)
    _add_trace_arguments(parser)
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if args.trace or args.trace_out is not None:
        from repro.observability import tracing

        trace_id = tracing.enable_tracing()
        print(f"[tracing enabled: trace {trace_id}]", file=sys.stderr)
    from repro.service.daemon import AnnotationDaemon, ServiceConfig

    try:
        service_config = ServiceConfig(
            max_batch_tables=args.max_batch_tables,
            workers=args.workers,
            cache_dir=str(args.cache_dir) if args.cache_dir else None,
            flush_interval_seconds=args.flush_interval,
        )
    except ValueError as error:
        parser.error(str(error))

    from repro.core.annotation import SnippetCache
    from repro.core.annotator import EntityAnnotator
    from repro.core.config import AnnotatorConfig

    config = (
        WorldConfig.small(seed=args.seed)
        if args.small
        else WorldConfig(seed=args.seed)
    )
    try:
        annotator_config = AnnotatorConfig(
            retries=args.retries,
            retry_backoff_ms=args.retry_backoff_ms,
            breaker_threshold=args.breaker_threshold,
        )
    except ValueError as error:
        parser.error(str(error))
    start = time.time()
    context = experiments.build_context(config)
    if args.trace or args.trace_out is not None:
        tracing.set_clock(context.world.clock)
    artifact_path = _apply_index_backend(
        context.world.search_engine,
        args.index_backend,
        args.index_artifact,
        args.cache_dir,
    )
    if artifact_path is not None:
        print(
            f"[index backend mmap: serving from {artifact_path}]",
            file=sys.stderr,
        )
    annotator = EntityAnnotator(
        context.classifiers[args.backend],
        context.world.search_engine,
        config=annotator_config,
        cache=SnippetCache(),
    )
    daemon = AnnotationDaemon(annotator, args.socket, service_config)
    print(
        f"[context ready in {time.time() - start:.1f}s; serving "
        f"{len(experiments.ALL_TYPE_KEYS)} types on {args.socket} "
        f"(pid {os.getpid()})]",
        file=sys.stderr,
    )
    # SIGTERM takes the same graceful path as Ctrl-C: drain, flush, 130.
    signal.signal(signal.SIGTERM, _raise_keyboard_interrupt)
    exit_code = 0
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        print("\n[interrupted; flushing caches]", file=sys.stderr)
        daemon.service.stop()
        exit_code = SIGINT_EXIT_CODE
    else:
        print("[daemon stopped]", file=sys.stderr)
    if args.trace_out is not None:
        count = tracing.get_buffer().export_jsonl(str(args.trace_out))
        print(
            f"[trace {trace_id}: {count} span(s) written to "
            f"{args.trace_out}]",
            file=sys.stderr,
        )
    return exit_code


def _raise_keyboard_interrupt(signum, frame):  # pragma: no cover - signal path
    raise KeyboardInterrupt


def _client_main(argv: list[str]) -> int:
    """``repro.cli client``: one-shot requests against a running daemon."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments client",
        description="Talk to a running resident annotation daemon.",
    )
    parser.add_argument(
        "command",
        choices=["ping", "stats", "metrics", "annotate", "shutdown"],
        help="what to ask the daemon",
    )
    parser.add_argument(
        "--socket", required=True, type=Path, help="the daemon's Unix socket"
    )
    parser.add_argument(
        "--table",
        type=Path,
        default=None,
        help="table file to annotate (.json or .csv, the repro.tables.io layouts)",
    )
    parser.add_argument(
        "--cells",
        default=None,
        help="comma-separated cell values to annotate (instead of --table)",
    )
    parser.add_argument(
        "--types",
        default=None,
        help="comma-separated type keys to annotate against",
    )
    args = parser.parse_args(argv)
    # Validate the annotate arguments (and read the table file) before
    # touching the socket, so usage errors never depend on a live daemon.
    table = values = type_keys = None
    if args.command == "annotate":
        if not args.types:
            parser.error("annotate needs --types (comma-separated type keys)")
        type_keys = [key.strip() for key in args.types.split(",") if key.strip()]
        if (args.table is None) == (args.cells is None):
            parser.error("annotate needs exactly one of --table or --cells")
        if args.table is not None:
            from repro.tables.io import table_from_csv, table_from_json

            text = args.table.read_text(encoding="utf-8")
            if args.table.suffix.lower() == ".csv":
                table = table_from_csv(text, name=args.table.stem)
            else:
                table = table_from_json(text)
        else:
            values = [
                value.strip() for value in args.cells.split(",") if value.strip()
            ]

    from repro.service import protocol
    from repro.service.client import ServiceClient, ServiceError

    try:
        with ServiceClient(args.socket) as client:
            if args.command == "ping":
                result = client.ping()
            elif args.command == "stats":
                result = client.stats()
            elif args.command == "metrics":
                # Prometheus text exposition: print it raw, not as JSON.
                print(client.metrics(), end="")
                return 0
            elif args.command == "shutdown":
                result = client.shutdown()
            elif table is not None:
                result = protocol.annotation_to_payload(
                    client.annotate_table(table, type_keys)
                )
            else:
                result = {"cells": client.annotate_cells(values, type_keys)}
    except (ConnectionError, FileNotFoundError, OSError) as error:
        print(f"error: cannot reach daemon: {error}", file=sys.stderr)
        return 1
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result, indent=2, ensure_ascii=False))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
