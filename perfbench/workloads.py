"""The three workloads: gft_cold, pool_warm and service_open.

Each ``run_<workload>(plan, seed, seconds, trace)`` returns an
:class:`Outcome`.  An untraced run (``trace=False``) fills every
end-to-end metric, each as ``plan.json`` defines it for the workload; a traced
run fills every per-layer metric, recording spans from this file around
calls into each layer's public methods, with 0 for layers the workload
bypasses.  The program is driven only through ``build_context``,
``EntityAnnotator``, the daemon (``python -m repro.cli serve``, in its
own process) and ``ServiceClient``.

``setup_s`` is CPU seconds, not wall seconds: what the process that sets
up the program computes from its start until the first timed operation
can run (this process for the batch workloads, the daemon up to its
first ``ping`` for service_open).  CPU time leaves out the time a
process waits for a core, which on a shared host follows the load of
other processes rather than the program.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from spans import SpanRecorder
from streams import directory_tables, full_directories, run_step
from repro.core import parallel
from repro.core.annotator import EntityAnnotator
from repro.eval.evaluator import evaluate_annotations
from repro.eval.experiments import ALL_TYPE_KEYS, build_context
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.synth.world import WorldConfig

ROOT = Path(__file__).resolve().parent.parent
TEMP_ROOT = ROOT / ".perfbench-tmp"
TRACE_OUT = ROOT / ".perfbench-out"


@dataclass
class Outcome:
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def mismatch(self, message: str) -> None:
        self.correct = False
        self.notes.append(f"MISMATCH: {message}")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _search_hit_ratio(snippet_hits, results_hits, results_misses) -> float:
    """Share of search lookups served warm.  A lookup tries the annotator's
    shared snippet cache first (the daemon has one), then the engine's
    results cache; only a miss in both computes a ranking."""
    served = snippet_hits + results_hits
    return _ratio(served, served + results_misses)


def _cpu_s() -> float:
    """CPU seconds (user + system) this process has used since it started."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _annotation_bytes(annotation) -> bytes:
    return json.dumps(
        protocol.annotation_to_payload(annotation), sort_keys=True
    ).encode()


def _run_bytes(run, tables) -> bytes:
    """The run's annotations in corpus order, as canonical wire payloads."""
    return b"\n".join(_annotation_bytes(run.table(t.name)) for t in tables)


def _temp_dir() -> str:
    """A fresh temp dir inside the checkout (git-ignored)."""
    TEMP_ROOT.mkdir(exist_ok=True)
    return tempfile.mkdtemp(dir=TEMP_ROOT)


# -- batch workloads --------------------------------------------------------------------


class _Batch:
    """The seeded world's GFT corpus and the pass runner both batch
    workloads share."""

    def __init__(self, seed: int) -> None:
        self.context = build_context(WorldConfig(seed=seed))
        self.tables = self.context.gft.tables
        self.engine = self.context.world.search_engine
        self.classifier = self.context.classifiers["svm"]
        self.reference: bytes = b""
        self.candidate_cells = 0

    def fresh_annotator(self) -> EntityAnnotator:
        """A new annotator over a cold engine (the program's cold-start hook)."""
        gc.collect()
        self.engine.reset_compute_caches()
        return EntityAnnotator(self.classifier, self.engine)

    def timed_pass(self, annotator, **kwargs):
        """``(run, wall_seconds)``; ``run`` is ``None`` when the pass raised."""
        start = time.perf_counter()
        try:
            run = annotator.annotate_tables(self.tables, ALL_TYPE_KEYS, **kwargs)
        except Exception:
            traceback.print_exc()
            return None, time.perf_counter() - start
        return run, time.perf_counter() - start

    def cold_reference(self):
        """gft_cold's exact call on a fresh annotator; its output becomes
        the reference every later pass must reproduce byte for byte."""
        annotator = self.fresh_annotator()
        run, _ = self.timed_pass(annotator)
        if run is None:
            raise RuntimeError("the reference pass raised")
        self.reference = _run_bytes(run, self.tables)
        self.candidate_cells = run.diagnostics.n_cells
        return annotator, run

    def check(self, run, outcome: Outcome) -> None:
        """Count one pass's cells and compare its output to the reference."""
        outcome.attempted += self.candidate_cells
        if run is None:
            outcome.failed += self.candidate_cells
            outcome.mismatch("a pass raised")
            return
        outcome.failed += run.diagnostics.degraded_cells
        if _run_bytes(run, self.tables) != self.reference:
            outcome.mismatch("pass annotations differ from the cold reference")

    def passes(self, outcome, count: int, seconds: float = 0.0, **kwargs):
        """Untraced passes: at least *count*, and until *seconds* elapse."""
        walls, runs = [], []
        deadline = time.perf_counter() + seconds
        while len(walls) < count or time.perf_counter() < deadline:
            run, wall = self.timed_pass(self.fresh_annotator(), **kwargs)
            self.check(run, outcome)
            walls.append(wall)
            runs.append(run)
        outcome.notes.append(f"pass walls (s): {[round(w, 3) for w in walls]}")
        return walls, runs

    def f1(self, run) -> float:
        return evaluate_annotations(
            run, self.context.gft.gold, ALL_TYPE_KEYS
        ).micro_f1()

    def end_to_end(self, outcome, walls, run, setup_s, peak_rss_mb) -> None:
        outcome.metrics.update(
            {
                "setup_s": setup_s,
                "cells_per_s": self.candidate_cells / statistics.median(walls),
                "latency_ms": 1000.0 * statistics.median(walls),
                "annotation_f1": self.f1(run),
                "peak_rss_mb": peak_rss_mb,
                "ok_rate": 1.0 - outcome.failed / outcome.attempted,
            }
        )


def _instrument(recorder: SpanRecorder, batch: _Batch, annotator) -> None:
    """Spans around each layer's public entry point, on these instances."""
    recorder.wrap(annotator, "annotate_tables", "annotator")
    recorder.wrap(parallel, "annotate_tables_parallel", "pool")
    recorder.wrap(annotator, "load_caches", "cache.parent_load")
    recorder.wrap(annotator, "postprocess_table", "postprocess")
    recorder.wrap(annotator.preprocessor, "candidate_cells", "prep")
    recorder.wrap(annotator.cell_annotator, "annotate_values", "annotation")
    recorder.wrap(batch.engine, "search_many", "search")
    recorder.wrap(
        batch.classifier, "classify_many", "classify", count=lambda s, *_: len(s)
    )


def _traced_pass(plan, batch, outcome, workload, seed, untraced_walls, **kwargs):
    """One traced pass; fills every per-layer metric."""
    recorder = SpanRecorder()
    annotator = batch.fresh_annotator()
    _instrument(recorder, batch, annotator)
    try:
        run, wall = batch.timed_pass(annotator, **kwargs)
    finally:
        recorder.unwrap_all()
    batch.check(run, outcome)
    if run is None:
        raise RuntimeError("the traced pass raised")
    d = run.diagnostics
    loads = d.worker_loads
    self_s = recorder.self_times()
    metrics = {name: 0.0 for name in plan["per_layer_names"]}
    metrics.update(
        {
            "search.busy_s": recorder.busy("search"),
            "search.queries": float(d.queries_issued),
            "search.hit_ratio": _search_hit_ratio(
                d.cache_hits, d.results_cache_hits, d.results_cache_misses
            ),
            "classify.busy_s": recorder.busy("classify"),
            "classify.snippets": recorder.counts.get("classify", 0.0),
            "classify.memo_hit_ratio": _ratio(
                d.label_memo_hits, d.label_memo_hits + d.label_memo_misses
            ),
            "annotation.self_s": self_s.get("annotation", 0.0),
            "prep.busy_s": recorder.busy("prep"),
            "postprocess.busy_s": recorder.busy("postprocess"),
            "annotator.self_s": self_s.get("annotator", 0.0),
            "cache.load_bytes": float(d.cache_load_bytes),
            "cache.save_bytes": float(d.cache_save_bytes),
            "cache.lock_wait_s": d.cache_lock_wait_seconds,
            "cache.parent_load_s": recorder.busy("cache.parent_load"),
            "pool.busy_s": sum((load.busy_seconds for load in loads), 0.0),
            "pool.attach_s": max((l.attach_seconds for l in loads), default=0.0),
            "pool.overhead_s": (
                wall - max(load.busy_seconds for load in loads) if loads else 0.0
            ),
            "pool.imbalance": d.imbalance_ratio,
            "pool.tasks": float(sum(load.n_tasks for load in loads)),
            "trace.overhead_ratio": wall / statistics.median(untraced_walls) - 1.0,
            # The root span's own time is whatever no wrapped layer covered,
            # so it is left out: coverage is what the layers account for.
            "trace.coverage": _ratio(
                sum(self_s.values()) - self_s.get("annotator", 0.0), wall
            ),
        }
    )
    outcome.metrics.update(metrics)
    stage = max(self_s, key=self_s.get)
    outcome.notes.append(
        f"largest exclusive stage: {stage} ({self_s[stage]:.3f} s of a "
        f"{wall:.3f} s traced pass; self seconds "
        f"{ {k: round(v, 3) for k, v in sorted(self_s.items())} })"
    )
    TRACE_OUT.mkdir(exist_ok=True)
    recorder.dump(TRACE_OUT / f"trace-{workload}-{seed}.json")


def run_gft_cold(plan, seed, seconds, trace) -> Outcome:
    outcome = Outcome()
    batch = _Batch(seed)
    setup_s = _cpu_s()
    # Warm-up pass: untimed, and the byte-level reference for the rest.
    _, reference_run = batch.cold_reference()
    count = plan["passes"]["gft_cold"]
    if trace:
        walls, _ = batch.passes(outcome, count)
        _traced_pass(plan, batch, outcome, "gft_cold", seed, walls)
        return outcome
    walls, _ = batch.passes(outcome, count, seconds * plan["batch_pass_share"])
    batch.end_to_end(outcome, walls, reference_run, setup_s, _peak_rss_mb())
    return outcome


def run_pool_warm(plan, seed, seconds, trace) -> Outcome:
    outcome = Outcome()
    batch = _Batch(seed)
    cache_dir = _temp_dir()
    try:
        # Seed the cache dir with one cold in-process run, gft_cold's call.
        seeder, cold_run = batch.cold_reference()
        seeder.save_caches(cache_dir)
        setup_s = _cpu_s()
        pool = {"workers": plan["pool_workers"], "cache_dir": cache_dir}
        count = plan["passes"]["pool_warm"]
        if trace:
            walls, _ = batch.passes(outcome, count, **pool)
            _traced_pass(plan, batch, outcome, "pool_warm", seed, walls, **pool)
            return outcome
        walls, runs = batch.passes(
            outcome, count, seconds * plan["batch_pass_share"], **pool
        )
        done = [run for run in runs if run is not None]
        # A pool run sums its workers' peaks with the parent's own peak.
        worker_kb = max(
            sum(load.peak_rss_kb for load in run.diagnostics.worker_loads)
            for run in done
        )
        batch.end_to_end(
            outcome, walls, done[0], setup_s, _peak_rss_mb() + worker_kb / 1024.0
        )
        if outcome.metrics["annotation_f1"] != batch.f1(cold_run):
            outcome.mismatch("pool annotation_f1 differs from the cold run's")
        return outcome
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


# -- service_open -----------------------------------------------------------------------


def _daemon_hwm_mb(pid: int) -> float:
    """The daemon's peak resident set (``VmHWM``) in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def _histogram_mean_ms(after: str, before: str, name: str) -> float:
    """Mean of a Prometheus histogram between two expositions, in ms."""

    def sum_count(exposition: str) -> tuple[float, float]:
        values = {"_sum": 0.0, "_count": 0.0}
        for line in exposition.splitlines():
            for suffix in values:
                key = f"repro_{name}{suffix} "
                if line.startswith(key):
                    values[suffix] = float(line[len(key):])
        return values["_sum"], values["_count"]

    (sum_a, count_a), (sum_b, count_b) = sum_count(after), sum_count(before)
    return 1000.0 * _ratio(sum_a - sum_b, count_a - count_b)


def _wait_for_daemon(socket_path: str, process, timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(f"daemon exited with code {process.returncode}")
        try:
            with ServiceClient(socket_path, timeout=5.0) as client:
                client.ping()
                return
        except OSError:
            time.sleep(0.05)
    raise RuntimeError("daemon did not answer ping in time")


def _protocol_layers(tables, answers, repeats: int) -> dict[str, float]:
    """Encode/decode cost and size of this stream's own messages."""

    def request(index, table):
        return protocol.annotate_table_request(table, ALL_TYPE_KEYS, str(index))

    lines = [
        protocol.encode_response(
            protocol.Response(
                ok=True,
                request_id=str(index),
                result={"annotation": protocol.annotation_to_payload(answer)},
            )
        )
        for index, answer in enumerate(answers)
    ]
    start = time.perf_counter()
    for _ in range(repeats):
        encoded = [protocol.encode_request(request(*item)) for item in enumerate(tables)]
    encode_s = (time.perf_counter() - start) / (repeats * len(tables))
    start = time.perf_counter()
    for _ in range(repeats):
        for line in lines:
            protocol.decode_response(line)
    decode_s = (time.perf_counter() - start) / (repeats * len(lines))
    return {
        "protocol.encode_ms": 1000.0 * encode_s,
        "protocol.decode_ms": 1000.0 * decode_s,
        "protocol.request_kb": sum(map(len, encoded)) / len(encoded) / 1024.0,
        "protocol.response_kb": sum(map(len, lines)) / len(lines) / 1024.0,
    }


def _client_ms(steps) -> float:
    """Mean send-to-answer time of the answered requests, in ms."""
    times = [
        latency - late
        for step in steps
        for latency, late in zip(step.latencies, step.lateness)
        if not math.isinf(latency)
    ]
    return 1000.0 * sum(times) / len(times)


def _start_daemon(socket_path: str, seed: int):
    """The program's own daemon entry point, with its default settings."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--socket", socket_path,
         "--seed", str(seed)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        stdout=subprocess.DEVNULL,  # stdout carries only this run's result
    )


def _process_cpu_s(pid: int) -> float:
    """CPU seconds (user + system) another live process has used."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # utime and stime are fields 14 and 15 of /proc/<pid>/stat.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _stop_daemon(daemon) -> None:
    if daemon.poll() is None:
        daemon.terminate()
        try:
            daemon.wait(timeout=30)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()


def run_service_open(plan, seed, seconds, trace) -> Outcome:
    outcome = Outcome()
    rates = plan["service"]
    work = _temp_dir()
    # A relative socket path stays within the AF_UNIX length limit however
    # deep the checkout lies; both processes run from the checkout root.
    socket_path = os.path.relpath(os.path.join(work, "daemon.sock"), ROOT)
    daemon = _start_daemon(socket_path, seed)
    clients: list[ServiceClient] = []
    try:
        phases = [("start", time.perf_counter())]
        context = build_context(WorldConfig(seed=seed))
        # The generator keeps the world for the reference check; freezing
        # it keeps the generator's own collections short, so its sends
        # stay on schedule (gen.late_ms checks that they do).
        gc.collect()
        gc.freeze()
        _wait_for_daemon(socket_path, daemon, rates["startup_timeout_s"])
        # The program's set-up is the daemon's, up to its first answer; the
        # generator's own world, built meanwhile, is the benchmark's.
        setup_s = _process_cpu_s(daemon.pid)
        phases.append(("setup", time.perf_counter()))
        world = context.world
        fixed_n, size = rates["fixed_requests"], rates["saturation_step_requests"]
        tables, gold = directory_tables(
            world, ALL_TYPE_KEYS, fixed_n + size * rates["saturation_steps"], seed,
            "service",
        )
        connections = min(os.cpu_count() or 1, rates["max_connections"])
        clients = [
            ServiceClient(socket_path, timeout=rates["request_timeout_s"])
            for _ in range(connections)
        ]
        senders = [
            (lambda table, c=c: c.annotate_table(table, ALL_TYPE_KEYS))
            for c in clients
        ]
        admin = clients[0]
        for table in full_directories(world, ALL_TYPE_KEYS, seed):
            admin.annotate_table(table, ALL_TYPE_KEYS)
        warmup, _ = directory_tables(
            world, ALL_TYPE_KEYS, rates["warmup_requests"], seed, "warmup"
        )
        run_step(rates["fixed_rate"], warmup, senders, seed)
        phases.append(("warm-up", time.perf_counter()))

        stats_before, metrics_before = admin.stats(), admin.metrics()
        fixed, answers = run_step(rates["fixed_rate"], tables[:fixed_n], senders, seed)
        outcome.notes.append(
            f"{fixed.rate}/s: p50 {fixed.p50_ms():.1f} ms, p95 {fixed.p95_ms():.1f} ms, "
            f"late p95 {fixed.late_p95_ms():.1f} ms"
        )
        # Saturation in a few short steps, so that a stall of the shared
        # host lowers one step's throughput rather than the median's.
        saturated = []
        for index in range(rates["saturation_steps"]):
            chunk = tables[fixed_n + index * size : fixed_n + (index + 1) * size]
            step, chunk_answers = run_step(
                rates["saturation_rate"], chunk, senders, seed + 1 + index
            )
            saturated.append(step)
            answers += chunk_answers
            outcome.notes.append(
                f"saturation: {step.attempted / step.span_s:.1f} requests/s"
            )
        stats_after, metrics_after = admin.stats(), admin.metrics()
        steps = [fixed] + saturated
        served = list(zip(tables, answers))
        traced_step = None
        if trace:
            # A traced repeat of the fixed-rate step, spans around each call.
            traced, _ = directory_tables(
                world, ALL_TYPE_KEYS, rates["traced_requests"], seed, "traced"
            )
            recorders = [SpanRecorder() for _ in clients]
            for recorder, client in zip(recorders, clients):
                recorder.wrap(client, "annotate_table", "client")
            try:
                traced_step, answers = run_step(
                    rates["fixed_rate"], traced, senders, seed + 2
                )
            finally:
                for recorder in recorders:
                    recorder.unwrap_all()
            served.extend(zip(traced, answers))
            TRACE_OUT.mkdir(exist_ok=True)
            for index, recorder in enumerate(recorders):
                recorder.dump(TRACE_OUT / f"trace-service_open-{seed}-conn{index}.json")
        daemon_mb = _daemon_hwm_mb(daemon.pid)
        admin.shutdown()
        daemon.wait(timeout=60)
        phases.append(("steps", time.perf_counter()))

        # Every answer must equal an in-process annotate_tables([t]); the
        # in-process run also counts each table's candidate cells.
        reference = EntityAnnotator(context.classifiers["svm"], world.search_engine)
        cells = []
        for table, answer in served:
            expected = reference.annotate_tables([table], ALL_TYPE_KEYS)
            cells.append(expected.diagnostics.n_cells)
            if answer is not None and _annotation_bytes(answer) != _annotation_bytes(
                expected.table(table.name)
            ):
                outcome.mismatch(f"service answer for {table.name} differs")
        phases.append(("check", time.perf_counter()))
        outcome.notes.append(
            "wall seconds: "
            + ", ".join(
                f"{name} {end - begin:.1f}"
                for (_, begin), (name, end) in zip(phases, phases[1:])
            )
        )
        timed = steps + ([traced_step] if traced_step else [])
        outcome.attempted = sum(step.attempted for step in timed)
        outcome.failed = sum(step.failed for step in timed)

        if trace:
            server_ms = _histogram_mean_ms(
                metrics_after, metrics_before, "service_annotate_latency_seconds"
            )

            def delta(key: str) -> float:
                return stats_after[key] - stats_before[key]

            metrics = {name: 0.0 for name in plan["per_layer_names"]}
            metrics.update(
                {
                    "search.queries": delta("queries_issued"),
                    "search.hit_ratio": _search_hit_ratio(
                        delta("cache_hits"),
                        delta("results_cache_hits"),
                        delta("results_cache_misses"),
                    ),
                    "classify.memo_hit_ratio": _ratio(
                        delta("label_memo_hits"),
                        delta("label_memo_hits") + delta("label_memo_misses"),
                    ),
                    "service.batch_size": _ratio(delta("tables"), delta("batches")),
                    "service.server_ms": server_ms,
                    "wire.overhead_ms": _client_ms(steps) - server_ms,
                    "gen.late_ms": fixed.late_p95_ms(),
                    "trace.overhead_ratio": _client_ms([traced_step])
                    / _client_ms([fixed])
                    - 1.0,
                }
            )
            first = [
                (t, a) for t, a in served[: rates["traced_requests"]] if a is not None
            ]
            metrics.update(
                _protocol_layers(
                    [t for t, _ in first],
                    [a for _, a in first],
                    rates["protocol_repeats"],
                )
            )
            outcome.metrics.update(metrics)
            return outcome

        answered = [answer for _, answer in served if answer is not None]
        outcome.metrics.update(
            {
                "setup_s": setup_s,
                "cells_per_s": statistics.median(
                    step.answered_per_s(
                        cells[fixed_n + i * size : fixed_n + (i + 1) * size]
                    )
                    for i, step in enumerate(saturated)
                ),
                "latency_ms": fixed.p50_ms(),
                "annotation_f1": evaluate_annotations(
                    [cell for answer in answered for cell in answer.cells],
                    gold,
                    ALL_TYPE_KEYS,
                ).micro_f1(),
                "peak_rss_mb": daemon_mb,
                "ok_rate": 1.0 - outcome.failed / outcome.attempted,
            }
        )
        return outcome
    finally:
        for client in clients:
            client.close()
        _stop_daemon(daemon)
        shutil.rmtree(work, ignore_errors=True)


RUNNERS = {
    "gft_cold": run_gft_cold,
    "pool_warm": run_pool_warm,
    "service_open": run_service_open,
}
