"""Chaos suite: deterministic fault injection against live processes.

Every test here breaks something for real -- a SIGKILLed pool worker, a
poison-pill query that crashes whoever touches it, a request that blows
up a pooled service batch, a client that vanishes mid-conversation, a
line too long to frame, a cache file replaced by garbage -- and asserts the system's *scripted*
recovery behaviour, exactly, thanks to the deterministic
:class:`~repro.resilience.FaultPlan` and the keyed failure draws.

The worker-crash tests exercise the ISSUE 6 acceptance criterion: a pool
worker SIGKILLed mid-``annotate_tables(workers=2)`` still yields a
complete, sequential-identical run with the crashed task requeued.
"""

from __future__ import annotations

import logging
import multiprocessing
import random
import socket
import threading

import pytest

from repro.classify.dataset import TextDataset
from repro.classify.snippet import SnippetTypeClassifier
from repro.clock import VirtualClock
from repro.core.annotation import SnippetCache
from repro.core.annotator import (
    ENGINE_CACHE_FILE,
    LABEL_MEMO_FILE,
    EntityAnnotator,
)
from repro.core.config import AnnotatorConfig
from repro.core.parallel import annotate_tables_parallel
from repro.resilience import FaultPlan
from repro.service import protocol
from repro.service.protocol import ProtocolError
from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import (
    HAVE_UNIX_SOCKETS,
    AnnotationDaemon,
    AnnotationService,
    ServiceConfig,
)
from repro.tables.model import Column, ColumnType, Table
from repro.web.documents import WebPage
from repro.web.search import SearchEngine
from service_batching import run_as_one_batch

_WORDS = "exhibit gallery paintings curator collection museum".split()
_NAMES = [f"Venue {i}" for i in range(24)]
_TYPE_KEYS = ["museum", "restaurant"]

needs_unix_sockets = pytest.mark.skipif(
    not HAVE_UNIX_SOCKETS, reason="requires Unix-domain sockets"
)


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
    tables = []
    for index in range(n_tables):
        table = Table(name=f"t{index}", columns=[Column("Name", ColumnType.TEXT)])
        for row in range(rows_per_table):
            table.append_row([_NAMES[(index * rows_per_table + row) % len(_NAMES)]])
        tables.append(table)
    return tables


# ------------------------------------------------------------ worker crashes


class TestWorkerCrashRecovery:
    def test_sigkilled_worker_is_requeued_and_run_completes(
        self, classifier, tmp_path
    ):
        """The headline chaos scenario: one worker SIGKILLs itself
        mid-task (kill-once token: exactly one crash across the pool);
        the task is requeued onto a survivor/respawn and the run comes
        back byte-identical to the sequential reference."""
        tables = _corpus()
        reference = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS)
        engine = _make_engine()
        engine.fault_plan = FaultPlan(
            kill_on_query="Venue 5",  # lives in t1: mid-corpus, mid-task
            kill_once_token=str(tmp_path / "kill.token"),
        )
        run = EntityAnnotator(
            classifier, engine, AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS, workers=2)
        assert run.diagnostics.tasks_requeued >= 1
        assert run.diagnostics.tasks_quarantined == 0
        assert (tmp_path / "kill.token").exists()
        assert dict(run.tables) == dict(reference.tables)
        assert repr(sorted(run.tables.items())) == repr(
            sorted(reference.tables.items())
        )

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="requires the fork start method",
    )
    def test_fork_replacement_inherits_the_warm_parent(
        self, classifier, tmp_path
    ):
        """A warm pool's parent loads the cache dir before forking, so a
        replacement forked after a SIGKILL is as warm as the first
        workers: nobody re-reads the files, nobody recomputes, and the
        run stays byte-identical."""
        tables = _corpus()
        cache_dir = tmp_path / "cache"
        reference = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_batch(tables, _TYPE_KEYS, cache_dir=cache_dir)
        engine = _make_engine()
        engine.fault_plan = FaultPlan(
            kill_on_query="Venue 5",
            kill_once_token=str(tmp_path / "kill.token"),
        )
        spawned: list[int] = []
        run = annotate_tables_parallel(
            EntityAnnotator(classifier, engine, AnnotatorConfig()),
            tables,
            _TYPE_KEYS,
            workers=2,
            cache_dir=cache_dir,
            on_worker_spawn=spawned.append,
            start_method="fork",
        )
        assert (tmp_path / "kill.token").exists()
        assert run.diagnostics.tasks_requeued >= 1
        assert len(spawned) == 3  # two workers and one replacement
        assert repr(run.annotations) == repr(reference.annotations)
        assert run.diagnostics.results_cache_misses == 0
        assert run.diagnostics.label_memo_misses == 0
        assert all(
            load.cache_load_bytes == 0 for load in run.diagnostics.worker_loads
        )

    def test_poison_task_is_quarantined_with_degraded_tables(
        self, classifier
    ):
        """Without the kill-once token the query is a poison pill that
        crashes *every* worker attempting it: after ``task_retries``
        requeues the task is quarantined, its tables' candidate cells
        come back degraded (reason ``worker-crash``), and every other
        table is annotated exactly as the healthy reference."""
        tables = _corpus()
        reference = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS)
        engine = _make_engine()
        engine.fault_plan = FaultPlan(kill_on_query="Venue 5")
        config = AnnotatorConfig(task_retries=1)
        run = EntityAnnotator(classifier, engine, config).annotate_tables(
            tables, _TYPE_KEYS, workers=2
        )
        assert run.diagnostics.tasks_quarantined == 1
        assert run.diagnostics.tasks_requeued >= 1
        # Eight tables of cost 3 give an automatic target of 3 at two
        # workers: one table per task, so exactly the poisoned table is
        # lost -- all three of its candidate cells degraded, nothing
        # annotated.
        degraded = run.degraded_cells()
        assert degraded and {cell.reason for cell in degraded} == {
            "worker-crash"
        }
        poisoned_tables = {cell.table_name for cell in degraded}
        assert poisoned_tables == {"t1"}
        assert run.tables["t1"].cells == []
        assert len(run.tables["t1"].degraded) == 3
        for table in tables:
            if table.name not in poisoned_tables:
                assert run.tables[table.name] == reference.tables[table.name]
        # The corpus-position reassembly keeps every table, in order.
        assert list(run.tables) == [table.name for table in tables]


# ------------------------------------------------------- service batch poison


class TestBatchPoisonIsolation:
    def test_bisection_fails_only_the_poisoned_request(self, classifier):
        annotator = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig(), cache=SnippetCache()
        )
        real_annotate_batch = annotator.annotate_batch
        passes = []

        def poisoned_annotate_batch(tables, type_keys, **kwargs):
            passes.append([table.name for table in tables])
            if any(table.name == "poison" for table in tables):
                raise RuntimeError("simulated annotator blow-up")
            return real_annotate_batch(tables, type_keys, **kwargs)

        annotator.annotate_batch = poisoned_annotate_batch
        service = AnnotationService(
            annotator, ServiceConfig(max_batch_tables=8)
        ).start()
        try:
            names = ["a", "b", "poison", "c", "d"]
            tables = [
                Table(name=name, columns=[Column("Name", ColumnType.TEXT)])
                for name in names
            ]
            for index, table in enumerate(tables):
                table.append_row([_NAMES[index]])
            blocker = Table(
                name="blocker", columns=[Column("Name", ColumnType.TEXT)]
            )
            blocker.append_row([_NAMES[10]])

            def submitter(table, request_id):
                request = protocol.annotate_table_request(
                    table, _TYPE_KEYS, request_id
                )
                return lambda: service.submit(request)

            # All five queue behind the blocker's pass: one batch of five,
            # which the poison fails and bisection recovers.
            blocked, *responses = run_as_one_batch(
                service,
                submitter(blocker, "b"),
                [
                    submitter(table, str(index))
                    for index, table in enumerate(tables)
                ],
            )
            assert blocked.ok
            # One batch of five, bisected down to the poisoned request.
            assert passes == [
                ["blocker"],
                names,
                ["a", "b"],
                ["poison", "c", "d"],
                ["poison"],
                ["c", "d"],
            ]
            by_name = dict(zip(names, responses))
            poisoned = by_name.pop("poison")
            assert not poisoned.ok
            assert "annotation failed" in poisoned.error
            assert all(response.ok for response in by_name.values())
            assert service.stats()["poisoned_requests"] == 1
            # The healthy four were served by the bisected sub-passes.
            assert service.stats()["requests"] == 1 + 4
            assert service.stats()["batches"] == 3
            reference = EntityAnnotator(
                classifier, _make_engine(), AnnotatorConfig()
            )
            for name, response in by_name.items():
                table = tables[names.index(name)]
                assert (
                    protocol.annotation_from_payload(
                        response.result["annotation"]
                    )
                    == reference.annotate_table(table, _TYPE_KEYS)
                )
        finally:
            service.stop()

    def test_healthy_batch_pays_no_bisection(self, classifier):
        annotator = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig(), cache=SnippetCache()
        )
        service = AnnotationService(annotator, ServiceConfig()).start()
        try:
            table = Table(name="t", columns=[Column("Name", ColumnType.TEXT)])
            table.append_row([_NAMES[0]])
            response = service.submit(
                protocol.annotate_table_request(table, _TYPE_KEYS, "1")
            )
            assert response.ok
            assert service.stats()["poisoned_requests"] == 0
            assert service.stats()["batches"] == 1
        finally:
            service.stop()


# ------------------------------------------------------ daemon connection chaos


@needs_unix_sockets
class TestDaemonConnectionChaos:
    def _daemon(self, classifier, tmp_path) -> AnnotationDaemon:
        annotator = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig(), cache=SnippetCache()
        )
        return AnnotationDaemon(
            annotator, tmp_path / "svc.sock", ServiceConfig()
        )

    def test_malformed_line_gets_structured_error_connection_survives(
        self, classifier, tmp_path
    ):
        with self._daemon(classifier, tmp_path):
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.connect(str(tmp_path / "svc.sock"))
                sock.sendall(b"this is not json{{{\n")
                with sock.makefile("rb") as reader:
                    answer = protocol.decode_response(reader.readline())
                    assert not answer.ok
                    assert "JSON" in answer.error
                    # Same connection, next line: still fully usable.
                    sock.sendall(
                        protocol.encode_request(protocol.ping_request("2"))
                    )
                    pong = protocol.decode_response(reader.readline())
                    assert pong.ok and pong.request_id == "2"

    def test_over_long_request_line_gets_error_and_connection_closes(
        self, classifier, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 64)
        with self._daemon(classifier, tmp_path):
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.connect(str(tmp_path / "svc.sock"))
                sock.sendall(b'{"v": 1, "op": "ping", "pad": "%s"}\n' % (b"x" * 200))
                with sock.makefile("rb") as reader:
                    answer = protocol.decode_response(reader.readline())
                    assert not answer.ok
                    assert "longer than 64 bytes" in answer.error
                    # The line cannot be re-framed: the daemon hung up.
                    try:
                        rest = reader.read()
                    except ConnectionResetError:
                        rest = b""
                    assert rest == b""
            monkeypatch.undo()
            # Other connections are unaffected.
            with ServiceClient(tmp_path / "svc.sock") as client:
                assert client.ping()["version"] == protocol.PROTOCOL_VERSION

    def test_over_long_response_is_answered_with_an_error(
        self, classifier, tmp_path, monkeypatch
    ):
        values = _NAMES[:4]
        request_line = protocol.encode_request(
            protocol.annotate_cells_request(values, _TYPE_KEYS, "1")
        )
        with self._daemon(classifier, tmp_path) as daemon:
            # The in-process answer: its line is longer than the request's.
            answer_line = protocol.encode_response(
                daemon.service.submit(protocol.decode_request(request_line))
            )
            cap = len(request_line)
            assert len(answer_line) > cap
            monkeypatch.setattr(protocol, "MAX_LINE_BYTES", cap)
            with ServiceClient(tmp_path / "svc.sock") as client:
                # The request fits and its answer does not: the daemon
                # answers an error instead, and the stream stays framed.
                with pytest.raises(ServiceError, match=f"longer than {cap} bytes"):
                    client.annotate_cells(values, _TYPE_KEYS)
                assert client.ping()["version"] == protocol.PROTOCOL_VERSION

    def test_over_long_response_raises_protocol_error(
        self, tmp_path, monkeypatch
    ):
        # A peer that answers any request with an over-long line.
        path = str(tmp_path / "long.sock")
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as server:
            server.bind(path)
            server.listen(1)

            def answer_long() -> None:
                connection, _ = server.accept()
                with connection, connection.makefile("rb") as reader:
                    reader.readline()
                    connection.sendall(b'{"v": 1, "pad": "%s"}\n' % (b"x" * 200))

            peer = threading.Thread(target=answer_long, daemon=True)
            peer.start()
            monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 64)
            with ServiceClient(path) as client:
                with pytest.raises(ProtocolError, match="longer than 64 bytes"):
                    client.ping()
            peer.join(timeout=30.0)
            assert not peer.is_alive()

    def test_client_vanishing_mid_request_leaves_daemon_serving(
        self, classifier, tmp_path
    ):
        with self._daemon(classifier, tmp_path):
            table = Table(name="t", columns=[Column("Name", ColumnType.TEXT)])
            for name in _NAMES[:3]:
                table.append_row([name])
            # Fire an annotation request and slam the connection shut
            # without reading the answer: the handler's write hits a
            # dead socket and must take down only that handler thread.
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(str(tmp_path / "svc.sock"))
            sock.sendall(
                protocol.encode_request(
                    protocol.annotate_table_request(table, _TYPE_KEYS, "1")
                )
            )
            sock.close()
            # A well-behaved client is served as if nothing happened.
            with ServiceClient(tmp_path / "svc.sock") as client:
                assert client.ping()["version"] == protocol.PROTOCOL_VERSION
                annotation = client.annotate_table(table, _TYPE_KEYS)
                reference = EntityAnnotator(
                    classifier, _make_engine(), AnnotatorConfig()
                ).annotate_table(table, _TYPE_KEYS)
                assert annotation == reference


# ----------------------------------------------------------- cache corruption


class TestCorruptCacheColdStart:
    def test_garbage_cache_files_warn_and_start_cold(
        self, classifier, tmp_path, caplog
    ):
        (tmp_path / ENGINE_CACHE_FILE).write_bytes(b"\x00garbage\xff" * 64)
        (tmp_path / LABEL_MEMO_FILE).write_bytes(b"not a pickle")
        annotator = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        )
        with caplog.at_level(logging.WARNING, logger="repro.persistence"):
            loaded = annotator.load_caches(tmp_path)
        assert loaded == {"search_results": False, "label_memo": False}
        warnings = [record.message for record in caplog.records]
        assert sum("starting cold" in message for message in warnings) == 2
        # Cold is cold, not broken: the run proceeds and a save then
        # replaces the garbage with real caches that load cleanly.
        tables = _corpus(n_tables=2)
        run = annotator.annotate_tables(tables, _TYPE_KEYS, cache_dir=tmp_path)
        reference = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        ).annotate_tables(tables, _TYPE_KEYS)
        assert dict(run.tables) == dict(reference.tables)
        fresh = EntityAnnotator(classifier, _make_engine(), AnnotatorConfig())
        assert fresh.load_caches(tmp_path) == {
            "search_results": True,
            "label_memo": True,
        }

    def test_truncated_cache_file_is_a_cold_start(
        self, classifier, tmp_path, caplog
    ):
        # A real cache, truncated mid-write by a simulated crash.
        annotator = EntityAnnotator(
            classifier, _make_engine(), AnnotatorConfig()
        )
        annotator.annotate_tables(
            _corpus(n_tables=2), _TYPE_KEYS, cache_dir=tmp_path
        )
        blob = (tmp_path / ENGINE_CACHE_FILE).read_bytes()
        assert len(blob) > 10
        (tmp_path / ENGINE_CACHE_FILE).write_bytes(blob[: len(blob) // 2])
        fresh = EntityAnnotator(classifier, _make_engine(), AnnotatorConfig())
        with caplog.at_level(logging.WARNING, logger="repro.persistence"):
            loaded = fresh.load_caches(tmp_path)
        assert loaded["search_results"] is False
        assert loaded["label_memo"] is True
        assert any(
            "starting cold" in record.message for record in caplog.records
        )
