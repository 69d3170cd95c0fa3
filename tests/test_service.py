"""Tests for the resident annotation service (repro.service).

The contracts under test, mirroring ``tests/test_corpus_parity.py`` one
layer up:

* **wire schema** -- requests/responses and table/annotation payloads
  round-trip exactly; foreign versions and malformed messages are
  rejected with :class:`ProtocolError`, not guessed at;
* **demux** -- ``EntityAnnotator.annotate_batch`` answers positionally
  and never merges same-named tables (two independent requests may ship
  the same table name);
* **service parity** -- concurrent clients submitting overlapping-query
  tables receive annotations byte-identical to sequential one-shot
  ``annotate_table`` calls on an identical engine;
* **coalescing** -- requests that queue while a pass runs share the
  next pooled corpus pass (coalescing ratio > 1), a lone request never
  waits for company, and requests with different ``type_keys`` never
  share a pass (the Equation 1 vote depends on the requested types);
* **cache-dir sharing** -- a daemon flushing into a cache directory
  locked by another process (a concurrent CLI run) skips the save after
  the bounded lock wait instead of hanging, and keeps serving.
"""

import json
import logging
import os
import random
import time

import pytest

from repro import persistence
from repro.classify.dataset import TextDataset
from repro.classify.snippet import SnippetTypeClassifier
from repro.clock import VirtualClock
from repro.core.annotation import SnippetCache
from repro.core.annotator import EntityAnnotator
from repro.core.config import AnnotatorConfig
from repro.service import daemon as daemon_module
from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import (
    HAVE_UNIX_SOCKETS,
    AnnotationDaemon,
    AnnotationService,
    ServiceConfig,
)
from repro.service.protocol import ProtocolError, Request
from repro.tables.model import Column, ColumnType, Table
from repro.web.documents import WebPage
from repro.web.search import SearchEngine
from service_batching import run_as_one_batch

_MUSEUM_WORDS = "exhibit gallery paintings curator collection museum".split()
_RESTAURANT_WORDS = "menu chef cuisine dining wine tasting".split()
_MUSEUMS = ["Grand Gallery", "Stone Hall", "Blue Door"]
_RESTAURANTS = ["Old Mill", "River House"]
_TYPE_KEYS = ["museum", "restaurant"]

needs_unix_sockets = pytest.mark.skipif(
    not HAVE_UNIX_SOCKETS, reason="requires Unix-domain sockets"
)


def _make_engine(**kwargs) -> SearchEngine:
    engine = SearchEngine(clock=VirtualClock(), **kwargs)
    rng = random.Random(0)
    pages = []
    for names, words in ((_MUSEUMS, _MUSEUM_WORDS), (_RESTAURANTS, _RESTAURANT_WORDS)):
        for name in names:
            for i in range(8):
                pages.append(
                    WebPage(
                        url=f"https://x/{name.replace(' ', '-').lower()}-{i}",
                        title=name,
                        body=f"{name.lower()} " + " ".join(rng.choices(words, k=30)),
                    )
                )
    engine.add_pages(pages)
    return engine


@pytest.fixture(scope="module")
def classifier() -> SnippetTypeClassifier:
    rng = random.Random(1)
    dataset = TextDataset()
    for _ in range(60):
        dataset.add(" ".join(rng.choices(_MUSEUM_WORDS, k=12)), "museum")
        dataset.add(" ".join(rng.choices(_RESTAURANT_WORDS, k=12)), "restaurant")
    return SnippetTypeClassifier(backend="svm", min_count=1).fit(dataset)


def _table(name, values) -> Table:
    table = Table(name=name, columns=[Column("Name", ColumnType.TEXT)])
    for value in values:
        table.append_row([value])
    return table


def _annotator(classifier, **kwargs) -> EntityAnnotator:
    return EntityAnnotator(classifier, _make_engine(), AnnotatorConfig(), **kwargs)


def _submitter(service, table, request_id, type_keys=_TYPE_KEYS):
    """A callable submitting one ``annotate_table`` request to *service*."""
    request = protocol.annotate_table_request(table, type_keys, request_id)
    return lambda: service.submit(request)


def _record_passes(annotator) -> list:
    """Wrap *annotator*'s ``annotate_batch`` to record each pass as
    ``(table names, queries issued)``; returns the record list."""
    passes = []
    annotate_batch = annotator.annotate_batch

    def recording_annotate_batch(tables, type_keys, **kwargs):
        result = annotate_batch(tables, type_keys, **kwargs)
        passes.append(
            ([table.name for table in tables], result.diagnostics.queries_issued)
        )
        return result

    annotator.annotate_batch = recording_annotate_batch
    return passes


# ---------------------------------------------------------------------------- protocol


class TestProtocol:
    def test_request_round_trip(self):
        request = protocol.annotate_table_request(
            _table("t", _MUSEUMS), _TYPE_KEYS, request_id="42"
        )
        assert protocol.decode_request(protocol.encode_request(request)) == request

    def test_response_round_trip(self):
        response = protocol.Response(
            ok=True, request_id="7", result={"annotation": {"table": "t", "cells": []}}
        )
        assert (
            protocol.decode_response(protocol.encode_response(response)) == response
        )

    def test_foreign_version_rejected(self):
        line = json.dumps({"v": 99, "op": "ping", "id": "1"})
        with pytest.raises(ProtocolError, match="version"):
            protocol.decode_request(line)
        with pytest.raises(ProtocolError, match="version"):
            protocol.decode_response(json.dumps({"v": 99, "ok": True}))

    def test_unknown_op_rejected(self):
        line = json.dumps({"v": 1, "op": "frobnicate", "id": "1"})
        with pytest.raises(ProtocolError, match="unknown operation"):
            protocol.decode_request(line)

    def test_malformed_lines_rejected(self):
        for line in ("not json", "[1, 2]", '"string"'):
            with pytest.raises(ProtocolError):
                protocol.decode_request(line)

    def test_table_round_trip_through_request(self):
        table = _table("directory", _MUSEUMS + _RESTAURANTS)
        request = protocol.decode_request(
            protocol.encode_request(
                protocol.annotate_table_request(table, _TYPE_KEYS)
            )
        )
        assert protocol.table_for_request(request) == table

    def test_cells_request_wraps_into_one_column_table(self):
        request = protocol.annotate_cells_request(
            ["Louvre", "Old Mill"], ["museum"], name="probe"
        )
        table = protocol.table_for_request(request)
        assert table.name == "probe"
        assert table.n_columns == 1
        assert table.column_type(0) == ColumnType.TEXT
        assert table.rows == [["Louvre"], ["Old Mill"]]

    def test_type_keys_validated(self):
        for payload in ({}, {"type_keys": []}, {"type_keys": "museum"}):
            with pytest.raises(ProtocolError, match="type_keys"):
                protocol.request_type_keys(Request(op="annotate_table", payload=payload))

    def test_annotation_payload_round_trip(self, classifier):
        annotator = _annotator(classifier)
        annotation = annotator.annotate_table(_table("t", _MUSEUMS), _TYPE_KEYS)
        assert len(annotation) > 0
        payload = protocol.annotation_to_payload(annotation)
        json_round_trip = json.loads(json.dumps(payload))
        assert protocol.annotation_from_payload(json_round_trip) == annotation


# ---------------------------------------------------------------------- annotate_batch


class TestAnnotateBatch:
    def test_positional_demux_matches_annotate_table(self, classifier):
        tables = [
            _table("a", _MUSEUMS),
            _table("b", _RESTAURANTS),
            _table("c", ["Nonexistent Place"]),
        ]
        batch = _annotator(classifier).annotate_batch(tables, _TYPE_KEYS)
        reference = _annotator(classifier)
        assert batch.annotations == [
            reference.annotate_table(table, _TYPE_KEYS) for table in tables
        ]
        assert batch.diagnostics.n_tables == 3

    def test_same_named_tables_are_not_merged(self, classifier):
        # Two independent requests may legitimately ship tables with the
        # same name; each must get exactly its own cells back.
        tables = [_table("directory", _MUSEUMS), _table("directory", _RESTAURANTS)]
        batch = _annotator(classifier).annotate_batch(tables, _TYPE_KEYS)
        assert [a.table_name for a in batch.annotations] == ["directory", "directory"]
        assert {c.cell_value for c in batch.annotations[0].cells} <= set(_MUSEUMS)
        assert {c.cell_value for c in batch.annotations[1].cells} <= set(_RESTAURANTS)
        reference = _annotator(classifier)
        assert batch.annotations == [
            reference.annotate_table(table, _TYPE_KEYS) for table in tables
        ]

    def test_batch_pools_queries_once(self, classifier):
        # The pooled economics: one engine request per distinct query
        # across the whole batch, exactly like annotate_tables.
        tables = [_table(f"site-{i}", _MUSEUMS) for i in range(4)]
        annotator = _annotator(classifier)
        batch = annotator.annotate_batch(tables, _TYPE_KEYS)
        assert batch.diagnostics.queries_issued == len(_MUSEUMS)

    def test_empty_batch(self, classifier):
        batch = _annotator(classifier).annotate_batch([], _TYPE_KEYS)
        assert batch.annotations == []
        assert batch.diagnostics.n_tables == 0


# ------------------------------------------------------------------- in-process service


class TestAnnotationService:
    def _service(self, classifier, **config) -> AnnotationService:
        annotator = _annotator(classifier, cache=SnippetCache())
        return AnnotationService(annotator, ServiceConfig(**config)).start()

    def test_ping_and_stats(self, classifier):
        service = self._service(classifier)
        try:
            pong = service.submit(protocol.ping_request("1"))
            assert pong.ok and pong.result["version"] == protocol.PROTOCOL_VERSION
            stats = service.submit(protocol.stats_request("2"))
            assert stats.ok and stats.result["requests"] == 0
        finally:
            service.stop()

    def test_annotation_parity_through_service(self, classifier):
        service = self._service(classifier)
        try:
            table = _table("t", _MUSEUMS + _RESTAURANTS)
            response = service.submit(
                protocol.annotate_table_request(table, _TYPE_KEYS, "1")
            )
            assert response.ok
            reference = _annotator(classifier).annotate_table(table, _TYPE_KEYS)
            assert (
                protocol.annotation_from_payload(response.result["annotation"])
                == reference
            )
        finally:
            service.stop()

    def test_concurrent_requests_coalesce(self, classifier):
        # Requests that queue while a pass runs share the next pass: one
        # corpus pass for all of them (requests > batches).
        n_clients = 6
        service = self._service(classifier, max_batch_tables=n_clients)
        passes = _record_passes(service.annotator)
        try:
            tables = [_table(f"site-{i}", _MUSEUMS) for i in range(n_clients)]
            blocker, *responses = run_as_one_batch(
                service,
                _submitter(service, _table("blocker", _RESTAURANTS), "b"),
                [
                    _submitter(service, table, str(index))
                    for index, table in enumerate(tables)
                ],
            )
            assert blocker.ok and all(response.ok for response in responses)
            # Overlapping queries across clients: issued once for the pass.
            assert passes == [
                (["blocker"], len(_RESTAURANTS)),
                ([table.name for table in tables], len(_MUSEUMS)),
            ]
            assert service.stats()["requests"] == n_clients + 1
            assert service.stats()["batches"] == 2
            # Every client still got exactly its own table's answer.
            reference = _annotator(classifier)
            for index, response in enumerate(responses):
                assert (
                    protocol.annotation_from_payload(response.result["annotation"])
                    == reference.annotate_table(tables[index], _TYPE_KEYS)
                )
        finally:
            service.stop()

    def test_different_type_keys_never_share_a_pass(self, classifier):
        # Pooling requests with different requested types would change
        # Equation 1 votes; one batch runs them as separate sub-batches.
        service = self._service(classifier, max_batch_tables=2)
        passes = _record_passes(service.annotator)
        try:
            _, museum, restaurant = run_as_one_batch(
                service,
                _submitter(service, _table("blocker", _RESTAURANTS), "b"),
                [
                    _submitter(service, _table("a", _MUSEUMS), "0", ["museum"]),
                    _submitter(service, _table("b", _MUSEUMS), "1", ["restaurant"]),
                ],
            )
            assert museum.ok and restaurant.ok
            assert [names for names, _ in passes] == [["blocker"], ["a"], ["b"]]
            assert service.stats()["requests"] == 3
            assert service.stats()["batches"] == 3  # one pooled pass per key set
            museum_only = protocol.annotation_from_payload(
                museum.result["annotation"]
            )
            restaurant_only = protocol.annotation_from_payload(
                restaurant.result["annotation"]
            )
            assert {cell.type_key for cell in museum_only.cells} <= {"museum"}
            assert restaurant_only.cells == []
        finally:
            service.stop()

    def test_next_batch_takes_what_is_queued_and_never_waits(self, classifier):
        # Batch assembly blocks for the first request only, then drains
        # the queue up to max_batch_tables; the rest is the next batch.
        service = AnnotationService(
            _annotator(classifier), ServiceConfig(max_batch_tables=3)
        )
        takes = []
        get = service._queue.get

        def recording_get(block=True, timeout=None):
            takes.append(block)
            return get(block, timeout)

        service._queue.get = recording_get
        queued = [
            daemon_module._Pending(
                protocol.annotate_table_request(_table(name, _MUSEUMS), _TYPE_KEYS),
                _table(name, _MUSEUMS),
                tuple(_TYPE_KEYS),
            )
            for name in "abcde"
        ]
        for pending in queued:
            service._queue.put(pending)
        assert service._next_batch(timeout=0.0) == queued[:3]
        assert takes == [True, False, False]  # full: no further take
        takes.clear()
        assert service._next_batch(timeout=0.0) == queued[3:]
        # Only the first take blocks; finding the queue empty ends it.
        assert takes == [True, False, False]
        assert service._next_batch(timeout=0.0) == []
        assert not any(pending.done.is_set() for pending in queued)

    def test_bad_request_answered_not_fatal(self, classifier):
        service = self._service(classifier)
        try:
            response = service.submit(
                Request(op="annotate_table", payload={"table": 3}, request_id="1")
            )
            assert not response.ok
            assert "table" in response.error
            assert service.submit(protocol.ping_request("2")).ok
        finally:
            service.stop()

    def test_abandoned_requests_never_pay_a_pass(self, classifier):
        # A submitter that timed out has already been answered; the
        # batcher must drop its entry instead of running a corpus pass
        # (and counting a request) for nobody.
        annotator = _annotator(classifier, cache=SnippetCache())
        service = AnnotationService(annotator, ServiceConfig())
        pending = daemon_module._Pending(
            protocol.annotate_table_request(_table("t", _MUSEUMS), _TYPE_KEYS, "1"),
            _table("t", _MUSEUMS),
            tuple(_TYPE_KEYS),
        )
        pending.abandoned = True
        service._process([pending])
        assert not pending.done.is_set()
        assert service.stats()["requests"] == 0
        assert service.stats()["batches"] == 0
        assert annotator.engine.query_count == 0

    def test_rejects_after_stop(self, classifier):
        service = self._service(classifier)
        service.stop()
        response = service.submit(
            protocol.annotate_table_request(_table("t", _MUSEUMS), _TYPE_KEYS, "1")
        )
        assert not response.ok
        assert "shutting down" in response.error


# ------------------------------------------------------------------------ socket daemon


@needs_unix_sockets
class TestDaemon:
    def test_concurrent_clients_byte_identical_to_one_shot(
        self, classifier, tmp_path
    ):
        # The service parity contract: N concurrent clients with
        # overlapping-query tables get byte-identical annotations to
        # sequential one-shot annotate_table calls on an identical engine.
        n_clients = 4
        tables = [
            _table(f"site-{i}", list(reversed(_MUSEUMS)) + [_RESTAURANTS[i % 2]])
            for i in range(n_clients)
        ]
        socket_path = tmp_path / "svc.sock"
        daemon = AnnotationDaemon(
            _annotator(classifier, cache=SnippetCache()),
            socket_path,
            ServiceConfig(max_batch_tables=n_clients),
        )
        with daemon:

            def client_for(index):
                def run_client():
                    with ServiceClient(socket_path) as client:
                        return protocol.annotation_to_payload(
                            client.annotate_table(tables[index], _TYPE_KEYS)
                        )

                return run_client

            # The first client's pass runs alone; the others queue behind
            # it and share the next one.
            payloads = run_as_one_batch(
                daemon.service,
                client_for(0),
                [client_for(index) for index in range(1, n_clients)],
            )
            with ServiceClient(socket_path) as client:
                stats = client.stats()
        reference = _annotator(classifier)
        for index, table in enumerate(tables):
            expected = protocol.annotation_to_payload(
                reference.annotate_table(table, _TYPE_KEYS)
            )
            # Byte-identical on the wire, not merely equal objects.
            assert json.dumps(payloads[index], sort_keys=True) == json.dumps(
                expected, sort_keys=True
            )
        assert stats["requests"] == n_clients
        assert stats["batches"] == 2
        assert stats["coalescing_ratio"] > 1.0

    def test_annotate_cells_round_trip(self, classifier, tmp_path):
        daemon = AnnotationDaemon(
            _annotator(classifier), tmp_path / "svc.sock", ServiceConfig()
        )
        with daemon:
            with ServiceClient(tmp_path / "svc.sock") as client:
                decisions = client.annotate_cells(
                    [_MUSEUMS[0], "Unheard Of Place"], _TYPE_KEYS
                )
        assert decisions[0] is not None
        assert decisions[0]["type_key"] == "museum"
        assert decisions[0]["value"] == _MUSEUMS[0]
        assert decisions[1] is None

    def test_shutdown_request_flushes_and_stops(self, classifier, tmp_path):
        cache_dir = tmp_path / "cache"
        daemon = AnnotationDaemon(
            _annotator(classifier),
            tmp_path / "svc.sock",
            ServiceConfig(cache_dir=str(cache_dir)),
        )
        with daemon:
            with ServiceClient(tmp_path / "svc.sock") as client:
                client.annotate_table(_table("t", _MUSEUMS), _TYPE_KEYS)
                result = client.shutdown()
        assert result["saved"] == {"search_results": True, "label_memo": True}
        assert (cache_dir / "search_results.cache").exists()
        assert (cache_dir / "label_memo.cache").exists()
        assert not (tmp_path / "svc.sock").exists()

    def test_second_daemon_refuses_a_live_socket(self, classifier, tmp_path):
        # Binding over a *live* daemon's socket would split clients
        # between two processes and let the first daemon's teardown
        # delete the second's socket file; a *stale* file (crashed
        # daemon) is replaced silently.
        socket_path = tmp_path / "svc.sock"
        daemon = AnnotationDaemon(
            _annotator(classifier), socket_path, ServiceConfig()
        )
        with daemon:
            with pytest.raises(RuntimeError, match="already serving"):
                AnnotationDaemon(
                    _annotator(classifier), socket_path, ServiceConfig()
                )
            # The live daemon is unharmed by the refused construction.
            with ServiceClient(socket_path) as client:
                assert client.ping()["version"] == protocol.PROTOCOL_VERSION
        assert not socket_path.exists()
        # A stale socket file left by a crashed daemon is replaced.
        socket_path.touch()
        replacement = AnnotationDaemon(
            _annotator(classifier), socket_path, ServiceConfig()
        )
        with replacement:
            with ServiceClient(socket_path) as client:
                assert client.ping()["version"] == protocol.PROTOCOL_VERSION
        assert not socket_path.exists()

    def test_daemon_error_response_for_unknown_type_keys(self, classifier, tmp_path):
        daemon = AnnotationDaemon(
            _annotator(classifier), tmp_path / "svc.sock", ServiceConfig()
        )
        with daemon:
            with ServiceClient(tmp_path / "svc.sock") as client:
                with pytest.raises(ServiceError):
                    client.annotate_cells(["Louvre"], [])
                assert client.ping()["version"] == protocol.PROTOCOL_VERSION


# ------------------------------------------------------------------- periodic flushing


class TestPeriodicFlusher:
    def test_flushes_periodically_and_once_more_on_stop(self):
        calls = []
        with persistence.PeriodicFlusher(lambda: calls.append(1), 0.03):
            deadline = time.monotonic() + 2.0
            while len(calls) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
        assert len(calls) >= 3  # >= two periodic + the final stop flush

    def test_callback_errors_are_kept_not_fatal(self, caplog):
        calls = []

        def failing_flush():
            calls.append(1)
            raise RuntimeError("disk full")

        with caplog.at_level(logging.WARNING, logger="repro.persistence"):
            flusher = persistence.PeriodicFlusher(failing_flush, 0.02).start()
            deadline = time.monotonic() + 2.0
            while len(calls) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            flusher.stop(final_flush=False)
        assert len(calls) >= 2  # the loop survived the first failure
        assert isinstance(flusher.last_error, RuntimeError)
        assert flusher.flush_count == 0
        # ... and said so: a failing flush is logged, not silent.
        failures = [
            json.loads(record.message)
            for record in caplog.records
            if record.name == "repro.persistence"
            and '"cache.flush_failed"' in record.message
        ]
        assert failures
        assert all("disk full" in event["error"] for event in failures)

    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError, match="interval_seconds"):
            persistence.PeriodicFlusher(lambda: None, 0)

    def test_daemon_flushes_on_interval_while_serving(self, classifier, tmp_path):
        # Warmth lands on disk while the daemon keeps serving -- no
        # shutdown needed (the crash-durability property).
        cache_dir = tmp_path / "cache"
        service = AnnotationService(
            _annotator(classifier, cache=SnippetCache()),
            ServiceConfig(
                cache_dir=str(cache_dir), flush_interval_seconds=0.05
            ),
        ).start()
        try:
            response = service.submit(
                protocol.annotate_table_request(
                    _table("t", _MUSEUMS), _TYPE_KEYS, "1"
                )
            )
            assert response.ok
            deadline = time.monotonic() + 5.0
            while (
                not (cache_dir / "search_results.cache").exists()
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            assert (cache_dir / "search_results.cache").exists()
            assert service.submit(protocol.ping_request("2")).ok
        finally:
            service.stop()


# --------------------------------------------------------------------- cache-dir sharing


@needs_unix_sockets
class TestSharedCacheDir:
    @pytest.fixture()
    def fast_lock_timeout(self, monkeypatch):
        # Lock-timeout defaults resolve at call time, so tightening the
        # module constant bounds every save/load wait in this test.
        monkeypatch.setattr(persistence, "DEFAULT_LOCK_TIMEOUT", 0.2)

    def test_flush_skips_when_cli_holds_the_lock(
        self, classifier, tmp_path, fast_lock_timeout
    ):
        fcntl = pytest.importorskip("fcntl")
        cache_dir = tmp_path / "cache"
        daemon = AnnotationDaemon(
            _annotator(classifier, cache=SnippetCache()),
            tmp_path / "svc.sock",
            ServiceConfig(cache_dir=str(cache_dir)),
        )
        with daemon:
            with ServiceClient(tmp_path / "svc.sock") as client:
                client.annotate_table(_table("t", _MUSEUMS), _TYPE_KEYS)
                # A concurrent CLI run holds the advisory locks (mid-merge).
                holders = []
                for name in ("search_results.cache", "label_memo.cache"):
                    lock_file = persistence.lock_path_for(cache_dir / name)
                    lock_file.parent.mkdir(parents=True, exist_ok=True)
                    fd = os.open(lock_file, os.O_RDWR | os.O_CREAT, 0o644)
                    fcntl.flock(fd, fcntl.LOCK_EX)
                    holders.append(fd)
                try:
                    saved = daemon.service.flush()
                    # Bounded wait, then skip -- never a hang, never a crash.
                    assert saved == {"search_results": False, "label_memo": False}
                    assert not (cache_dir / "search_results.cache").exists()
                    # The daemon is still alive and serving.
                    assert client.ping()["version"] == protocol.PROTOCOL_VERSION
                finally:
                    for fd in holders:
                        fcntl.flock(fd, fcntl.LOCK_UN)
                        os.close(fd)
                # Lock released: the next flush persists everything.
                saved = daemon.service.flush()
                assert saved == {"search_results": True, "label_memo": True}
                assert (cache_dir / "search_results.cache").exists()


# ------------------------------------------------------------- cache IO in stats


def _cache_bytes(cache_dir) -> int:
    return sum(
        (cache_dir / name).stat().st_size
        for name in ("search_results.cache", "label_memo.cache")
    )


class TestStatsCountCacheIO:
    """Cache IO outside a pass -- the warm start and every flush -- is
    measured as one more diagnostics part, so ``cache_loads`` /
    ``cache_saves`` count exactly the files their byte counters read or
    wrote."""

    def test_a_flush_that_writes_counts_its_saves(self, classifier, tmp_path):
        service = AnnotationService(
            _annotator(classifier), ServiceConfig(cache_dir=str(tmp_path))
        ).start()
        try:
            assert service.submit(
                protocol.annotate_table_request(
                    _table("t", _MUSEUMS), _TYPE_KEYS, "1"
                )
            ).ok
            assert service.flush() == {"search_results": True, "label_memo": True}
            stats = service.submit(protocol.stats_request("2")).result
        finally:
            service.stop()
        assert stats["flushes"] == 1
        assert stats["cache_saves"] == 2
        assert stats["cache_save_bytes"] == _cache_bytes(tmp_path)

    def test_a_warm_start_counts_the_files_it_reads(self, classifier, tmp_path):
        _annotator(classifier).annotate_tables(
            [_table("t", _MUSEUMS)], _TYPE_KEYS, cache_dir=tmp_path
        )
        preloaded = _annotator(classifier)
        preloaded.load_caches(tmp_path)
        for annotator, loads, load_bytes in (
            (_annotator(classifier), 2, _cache_bytes(tmp_path)),
            # Memory already holds both unchanged files: nothing is read.
            (preloaded, 0, 0),
        ):
            service = AnnotationService(
                annotator, ServiceConfig(cache_dir=str(tmp_path))
            ).start()
            stats = service.submit(protocol.stats_request("1")).result
            service.stop()
            assert (stats["cache_loads"], stats["cache_load_bytes"]) == (
                loads,
                load_bytes,
            )
