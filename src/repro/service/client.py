"""Blocking client for the resident annotation daemon.

One connection, any number of requests, strict request/response pairing
over the line protocol of :mod:`repro.service.protocol`:

    with ServiceClient("/tmp/repro.sock") as client:
        client.ping()
        annotation = client.annotate_table(table, ["museum", "restaurant"])
        decisions = client.annotate_cells(["Louvre"], ["museum"])
        client.stats()

The client is deliberately dumb: no pooling, no retries, no pipelining --
it exists so tests, the CLI ``client`` subcommand, perfbench's
``service_open`` workload and user scripts all speak the wire format
through one implementation.  A :class:`ServiceError` carries the daemon's
error string, a :class:`ProtocolError` a bad or over-long response line;
transport problems raise the underlying ``OSError``.
"""

from __future__ import annotations

import socket

from repro.core.results import TableAnnotation
from repro.observability import tracing
from repro.service import protocol
from repro.service.protocol import ProtocolError, Request
from repro.tables.model import Table


class ServiceError(RuntimeError):
    """The daemon answered, but with an error."""


class ServiceClient:
    """A blocking line-protocol client over a Unix-domain socket."""

    def __init__(self, socket_path, timeout: float = 300.0) -> None:
        self.socket_path = str(socket_path)
        self._socket = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._socket.settimeout(timeout)
        self._socket.connect(self.socket_path)
        self._reader = self._socket.makefile("rb")
        self._writer = self._socket.makefile("wb")
        self._next_id = 0

    # -- transport ----------------------------------------------------------------------

    def _request(self, request: Request) -> dict:
        """Send one request, read its response, return the result dict."""
        self._writer.write(protocol.encode_request(request))
        self._writer.flush()
        try:
            line = protocol.read_line(self._reader)
        except ProtocolError:
            self.close()  # the stream cannot be re-framed
            raise
        if not line:
            raise ConnectionError(
                f"daemon at {self.socket_path} closed the connection"
            )
        response = protocol.decode_response(line)
        if response.request_id != request.request_id:
            raise ProtocolError(
                f"response id {response.request_id!r} does not match "
                f"request id {request.request_id!r}"
            )
        if not response.ok:
            raise ServiceError(response.error or "unknown service error")
        return response.result or {}

    def _id(self) -> str:
        self._next_id += 1
        return str(self._next_id)

    # -- operations ---------------------------------------------------------------------

    def ping(self) -> dict:
        """Liveness check; returns version, pid and uptime."""
        return self._request(protocol.ping_request(self._id()))

    def stats(self) -> dict:
        """The daemon's lifetime counters and ratios, read from one
        snapshot of its metrics registry (plus uptime and batching
        configuration)."""
        return self._request(protocol.stats_request(self._id()))

    def metrics(self) -> str:
        """The daemon's metrics as Prometheus text exposition: every
        counter ``stats`` reports, under its registry name, plus latency
        histograms and the process-wide pool and lock-wait metrics."""
        result = self._request(protocol.metrics_request(self._id()))
        return result.get("exposition", "")

    def annotate_table(
        self,
        table: Table,
        type_keys: list[str],
        trace_id: str | None = None,
    ) -> TableAnnotation:
        """Annotate *table*; returns the same :class:`TableAnnotation` an
        in-process ``annotate_table`` call would (byte-identical).

        *trace_id* (default: the caller's active trace, if tracing is on)
        rides the wire so the daemon's admission/batch spans link back to
        this client's trace.
        """
        result = self._request(
            protocol.annotate_table_request(
                table, type_keys, self._id(), trace_id=self._trace_id(trace_id)
            )
        )
        return protocol.annotation_from_payload(result["annotation"])

    def annotate_cells(
        self,
        values: list[str],
        type_keys: list[str],
        name: str = "cells",
        trace_id: str | None = None,
    ) -> list[dict | None]:
        """Annotate bare cell *values*; element *i* of the answer is the
        decision for value *i* (``None`` when unannotated)."""
        result = self._request(
            protocol.annotate_cells_request(
                values,
                type_keys,
                self._id(),
                name,
                trace_id=self._trace_id(trace_id),
            )
        )
        return result["cells"]

    @staticmethod
    def _trace_id(explicit: str | None) -> str | None:
        if explicit is not None:
            return explicit
        if tracing.tracing_enabled():
            return tracing.current_trace_id()
        return None

    def shutdown(self) -> dict:
        """Ask the daemon to drain, flush its caches and exit."""
        return self._request(protocol.shutdown_request(self._id()))

    # -- lifecycle ----------------------------------------------------------------------

    def close(self) -> None:
        for closable in (self._reader, self._writer, self._socket):
            try:
                closable.close()
            except OSError:  # pragma: no cover - already torn down
                pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
