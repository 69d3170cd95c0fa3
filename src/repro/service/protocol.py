"""Wire schema of the resident annotation service.

One JSON object per line (UTF-8, ``\\n``-terminated, at most
:data:`MAX_LINE_BYTES`), in both directions.  Every message carries the
protocol version; the daemon rejects versions it does not speak rather
than guessing at field semantics.  Table payloads reuse the dictionary
layout of :mod:`repro.tables.io` (:func:`~repro.tables.io.table_to_payload`),
annotation payloads mirror :class:`~repro.core.results.TableAnnotation` /
:class:`~repro.core.results.CellAnnotation` field for field, so a
round-tripped annotation compares equal to the in-process original --
the service parity contract.

Operations:

``ping``
    liveness + version handshake;
``stats``
    the service's lifetime counters and ratios, a view of one snapshot
    of its metrics registry (plus uptime and batching configuration);
``metrics``
    the service's metrics registry merged with the process-wide one
    (pool and lock-wait metrics), rendered as Prometheus-style text
    exposition (``{"exposition": "..."}``) for a fleet scraper to poll;
``annotate_table``
    payload ``{"table": <table payload>, "type_keys": [...]}``, answered
    with ``{"annotation": <annotation payload>}``;
``annotate_cells``
    payload ``{"values": [...], "type_keys": [...], "name": ...}`` --
    sugar for a one-column Text table (one row per value) through the
    same three-stage pipeline; answered with ``{"annotation": ...,
    "cells": [<decision or null per value>]}``;
``shutdown``
    flush caches and stop serving.

>>> request = annotate_cells_request(["Louvre"], ["museum"], request_id="1")
>>> decode_request(encode_request(request)) == request
True
>>> table_for_request(request).rows
[['Louvre']]
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.core.results import CellAnnotation, DegradedCell, TableAnnotation
from repro.tables.model import Column, ColumnType, Table
from repro.tables.io import table_from_payload, table_to_payload

PROTOCOL_VERSION = 1
"""Bumped whenever a message's field semantics change; the daemon answers
a foreign version with an error instead of misreading it."""

OPS = ("ping", "stats", "metrics", "annotate_table", "annotate_cells", "shutdown")
"""Every operation the daemon understands."""

ANNOTATE_OPS = ("annotate_table", "annotate_cells")
"""The operations that enter the batching queue (the rest are
answered immediately by the connection handler)."""

MAX_LINE_BYTES = 16 * 1024 * 1024
"""Longest line either side reads, newline included.  Past it the stream
cannot be re-framed, so the daemon answers an over-long request with an
error and hangs up; it never writes an over-long response, but answers
an error in its place."""

CELLS_COLUMN = "Value"
"""Column name of the synthetic one-column table an ``annotate_cells``
request is wrapped into."""


class ProtocolError(ValueError):
    """A message that cannot be parsed into a valid request/response."""


@dataclass(frozen=True)
class Request:
    """One client request (see the module docstring for the operations)."""

    op: str
    payload: dict = field(default_factory=dict)
    request_id: str = ""
    version: int = PROTOCOL_VERSION
    trace_id: str | None = None
    """Caller-minted trace identifier.  Optional and omitted from the
    wire when absent, so untraced clients produce byte-identical lines
    to the pre-observability format."""


@dataclass(frozen=True)
class Response:
    """The daemon's answer to one request, matched by ``request_id``."""

    ok: bool
    request_id: str = ""
    result: dict | None = None
    error: str | None = None
    version: int = PROTOCOL_VERSION


# -- line codec --------------------------------------------------------------------------


def read_line(reader) -> bytes:
    """The next line of *reader* (``b""`` at end of stream); raises
    :class:`ProtocolError` rather than buffer over :data:`MAX_LINE_BYTES`."""
    line = reader.readline(MAX_LINE_BYTES + 1)
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"line longer than {MAX_LINE_BYTES} bytes")
    return line


def encode_request(request: Request) -> bytes:
    """*request* as one newline-terminated JSON line."""
    blob: dict = {
        "v": request.version,
        "id": request.request_id,
        "op": request.op,
        "payload": request.payload,
    }
    if request.trace_id is not None:
        blob["trace_id"] = request.trace_id
    return json.dumps(blob, ensure_ascii=False).encode("utf-8") + b"\n"


def decode_request(line: bytes | str) -> Request:
    """Parse one request line; raises :class:`ProtocolError` on anything
    malformed, version-foreign or operation-unknown."""
    blob = _decode_line(line)
    version = blob.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version {version!r} not supported "
            f"(this daemon speaks {PROTOCOL_VERSION})"
        )
    op = blob.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown operation {op!r} (know {', '.join(OPS)})")
    payload = blob.get("payload", {})
    if not isinstance(payload, dict):
        raise ProtocolError("request payload must be an object")
    trace_id = blob.get("trace_id")
    if trace_id is not None and not isinstance(trace_id, str):
        raise ProtocolError("trace_id must be a string when present")
    return Request(
        op=op,
        payload=payload,
        request_id=str(blob.get("id", "")),
        version=version,
        trace_id=trace_id,
    )


def encode_response(response: Response) -> bytes:
    """*response* as one newline-terminated JSON line."""
    blob: dict = {
        "v": response.version,
        "id": response.request_id,
        "ok": response.ok,
    }
    if response.result is not None:
        blob["result"] = response.result
    if response.error is not None:
        blob["error"] = response.error
    return json.dumps(blob, ensure_ascii=False).encode("utf-8") + b"\n"


def decode_response(line: bytes | str) -> Response:
    """Parse one response line (client side)."""
    blob = _decode_line(line)
    version = blob.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version {version!r} not supported "
            f"(this client speaks {PROTOCOL_VERSION})"
        )
    if not isinstance(blob.get("ok"), bool):
        raise ProtocolError("response is missing the boolean 'ok' field")
    return Response(
        ok=blob["ok"],
        request_id=str(blob.get("id", "")),
        result=blob.get("result"),
        error=blob.get("error"),
        version=version,
    )


def _decode_line(line: bytes | str) -> dict:
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        blob = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"message is not valid JSON: {error}") from error
    if not isinstance(blob, dict):
        raise ProtocolError("message must be a JSON object")
    return blob


# -- request builders --------------------------------------------------------------------


def ping_request(request_id: str = "") -> Request:
    return Request(op="ping", request_id=request_id)


def stats_request(request_id: str = "") -> Request:
    return Request(op="stats", request_id=request_id)


def metrics_request(request_id: str = "") -> Request:
    return Request(op="metrics", request_id=request_id)


def shutdown_request(request_id: str = "") -> Request:
    return Request(op="shutdown", request_id=request_id)


def annotate_table_request(
    table: Table,
    type_keys: list[str],
    request_id: str = "",
    trace_id: str | None = None,
) -> Request:
    """An ``annotate_table`` request carrying *table* by value."""
    return Request(
        op="annotate_table",
        payload={
            "table": table_to_payload(table),
            "type_keys": list(type_keys),
        },
        request_id=request_id,
        trace_id=trace_id,
    )


def annotate_cells_request(
    values: list[str],
    type_keys: list[str],
    request_id: str = "",
    name: str = "cells",
    trace_id: str | None = None,
) -> Request:
    """An ``annotate_cells`` request: bare cell values, no table framing."""
    return Request(
        op="annotate_cells",
        payload={
            "values": [str(value) for value in values],
            "type_keys": list(type_keys),
            "name": name,
        },
        request_id=request_id,
        trace_id=trace_id,
    )


# -- payload (de)serialisation -----------------------------------------------------------


def request_type_keys(request: Request) -> tuple[str, ...]:
    """The validated ``type_keys`` of an annotation request."""
    type_keys = request.payload.get("type_keys")
    if (
        not isinstance(type_keys, list)
        or not type_keys
        or not all(isinstance(key, str) for key in type_keys)
    ):
        raise ProtocolError(
            "annotation requests need a non-empty 'type_keys' string list"
        )
    return tuple(type_keys)


def table_for_request(request: Request) -> Table:
    """The table an annotation request asks about.

    ``annotate_table`` ships one by value; ``annotate_cells`` is wrapped
    into a synthetic one-column Text table (one row per value), so both
    request kinds pool into the same corpus pass and share the pipeline's
    semantics -- including pre- and post-processing -- exactly as if the
    caller had framed the values as a table themselves.
    """
    if request.op == "annotate_table":
        try:
            return table_from_payload(request.payload.get("table"))
        except (ValueError, KeyError, TypeError) as error:
            raise ProtocolError(f"bad table payload: {error}") from error
    if request.op == "annotate_cells":
        values = request.payload.get("values")
        if not isinstance(values, list) or not all(
            isinstance(value, str) for value in values
        ):
            raise ProtocolError(
                "annotate_cells needs a 'values' list of strings"
            )
        table = Table(
            name=str(request.payload.get("name", "cells")),
            columns=[Column(CELLS_COLUMN, ColumnType.TEXT)],
        )
        for value in values:
            table.append_row([value])
        return table
    raise ProtocolError(f"{request.op!r} does not carry a table")


def annotation_to_payload(annotation: TableAnnotation) -> dict:
    """*annotation* as a plain JSON-serialisable dictionary.

    The ``degraded`` key (cells the resilience layer abandoned) is only
    present when non-empty, keeping healthy-run payloads byte-identical
    to the pre-resilience wire format.
    """
    payload = {
        "table": annotation.table_name,
        "cells": [
            {
                "row": cell.row,
                "column": cell.column,
                "type_key": cell.type_key,
                "score": cell.score,
                "value": cell.cell_value,
            }
            for cell in annotation.cells
        ],
    }
    if annotation.degraded:
        payload["degraded"] = [
            {
                "row": cell.row,
                "column": cell.column,
                "value": cell.cell_value,
                "query": cell.query,
                "reason": cell.reason,
            }
            for cell in annotation.degraded
        ]
    return payload


def annotation_from_payload(payload: dict) -> TableAnnotation:
    """Rebuild a :class:`TableAnnotation`; equality with the daemon-side
    original is exact (scores survive the JSON float round-trip)."""
    if not isinstance(payload, dict) or "table" not in payload:
        raise ProtocolError("annotation payload needs a 'table' name")
    annotation = TableAnnotation(table_name=payload["table"])
    for cell in payload.get("cells", []):
        annotation.add(
            CellAnnotation(
                table_name=payload["table"],
                row=int(cell["row"]),
                column=int(cell["column"]),
                type_key=cell["type_key"],
                score=float(cell["score"]),
                cell_value=cell.get("value", ""),
            )
        )
    for cell in payload.get("degraded", []):
        annotation.degraded.append(
            DegradedCell(
                table_name=payload["table"],
                row=int(cell["row"]),
                column=int(cell["column"]),
                cell_value=cell.get("value", ""),
                query=cell.get("query", ""),
                reason=cell.get("reason", "search-failure"),
            )
        )
    return annotation


def cell_decisions(annotation: TableAnnotation, n_values: int) -> list[dict | None]:
    """Per-value decisions of an ``annotate_cells`` answer.

    Element *i* describes value *i* (row *i* of the synthetic table):
    ``{"value", "type_key", "score"}`` when annotated, ``None`` when the
    pipeline rejected or could not decide it.
    """
    by_row = {cell.row: cell for cell in annotation.cells}
    decisions: list[dict | None] = []
    for row in range(n_values):
        cell = by_row.get(row)
        decisions.append(
            None
            if cell is None
            else {
                "value": cell.cell_value,
                "type_key": cell.type_key,
                "score": cell.score,
            }
        )
    return decisions
