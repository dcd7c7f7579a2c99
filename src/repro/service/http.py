"""A minimal HTTP/1.1 layer over asyncio streams (no framework dependency).

Only what the decision service needs: request-line + header parsing,
``Content-Length`` bodies, JSON responses, and chunked ``NDJSON`` streaming
for world enumeration.  Connections are persistent (HTTP/1.1 keep-alive):
a response carries ``Connection: close`` only when it is the connection's
last, which the server decides (:attr:`HTTPRequest.keep_alive` is the
client's half of that choice).
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping, NoReturn
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.exceptions import ServiceError

__all__ = ["ChunkedWriter", "HTTPError", "HTTPRequest", "read_request", "send_json"]

#: Upper bounds keeping a misbehaving client from ballooning server memory.
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 16 * 1024 * 1024

STATUS_REASONS = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HTTPError(Exception):
    """A request-level failure carrying the HTTP status to respond with."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class HTTPRequest:
    """One parsed request."""

    method: str
    path: str
    query: Mapping[str, str] = field(default_factory=dict)
    headers: Mapping[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    @property
    def keep_alive(self) -> bool:
        """Whether the client lets the connection carry another request:
        HTTP/1.1 without ``Connection: close``."""
        if self.version != "HTTP/1.1":
            return False
        tokens = self.headers.get("connection", "").lower().split(",")
        return "close" not in (token.strip() for token in tokens)

    def json(self) -> Any:
        """The request body parsed as JSON (``null``/empty body → ``None``).

        ``NaN`` and ``±Infinity`` (literal, or a number too large for a
        float) answer 400: they are not JSON, and a value built from one
        would reach a response that ``json.dumps`` writes as invalid JSON.
        """
        if not self.body:
            return None
        try:
            return json.loads(
                self.body, parse_constant=_reject_constant, parse_float=_finite_float
            )
        except json.JSONDecodeError as err:
            raise HTTPError(400, f"request body is not valid JSON: {err}") from err

    def path_parts(self) -> list[str]:
        """The non-empty, percent-decoded path segments."""
        return [unquote(part) for part in self.path.split("/") if part]


def _reject_constant(name: str) -> NoReturn:
    raise HTTPError(400, f"request body holds the non-finite number {name}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise HTTPError(400, f"request body holds the non-finite number {text}")
    return value


async def read_request(reader: asyncio.StreamReader) -> HTTPRequest | None:
    """Read one request from the stream; ``None`` on clean EOF before data."""
    try:
        header_blob = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as err:
        if not err.partial:
            return None
        raise HTTPError(400, "truncated request") from err
    except asyncio.LimitOverrunError as err:
        raise HTTPError(431, "request headers too large") from err
    if len(header_blob) > MAX_HEADER_BYTES:
        raise HTTPError(431, "request headers too large")
    try:
        head = header_blob.decode("latin-1")
    except UnicodeDecodeError as err:  # pragma: no cover - latin-1 total
        raise HTTPError(400, "undecodable request head") from err
    lines = head.split("\r\n")
    request_line = lines[0]
    parts = request_line.split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HTTPError(400, f"malformed request line: {request_line!r}")
    method, target, version = parts
    split = urlsplit(target)
    query = {key: value for key, value in parse_qsl(split.query)}
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        if ":" not in line:
            raise HTTPError(400, f"malformed header line: {line!r}")
        name, _colon, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length_raw = headers.get("content-length")
    if length_raw is not None:
        try:
            length = int(length_raw)
        except ValueError as err:
            raise HTTPError(400, "malformed Content-Length") from err
        if length < 0 or length > MAX_BODY_BYTES:
            raise HTTPError(413, "request body too large")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as err:
            raise HTTPError(400, "truncated request body") from err
    elif headers.get("transfer-encoding"):
        raise HTTPError(400, "chunked request bodies are not supported")
    return HTTPRequest(
        method=method.upper(),
        path=split.path,
        query=query,
        headers=headers,
        body=body,
        version=version,
    )


def _format_head(status: int, extra: Mapping[str, str], close: bool) -> bytes:
    reason = STATUS_REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    lines.extend(f"{name}: {value}" for name, value in extra.items())
    if close:
        lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def send_json(
    writer: asyncio.StreamWriter, status: int, payload: Any, *, close: bool = False
) -> None:
    """Send one complete JSON response and flush; ``close`` marks it the
    connection's last."""
    try:
        body = json.dumps(payload).encode("utf-8")
    except (TypeError, ValueError) as err:
        raise ServiceError(f"unserialisable response payload: {err}") from err
    head = _format_head(
        status,
        {"Content-Type": "application/json", "Content-Length": str(len(body))},
        close,
    )
    writer.write(head + body)
    await writer.drain()


class ChunkedWriter:
    """Chunked ``NDJSON`` streaming: one JSON object per line, one chunk each.

    ``start()`` sends the response head, marked as the connection's last
    (the server watches the socket for EOF while it streams); each
    :meth:`write_line` sends one newline-terminated JSON document as an
    HTTP chunk and drains (so backpressure from a slow client propagates to
    the producer); :meth:`finish` sends the terminating zero chunk.
    """

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self._started = False

    async def start(self, status: int = 200) -> None:
        self._writer.write(
            _format_head(
                status,
                {
                    "Content-Type": "application/x-ndjson",
                    "Transfer-Encoding": "chunked",
                },
                close=True,
            )
        )
        self._started = True
        await self._writer.drain()

    async def write_line(self, payload: Any) -> None:
        assert self._started, "start() must run before write_line()"
        data = (json.dumps(payload) + "\n").encode("utf-8")
        self._writer.write(f"{len(data):x}\r\n".encode("latin-1"))
        self._writer.write(data)
        self._writer.write(b"\r\n")
        await self._writer.drain()

    async def finish(self) -> None:
        assert self._started, "start() must run before finish()"
        self._writer.write(b"0\r\n\r\n")
        await self._writer.drain()
