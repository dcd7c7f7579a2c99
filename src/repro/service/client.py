"""A small synchronous client for the decision service.

Built on :mod:`http.client` only — tests, benchmarks and doc snippets talk
to the service without growing a dependency.  :class:`ServiceClient` keeps
its connections open between calls (the server speaks HTTP/1.1
keep-alive) and hands each call one no other call is using, so threads
sharing a client run side by side on separate connections.  Streams hold
a connection of their own for the duration (:class:`WorldStream`), and
closing one mid-stream is *the* way to exercise server-side disconnect
cancellation.
"""

from __future__ import annotations

import json
import select
import sys
import threading
import weakref
from http.client import HTTPConnection, HTTPResponse
from typing import Any, Iterator, Mapping
from urllib.parse import urlencode, urlsplit

from repro.exceptions import ServiceError

__all__ = ["ServiceClient", "WorldStream"]


class WorldStream:
    """An open ``/worlds`` NDJSON stream; iterate to receive worlds.

    ``http.client`` undoes the chunked transfer coding, so each
    ``readline()`` is one JSON document.  Iteration ends after the
    ``summary`` (or ``error``) line; :meth:`close` tears the socket down
    immediately, which the server notices and converts into engine
    cancellation.
    """

    def __init__(self, connection: HTTPConnection, response: HTTPResponse) -> None:
        self._connection = connection
        self._response = response
        self.summary: dict[str, Any] | None = None

    def __iter__(self) -> Iterator[dict[str, Any]]:
        try:
            while True:
                line = self._response.readline()
                if not line:
                    return
                document = json.loads(line)
                if document.get("kind") == "world":
                    yield document["world"]
                    continue
                if document.get("kind") == "error":
                    raise ServiceError(
                        f"stream failed server-side: {document.get('error')}",
                        status=500,
                    )
                self.summary = document
                return
        finally:
            self.close()

    def close(self) -> None:
        """Drop the connection (mid-stream: triggers server cancellation)."""
        try:
            self._response.close()
        finally:
            self._connection.close()

    def __enter__(self) -> "WorldStream":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _close_all(connections: list[HTTPConnection]) -> None:
    for connection in connections:
        connection.close()


def _dropped(connection: HTTPConnection) -> bool:
    """Whether an idle connection can no longer carry a request: its socket
    is gone, or readable, which between requests means the server closed it
    (or sent something unasked)."""
    sock = connection.sock
    if sock is None:
        return True
    if sys.platform == "win32":  # no poll(); select() takes any socket there
        return bool(select.select([sock], [], [], 0)[0])
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


class ServiceClient:
    """Synchronous JSON client: one request per call, errors as exceptions.

    Non-2xx responses raise :class:`~repro.exceptions.ServiceError` carrying
    the server's status and message; 2xx responses return the decoded JSON
    envelope.  Idle connections wait in a free list for the next call;
    :meth:`close` (or leaving a ``with`` block) closes them.
    """

    def __init__(
        self, base_url: str, *, token: str | None = None, timeout: float = 120.0
    ) -> None:
        split = urlsplit(base_url)
        if split.scheme != "http" or not split.hostname:
            raise ServiceError(f"unsupported service URL {base_url!r}")
        self._host = split.hostname
        self._port = split.port if split.port is not None else 80
        self._token = token
        self._timeout = timeout
        self._idle: list[HTTPConnection] = []
        self._idle_lock = threading.Lock()
        # A client dropped without close() still closes its idle
        # connections, when it is collected.
        weakref.finalize(self, _close_all, self._idle)

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _connect(self) -> HTTPConnection:
        return HTTPConnection(self._host, self._port, timeout=self._timeout)

    def _checkout(self) -> HTTPConnection:
        """An idle connection the server has not closed, or a new one."""
        with self._idle_lock:
            while self._idle:
                connection = self._idle.pop()
                if not _dropped(connection):
                    return connection
                connection.close()
        return self._connect()

    def close(self) -> None:
        """Close the idle connections (a later call opens a new one)."""
        with self._idle_lock:
            idle = self._idle[:]
            self._idle.clear()
        _close_all(idle)

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _headers(self) -> dict[str, str]:
        headers = {"Accept": "application/json"}
        if self._token is not None:
            headers["Authorization"] = f"Bearer {self._token}"
        return headers

    def request(
        self,
        method: str,
        path: str,
        body: Any = None,
        query: Mapping[str, Any] | None = None,
    ) -> dict[str, Any]:
        """One JSON round-trip; raises ``ServiceError`` on non-2xx."""
        if query:
            path = f"{path}?{urlencode(dict(query))}"
        headers = self._headers()
        payload: bytes | None = None
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = self._checkout()
        try:
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        except BaseException:
            connection.close()
            raise
        if response.will_close:
            connection.close()  # the server's last response on it
        else:
            with self._idle_lock:
                self._idle.append(connection)
        try:
            document = json.loads(raw) if raw else {}
        except json.JSONDecodeError as err:
            raise ServiceError(
                f"service returned undecodable JSON (status {response.status})",
                status=502,
            ) from err
        if not 200 <= response.status < 300:
            message = (
                document.get("error", raw.decode("utf-8", "replace"))
                if isinstance(document, dict)
                else raw.decode("utf-8", "replace")
            )
            raise ServiceError(message, status=response.status)
        return document if isinstance(document, dict) else {"value": document}

    # ------------------------------------------------------------------
    # endpoint helpers
    # ------------------------------------------------------------------
    def healthz(self) -> dict[str, Any]:
        return self.request("GET", "/healthz")

    def metrics(self) -> dict[str, Any]:
        return self.request("GET", "/metrics")["metrics"]

    def engines(self) -> list[dict[str, Any]]:
        return self.request("GET", "/engines")["engines"]

    def sessions(self) -> list[str]:
        return self.request("GET", "/sessions")["sessions"]

    def create_session(
        self,
        name: str,
        workload: str,
        params: Mapping[str, Any] | None = None,
        engine: str | None = None,
    ) -> dict[str, Any]:
        body: dict[str, Any] = {"name": name, "workload": workload}
        if params:
            body["params"] = dict(params)
        if engine is not None:
            body["engine"] = engine
        return self.request("POST", "/sessions", body)["session"]

    def session(self, name: str) -> dict[str, Any]:
        return self.request("GET", f"/sessions/{name}")["session"]

    def drop_session(self, name: str) -> None:
        self.request("DELETE", f"/sessions/{name}")

    def decide(self, session: str, problem: str, **kwargs: Any) -> dict[str, Any]:
        """One decision request; returns the full wire envelope."""
        return self.request(
            "POST", f"/sessions/{session}/decide", {"problem": problem, **kwargs}
        )

    def update(
        self,
        session: str,
        add_rows: Mapping[str, Any] | None = None,
        drop_rows: Mapping[str, Any] | None = None,
    ) -> dict[str, Any]:
        body: dict[str, Any] = {}
        if add_rows:
            body["add_rows"] = dict(add_rows)
        if drop_rows:
            body["drop_rows"] = dict(drop_rows)
        return self.request("POST", f"/sessions/{session}/update", body)

    def batch(self, session: str, steps: list[Mapping[str, Any]]) -> dict[str, Any]:
        return self.request(
            "POST", f"/sessions/{session}/batch", {"steps": list(steps)}
        )

    def results(self, session: str) -> list[dict[str, Any]]:
        return self.request("GET", f"/sessions/{session}/results")["results"]

    def stream_worlds(
        self,
        session: str,
        *,
        limit: int | None = None,
        engine: str | None = None,
        deduplicate: bool = True,
    ) -> WorldStream:
        """Open a ``/worlds`` stream (caller iterates / closes)."""
        query: dict[str, Any] = {}
        if limit is not None:
            query["limit"] = limit
        if engine is not None:
            query["engine"] = engine
        if not deduplicate:
            query["deduplicate"] = "false"
        path = f"/sessions/{session}/worlds"
        if query:
            path = f"{path}?{urlencode(query)}"
        connection = self._connect()
        try:
            connection.request("GET", path, headers=self._headers())
            response = connection.getresponse()
        except Exception:
            connection.close()
            raise
        if response.status != 200:
            raw = response.read()
            connection.close()
            try:
                message = json.loads(raw).get("error", raw.decode("utf-8", "replace"))
            except (json.JSONDecodeError, AttributeError):
                message = raw.decode("utf-8", "replace")
            raise ServiceError(message, status=response.status)
        return WorldStream(connection, response)
