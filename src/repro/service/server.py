"""The asyncio decision service: routing, streaming, graceful shutdown.

:class:`DecisionService` glues the pieces together: the minimal HTTP layer
(:mod:`repro.service.http`) and the session pool and its worker threads
(:mod:`repro.service.pool`), and applies the two request gates of the
config: the ``auth_token`` (``401``) and the per-session ``rate_limit``
(``429``).  The endpoint surface:

========  ==================================  =====================================
method    path                                meaning
========  ==================================  =====================================
GET       ``/healthz``                        liveness (no auth)
GET       ``/metrics``                        :class:`ServiceMetrics` counters
GET       ``/engines``                        registered engines + capabilities
GET       ``/sessions``                       session names
POST      ``/sessions``                       create from a registered workload
GET       ``/sessions/{s}``                   session info
DELETE    ``/sessions/{s}``                   drop the session
POST      ``/sessions/{s}/decide``            one decision request
POST      ``/sessions/{s}/update``            row-level add/drop update
POST      ``/sessions/{s}/batch``             transactional update batch
GET       ``/sessions/{s}/results``           the session's newest 64 envelopes
GET       ``/sessions/{s}/worlds``            stream ``Mod_Adom`` as NDJSON
========  ==================================  =====================================

**Streaming** runs the enumeration on a pump thread feeding a bounded
``asyncio.Queue`` (depth = ``stream_buffer``), so a slow client exerts real
backpressure on the engine instead of buffering the world set.  Client
disconnects are detected by an EOF watcher on the request socket and routed
into the engine through its ``stop_check`` hook (for engines declaring
``supports_cancellation``), so an abandoned stream stops *searching*, not
just writing.

**Connections** are persistent (HTTP/1.1 keep-alive): one handler serves
a connection's requests in turn and marks only its last response
``Connection: close`` (see :meth:`DecisionService._handle_connection`).

**Shutdown** is drain-then-exit: the listener and every connection idle
between requests close at once, new requests get 503 while in-flight ones
run to completion (bounded by ``drain_timeout``), then the pool's threads
stop once their work returns.
"""

from __future__ import annotations

import asyncio
import contextlib
import hmac
import logging
import threading
import time
from dataclasses import asdict
from typing import Any, Mapping

from repro.ctables.possible_worlds import models
from repro.decision import json_safe
from repro.exceptions import ReproError, SearchCancelledError, ServiceError
from repro.relational.instance import GroundInstance
from repro.search.registry import EngineConfig, engine_names, get_engine
from repro.service.config import ServiceConfig
from repro.service.http import (
    ChunkedWriter,
    HTTPError,
    HTTPRequest,
    read_request,
    send_json,
)
from repro.service.metrics import ServiceMetrics
from repro.service.pool import DatabasePool, SessionState

#: Where the service logs: every internal error, with its traceback.
_LOG = logging.getLogger("repro.service")

__all__ = ["DecisionService", "ServiceThread"]

#: A JSON response: its status and payload.
Response = tuple[int, Any]


def _error(err: Exception) -> dict[str, Any]:
    return {"ok": False, "error": str(err)}


def world_payload(world: GroundInstance) -> dict[str, Any]:
    """One world as JSON: relation name → deterministically ordered rows."""
    return {
        name: [list(json_safe(row)) for row in sorted(rel.rows, key=repr)]
        for name, rel in world.relations().items()
    }


class DecisionService:
    """The service proper: owns the pool and the listener."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.metrics = ServiceMetrics()
        self.pool = DatabasePool(
            executor_workers=self.config.executor_workers,
            request_timeout=self.config.request_timeout,
            metrics=self.metrics,
        )
        token = self.config.auth_token
        self._token = token.encode() if token is not None else None
        self._server: asyncio.base_events.Server | None = None
        self._closing = False
        #: The handlers of the connections waiting for their next request,
        #: with their writers (shutdown closes them).  A fresh connection
        #: is not idle: the request its client connected to send is read
        #: and answered, with 503 once the service drains.
        self._idle: dict[asyncio.Task[Any], asyncio.StreamWriter] = {}
        self._inflight = 0
        self._drained: asyncio.Event | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Create the configured sessions and start listening."""
        for name, session in self.config.sessions.items():
            self.pool.create_session(
                name, session.workload, session.params, session.engine
            )
        self._drained = asyncio.Event()
        self._drained.set()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the kernel's choice)."""
        assert self._server is not None, "start() must run first"
        sockets = self._server.sockets
        assert sockets
        port = sockets[0].getsockname()[1]
        return int(port)

    @property
    def base_url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() must run first"
        await self._server.serve_forever()

    async def shutdown(self, *, drain: bool = True) -> None:
        """Stop accepting, close the idle connections, optionally drain
        in-flight requests, stop the pool."""
        self._closing = True
        if self._server is not None:
            self._server.close()
        # A connection idle between requests has nothing left to answer,
        # and nothing else would end its handler: there is no idle timeout.
        idle = list(self._idle.items())
        for _handler, writer in idle:
            writer.close()
        if idle:
            await asyncio.wait([handler for handler, _writer in idle], timeout=1.0)
        if drain and self._inflight and self._drained is not None:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    self._drained.wait(), timeout=self.config.drain_timeout
                )
        if self._server is not None:
            # On Python >= 3.12.1 wait_closed() waits for every open
            # connection; the idle ones are closed and the drain above
            # bounded the in-flight ones, so bound this wait too rather than
            # hang on a stuck client.
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._server.wait_closed(), timeout=1.0)
        self.pool.shutdown()

    @property
    def closing(self) -> bool:
        return self._closing

    @property
    def inflight(self) -> int:
        return self._inflight

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve requests on one connection until its last response.

        A response is the last when the client asked for it (``Connection:
        close``, HTTP/1.0), when it ends a ``/worlds`` stream, answers a
        request that could not be read, is a 500, or the service drains.
        """
        self.metrics.connections += 1
        # asyncio's selector transport reads each chunk into a fresh buffer
        # of its max_size (256 KiB on Python 3.11).  Whether a buffer that
        # large reuses heap memory or maps new pages, which fault on every
        # request, depends on the heap's layout: one more import in this
        # module once took the server from 0 to 2 minor faults per request.
        # 64 KiB is the StreamReader's own limit; MAX_HEADER_BYTES and
        # MAX_BODY_BYTES still bound a request.
        writer.transport.max_size = 64 * 1024  # type: ignore[attr-defined]
        handler = asyncio.current_task()
        assert handler is not None
        served = False
        try:
            while not (served and self._closing):
                if served:
                    self._idle[handler] = writer
                try:
                    request = await read_request(reader)
                except HTTPError as err:
                    # Where the next request starts is unknown: answer, close.
                    await send_json(writer, err.status, _error(err), close=True)
                    return
                finally:
                    self._idle.pop(handler, None)
                if request is None:
                    return
                served = True
                if not await self._serve(request, reader, writer):
                    return
        except ConnectionError:
            pass  # the client went away; nothing to tell it
        finally:
            with contextlib.suppress(ConnectionError, OSError):
                writer.close()
                await writer.wait_closed()

    async def _serve(
        self,
        request: HTTPRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Answer one request; whether the connection may carry another."""
        self.metrics.requests += 1
        self._inflight += 1
        assert self._drained is not None
        self._drained.clear()
        try:
            try:
                response = await self._dispatch(request, reader, writer)
            except HTTPError as err:
                response = err.status, _error(err)
            except ServiceError as err:
                if err.status >= 500:
                    self.metrics.errors += 1
                response = err.status, _error(err)
            except ReproError as err:
                response = 400, _error(err)
            except ConnectionError:
                raise  # the client went away mid-response
            except Exception as err:  # noqa: BLE001 - the server must survive
                self.metrics.errors += 1
                _LOG.exception(
                    "500 on %s %s: %s.%s",
                    request.method,
                    request.path,
                    type(err).__module__,
                    type(err).__qualname__,
                )
                response = 500, {"ok": False, "error": f"internal error: {err}"}
            if response is None:
                return False  # a /worlds stream: its EOF watcher read the socket
            status, payload = response
            close = status == 500 or self._closing or not request.keep_alive
            await send_json(writer, status, payload, close=close)
            return not close
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._drained.set()

    async def _dispatch(
        self,
        request: HTTPRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> Response | None:
        """The status and JSON payload answering ``request``, or ``None``
        once a ``/worlds`` stream has written its own response."""
        parts = request.path_parts()
        if parts == ["healthz"]:
            return 200, {"ok": True, "status": "draining" if self._closing else "ok"}
        if not self._authorized(request.headers):
            self.metrics.rejected += 1
            raise HTTPError(401, "unauthorized")
        if self._closing:
            raise HTTPError(503, "service is draining")

        if parts == ["metrics"] and request.method == "GET":
            payload = self.metrics.to_dict()
            payload["inflight"] = self._inflight
            return 200, {"ok": True, "metrics": payload}
        if parts == ["engines"] and request.method == "GET":
            engines = [
                {"name": name, "capabilities": asdict(get_engine(name).capabilities)}
                for name in engine_names()
            ]
            return 200, {"ok": True, "engines": engines}
        if parts == ["sessions"]:
            return self._dispatch_sessions_root(request)
        if len(parts) >= 2 and parts[0] == "sessions":
            return await self._dispatch_session(parts[1:], request, reader, writer)
        raise HTTPError(404, f"no route for {request.method} {request.path}")

    def _authorized(self, headers: Mapping[str, str]) -> bool:
        """Whether ``headers`` carry the configured token, as ``Authorization:
        Bearer <token>`` or ``x-repro-token`` (always, when none is set).
        The comparison takes the same time wherever a guess goes wrong."""
        if self._token is None:
            return True
        scheme, _, bearer = headers.get("authorization", "").partition(" ")
        offered = [headers.get("x-repro-token", "")]
        if scheme == "Bearer":
            offered.append(bearer)
        return any(
            hmac.compare_digest(value.encode(), self._token) for value in offered
        )

    def _admitted(self, name: str) -> SessionState:
        """The session ``name`` (404 when unknown) once its rate limit
        admits one more request (429 when it does not)."""
        state = self.pool.session(name)
        limit = self.config.rate_limit
        if limit is not None and not state.admit(limit, time.monotonic()):
            self.metrics.rejected += 1
            raise HTTPError(429, f"rate limit exceeded for session {name!r}")
        return state

    def _dispatch_sessions_root(self, request: HTTPRequest) -> Response:
        if request.method == "GET":
            return 200, {"ok": True, "sessions": self.pool.session_names()}
        if request.method in ("POST", "PUT"):
            body = request.json()
            if not isinstance(body, Mapping):
                raise ServiceError("session creation body must be a JSON object")
            name = body.get("name")
            workload = body.get("workload")
            if not isinstance(name, str) or not isinstance(workload, str):
                raise ServiceError(
                    "session creation requires \"name\" and \"workload\" strings"
                )
            params = body.get("params", {})
            if not isinstance(params, Mapping):
                raise ServiceError("session \"params\" must be an object")
            engine = body.get("engine")
            if engine is not None and not isinstance(engine, str):
                raise ServiceError("session \"engine\" must be a name or null")
            state = self.pool.create_session(name, workload, params, engine)
            return 201, {"ok": True, "session": state.info()}
        raise HTTPError(405, f"{request.method} not allowed on /sessions")

    async def _dispatch_session(
        self,
        parts: list[str],
        request: HTTPRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> Response | None:
        name = parts[0]
        if len(parts) == 1:
            if request.method == "GET":
                return 200, {"ok": True, "session": self.pool.session(name).info()}
            if request.method == "DELETE":
                self.pool.drop_session(name)
                return 200, {"ok": True, "dropped": name}
            raise HTTPError(405, f"{request.method} not allowed on a session")
        if len(parts) != 2:
            raise HTTPError(404, f"no route for {request.method} {request.path}")
        action = parts[1]
        if action == "decide" and request.method == "POST":
            state = self._admitted(name)
            envelope = await self.pool.decide(name, request.json())
            state.results.append(envelope)
            return 200, envelope
        if action == "update" and request.method == "POST":
            return 200, await self.pool.update(name, request.json())
        if action == "batch" and request.method == "POST":
            return 200, await self.pool.batch(name, request.json())
        if action == "results" and request.method == "GET":
            return 200, {"ok": True, "results": list(self.pool.session(name).results)}
        if action == "worlds" and request.method == "GET":
            await self._stream_worlds(self._admitted(name), request, reader, writer)
            return None
        raise HTTPError(404, f"no route for {request.method} {request.path}")

    # ------------------------------------------------------------------
    # world streaming
    # ------------------------------------------------------------------
    def _stream_engine(
        self, state: SessionState, request: HTTPRequest, cancel: threading.Event
    ) -> EngineConfig:
        """The engine selection for a stream, with cancellation wired in."""
        raw = request.query.get("engine") or state.engine
        try:
            config = EngineConfig.coerce(raw)
            spec = config.spec()
        except ReproError as err:
            raise ServiceError(f"bad engine selection: {err}") from err
        if spec.capabilities.supports_cancellation:
            config = EngineConfig(
                name=config.name,
                options={**config.options, "stop_check": cancel.is_set},
            )
        return config

    async def _stream_worlds(
        self,
        state: SessionState,
        request: HTTPRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        limit_raw = request.query.get("limit")
        limit: int | None = None
        if limit_raw is not None:
            try:
                limit = int(limit_raw)
            except ValueError as err:
                raise ServiceError("limit must be an integer") from err
            if limit < 0:
                raise ServiceError("limit must be >= 0")
        deduplicate = request.query.get("deduplicate", "true").lower() != "false"
        cancel = threading.Event()
        engine = self._stream_engine(state, request, cancel)
        queue: asyncio.Queue[tuple[str, Any]] = asyncio.Queue(
            maxsize=self.config.stream_buffer
        )
        loop = asyncio.get_running_loop()
        db = state.database

        def pump() -> None:
            """Producer thread: engine enumeration → bounded queue."""

            def put(item: tuple[str, Any]) -> None:
                asyncio.run_coroutine_threadsafe(queue.put(item), loop).result()

            streamed = 0
            try:
                for world in models(
                    db.cinstance,
                    db.master,
                    db.constraints,
                    db.adom(),
                    deduplicate=deduplicate,
                    engine=engine,
                    checker=db.checker,
                ):
                    if cancel.is_set():
                        raise SearchCancelledError("stream cancelled")
                    put(("world", world_payload(world)))
                    streamed += 1
                    if limit is not None and streamed >= limit:
                        break
                put(("done", streamed))
            except SearchCancelledError:
                put(("cancelled", streamed))
            except BaseException as err:  # noqa: BLE001 - crosses the thread
                put(("error", f"{type(err).__name__}: {err}"))

        # EOF watcher: the request is fully read, so any read() completing
        # means the client hung up — route that into the engine's stop_check.
        watcher = asyncio.ensure_future(reader.read())
        watcher.add_done_callback(lambda _task: cancel.set())

        chunked = ChunkedWriter(writer)
        self.metrics.streams_started += 1
        thread = threading.Thread(
            target=pump, name=f"repro-stream-{state.name}", daemon=True
        )
        completed = False
        async with state.lock.read_locked():
            await chunked.start()
            thread.start()
            try:
                while True:
                    kind, payload = await queue.get()
                    if kind == "world":
                        if cancel.is_set():
                            continue  # draining towards the terminal marker
                        try:
                            await chunked.write_line({"kind": "world", "world": payload})
                            self.metrics.worlds_streamed += 1
                        except (ConnectionError, OSError):
                            cancel.set()
                        continue
                    if kind == "done":
                        if not cancel.is_set():
                            with contextlib.suppress(ConnectionError, OSError):
                                await chunked.write_line(
                                    {"kind": "summary", "worlds": payload}
                                )
                                # The summary is the semantic end of stream: a
                                # client hanging up between it and the chunked
                                # terminator still counts as completed.
                                completed = True
                                await chunked.finish()
                        break
                    if kind == "cancelled":
                        break
                    assert kind == "error"
                    with contextlib.suppress(ConnectionError, OSError):
                        await chunked.write_line({"kind": "error", "error": payload})
                        await chunked.finish()
                    self.metrics.errors += 1
                    completed = True  # terminated cleanly, if unhappily
                    break
            finally:
                cancel.set()
                watcher.cancel()
                with contextlib.suppress(
                    asyncio.CancelledError, ConnectionError, OSError
                ):
                    await watcher
                # Unblock a pump stuck on a full queue, then let it finish.
                while thread.is_alive():
                    while not queue.empty():
                        queue.get_nowait()
                    await asyncio.sleep(0.01)
                thread.join(timeout=5.0)
        if completed:
            self.metrics.streams_completed += 1
        else:
            self.metrics.streams_cancelled += 1


class ServiceThread:
    """A :class:`DecisionService` on a private loop in a daemon thread.

    The embedding surface for tests, benchmarks and doc snippets::

        with ServiceThread(ServiceConfig(port=0)) as svc:
            client = ServiceClient(svc.base_url)
            ...

    ``port=0`` binds an ephemeral port; :attr:`base_url` reports the bound
    address once the server is up.  Exiting the context performs the same
    drain-then-exit shutdown as the CLI entrypoint.
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self._config = config if config is not None else ServiceConfig(port=0)
        self._ready = threading.Event()
        self._failure: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self.service: DecisionService | None = None
        self._base_url: str | None = None

    def start(self) -> "ServiceThread":
        if self._thread is not None:
            raise ServiceError("ServiceThread is not reentrant")
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=60.0):
            raise ServiceError("service thread did not start within 60s")
        if self._failure is not None:
            raise ServiceError(f"service failed to start: {self._failure}")
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as err:  # noqa: BLE001 - reported to the caller
            self._failure = err
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        service = DecisionService(self._config)
        self.service = service
        await service.start()
        self._base_url = service.base_url
        self._ready.set()
        await self._stop.wait()
        await service.shutdown(drain=True)

    @property
    def base_url(self) -> str:
        assert self._base_url is not None, "start() must run first"
        return self._base_url

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30.0)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
