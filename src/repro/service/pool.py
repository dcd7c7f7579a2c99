"""The :class:`DatabasePool`: per-session facades, one thread pool, memoisation.

The pool owns one :class:`SessionState` per named session (its
:class:`~repro.api.Database`, lock, recent envelopes and rate window) plus
the thread pool that keeps engine work off the event loop, and implements
the service's cross-request semantics:

* **memoisation** — every decision request probes the session facade's
  :class:`~repro.incremental.DecisionCache` through the public
  :meth:`~repro.api.Database.cache_probe` on the loop before any engine
  runs, under the exact ``(problem, args_key, engine)`` identity the
  facade's own methods use (:mod:`repro.service.problems`).  A miss calls
  that facade method on a worker thread, and the method stores its result
  under the facade's own dependency-scoped invalidation rules — so service
  traffic and embedded facade calls share one cache, and
  :meth:`~repro.api.Database.update` evicts exactly the dependent entries;
* **single-flight** — concurrent misses under one cache identity (same
  session, ``problem``, ``args_key`` and resolved engine name) collapse onto
  one computation whose :class:`~repro.decision.Decision` fans out to every
  waiter, so requests the cache treats as one also share one flight;
* **update serialisation** — ``update``/``batch`` take the session's write
  lock, so they never run under an in-flight read (a timed-out miss
  included: it holds the read side until its thread returns), and bump the
  session's ``version`` counter.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Mapping

from repro.api import Database
from repro.exceptions import (
    InconsistentUpdateError,
    ReproError,
    ServiceError,
    UpdateError,
)
from repro.incremental import MISS, RowSpec, UpdateResult
from repro.search.registry import EngineConfig, resolve_engine_name
from repro.service.locks import ReadWriteLock
from repro.service.metrics import ServiceMetrics
from repro.service.plugins import SessionSpec, get_workload
from repro.service.problems import (
    invoke,
    parse_decision,
    parse_engine,
    parse_rows,
    result_payload,
    update_payload,
)
from repro.service.singleflight import SingleFlight

__all__ = ["DatabasePool", "SessionState"]

#: How many decision envelopes a session keeps for ``GET .../results``.
RESULTS_KEPT = 64

#: The sliding window, in seconds, that ``ServiceConfig.rate_limit`` counts.
RATE_WINDOW_SECONDS = 1.0


@dataclass
class SessionState:
    """One named session: spec + facade + lock + update counter, and what
    the server keeps per session: its newest decision envelopes and the
    times of the requests its rate limit counts.  Dropping the session
    drops them too."""

    name: str
    spec: SessionSpec
    database: Database
    engine: str | None = None
    lock: ReadWriteLock = field(default_factory=ReadWriteLock)
    version: int = 0
    results: deque[dict[str, Any]] = field(
        default_factory=lambda: deque(maxlen=RESULTS_KEPT)
    )
    requests: deque[float] = field(default_factory=deque)

    def admit(self, limit: int, now: float) -> bool:
        """Whether one more request at ``now`` (monotonic seconds) keeps the
        session within ``limit`` requests per sliding
        :data:`RATE_WINDOW_SECONDS`; an admitted request is counted."""
        requests = self.requests
        while requests and requests[0] <= now - RATE_WINDOW_SECONDS:
            requests.popleft()
        if len(requests) >= limit:
            return False
        requests.append(now)
        return True

    def info(self) -> dict[str, Any]:
        """The JSON shape of ``GET /sessions/{name}``."""
        cinstance = self.database.cinstance
        return {
            "name": self.name,
            "description": self.spec.description,
            "engine": self.engine,
            "version": self.version,
            "relations": {
                name: len(table.rows) for name, table in cinstance.tables().items()
            },
            "queries": sorted(self.spec.queries),
            "constraints": len(self.database.constraints),
        }


def _apply_batch(
    db: Database, steps: list[tuple[dict[str, list[RowSpec]], dict[str, list[RowSpec]]]]
) -> list[UpdateResult]:
    results: list[UpdateResult] = []
    with db.batch() as batch:
        for add, drop in steps:
            results.append(batch.update(add_rows=add, drop_rows=drop))
    return results


class DatabasePool:
    """Owns the sessions, the thread pool and the cross-request semantics."""

    def __init__(
        self,
        *,
        executor_workers: int | None = None,
        request_timeout: float | None = 30.0,
        metrics: ServiceMetrics | None = None,
    ) -> None:
        self._request_timeout = request_timeout
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self._sessions: dict[str, SessionState] = {}
        self._singleflight = SingleFlight()
        self._executor = ThreadPoolExecutor(
            max_workers=executor_workers, thread_name_prefix="repro-service"
        )

    # ------------------------------------------------------------------
    # session lifecycle
    # ------------------------------------------------------------------
    def create_session(
        self,
        name: str,
        workload: str,
        params: Mapping[str, Any] | None = None,
        engine: str | None = None,
    ) -> SessionState:
        """Create a session from a registered workload."""
        if not name or "/" in name:
            raise ServiceError(f"invalid session name {name!r}")
        if name in self._sessions:
            raise ServiceError(
                f"session {name!r} already exists", status=409
            )
        spec = get_workload(workload)(**dict(params or {}))
        if not isinstance(spec, SessionSpec):
            raise ServiceError(f"workload {workload!r} did not produce a SessionSpec")
        return self.add_session(name, spec, engine=engine)

    def add_session(
        self, name: str, spec: SessionSpec, *, engine: str | None = None
    ) -> SessionState:
        """Register a session from an explicit spec (embedding surface)."""
        if name in self._sessions:
            raise ServiceError(f"session {name!r} already exists", status=409)
        if engine is not None:
            try:
                EngineConfig.coerce(engine).spec()  # validate the name now
            except ReproError as err:
                raise ServiceError(f"bad session engine: {err}") from err
        database = Database(
            spec.cinstance, spec.master, spec.constraints, engine=engine
        )
        state = SessionState(name=name, spec=spec, database=database, engine=engine)
        self._sessions[name] = state
        return state

    def drop_session(self, name: str) -> None:
        if name not in self._sessions:
            raise ServiceError(f"unknown session {name!r}", status=404)
        del self._sessions[name]

    def session(self, name: str) -> SessionState:
        state = self._sessions.get(name)
        if state is None:
            raise ServiceError(f"unknown session {name!r}", status=404)
        return state

    def session_names(self) -> list[str]:
        return sorted(self._sessions)

    # ------------------------------------------------------------------
    # the decision path
    # ------------------------------------------------------------------
    async def decide(self, name: str, body: Any) -> dict[str, Any]:
        """One decision request: probe → single-flight → a worker thread."""
        started = time.perf_counter()
        state = self.session(name)
        if not isinstance(body, Mapping):
            raise ServiceError("decision request body must be a JSON object")
        request = parse_decision(state.spec, body)
        engine = parse_engine(body)
        include_witness = bool(body.get("include_witness", False))
        cache_hit = False
        deduplicated = False
        work: asyncio.Future[Any] | None = None
        await state.lock.acquire_read()
        try:
            value = state.database.cache_probe(
                request.problem, request.args_key, engine=engine
            )
            if value is not MISS:
                cache_hit = True
                self.metrics.cache_hits += 1
            else:
                # The facade's cache identity, resolved as its _cache_key
                # resolves a wire request's engine (a name, no options).
                flight_key = (
                    name,
                    request.problem,
                    request.args_key,
                    resolve_engine_name(engine if engine is not None else state.engine),
                )
                leader, future = self._singleflight.acquire(flight_key)
                if leader:
                    try:
                        work = asyncio.get_running_loop().run_in_executor(
                            self._executor,
                            partial(invoke, state.database, request, engine),
                        )
                        value = await self._await_work(work)
                        self.metrics.engine_runs += 1
                        future.set_result(value)
                    except BaseException as err:
                        if not future.done():
                            future.set_exception(err)
                            # A flight with no followers would warn about a
                            # never-retrieved exception on GC; mark it seen.
                            future.exception()
                        raise
                    finally:
                        self._singleflight.release(flight_key)
                else:
                    deduplicated = True
                    self.metrics.singleflight_followers += 1
                    value = await future
        finally:
            if work is None or work.done():
                state.lock.release_read()
            else:
                # A worker thread cannot be interrupted: the session stays
                # read-locked, so no update commits under the facade it is
                # reading, until the work returns.
                work.add_done_callback(lambda _work: state.lock.release_read())
        self.metrics.decisions += 1
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        return {
            "ok": True,
            "session": name,
            "problem": request.problem,
            "cache_hit": cache_hit,
            "deduplicated": deduplicated,
            "elapsed_ms": elapsed_ms,
            "result": result_payload(value, include_witness=include_witness),
        }

    async def _await_work(self, work: asyncio.Future[Any]) -> Any:
        """The result of one miss's work, or a 504 once the request timeout
        passes; the shield keeps the work's future from being cancelled."""
        try:
            return await asyncio.wait_for(
                asyncio.shield(work), timeout=self._request_timeout
            )
        except asyncio.TimeoutError as err:
            self.metrics.timeouts += 1
            raise ServiceError(
                f"request exceeded the {self._request_timeout}s timeout",
                status=504,
            ) from err

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    async def update(self, name: str, body: Any) -> dict[str, Any]:
        """Apply one ``update`` under the session's write lock."""
        state = self.session(name)
        if not isinstance(body, Mapping):
            raise ServiceError("update request body must be a JSON object")
        add = parse_rows(body.get("add_rows"), "add_rows")
        drop = parse_rows(body.get("drop_rows"), "drop_rows")
        async with state.lock.write_locked():
            try:
                result = await asyncio.to_thread(state.database.update, add, drop)
            except UpdateError as err:
                raise ServiceError(str(err)) from err
            state.version += 1
        self.metrics.updates += 1
        self.metrics.cache_evictions += result.invalidated
        return {"ok": True, "session": name, "update": update_payload(result)}

    async def batch(self, name: str, body: Any) -> dict[str, Any]:
        """Apply a transactional batch; 409 + rollback on net inconsistency."""
        state = self.session(name)
        if not isinstance(body, Mapping):
            raise ServiceError("batch request body must be a JSON object")
        raw_steps = body.get("steps")
        if not isinstance(raw_steps, list):
            raise ServiceError("batch body requires a \"steps\" list")
        steps = [
            (
                parse_rows(step.get("add_rows"), "add_rows")
                if isinstance(step, Mapping)
                else _bad_step(),
                parse_rows(step.get("drop_rows"), "drop_rows")
                if isinstance(step, Mapping)
                else _bad_step(),
            )
            for step in raw_steps
        ]
        async with state.lock.write_locked():
            try:
                results = await asyncio.to_thread(
                    _apply_batch, state.database, steps
                )
            except InconsistentUpdateError as err:
                raise ServiceError(str(err), status=409) from err
            except UpdateError as err:
                raise ServiceError(str(err)) from err
            state.version += 1
        self.metrics.updates += len(results)
        self.metrics.cache_evictions += sum(r.invalidated for r in results)
        return {
            "ok": True,
            "session": name,
            "steps": [update_payload(result) for result in results],
        }

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Shut down the thread pool once its running work returns
        (idempotent)."""
        self._executor.shutdown(wait=True, cancel_futures=True)


def _bad_step() -> dict[str, list[RowSpec]]:
    raise ServiceError("each batch step must be an object with add_rows/drop_rows")
