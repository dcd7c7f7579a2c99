"""The :class:`DatabasePool`: per-session facades, executors, memoisation.

The pool owns one :class:`~repro.api.Database` per named session plus the
executor that keeps engine work off the event loop, and implements the
service's cross-request semantics:

* **memoisation** — every decision request probes the session facade's
  :class:`~repro.incremental.DecisionCache` through the public
  :meth:`~repro.api.Database.cache_probe` before any engine runs, under the
  exact ``(problem, args_key, engine)`` identity the facade's own methods
  use (:mod:`repro.service.problems`), and stores computed results back with
  the facade's dependency-scoped invalidation rules — so service traffic and
  embedded facade calls share one cache, and
  :meth:`~repro.api.Database.update` evicts exactly the dependent entries;
* **single-flight** — concurrent identical requests (same session, same
  canonical body fingerprint, same engine) collapse onto one computation
  whose :class:`~repro.decision.Decision` fans out to every waiter;
* **update serialisation** — ``update``/``batch`` take the session's write
  lock, so they never run under an in-flight read, and bump the session
  version that invalidates worker-process replicas.

Executor kinds: ``"process"`` (default) ships the parsed request, with the
session's current c-instance, to a fork-pool worker which rebuilds (and
caches, keyed by session name + version) a replica ``Database`` and
computes there — the main-process facade stays authoritative for cache and
updates, only CPU work migrates;
``"thread"`` runs the main facade on a thread pool (GIL-shared, loop stays
responsive); ``"inline"`` computes on the loop (tests, tiny workloads).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Mapping

from repro.api import Database
from repro.constraints.containment import ContainmentConstraint
from repro.ctables.cinstance import CInstance
from repro.exceptions import (
    InconsistentUpdateError,
    ReproError,
    ServiceError,
    UpdateError,
)
from repro.incremental import MISS, RowSpec, UpdateResult
from repro.relational.master import MasterData
from repro.search.registry import EngineConfig
from repro.service.fingerprint import canonical_fingerprint
from repro.service.locks import ReadWriteLock
from repro.service.metrics import ServiceMetrics
from repro.service.plugins import SessionSpec, get_service_plugin
from repro.service.problems import (
    DecisionRequest,
    dependencies,
    invoke,
    parse_decision,
    parse_engine,
    parse_rows,
    result_payload,
    update_payload,
)
from repro.service.singleflight import SingleFlight

__all__ = ["DatabasePool", "SessionState"]


@dataclass(frozen=True)
class _ReplicaPayload:
    """What a process-pool worker needs to rebuild a session replica.

    ``cinstance`` is the session facade's *current* c-instance, so a replica
    rebuilt after an update sees the updated rows.
    """

    name: str
    version: int
    cinstance: CInstance
    master: MasterData
    constraints: tuple[ContainmentConstraint, ...]
    engine: str | None


# Per-worker replica cache: one facade per session, rebuilt when the parent's
# session version moves (every update bumps it).  Keeping the replica alive
# across requests lets the worker reuse its checker, Adom and its *own*
# decision cache for process-local repeats.
# reprolint: disable=R005 -- deliberate per-process memo cache: each forked
# worker keeps its own replicas; the parent never reads or depends on them.
_REPLICAS: dict[str, tuple[int, Database]] = {}


def _replica(payload: _ReplicaPayload) -> Database:
    held = _REPLICAS.get(payload.name)
    if held is not None and held[0] == payload.version:
        return held[1]
    db = Database(
        payload.cinstance,
        payload.master,
        payload.constraints,
        engine=payload.engine,
    )
    _REPLICAS[payload.name] = (payload.version, db)
    return db


def _process_decide(
    payload: _ReplicaPayload,
    request: DecisionRequest,
    engine: EngineConfig | None,
) -> Any:
    """Worker-side entry point: rebuild/reuse the replica and compute."""
    return invoke(_replica(payload), request, engine)


@dataclass
class SessionState:
    """One named session: spec + facade + lock + replica versioning."""

    name: str
    spec: SessionSpec
    database: Database
    engine: str | None = None
    lock: ReadWriteLock = field(default_factory=ReadWriteLock)
    version: int = 0

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
    """Owns the sessions, the executor and the cross-request semantics."""

    def __init__(
        self,
        *,
        executor: str = "process",
        executor_workers: int | None = None,
        request_timeout: float | None = 30.0,
        metrics: ServiceMetrics | None = None,
    ) -> None:
        if executor not in ("process", "thread", "inline"):
            raise ServiceError(f"unknown executor kind {executor!r}")
        self._executor_kind = executor
        self._executor_workers = executor_workers
        self._request_timeout = request_timeout
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self._sessions: dict[str, SessionState] = {}
        self._singleflight = SingleFlight()
        self._executor: Executor | None = None

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
        """Create a session from a registered workload plugin."""
        if not name or "/" in name:
            raise ServiceError(f"invalid session name {name!r}")
        if name in self._sessions:
            raise ServiceError(
                f"session {name!r} already exists", status=409
            )
        factory = get_service_plugin("workload", workload)
        spec = factory(**dict(params or {}))
        if not isinstance(spec, SessionSpec):
            raise ServiceError(
                f"workload plugin {workload!r} did not produce a SessionSpec"
            )
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
        """One decision request: probe → single-flight → compute → store."""
        started = time.perf_counter()
        state = self.session(name)
        if not isinstance(body, Mapping):
            raise ServiceError("decision request body must be a JSON object")
        request = parse_decision(state.spec, body)
        engine = parse_engine(body)
        include_witness = bool(body.get("include_witness", False))
        engine_key = (
            (engine.name, engine.workers) if engine is not None else state.engine
        )
        flight_key = (
            name,
            request.problem,
            canonical_fingerprint(
                {
                    key: value
                    for key, value in body.items()
                    if key != "include_witness"
                }
            ),
            engine_key,
        )
        cache_hit = False
        deduplicated = False
        async with state.lock.read_locked():
            db = state.database
            value = db.cache_probe(request.problem, request.args_key, engine=engine)
            if value is not MISS:
                cache_hit = True
                self.metrics.cache_hits += 1
            else:
                leader, future = self._singleflight.acquire(flight_key)
                if leader:
                    try:
                        value = await self._compute(state, request, engine)
                        db.cache_store(
                            request.problem,
                            request.args_key,
                            value,
                            deps=dependencies(db, request),
                            engine=engine,
                        )
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

    async def _compute(
        self,
        state: SessionState,
        request: DecisionRequest,
        engine: EngineConfig | None,
    ) -> Any:
        """Run one engine computation on the configured executor."""
        loop = asyncio.get_running_loop()
        if self._executor_kind == "inline":
            await asyncio.sleep(0)  # keep one suspension point even inline
            return invoke(state.database, request, engine)
        if self._executor_kind == "thread":
            call = partial(invoke, state.database, request, engine)
        else:
            database = state.database
            payload = _ReplicaPayload(
                name=state.name,
                version=state.version,
                cinstance=database.cinstance,
                master=database.master,
                constraints=database.constraints,
                engine=state.engine,
            )
            call = partial(_process_decide, payload, request, engine)
        task = loop.run_in_executor(self._get_executor(), call)
        if self._request_timeout is None:
            return await task
        try:
            return await asyncio.wait_for(task, timeout=self._request_timeout)
        except asyncio.TimeoutError as err:
            # The executor work itself cannot be interrupted portably; it
            # finishes in the background and is discarded.
            self.metrics.timeouts += 1
            raise ServiceError(
                f"request exceeded the {self._request_timeout}s timeout",
                status=504,
            ) from err

    def _get_executor(self) -> Executor:
        if self._executor is None:
            if self._executor_kind == "thread":
                self._executor = ThreadPoolExecutor(
                    max_workers=self._executor_workers,
                    thread_name_prefix="repro-service",
                )
            else:
                kwargs: dict[str, Any] = {"max_workers": self._executor_workers}
                if "fork" in multiprocessing.get_all_start_methods():
                    kwargs["mp_context"] = multiprocessing.get_context("fork")
                self._executor = ProcessPoolExecutor(**kwargs)
        return self._executor

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
        """Shut down the executor (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None


def _bad_step() -> dict[str, list[RowSpec]]:
    raise ServiceError("each batch step must be an object with add_rows/drop_rows")
