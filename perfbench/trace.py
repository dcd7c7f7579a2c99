"""Span recording around the program's layer seams, from outside ``src/``.

:class:`SpanRecorder` keeps one span per wrapped call — name, start, end,
parent span and op id — in memory and writes them out when the run ends.
:func:`engine_seams` and :func:`server_seams` list the functions wrapped for
each layer; every function is patched where its callers look it up (a class
attribute, or the module global of the module that imported it by name).
:func:`layer_metrics` turns the spans into the per-layer metrics, using
*self* time: a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from array import array
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Iterable

#: Per-span extra facts: ``pre(args, kwargs) -> state`` runs before the call,
#: ``post(args, result, state) -> dict | None`` after it; the dict is stored
#: as the span's info.
Pre = Callable[[tuple, dict], Any]
Post = Callable[[tuple, Any, Any], "dict[str, float] | None"]

#: One recorded span: id, parent id (0 for a root), op id, name, start and
#: end (``perf_counter`` seconds), and its info fields.
SpanRow = tuple[int, int, int, str, float, float, "dict[str, float] | None"]


class SpanRecorder:
    """In-memory spans in parallel arrays (about 40 bytes per span).

    Span info is kept in three more arrays, one entry per field, so recording
    retains no per-span objects for the garbage collector to walk.
    """

    def __init__(self) -> None:
        self.enabled = True
        self.current: ContextVar[int] = ContextVar("perfbench_span", default=0)
        self.op: ContextVar[int] = ContextVar("perfbench_op", default=0)
        self._ids = itertools.count(1)
        self._names: dict[str, int] = {}
        self._name_list: list[str] = []
        self._lock = threading.Lock()
        self.span_id = array("q")
        self.parent = array("q")
        self.op_id = array("q")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.info_span = array("q")
        self.info_key = array("H")
        self.info_value = array("d")

    def disable(self) -> None:
        self.enabled = False

    def _record(
        self, span: int, parent: int, name: str, start: float, end: float,
        info: dict[str, float] | None,
    ) -> None:
        with self._lock:
            self.span_id.append(span)
            self.parent.append(parent)
            self.op_id.append(self.op.get())
            self.name.append(self._index(name))
            self.start.append(start)
            self.end.append(end)
            if info:
                for key, value in info.items():
                    self.info_span.append(span)
                    self.info_key.append(self._index(key))
                    self.info_value.append(value)

    def _index(self, name: str) -> int:
        index = self._names.get(name)
        if index is None:
            index = self._names[name] = len(self._name_list)
            self._name_list.append(name)
        return index

    def span(self, name: str) -> "_OpenSpan":
        """A ``with`` block recorded as one span (for the runner's own ops)."""
        return _OpenSpan(self, name)

    def wrap(
        self, name: str, fn: Callable[..., Any], pre: Pre | None = None,
        post: Post | None = None,
    ) -> Callable[..., Any]:
        """``fn`` recorded as span ``name``; coroutine functions stay async."""
        recorder = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                if not recorder.enabled:
                    return await fn(*args, **kwargs)
                span = next(recorder._ids)
                parent = recorder.current.get()
                token = recorder.current.set(span)
                state = pre(args, kwargs) if pre is not None else None
                start = time.perf_counter()
                result: Any = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    end = time.perf_counter()
                    recorder.current.reset(token)
                    info = post(args, result, state) if post is not None else None
                    recorder._record(span, parent, name, start, end, info)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not recorder.enabled:
                return fn(*args, **kwargs)
            span = next(recorder._ids)
            parent = recorder.current.get()
            token = recorder.current.set(span)
            state = pre(args, kwargs) if pre is not None else None
            start = time.perf_counter()
            result: Any = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                recorder.current.reset(token)
                info = post(args, result, state) if post is not None else None
                recorder._record(span, parent, name, start, end, info)

        return wrapper

    def rows(self) -> Iterable[SpanRow]:
        names = self._name_list
        info: dict[int, dict[str, float]] = {}
        for span, key, value in zip(self.info_span, self.info_key, self.info_value):
            info.setdefault(span, {})[names[key]] = value
        for i in range(len(self.span_id)):
            span = self.span_id[i]
            yield (
                span, self.parent[i], self.op_id[i], names[self.name[i]],
                self.start[i], self.end[i], info.get(span),
            )

    def write(self, path: str) -> None:
        """Write the spans as TSV: span, parent, op, name, start, end, info."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tparent\top\tname\tstart_s\tend_s\tinfo\n")
            for span, parent, op, name, start, end, info in self.rows():
                extra = json.dumps(info, sort_keys=True) if info else ""
                handle.write(
                    f"{span}\t{parent}\t{op}\t{name}\t{start:.9f}\t{end:.9f}\t{extra}\n"
                )


class _OpenSpan:
    def __init__(self, recorder: SpanRecorder, name: str) -> None:
        self._recorder = recorder
        self._name = name
        self.info: dict[str, float] = {}

    def __enter__(self) -> "_OpenSpan":
        recorder = self._recorder
        self._span = next(recorder._ids)
        self._parent = recorder.current.get()
        self._token = recorder.current.set(self._span)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        end = time.perf_counter()
        recorder = self._recorder
        recorder.current.reset(self._token)
        recorder._record(self._span, self._parent, self._name, self._start, end, self.info)


def read_spans(path: str) -> list[SpanRow]:
    """Load a file written by :meth:`SpanRecorder.write`."""
    rows = []
    with open(path, encoding="utf-8") as handle:
        next(handle)
        for line in handle:
            span, parent, op, name, start, end, info = line.rstrip("\n").split("\t")
            rows.append((
                int(span), int(parent), int(op), name, float(start), float(end),
                json.loads(info) if info else None,
            ))
    return rows


# ---------------------------------------------------------------------------
# seams
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Seam:
    """One wrapped function: ``owner.attr`` recorded as span ``span``."""

    owner: Any
    attr: str
    span: str
    pre: Pre | None = None
    post: Post | None = None


def install(recorder: SpanRecorder, seams: list[Seam]) -> Callable[[], None]:
    """Patch every seam; returns the function that restores the originals."""
    originals = []
    for seam in seams:
        original = getattr(seam.owner, seam.attr)
        originals.append((seam.owner, seam.attr, original))
        setattr(seam.owner, seam.attr, recorder.wrap(seam.span, original, seam.pre, seam.post))

    def uninstall() -> None:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

    return uninstall


def _decision_info(_args: tuple, result: Any, _state: Any) -> dict[str, float] | None:
    """``searches`` and ``reused_solver`` of a returned Decision."""
    stats = getattr(result, "stats", None)
    if stats is None:
        return None
    info: dict[str, float] = {"searches": stats.searches}
    if stats.reused_solver is not None:
        info["reused"] = float(stats.reused_solver)
    return info


def _cache_get_info(_args: tuple, result: Any, _state: Any) -> dict[str, float]:
    from repro.incremental import MISS

    return {"hit": float(result is not MISS)}


def _evicted_info(_args: tuple, result: Any, _state: Any) -> dict[str, float]:
    return {"evicted": float(result or 0)}


def _push_info(_args: tuple, result: Any, _state: Any) -> dict[str, float] | None:
    return None if result else {"violated": 1.0}


def _encoding_info(args: tuple, result: Any, _state: Any) -> dict[str, float] | None:
    encoding = result if result is not None else getattr(args[0], "encoding", None)
    stats = getattr(encoding, "stats", None)
    return None if stats is None else {"clauses": float(stats.clauses)}


def _solver_before(args: tuple, _kwargs: dict) -> tuple[int, int, int]:
    stats = args[0].stats
    return stats.decisions, stats.propagations, stats.conflicts


def _solver_after(args: tuple, _result: Any, before: tuple[int, int, int]) -> dict[str, float]:
    stats = args[0].stats
    return {
        "decisions": float(stats.decisions - before[0]),
        "propagations": float(stats.propagations - before[1]),
        "conflicts": float(stats.conflicts - before[2]),
    }


#: The facade methods a caller uses; ``cache_probe`` belongs to the cache layer.
API_METHODS = (
    "__init__", "update", "batch", "is_consistent", "count", "complete", "rcdp",
    "minp", "rcqp", "certain_answers", "certain_answers_over_extensions",
    "worlds", "valuations",
)

#: The deciders as the facade binds them, by their names in ``repro.api``.
DECIDERS = (
    "is_relatively_complete", "_is_minimal_complete", "_rcqp",
    "certain_answer_over_models", "certain_answer_over_extensions", "_is_consistent",
)

#: Modules that import ``default_active_domain`` by name; ``possible_worlds``
#: defines it and serves the engines that import it lazily.
ADOM_IMPORTERS = (
    "repro.api", "repro.ctables.possible_worlds", "repro.completeness.certain",
    "repro.completeness.consistency", "repro.completeness.minp",
    "repro.completeness.strong", "repro.completeness.viable", "repro.completeness.weak",
)


def engine_seams() -> list[Seam]:
    """The in-process layers: facade, Adom, cache, deciders, search, SAT."""
    import importlib

    import repro.api as api
    from repro.incremental import DecisionCache
    from repro.reductions.dpll import DPLLSolver
    from repro.search import propagation, sat_engine
    from repro.search.cnf_encoding import IncrementalEncoder
    from repro.search.propagation import CheckerSession
    from repro.search.sat_engine import IncrementalSATSession

    seams = [
        Seam(api.Database, method, f"api.{method.strip('_')}", post=_decision_info)
        for method in API_METHODS
    ]
    seams += [
        Seam(importlib.import_module(module), "default_active_domain", "adom.build")
        for module in ADOM_IMPORTERS
    ]
    seams += [
        Seam(api.Database, "cache_probe", "cache.probe"),
        Seam(DecisionCache, "get", "cache.get", post=_cache_get_info),
        Seam(DecisionCache, "invalidate", "cache.invalidate", post=_evicted_info),
    ]
    seams += [
        Seam(api, name, f"completeness.{name.strip('_')}", post=_decision_info)
        for name in DECIDERS
    ]
    seams += [
        Seam(CheckerSession, "push", "checker.push", post=_push_info),
        Seam(propagation, "join_escapes_rhs", "joinplan.join"),
        Seam(sat_engine, "encode_world_search", "cnf.encode", post=_encoding_info),
        Seam(IncrementalEncoder, "__init__", "cnf.encode", post=_encoding_info),
        Seam(IncrementalEncoder, "add_ground", "cnf.add_ground"),
        Seam(IncrementalEncoder, "drop_ground", "cnf.drop_ground"),
        Seam(DPLLSolver, "__init__", "dpll.load"),
        Seam(DPLLSolver, "solve", "dpll.solve", pre=_solver_before, post=_solver_after),
        Seam(IncrementalSATSession, "__init__", "sat.session"),
        Seam(IncrementalSATSession, "apply", "sat.apply"),
        Seam(IncrementalSATSession, "has_world", "sat.has_world"),
        Seam(IncrementalSATSession, "count_worlds", "sat.count"),
    ]
    return seams


#: The request header carrying the client's op id into the server's spans.
OP_HEADER = "x-perfbench-op"


def server_seams(recorder: SpanRecorder) -> list[Seam]:
    """The service layers of the server's main process (HTTP, pool).

    After ``read_request`` parses a request, its :data:`OP_HEADER` becomes
    the op id of every later span of the connection's handler task.
    """
    from repro.service import server
    from repro.service.pool import DatabasePool

    def tag_request_op(_args: tuple, request: Any, _state: Any) -> None:
        raw = request.headers.get(OP_HEADER) if request is not None else None
        if raw is not None and raw.isdigit():
            recorder.op.set(int(raw))
        return None

    return [
        Seam(server, "read_request", "http.read", post=tag_request_op),
        Seam(server, "send_json", "http.send"),
        Seam(DatabasePool, "update", "pool.update"),
    ]


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------
@dataclass
class LayerTotals:
    """Per span name: calls, self seconds and summed info fields."""

    calls: dict[str, int]
    self_s: dict[str, float]
    info: dict[str, dict[str, float]]
    info_calls: dict[str, dict[str, int]]

    def count(self, *names: str) -> int:
        return sum(self.calls.get(name, 0) for name in names)

    def self_ms(self, *names: str) -> float:
        return 1000.0 * sum(self.self_s.get(name, 0.0) for name in names)

    def total(self, field_name: str, *names: str) -> float:
        return sum(self.info.get(name, {}).get(field_name, 0.0) for name in names)

    def counted(self, field_name: str, *names: str) -> int:
        return sum(self.info_calls.get(name, {}).get(field_name, 0) for name in names)


def totals(rows: Iterable[SpanRow]) -> LayerTotals:
    """Fold spans into per-name call counts, self times and info sums."""
    rows = list(rows)
    child_time: dict[int, float] = {}
    for _span, parent, _op, _name, start, end, _info in rows:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    info_sums: dict[str, dict[str, float]] = {}
    info_calls: dict[str, dict[str, int]] = {}
    for span, _parent, _op, name, start, end, info in rows:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time.get(span, 0.0)
        if info:
            sums = info_sums.setdefault(name, {})
            seen = info_calls.setdefault(name, {})
            for key, value in info.items():
                sums[key] = sums.get(key, 0.0) + value
                seen[key] = seen.get(key, 0) + 1
    return LayerTotals(calls, self_s, info_sums, info_calls)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


API_SPANS = tuple(f"api.{method.strip('_')}" for method in API_METHODS)
DECIDER_SPANS = tuple(f"completeness.{name.strip('_')}" for name in DECIDERS)


def layer_metrics(engine: LayerTotals, server: LayerTotals | None) -> dict[str, float]:
    """Per-layer metrics from client-side and (for the service) server spans.

    Engine layers are read from whichever process ran them; the HTTP read and
    send spans and ``DatabasePool.update`` exist only in the server.  Times
    are self times in ms summed over the traced phase; counts are totals.
    """
    both = [engine] + ([server] if server is not None else [])

    def count(*names: str) -> int:
        return sum(part.count(*names) for part in both)

    def self_ms(*names: str) -> float:
        return sum(part.self_ms(*names) for part in both)

    def total(field_name: str, *names: str) -> float:
        return sum(part.total(field_name, *names) for part in both)

    def counted(field_name: str, *names: str) -> int:
        return sum(part.counted(field_name, *names) for part in both)

    def op_total(field_name: str) -> float:
        return engine.total(field_name, "op", "setup")

    http_server = server if server is not None else LayerTotals({}, {}, {}, {})
    return {
        "api.calls": count(*API_SPANS),
        "api.self_ms": self_ms(*API_SPANS),
        "adom.builds": count("adom.build"),
        "adom.build_ms": self_ms("adom.build"),
        "cache.probes": count("cache.get"),
        "cache.hit_ratio": _ratio(total("hit", "cache.get"), count("cache.get")),
        "cache.probe_ms": self_ms("cache.probe", "cache.get"),
        "cache.evictions": total("evicted", "cache.invalidate"),
        "completeness.calls": count(*DECIDER_SPANS),
        "completeness.self_ms": self_ms(*DECIDER_SPANS),
        "completeness.searches": total("searches", *DECIDER_SPANS),
        "search.runs": op_total("search_runs"),
        "search.nodes": op_total("nodes"),
        "search.prune_ratio": _ratio(op_total("pruned"), op_total("nodes")),
        "search.dup_ratio": _ratio(op_total("duplicate_worlds"), op_total("valuations")),
        "checker.pushes": count("checker.push"),
        "checker.push_ms": self_ms("checker.push"),
        "checker.violation_ratio": _ratio(
            total("violated", "checker.push"), count("checker.push")
        ),
        "joinplan.calls": count("joinplan.join"),
        "joinplan.ms": self_ms("joinplan.join"),
        "cnf.encodes": count("cnf.encode"),
        "cnf.encode_ms": self_ms("cnf.encode"),
        "cnf.clauses": total("clauses", "cnf.encode"),
        "cnf.ground_updates": count("cnf.add_ground", "cnf.drop_ground"),
        "cnf.ground_update_ms": self_ms("cnf.add_ground", "cnf.drop_ground"),
        "dpll.loads": count("dpll.load"),
        "dpll.load_ms": self_ms("dpll.load"),
        "dpll.solves": count("dpll.solve"),
        "dpll.solve_ms": self_ms("dpll.solve"),
        "dpll.decisions": total("decisions", "dpll.solve"),
        "dpll.propagations": total("propagations", "dpll.solve"),
        "dpll.conflicts": total("conflicts", "dpll.solve"),
        "sat.sessions": count("sat.session"),
        "sat.apply_ms": self_ms("sat.apply"),
        "sat.reused_ratio": _ratio(
            total("reused", *API_SPANS), counted("reused", *API_SPANS)
        ),
        "sat.count_ms": self_ms("sat.count"),
        "sat.oneshot_runs": op_total("sat_oneshot"),
        "http.connect_ms": engine.self_ms("http.connect"),
        "http.overhead_ms": engine.total("overhead_ms", "http.request"),
        "http.read_ms": http_server.self_ms("http.read"),
        "http.send_ms": http_server.self_ms("http.send"),
        "pool.hit_ratio": _ratio(
            engine.total("cache_hit", "http.request"),
            engine.counted("cache_hit", "http.request"),
        ),
        "pool.decide_ms": engine.total("elapsed_ms", "http.request"),
        "pool.miss_ms": engine.total("miss_elapsed_ms", "http.request"),
        "pool.engine_runs": op_total("engine_runs"),
        "pool.update_ms": http_server.self_ms("pool.update"),
    }


def search_info(searches: list[Any]) -> dict[str, float]:
    """Engine counters of the engines one op created (``collect_searches``)."""
    from repro.search.engine import WorldSearch
    from repro.search.sat_engine import SATWorldSearch

    info = {
        "search_runs": 0.0, "nodes": 0.0, "pruned": 0.0, "valuations": 0.0,
        "duplicate_worlds": 0.0, "sat_oneshot": 0.0,
    }
    seen: set[int] = set()
    for search in searches:
        if id(search) in seen:
            continue
        seen.add(id(search))
        if isinstance(search, WorldSearch):
            info["search_runs"] += 1
            info["nodes"] += search.stats.nodes
            info["pruned"] += search.stats.pruned
            info["valuations"] += search.stats.worlds
            info["duplicate_worlds"] += search.stats.duplicate_worlds
        elif isinstance(search, SATWorldSearch):
            info["sat_oneshot"] += 1
    return info
