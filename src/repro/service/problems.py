"""Wire-level decision requests: parsing, dispatch and cache identity.

One module owns the mapping between the JSON request surface and the
:class:`~repro.api.Database` facade, because three places must agree on it
exactly:

* **dispatch** — which facade method a request invokes (:func:`invoke`);
* **cache identity** — the ``(problem, args_key)`` pair the facade's own
  methods memoise under, so a service-side
  :meth:`~repro.api.Database.cache_probe` hits entries populated by direct
  facade calls and vice versa;
* **invalidation scope** — the dependency relation set
  (:func:`dependencies`) governing eviction on update, mirroring the deps
  each facade method passes internally (RCQP: empty set, survives every
  update; witness-free consistency: the constraint-mentioned relations;
  certain answers: constraint ∪ query relations; everything else: all).

A drift between this table and ``api.py`` would show up as a cache that
never hits (annoying) or hits stale entries (wrong); the end-to-end tests
assert wire-level ``stats.cache_hit`` after direct facade warm-up to pin
the identity down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.api import Database
from repro.completeness.models import CompletenessModel
from repro.decision import Decision, json_safe
from repro.exceptions import ServiceError
from repro.incremental import RowSpec, UpdateResult
from repro.queries.evaluation import Query, query_relation_names
from repro.search.registry import EngineConfig
from repro.service.plugins import SessionSpec

__all__ = [
    "DecisionRequest",
    "dependencies",
    "invoke",
    "parse_decision",
    "parse_engine",
    "parse_rows",
    "result_payload",
    "update_payload",
]

#: Wire-level aliases accepted in the ``"problem"`` field, mapped to the
#: canonical facade cache problem names.
PROBLEM_ALIASES: Mapping[str, str] = {
    "consistency": "consistency",
    "is_consistent": "consistency",
    "count": "model-count",
    "model_count": "model-count",
    "model-count": "model-count",
    "complete": "rcdp",
    "rcdp": "rcdp",
    "minp": "minp",
    "rcqp": "rcqp",
    "certain": "certain-answers",
    "certain_answers": "certain-answers",
    "certain-answers": "certain-answers",
    "certain_answers_over_extensions": "certain-answers-extensions",
    "certain-answers-extensions": "certain-answers-extensions",
}


@dataclass(frozen=True)
class DecisionRequest:
    """A parsed decision request, ready to dispatch and to key a cache.

    ``problem`` is the canonical facade problem string; ``args_key`` is
    byte-for-byte the tuple the corresponding facade method uses as its
    memoisation identity; ``kwargs`` carries the resolved call arguments
    (query *objects*, not names — resolution happened at parse time against
    the session's workload queries).  Picklable, so the process-pool
    executor can ship it to a replica worker.
    """

    problem: str
    args_key: Any
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    query: Query | None = None


def _require_mapping(body: Any) -> Mapping[str, Any]:
    if not isinstance(body, Mapping):
        raise ServiceError("request body must be a JSON object")
    return body


def _parse_model(body: Mapping[str, Any]) -> CompletenessModel:
    raw = body.get("model", CompletenessModel.STRONG.value)
    try:
        return CompletenessModel(raw)
    except ValueError as err:
        known = ", ".join(m.value for m in CompletenessModel)
        raise ServiceError(f"unknown model {raw!r} (known: {known})") from err


def _parse_query(spec: SessionSpec, body: Mapping[str, Any]) -> Query:
    name = body.get("query")
    if not isinstance(name, str):
        raise ServiceError("this problem requires a \"query\" name (string)")
    query = spec.queries.get(name)
    if query is None:
        known = ", ".join(sorted(spec.queries)) or "none"
        raise ServiceError(f"unknown query {name!r} (session queries: {known})")
    return query


def _parse_int(body: Mapping[str, Any], key: str, default: int) -> int:
    value = body.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ServiceError(f"{key!r} must be an integer")
    return value


def _parse_optional_int(body: Mapping[str, Any], key: str) -> int | None:
    value = body.get(key)
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool):
        raise ServiceError(f"{key!r} must be an integer or null")
    return value


def _parse_bool(body: Mapping[str, Any], key: str, default: bool) -> bool:
    value = body.get(key, default)
    if not isinstance(value, bool):
        raise ServiceError(f"{key!r} must be a boolean")
    return value


def parse_engine(body: Mapping[str, Any]) -> EngineConfig | None:
    """The engine selection of a request body (its ``engine`` name).

    ``None`` when the request leaves the choice to the session's default.
    """
    name = body.get("engine")
    if name is None:
        return None
    if not isinstance(name, str):
        raise ServiceError("\"engine\" must be an engine name (string)")
    try:
        config = EngineConfig.coerce(name)
        config.spec()  # validate the name against the registry now
    except Exception as err:
        raise ServiceError(f"bad engine selection: {err}") from err
    return config


def parse_decision(spec: SessionSpec, body: Any) -> DecisionRequest:
    """Parse a wire decision request against a session's workload spec.

    Every branch constructs ``args_key`` exactly as the facade method it
    dispatches to (see the module docstring); defaults likewise mirror the
    facade signatures.
    """
    body = _require_mapping(body)
    raw = body.get("problem")
    if not isinstance(raw, str):
        raise ServiceError("request requires a \"problem\" name (string)")
    problem = PROBLEM_ALIASES.get(raw)
    if problem is None:
        known = ", ".join(sorted(PROBLEM_ALIASES))
        raise ServiceError(f"unknown problem {raw!r} (known: {known})")

    if problem == "consistency":
        witness = _parse_bool(body, "witness", True)
        return DecisionRequest(
            problem, ("witness", witness), {"witness": witness}
        )
    if problem == "model-count":
        return DecisionRequest(problem, ())
    if problem == "rcdp":
        query = _parse_query(spec, body)
        model = _parse_model(body)
        allow_bounded = _parse_bool(body, "allow_bounded", False)
        max_new_tuples = _parse_int(body, "max_new_tuples", 1)
        limit = _parse_optional_int(body, "limit")
        require_consistent = _parse_bool(body, "require_consistent", True)
        return DecisionRequest(
            problem,
            (query, model, allow_bounded, max_new_tuples, limit, require_consistent),
            {
                "model": model,
                "allow_bounded": allow_bounded,
                "max_new_tuples": max_new_tuples,
                "limit": limit,
                "require_consistent": require_consistent,
            },
            query=query,
        )
    if problem == "minp":
        query = _parse_query(spec, body)
        model = _parse_model(body)
        limit = _parse_optional_int(body, "limit")
        return DecisionRequest(
            problem,
            (query, model, limit),
            {"model": model, "limit": limit},
            query=query,
        )
    if problem == "rcqp":
        query = _parse_query(spec, body)
        model = _parse_model(body)
        max_size = _parse_int(body, "max_size", 2)
        return DecisionRequest(
            problem,
            (query, model, max_size),
            {"model": model, "max_size": max_size},
            query=query,
        )
    if problem == "certain-answers":
        query = _parse_query(spec, body)
        return DecisionRequest(problem, (query,), query=query)
    assert problem == "certain-answers-extensions"
    query = _parse_query(spec, body)
    limit = _parse_optional_int(body, "limit")
    return DecisionRequest(
        problem, (query, limit), {"limit": limit}, query=query
    )


def invoke(
    db: Database, request: DecisionRequest, engine: EngineConfig | str | None
) -> Any:
    """Dispatch a parsed request to the facade (runs engine work; blocking).

    Returns whatever the facade method returns (:class:`Decision` or a
    frozenset of answer rows).  The facade's own memoisation applies, so a
    replica worker that computed once serves its process-local repeats from
    its own cache too.
    """
    if request.problem == "consistency":
        return db.is_consistent(engine=engine, **request.kwargs)
    if request.problem == "model-count":
        return db.count(engine=engine)
    assert request.query is not None
    if request.problem == "rcdp":
        return db.complete(request.query, engine=engine, **request.kwargs)
    if request.problem == "minp":
        return db.minp(request.query, engine=engine, **request.kwargs)
    if request.problem == "rcqp":
        return db.rcqp(request.query, engine=engine, **request.kwargs)
    if request.problem == "certain-answers":
        return db.certain_answers(request.query, engine=engine)
    assert request.problem == "certain-answers-extensions"
    return db.certain_answers_over_extensions(
        request.query, engine=engine, **request.kwargs
    )


def dependencies(db: Database, request: DecisionRequest) -> frozenset[str] | None:
    """The invalidation dependency set for storing a computed result.

    Mirrors the deps each facade method passes to its own ``cache_store``:
    ``None`` means "depends on every relation".
    """
    if request.problem == "consistency":
        if request.kwargs.get("witness", True):
            return None
        return db.constraint_relations()
    if request.problem == "rcqp":
        return frozenset()
    if request.problem == "certain-answers":
        assert request.query is not None
        return db.constraint_relations() | query_relation_names(request.query)
    return None


# ---------------------------------------------------------------------------
# wire serialisation
# ---------------------------------------------------------------------------
def result_payload(result: Any, *, include_witness: bool = False) -> dict[str, Any]:
    """The JSON result of one dispatched request.

    Decisions serialise through :meth:`~repro.decision.Decision.to_dict`
    (every response carries the full ``stats`` record); certain-answer row
    sets become a deterministically sorted list of rows.
    """
    if isinstance(result, Decision):
        return {"kind": "decision", **result.to_dict(include_witness=include_witness)}
    if isinstance(result, frozenset):
        return {"kind": "answers", "answers": json_safe(result)}
    return {"kind": "value", "value": json_safe(result)}


def update_payload(result: UpdateResult) -> dict[str, Any]:
    """The JSON shape of one :class:`~repro.incremental.UpdateResult`."""
    return {
        "added": len(result.added),
        "dropped": len(result.dropped),
        "touched": sorted(result.touched),
        "adom_gained": json_safe(result.adom_gained),
        "adom_lost": json_safe(result.adom_lost),
        "invalidated": result.invalidated,
        "consistent": result.consistent,
    }


def parse_rows(raw: Any, what: str) -> dict[str, list[RowSpec]]:
    """Parse an ``{relation: [[v, ...], ...]}`` wire mapping of row specs.

    Only ground rows of JSON scalars are expressible over the wire (local
    conditions and fresh variables are not JSON); this matches the
    update-surface sweet spot — variable-row edits force engine-session
    rebuilds anyway.
    """
    if raw is None:
        return {}
    if not isinstance(raw, Mapping):
        raise ServiceError(f"{what} must be an object mapping relations to rows")
    parsed: dict[str, list[RowSpec]] = {}
    for relation, rows in raw.items():
        if not isinstance(relation, str):
            raise ServiceError(f"{what}: relation names must be strings")
        if not isinstance(rows, list):
            raise ServiceError(f"{what}[{relation!r}] must be a list of rows")
        specs: list[RowSpec] = []
        for row in rows:
            if not isinstance(row, list):
                raise ServiceError(
                    f"{what}[{relation!r}]: each row must be a list of values"
                )
            for value in row:
                if value is not None and not isinstance(value, (str, int, float, bool)):
                    raise ServiceError(
                        f"{what}[{relation!r}]: row values must be JSON scalars"
                    )
            specs.append(tuple(row))
        parsed[relation] = specs
    return parsed
