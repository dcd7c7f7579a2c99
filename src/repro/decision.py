"""Rich decision results: the :class:`Decision` object every decider returns.

Historically every decision procedure in :mod:`repro.completeness` returned a
bare ``bool``, and callers that wanted more — the witness world refuting
strong completeness, the certain answers behind a weak-completeness verdict,
how much work the world-search engine did — had to call a second,
problem-specific function (``find_*_witness``, ``weak_completeness_report``,
``rcqp_bounded_search``).  :class:`Decision` unifies those surfaces:

* ``holds`` — the verdict; ``__bool__`` returns it, so every old call site
  (``if is_consistent(...)``, ``assert not rcdp(...)``) keeps working;
* ``witness`` — the concrete evidence, when one exists: a possible world for
  consistency, a :class:`~repro.completeness.strong.StrongIncompletenessWitness`
  counterexample for the strong model, a complete ground instance for RCQP;
* ``value`` — the non-boolean payload of counting/report problems (a model
  count, the certain-answer pair of the weak model);
* ``engine_used`` / ``stats`` — which world-search engine ran and what it
  did (search nodes, CNF clauses, worlds enumerated, wall time);
* ``details`` — the problem-specific report dataclass, where one exists
  (the weak model's certain-answer report, the RCQP search summary).

Equality is *verdict* equality: two :class:`Decision` objects compare equal
when they answer the same problem the same way, regardless of which engine
produced them or which witness it happened to find first.  This is what lets
differential tests assert ``decide(engine="sat") == decide(engine="naive")``
even though the engines surface different (equally valid) witnesses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace
from types import TracebackType
from typing import TYPE_CHECKING, Any, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.completeness.models import CompletenessModel
    from repro.protocols import WorldSearchEngine


def json_safe(value: Any) -> Any:
    """A best-effort JSON-safe projection of an arbitrary payload.

    Scalars pass through, mappings become string-keyed dicts, sequences
    become lists, and sets become deterministically sorted lists; anything
    else (witness worlds, report dataclasses, …) is rendered through
    ``repr`` so the projection never fails.  The result always survives
    ``json.dumps`` — this is the folding :meth:`Decision.to_dict` and the
    service wire format use instead of ad-hoc ``getattr`` chains.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Mapping):
        return {
            str(key): json_safe(val)
            for key, val in sorted(value.items(), key=lambda item: str(item[0]))
        }
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((json_safe(item) for item in value), key=repr)
    return repr(value)


@dataclass(frozen=True)
class DecisionStats:
    """What the engines did while a decision was being computed.

    The engine counters are the sums of the engines'
    :class:`~repro.search.engine.SearchStats` records
    (:func:`aggregate_search_stats`).  ``None`` fields mean "not applicable
    to the engine(s) that ran" — the naive scan has no CNF clauses, the SAT
    engine no search nodes.
    """

    wall_time: float = 0.0
    searches: int = 0
    nodes: int | None = None
    clauses: int | None = None
    worlds: int | None = None
    candidates_examined: int | None = None
    #: whether the decision was served from the :class:`repro.api.Database`
    #: decision cache (no engine ran; the other counters describe the
    #: original run that populated the cache).
    cache_hit: bool = False
    #: whether a SAT run reused the live incremental solver kept across
    #: :meth:`repro.api.Database.update` calls; ``None`` when no engine that
    #: ran reports the flag (non-SAT engines, or a freshly built encoding).
    reused_solver: bool | None = None
    #: clause-graph components the one-shot SAT engine's ``count_worlds``
    #: multiplied; ``None`` when that path never ran.
    components: int | None = None

    def to_dict(self) -> dict[str, Any]:
        """The stats as a JSON-serialisable dict (every field, ``None`` kept).

        This is the wire format of :mod:`repro.service`: each response
        carries the full stats record so clients can observe cache hits,
        solver reuse and engine effort per request.  Every field is a
        scalar, so a flat dict is a full copy, without the recursive deep
        copy of ``dataclasses.asdict`` on each service cache hit.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True, eq=False)
class Decision:
    """The outcome of one decision procedure, with evidence attached.

    ``bool(decision)`` is the verdict; ``decision == True`` and
    ``decision == other_decision`` compare verdicts (see the module
    docstring), so both old boolean call sites and cross-engine differential
    assertions keep working unchanged.
    """

    holds: bool
    problem: str
    model: "CompletenessModel | None" = None
    witness: Any = None
    value: Any = None
    details: Any = None
    engine_used: str | None = None
    exact: bool = True
    stats: DecisionStats = field(default_factory=DecisionStats)

    # ------------------------------------------------------------------
    # boolean compatibility
    # ------------------------------------------------------------------
    def __bool__(self) -> bool:
        return self.holds

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Decision):
            return self.holds == other.holds and self.value == other.value
        if isinstance(other, bool):
            return self.holds is other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.holds)

    def __repr__(self) -> str:
        parts = [f"holds={self.holds}"]
        if self.model is not None:
            parts.append(f"model={self.model.value}")
        if self.value is not None:
            parts.append(f"value={self.value!r}")
        if not self.exact:
            parts.append("exact=False")
        # The witness and engine are deliberately omitted: equal verdicts
        # from different engines must read identically in differential logs.
        return f"Decision({self.problem}: {', '.join(parts)})"

    def __str__(self) -> str:
        return str(self.holds)

    def with_(self, **changes: Any) -> "Decision":
        """A copy of the decision with the given fields replaced."""
        return replace(self, **changes)

    def to_dict(self, *, include_witness: bool = False) -> dict[str, Any]:
        """The decision as a JSON-serialisable dict.

        ``value`` and (when requested) ``witness`` go through
        :func:`json_safe`, so arbitrary payloads — frozensets of rows, a
        witness :class:`~repro.relational.instances.GroundInstance`, the
        weak-model report — degrade to deterministic JSON rather than
        failing ``json.dumps``.  ``details`` (the problem-specific report
        object) is deliberately not serialised; its information is already
        in ``value``/``witness``.  The witness defaults to off because it
        can be large and many callers only want the verdict and stats.
        """
        payload: dict[str, Any] = {
            "holds": self.holds,
            "problem": self.problem,
            "model": None if self.model is None else self.model.value,
            "value": json_safe(self.value),
            "engine_used": self.engine_used,
            "exact": self.exact,
            "stats": self.stats.to_dict(),
        }
        if include_witness:
            payload["witness"] = json_safe(self.witness)
        return payload


# ---------------------------------------------------------------------------
# recording decider runs
# ---------------------------------------------------------------------------
def aggregate_search_stats(
    searches: "Sequence[WorldSearchEngine]", wall_time: float
) -> DecisionStats:
    """Fold the stats of every engine object a decider created into one record.

    Every engine fills one :class:`~repro.search.engine.SearchStats`, summed
    here field by field.  A sum stays ``None`` when no engine reported the
    field: ``nodes`` comes from the tree-search engines, ``clauses`` (the
    encoding's size), ``reused_solver`` and ``components`` from the SAT
    engines, and ``worlds`` from every engine that ran.
    """
    nodes: int | None = None
    clauses: int | None = None
    worlds: int | None = None
    reused_solver: bool | None = None
    components: int | None = None
    for search in searches:
        stats = search.stats
        if stats.nodes is not None:
            nodes = (nodes or 0) + stats.nodes
        if stats.encoding is not None:
            clauses = (clauses or 0) + stats.encoding.clauses
        worlds = (worlds or 0) + stats.worlds
        if stats.reused_solver is not None:
            reused_solver = bool(reused_solver) or stats.reused_solver
        if stats.components is not None:
            components = (components or 0) + stats.components
    return DecisionStats(
        wall_time=wall_time,
        searches=len(searches),
        nodes=nodes,
        clauses=clauses,
        worlds=worlds,
        reused_solver=reused_solver,
        components=components,
    )


#: Sentinel distinguishing "this decider never consults a world-search
#: engine" (leave the parameter at the default) from "the caller asked for
#: the default engine" (pass ``engine=None`` through).
NO_ENGINE = object()


class DecisionRecorder:
    """Times a decider run and collects the engine objects it creates.

    Used as a context manager around the body of a decision procedure::

        rec = DecisionRecorder("consistency", engine)
        with rec:
            witness = ...        # any engine created inside is recorded
        return rec.decision(witness is not None, witness=witness)

    Engine creation is observed through the registry's ambient collector
    (:func:`repro.search.registry.collect_searches`), so nothing needs to be
    threaded through intermediate calls; nested recorders each see every
    engine created within their own scope.
    """

    def __init__(
        self,
        problem: str,
        engine: Any = NO_ENGINE,
        *,
        model: "CompletenessModel | None" = None,
        exact: bool = True,
    ) -> None:
        from repro.search.registry import resolve_engine_name

        self.problem = problem
        self.model = model
        self.exact = exact
        self.engine_used = (
            None if engine is NO_ENGINE else resolve_engine_name(engine)
        )
        self._searches: "list[WorldSearchEngine]" = []
        self._start = 0.0
        self.wall_time = 0.0
        self._collector: Any = None

    def __enter__(self) -> "DecisionRecorder":
        from repro.search.registry import collect_searches

        self._collector = collect_searches(self._searches)
        self._collector.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.wall_time = time.perf_counter() - self._start
        assert self._collector is not None
        self._collector.__exit__(exc_type, exc, tb)
        self._collector = None

    def decision(
        self,
        holds: bool,
        *,
        witness: Any = None,
        value: Any = None,
        details: Any = None,
        candidates_examined: int | None = None,
    ) -> Decision:
        """Build the :class:`Decision` for the recorded run."""
        stats = aggregate_search_stats(self._searches, self.wall_time)
        if candidates_examined is not None:
            stats = replace(stats, candidates_examined=candidates_examined)
        return Decision(
            holds=bool(holds),
            problem=self.problem,
            model=self.model,
            witness=witness,
            value=value,
            details=details,
            engine_used=self.engine_used,
            exact=self.exact,
            stats=stats,
        )
