"""``repro.api`` — the unified :class:`Database` facade.

The paper's decision problems all share one context: a c-instance ``T``
bounded by master data ``D_m`` and containment constraints ``V``, analysed
over the Prop. 3.3 active domain ``Adom``.  The functional API threads that
context (plus engine selection) through every call; the facade holds it
once::

    from repro import Database, EngineConfig, STRONG

    db = Database(cinstance, master, constraints)
    db.is_consistent()                          # Decision with witness world
    db.count(engine="sat")                      # native SAT model counting
    db.complete(query, model=STRONG)            # RCDP, rich Decision
    db.minp(query)                              # MINP
    db.rcqp(query, engine=EngineConfig(name="sat"))

What the facade adds over the functional layer:

* **cached ``Adom``** — the Proposition 3.3 active domain is computed once
  per (database, query) pair and reused across calls;
* **a prebuilt ``ConstraintChecker``** — the constraint right-hand sides are
  evaluated against the master data once per facade, then shared with every
  checker-accepting engine (via the registry's ambient-checker channel, so
  the sharing reaches engines created deep inside the deciders);
* **uniform engine selection** — every method accepts ``engine=`` as a name
  string or an :class:`~repro.search.registry.EngineConfig` (name +
  per-engine options), resolved through the engine registry, with a
  facade-level default set at construction;
* **rich results** — decision-problem methods return
  :class:`~repro.decision.Decision` objects carrying the witness, the
  engine used and the run stats.

Capability-driven fast paths: :meth:`Database.count` routes to
engine-native counting when the engine's registry capabilities declare
``counts_natively``; :meth:`Database.is_consistent` asks for fresh-value
symmetry breaking from engines that support it when no witness is
requested.

The facade is also *updatable*: :meth:`Database.update` applies row-level
adds/drops in place, recomputes only the state the change can affect (Adom
delta, per-relation fingerprints, dependency-scoped decision cache eviction
— see :mod:`repro.incremental`), incrementally maintains a ground-fact
:class:`~repro.search.propagation.CheckerSession`, and — when the effective
engine declares ``supports_incremental`` — keeps a live
:class:`~repro.search.sat_engine.IncrementalSATSession` whose DPLL solver
survives the whole update stream.  That session answers
:meth:`Database.is_consistent` (with or without a witness) and
:meth:`Database.count`; :meth:`Database.worlds` and
:meth:`Database.valuations` run a one-shot engine.  :meth:`Database.batch`
groups updates transactionally with rollback on inconsistency.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Hashable, Iterator, Mapping, Sequence

from repro.completeness.certain import (
    certain_answer_over_extensions,
    certain_answer_over_models,
)
from repro.completeness.consistency import is_consistent as _is_consistent
from repro.completeness.minp import is_minimal_complete as _is_minimal_complete
from repro.completeness.models import CompletenessModel
from repro.completeness.rcdp import as_cinstance, is_relatively_complete
from repro.completeness.rcqp import rcqp as _rcqp
from repro.constraints.containment import ContainmentConstraint
from repro.ctables.adom import ActiveDomain
from repro.ctables.cinstance import CInstance
from repro.ctables.ctable import CTableRow
from repro.ctables.possible_worlds import (
    default_active_domain,
    model_count,
    models,
    models_with_valuations,
)
from repro.ctables.valuation import Valuation
from repro.decision import Decision, DecisionRecorder
from repro.exceptions import CTableError, UpdateError
from repro.incremental import MISS, DecisionCache, RowSpec, UpdateBatch, UpdateResult
from repro.queries.evaluation import Query, query_relation_names
from repro.relational.instance import GroundInstance, Row
from repro.relational.master import MasterData
from repro.search.propagation import CheckerSession, ConstraintChecker
from repro.search.registry import EngineConfig, record_search, use_checker
from repro.search.sat_engine import IncrementalSATSession

__all__ = ["Database", "Decision", "EngineConfig", "UpdateBatch", "UpdateResult"]


def _variable_rows(cinstance: CInstance) -> tuple[tuple[str, CTableRow], ...]:
    """The non-ground rows of a c-instance, in a canonical order.

    The live SAT session can only absorb updates that leave these rows (and
    hence every selector pool and variable-row grounding clause) untouched;
    the facade compares this signature across an update to decide between
    :meth:`~repro.search.sat_engine.IncrementalSATSession.apply` and a
    session rebuild.
    """
    rows = [
        (name, row)
        for name, _index, row in cinstance.rows()
        if row.variables() or not row.condition.is_true
    ]
    rows.sort(key=repr)
    return tuple(rows)


def _match_drop(
    relation: str,
    rows: Sequence[CTableRow],
    candidates: set[int],
    spec: RowSpec,
) -> int:
    """The index of the first not-yet-dropped row matching a drop spec.

    A bare term sequence matches on terms alone (any condition); a
    :class:`CTableRow` spec must also match the local condition exactly.
    """
    if isinstance(spec, CTableRow):
        terms: tuple[Any, ...] = spec.terms
        condition = spec.condition
    else:
        terms = tuple(spec)
        condition = None
    for index in sorted(candidates):
        row = rows[index]
        if row.terms != terms:
            continue
        if condition is not None and row.condition != condition:
            continue
        return index
    detail = "" if condition is None else " with the given condition"
    raise UpdateError(
        f"drop_rows: no row {terms!r} in relation {relation!r}{detail}"
    )


class Database:
    """A partially closed database: ``(T, D_m, V)`` with cached analysis state.

    Parameters
    ----------
    database:
        A :class:`~repro.ctables.cinstance.CInstance` or a
        :class:`~repro.relational.instance.GroundInstance` (coerced to the
        variable-free c-instance it trivially is).
    master:
        The closed-world master data ``D_m``.
    constraints:
        The containment constraints ``V`` tying the database to the master
        data.
    engine:
        The facade-level default engine selection — a registered engine name,
        an :class:`~repro.search.registry.EngineConfig`, or ``None`` for the
        registry default.  Every method takes an ``engine=`` override.
    """

    def __init__(
        self,
        database: CInstance | GroundInstance,
        master: MasterData,
        constraints: Sequence[ContainmentConstraint] = (),
        *,
        engine: EngineConfig | str | None = None,
    ) -> None:
        self._cinstance = as_cinstance(database)
        self._master = master
        self._constraints: tuple[ContainmentConstraint, ...] = tuple(constraints)
        self._default_engine = EngineConfig.coerce(engine)
        self._checker = ConstraintChecker(master, self._constraints)
        self._base_adom: ActiveDomain | None = None
        self._query_adoms: dict[Any, ActiveDomain] = {}
        # Incremental-update state (see repro.incremental): the decision
        # cache, the ground-fact checker session maintained across updates,
        # and the live SAT session (built lazily, kept while compatible).
        self._cache = DecisionCache()
        self._baseline: CheckerSession | None = None
        self._sat_session: IncrementalSATSession | None = None

    # ------------------------------------------------------------------
    # context accessors
    # ------------------------------------------------------------------
    @property
    def cinstance(self) -> CInstance:
        """The underlying c-instance ``T``."""
        return self._cinstance

    @property
    def master(self) -> MasterData:
        """The master data ``D_m``."""
        return self._master

    @property
    def constraints(self) -> tuple[ContainmentConstraint, ...]:
        """The containment constraints ``V``."""
        return self._constraints

    @property
    def checker(self) -> ConstraintChecker:
        """The prebuilt constraint checker shared with the engines."""
        return self._checker

    @property
    def default_engine(self) -> EngineConfig:
        """The facade-level default engine selection."""
        return self._default_engine

    def adom(self, query: Query | None = None) -> ActiveDomain:
        """The Prop. 3.3 ``Adom``, cached per (database, query) pair.

        Unhashable queries are accommodated by recomputing (the cache is an
        optimisation, never a requirement).
        """
        if query is None:
            if self._base_adom is None:
                self._base_adom = default_active_domain(
                    self._cinstance, self._master, self._constraints
                )
            return self._base_adom
        try:
            cached = self._query_adoms.get(query)
        except TypeError:  # unhashable query
            return default_active_domain(
                self._cinstance, self._master, self._constraints, query
            )
        if cached is None:
            cached = default_active_domain(
                self._cinstance, self._master, self._constraints, query
            )
            self._query_adoms[query] = cached
        return cached

    def _engine(self, engine: EngineConfig | str | None) -> EngineConfig:
        """The effective engine selection for one call."""
        if engine is None:
            return self._default_engine
        return EngineConfig.coerce(engine)

    # ------------------------------------------------------------------
    # incremental updates
    # ------------------------------------------------------------------
    def update(
        self,
        add_rows: Mapping[str, Sequence[RowSpec]] | None = None,
        drop_rows: Mapping[str, Sequence[RowSpec]] | None = None,
    ) -> UpdateResult:
        """Apply row-level adds/drops in place, keeping cached state alive.

        ``add_rows`` / ``drop_rows`` map relation names to row
        specifications — bare term sequences or full
        :class:`~repro.ctables.ctable.CTableRow` objects (terms plus local
        condition).  Drops are applied first and match the *first* row with
        the given terms (and condition, when a ``CTableRow`` is passed); a
        drop that matches nothing, an unknown relation, or a malformed row
        raises :class:`~repro.exceptions.UpdateError` and leaves the
        database untouched.

        On commit the facade recomputes only what the change can affect:
        the ``Adom`` delta, the per-relation content fingerprints, the
        dependency-scoped decision-cache eviction, the ground-fact checker
        session (tuple-level push/retract, no rebuild) and — when alive and
        compatible — the incremental SAT session.  See the returned
        :class:`~repro.incremental.UpdateResult` for what happened.
        """
        additions = dict(add_rows or {})
        removals = dict(drop_rows or {})
        tables = dict(self._cinstance.tables())
        for name in (*removals, *additions):
            if name not in tables:
                raise UpdateError(f"update mentions unknown relation {name!r}")
        added: list[tuple[str, CTableRow]] = []
        dropped: list[tuple[str, CTableRow]] = []
        try:
            for name, specs in removals.items():
                table = tables[name]
                keep = set(range(len(table.rows)))
                for spec in specs:
                    index = _match_drop(name, table.rows, keep, spec)
                    keep.discard(index)
                    dropped.append((name, table.rows[index]))
                tables[name] = table.restrict(keep)
            for name, specs in additions.items():
                table = tables[name]
                for spec in specs:
                    row = spec if isinstance(spec, CTableRow) else CTableRow(spec)
                    table = table.add_row(row.terms, row.condition)
                    added.append((name, row))
                tables[name] = table
            updated = CInstance(self._cinstance.schema, tables)
        except CTableError as err:
            raise UpdateError(str(err)) from err
        return self._commit(updated, tuple(added), tuple(dropped))

    def batch(self) -> UpdateBatch:
        """A transactional update batch with rollback on inconsistency.

        Use as a context manager; see
        :class:`~repro.incremental.UpdateBatch`.
        """
        return UpdateBatch(self)

    def _commit(
        self,
        updated: CInstance,
        added: tuple[tuple[str, CTableRow], ...],
        dropped: tuple[tuple[str, CTableRow], ...],
    ) -> UpdateResult:
        """Swap in the updated c-instance and refresh the dependent caches."""
        previous = self._cinstance
        old_fingerprints = previous.relation_fingerprints()
        new_fingerprints = updated.relation_fingerprints()
        touched = frozenset(
            name
            for name, fingerprint in new_fingerprints.items()
            if old_fingerprints[name] != fingerprint
        )
        if not touched:
            # Net no-op (e.g. a drop re-added in the same call): every cache
            # is still exact, including the sessions.
            return UpdateResult(
                added=added,
                dropped=dropped,
                touched=touched,
                adom_gained=frozenset(),
                adom_lost=frozenset(),
                invalidated=0,
                consistent=self._ground_fact_verdict(),
            )

        old_adom = self.adom()
        old_ground = previous.ground_tuples()
        old_variable_rows = _variable_rows(previous)
        # Columns may mix value types (an int year beside a str one), so the
        # canonical tuple order sorts by repr, never by the values.
        new_ground = updated.ground_tuples()
        added_ground = [
            (name, row)
            for name in sorted(touched)
            for row in sorted(new_ground[name] - old_ground[name], key=repr)
        ]
        dropped_ground = [
            (name, row)
            for name in sorted(touched)
            for row in sorted(old_ground[name] - new_ground[name], key=repr)
        ]

        self._cinstance = updated
        self._base_adom = None
        self._query_adoms.clear()
        new_adom = self.adom()
        gained, lost = new_adom.diff(old_adom)
        invalidated = self._cache.invalidate(touched)

        # Ground-fact checker session: tuple-level maintenance, no rebuild.
        if self._baseline is None:
            self._baseline = self._build_baseline()
        else:
            for name, row in dropped_ground:
                self._baseline.retract(name, row)
            for name, row in added_ground:
                self._baseline.push(name, row)

        # Live SAT session: absorb ground-only diffs, rebuild lazily on any
        # change to the encoding's fixed parts (Adom, variables, pools,
        # non-ground rows).
        if self._sat_session is not None:
            if self._sat_session.compatible(
                updated, new_adom
            ) and _variable_rows(updated) == old_variable_rows:
                self._sat_session.apply(updated, added_ground, dropped_ground)
            else:
                self._sat_session = None

        return UpdateResult(
            added=added,
            dropped=dropped,
            touched=touched,
            adom_gained=gained,
            adom_lost=lost,
            invalidated=invalidated,
            consistent=self._ground_fact_verdict(),
        )

    def _build_baseline(self) -> CheckerSession:
        """A checker session holding the definite ground tuples."""
        session = self._checker.session(self._cinstance.schema.relation_names)
        ground = self._cinstance.ground_tuples()
        for name in sorted(ground):
            for row in sorted(ground[name], key=repr):
                # reprolint: disable=R002 -- the session mirrors the facade's
                # ground facts for the facade's whole lifetime; update()
                # unwinds via retract(), never pop().
                session.push(name, row)
        return session

    def _ground_fact_verdict(self) -> bool | None:
        """``False`` when the ground facts alone violate a constraint.

        The definite tuples are a subset of every possible world and the
        constraint queries are monotone, so a violation here is a violation
        in *every* world: the database is certainly inconsistent.  ``None``
        (not ``True``!) otherwise — satisfaction on the ground facts says
        nothing about the variable rows.
        """
        if self._baseline is None:
            return None
        return False if not self._baseline.is_satisfied else None

    def _ground_facts_violated(self) -> bool:
        """Batch-commit fast path: certain inconsistency from ground facts."""
        return self._ground_fact_verdict() is False

    def _update_snapshot(self) -> tuple[Any, ...]:
        """The restorable facade state :class:`UpdateBatch` snapshots."""
        return (
            self._cinstance,
            self._base_adom,
            dict(self._query_adoms),
            self._cache.snapshot(),
        )

    def _update_restore(self, state: tuple[Any, ...]) -> None:
        """Roll the facade back to a :meth:`_update_snapshot`.

        The checker and SAT sessions were mutated in place by the rolled-back
        updates, so they are discarded (both are pure caches: the baseline
        session rebuilds on the next update, the SAT session on the next
        routed call).
        """
        cinstance, base_adom, query_adoms, cache = state
        self._cinstance = cinstance
        self._base_adom = base_adom
        self._query_adoms = dict(query_adoms)
        self._cache.restore(cache)
        self._baseline = None
        self._sat_session = None

    # ------------------------------------------------------------------
    # decision cache and incremental SAT routing
    # ------------------------------------------------------------------
    def _cache_key(
        self, problem: str, args_key: Any, config: EngineConfig
    ) -> Hashable | None:
        """The cache key for one call, or ``None`` when uncacheable."""
        try:
            key: Hashable = (
                problem,
                args_key,
                config.spec().name,
                tuple(sorted(config.options.items())),
            )
            hash(key)
        except TypeError:
            return None
        return key

    def _cache_context(
        self,
    ) -> tuple[dict[str, int], ActiveDomain, dict[Any, Any]]:
        """The validation context cache entries are checked against."""
        return (
            self._cinstance.relation_fingerprints(),
            self.adom(),
            dict(self._cinstance.variable_domains()),
        )

    def cache_probe(
        self,
        problem: str,
        args_key: Any,
        *,
        engine: EngineConfig | str | None = None,
    ) -> Any:
        """Look up a decision-cache entry without computing anything.

        Returns the cached value — validated against the current per-relation
        fingerprints, Adom and variable domains — or the
        :data:`repro.incremental.MISS` sentinel.  Cached
        :class:`~repro.decision.Decision` objects come back with
        ``stats.cache_hit=True``.  This is the probe half of the facade's
        memoisation, exposed so embedding layers (the :mod:`repro.service`
        pool, which computes on replicas in worker processes) can share one
        cache with the facade's own methods: the ``(problem, args_key,
        engine)`` identity is exactly what :meth:`is_consistent`,
        :meth:`complete` &c. use internally.
        """
        config = self._engine(engine)
        key = self._cache_key(problem, args_key, config)
        if key is None:
            return MISS
        hit = self._cache.get(key, *self._cache_context())
        if hit is MISS:
            return MISS
        if isinstance(hit, Decision):
            return hit.with_(stats=replace(hit.stats, cache_hit=True))
        return hit

    def cache_store(
        self,
        problem: str,
        args_key: Any,
        value: Any,
        *,
        deps: frozenset[str] | None = None,
        engine: EngineConfig | str | None = None,
    ) -> None:
        """Store a computed value under the facade's decision-cache rules.

        ``deps`` is the dependency relation set governing invalidation
        (``None`` = depends on every relation; ``frozenset()`` = survives all
        updates, the RCQP discipline).  Unhashable identities are silently
        not cached — the cache is an optimisation, never a requirement.
        """
        config = self._engine(engine)
        key = self._cache_key(problem, args_key, config)
        if key is None:
            return
        self._cache.put(key, value, deps, *self._cache_context())

    def _cached(
        self,
        problem: str,
        args_key: Any,
        deps: frozenset[str] | None,
        config: EngineConfig,
        compute: Any,
    ) -> Any:
        """Serve from the decision cache or compute-and-store.

        Thin composition of :meth:`cache_probe` and :meth:`cache_store` —
        kept internal because it takes a resolved :class:`EngineConfig` and a
        thunk, which only the facade's own methods have at hand.
        """
        hit = self.cache_probe(problem, args_key, engine=config)
        if hit is not MISS:
            return hit
        value = compute()
        self.cache_store(problem, args_key, value, deps=deps, engine=config)
        return value

    def constraint_relations(self) -> frozenset[str]:
        """Database relations mentioned by any constraint left-hand side.

        This is the dependency set of witness-free consistency verdicts and
        one half of the certain-answer dependency set; public so embedding
        layers can compute the same dependency-scoped invalidation rules the
        facade applies internally.
        """
        return frozenset(
            name
            for constraint in self._constraints
            for name in constraint.relation_names()
        )

    def _uses_incremental_session(self, config: EngineConfig) -> bool:
        """Whether a call routes through the live incremental SAT session."""
        return (
            config.spec().capabilities.supports_incremental
            and not config.options
        )

    def _sat_session_for(self) -> IncrementalSATSession:
        if self._sat_session is None:
            self._sat_session = IncrementalSATSession(
                self._cinstance,
                self._master,
                self._constraints,
                self.adom(),
                checker=self._checker,
            )
        return self._sat_session

    # ------------------------------------------------------------------
    # world-level surfaces
    # ------------------------------------------------------------------
    def worlds(
        self,
        *,
        deduplicate: bool = True,
        engine: EngineConfig | str | None = None,
    ) -> Iterator[GroundInstance]:
        """Enumerate ``Mod_Adom(T, D_m, V)`` (the possible worlds).

        The prebuilt checker is passed explicitly (not via the ambient
        channel): this generator may stay suspended arbitrarily long, and
        ambient state held across a suspension would leak into unrelated
        callers.

        Fully drained enumerations are memoised: a repeat call with the same
        flags and engine replays the cached world list until an update
        touches the database.  Partially consumed (or mid-update) runs are
        never committed to the cache.
        """
        config = self._engine(engine)
        key = self._cache_key("worlds", bool(deduplicate), config)
        if key is not None:
            hit = self._cache.get(key, *self._cache_context())
            if hit is not MISS:
                return iter(hit)

        def enumerate_and_memoise() -> Iterator[GroundInstance]:
            context = self._cache_context() if key is not None else None
            results: list[GroundInstance] = []
            for world in models(
                self._cinstance,
                self._master,
                self._constraints,
                self.adom(),
                deduplicate=deduplicate,
                engine=config,
                checker=self._checker,
            ):
                results.append(world)
                yield world
            if key is not None and context == self._cache_context():
                self._cache.put(key, tuple(results), None, *context)

        return enumerate_and_memoise()

    def valuations(
        self, *, engine: EngineConfig | str | None = None
    ) -> Iterator[tuple[Valuation, GroundInstance]]:
        """Enumerate ``(µ, µ(T))`` pairs over the Adom valuations.

        As with :meth:`worlds`, the shared checker travels as an explicit
        argument because the generator may suspend, and fully drained
        enumerations are memoised until an update invalidates them.
        """
        config = self._engine(engine)
        key = self._cache_key("valuations", (), config)
        if key is not None:
            hit = self._cache.get(key, *self._cache_context())
            if hit is not MISS:
                return iter(hit)

        def enumerate_and_memoise() -> Iterator[tuple[Valuation, GroundInstance]]:
            context = self._cache_context() if key is not None else None
            results: list[tuple[Valuation, GroundInstance]] = []
            for pair in models_with_valuations(
                self._cinstance,
                self._master,
                self._constraints,
                self.adom(),
                engine=config,
                checker=self._checker,
            ):
                results.append(pair)
                yield pair
            if key is not None and context == self._cache_context():
                self._cache.put(key, tuple(results), None, *context)

        return enumerate_and_memoise()

    def is_consistent(
        self,
        *,
        engine: EngineConfig | str | None = None,
        witness: bool = True,
    ) -> Decision:
        """Whether ``Mod(T, D_m, V)`` is non-empty (the consistency problem).

        By default the positive decision carries a concrete witness world;
        pass ``witness=False`` for the cheaper existence-only probe (engines
        may then use symmetry breaking and early cancellation).

        On an incremental-capable engine (plain ``engine="sat"``) both forms
        route through the facade's live SAT session: after an update only
        the guard assumptions change, so the solver — with all its learned
        clauses — answers without a re-encode (``stats.reused_solver``), and
        the witness is ``µ(T)`` for the solver's model.
        Verdicts are cached; witness-free consistency depends only on the
        constraint-constrained relations, so updates elsewhere keep the
        cached answer valid.
        """
        config = self._engine(engine)
        deps = None if witness else self.constraint_relations()

        def compute() -> Decision:
            if self._uses_incremental_session(config):
                session = self._sat_session_for()
                rec = DecisionRecorder("consistency", config)
                world: GroundInstance | None = None
                with session.lock:  # the stats read below are this call's
                    with rec:
                        record_search(session)
                        if witness:
                            world = session.first_world()
                            holds = world is not None
                        else:
                            holds = session.has_world()
                    return rec.decision(holds, witness=world)
            with use_checker(self._checker):
                return _is_consistent(
                    self._cinstance,
                    self._master,
                    self._constraints,
                    adom=self.adom(),
                    engine=config,
                    witness=witness,
                )

        result: Decision = self._cached(
            "consistency", ("witness", witness), deps, config, compute
        )
        return result

    def count(self, *, engine: EngineConfig | str | None = None) -> Decision:
        """The number of distinct possible worlds, as a Decision.

        ``.value`` is the count and the decision is truthy iff at least one
        world exists.  Engines whose registry capabilities declare
        ``counts_natively`` count without materialising worlds (SAT
        per-component counts).  On an incremental-capable engine the count
        enumerates over the live session's encoding (no re-encode after
        updates); verdicts are cached until an update touches any relation.
        """
        config = self._engine(engine)

        def compute() -> Decision:
            rec = DecisionRecorder("model-count", config)
            if self._uses_incremental_session(config):
                session = self._sat_session_for()
                with session.lock:  # the stats read below are this call's
                    with rec:
                        record_search(session)
                        count = session.count_worlds()
                    return rec.decision(count > 0, value=count)
            with rec:
                count = model_count(
                    self._cinstance,
                    self._master,
                    self._constraints,
                    self.adom(),
                    engine=config,
                    checker=self._checker,
                )
            return rec.decision(count > 0, value=count)

        result: Decision = self._cached("model-count", (), None, config, compute)
        return result

    # ------------------------------------------------------------------
    # decision problems
    # ------------------------------------------------------------------
    def complete(
        self,
        query: Query,
        model: CompletenessModel = CompletenessModel.STRONG,
        *,
        allow_bounded: bool = False,
        max_new_tuples: int = 1,
        limit: int | None = None,
        require_consistent: bool = True,
        engine: EngineConfig | str | None = None,
    ) -> Decision:
        """RCDP: is the database complete for ``query`` under ``model``?

        The strong model attaches a
        :class:`~repro.completeness.strong.StrongIncompletenessWitness`
        counterexample to negative decisions, the viable model attaches the
        relatively complete witness world to positive ones, and the weak
        model attaches its
        :class:`~repro.completeness.weak.WeakCompletenessReport` as
        ``.details``.
        """
        config = self._engine(engine)

        def compute() -> Decision:
            with use_checker(self._checker):
                return is_relatively_complete(
                    self._cinstance,
                    query,
                    self._master,
                    self._constraints,
                    model,
                    allow_bounded=allow_bounded,
                    max_new_tuples=max_new_tuples,
                    adom=self.adom(query),
                    limit=limit,
                    require_consistent=require_consistent,
                    engine=config,
                )

        args_key = (
            query,
            model,
            allow_bounded,
            max_new_tuples,
            limit,
            require_consistent,
        )
        result: Decision = self._cached("rcdp", args_key, None, config, compute)
        return result

    def rcdp(
        self,
        query: Query,
        model: CompletenessModel = CompletenessModel.STRONG,
        **kwargs: Any,
    ) -> Decision:
        """Alias of :meth:`complete` using the paper's problem name."""
        return self.complete(query, model, **kwargs)

    def minp(
        self,
        query: Query,
        model: CompletenessModel = CompletenessModel.STRONG,
        *,
        limit: int | None = None,
        engine: EngineConfig | str | None = None,
    ) -> Decision:
        """MINP: is the database a *minimal* complete database for ``query``?"""
        config = self._engine(engine)

        def compute() -> Decision:
            with use_checker(self._checker):
                return _is_minimal_complete(
                    self._cinstance,
                    query,
                    self._master,
                    self._constraints,
                    model,
                    adom=self.adom(query),
                    limit=limit,
                    engine=config,
                )

        result: Decision = self._cached(
            "minp", (query, model, limit), None, config, compute
        )
        return result

    def rcqp(
        self,
        query: Query,
        model: CompletenessModel = CompletenessModel.STRONG,
        *,
        max_size: int = 2,
        engine: EngineConfig | str | None = None,
    ) -> Decision:
        """RCQP: does *any* database complete for ``query`` exist?

        Uses this database's schema, master data and constraints; the
        c-instance contents play no role in RCQP (the problem quantifies
        over all databases) — cached verdicts accordingly have an *empty*
        dependency set and survive every :meth:`update`.
        """
        config = self._engine(engine)

        def compute() -> Decision:
            with use_checker(self._checker):
                return _rcqp(
                    query,
                    self._cinstance.schema,
                    self._master,
                    self._constraints,
                    model=model.value
                    if isinstance(model, CompletenessModel)
                    else model,
                    max_size=max_size,
                    engine=config,
                )

        result: Decision = self._cached(
            "rcqp", (query, model, max_size), frozenset(), config, compute
        )
        return result

    # ------------------------------------------------------------------
    # certain answers
    # ------------------------------------------------------------------
    def certain_answers(
        self, query: Query, *, engine: EngineConfig | str | None = None
    ) -> frozenset[Row]:
        """``⋂_{I ∈ Mod_Adom(T, D_m, V)} Q(I)`` — certain over the worlds.

        Cached answers depend only on the relations the constraints and the
        query's atoms mention (which valuations the constraints accept, and
        what ``Q`` reads from each world); updates to other relations keep
        them valid.
        """
        config = self._engine(engine)

        def compute() -> frozenset[Row]:
            with use_checker(self._checker):
                return certain_answer_over_models(
                    self._cinstance,
                    query,
                    self._master,
                    self._constraints,
                    adom=self.adom(query),
                    engine=config,
                )

        deps = self.constraint_relations() | query_relation_names(query)
        result: frozenset[Row] = self._cached(
            "certain-answers", (query,), deps, config, compute
        )
        return result

    def certain_answers_over_extensions(
        self,
        query: Query,
        *,
        limit: int | None = None,
        engine: EngineConfig | str | None = None,
    ) -> frozenset[Row]:
        """Certain answer over all partially closed extensions of all worlds."""
        config = self._engine(engine)

        def compute() -> frozenset[Row]:
            with use_checker(self._checker):
                return certain_answer_over_extensions(
                    self._cinstance,
                    query,
                    self._master,
                    self._constraints,
                    adom=self.adom(query),
                    limit=limit,
                    engine=config,
                ).answers

        result: frozenset[Row] = self._cached(
            "certain-answers-extensions", (query, limit), None, config, compute
        )
        return result

    def __repr__(self) -> str:
        return (
            f"Database({self._cinstance.size} c-rows, "
            f"{len(self._constraints)} constraints, "
            f"engine={self._default_engine.name or 'default'})"
        )
