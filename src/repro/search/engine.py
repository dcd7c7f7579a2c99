"""The constraint-propagating world-search engine.

The naive enumeration of ``Mod_Adom(T, D_m, V)`` materialises the full
cross-product of variable pools (``itertools.product``) and checks the
containment constraints only on complete worlds — exponential work even when
a single tuple already violates a CC.  :class:`WorldSearch` replaces it with
a backtracking search that exploits the structure of the paper's Adom
restriction (Proposition 3.3, Lemmas 4.2/5.2):

* variables are assigned one at a time, ordered for early failure and early
  row completion (:mod:`repro.search.ordering`);
* whenever a c-table row becomes fully grounded, its tuple is *pushed* into
  an incremental checker session (:mod:`repro.search.propagation`) that
  delta-evaluates only the constraint answers the new tuple can produce — a
  violated branch is pruned without ever materialising its exponentially
  many completions, and without re-running any constraint's full CQ;
* a row is also *checked early*, without a push, against each compiled
  constraint plan as soon as the row positions that plan reads
  (:attr:`repro.search.joinplan.SeedPlan.reads`) and the row's condition
  are ground: every completion of the row agrees on those positions, so an
  answer escaping the right-hand side now escapes in every world below (CQ
  monotonicity), and the subtree of the row's remaining variables is cut
  before it is enumerated;
* each variable's pool is cut, before the search starts, to the values the
  master data allows (node consistency): a row whose condition is ``TRUE``
  is in every world, so a one-atom constraint plan that its constants alone
  match bounds the row's head to the right-hand side
  (:meth:`repro.search.propagation.ConstraintChecker.row_supports`);
* the fresh ``New`` values of the active domain that nothing in the input
  mentions (:func:`interchangeable_fresh_values`) are interchangeable, so a
  caller that can answer for a whole permutation class of those values from
  one member explores only that member (``break_symmetry=True``), the first
  of the class in search order: an existence check, a decider's per-world
  test of a generic query, or a certain answer that closes each member's
  answer under the renamings;
* world enumeration deduplicates via a cheap canonical form
  (:func:`world_key`) instead of hashing full :class:`GroundInstance`
  objects; and
* the compiled plan (order, restricted pools, completion levels,
  early-check schedule and the rows compiled for grounding) is built once
  per c-instance ``T``:
  :meth:`WorldSearch.over` roots a run at a ground instance ``I`` and is
  equivalent to a fresh search over ``T ∪ I``, which is how the deciders
  test the worlds of ``Mod_Adom(T)`` against the same adjoined rows.

The engine enumerates exactly the valuations the naive path accepts (pruning
is sound and complete for satisfying valuations), so
:mod:`repro.ctables.possible_worlds` can route through it transparently.
Early checks and the pool restriction cut only subtrees without a
satisfying valuation, and the variable order is fixed from the unrestricted
pools, so the ``(valuation, world)`` sequence is the one a search that
checked complete rows alone would produce; only ``nodes``, ``pruned`` and
the pushes move.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

from repro.constraints.containment import (
    ContainmentConstraint,
    constraint_set_constants,
)
from repro.ctables.adom import ActiveDomain, variable_pools
from repro.ctables.cinstance import CInstance
from repro.ctables.conditions import Condition
from repro.ctables.ctable import CTableRow
from repro.ctables.valuation import Valuation
from repro.exceptions import SearchCancelledError, SearchError
from repro.queries.terms import Variable
from repro.relational.domains import Constant
from repro.relational.instance import GroundInstance, Row
from repro.relational.master import MasterData
from repro.search.joinplan import SeedPlan
from repro.search.ordering import order_variables
from repro.search.propagation import CheckerSession, ConstraintChecker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.reductions.dpll import SolverStats
    from repro.search.cnf_encoding import EncodingStats

#: How many search nodes may elapse between two ``stop_check`` polls.
STOP_CHECK_STRIDE = 64

#: The pool-order hints :class:`WorldSearch` understands.
POOL_ORDERS = ("fresh_first",)


@dataclass
class SearchStats:
    """Counters describing one engine's runs: the record every engine fills.

    ``worlds`` counts the satisfying valuations yielded by ``search()`` or
    counted by ``count_worlds()``, and ``duplicate_worlds`` those whose
    world an earlier one gave, so after ``worlds()`` or ``count_worlds()``
    their difference is the number of distinct worlds.  ``nodes`` counts
    the value assignments tried (complete valuations on the naive engine),
    ``pruned`` the branches cut by a violating push, an early check or the
    pool restriction.  A value the restriction removed from a variable's
    pool is never tried, so it is no node; it counts in ``pruned`` once
    each time the search reaches that variable's depth, so ``pruned`` can
    exceed ``nodes``.

    The SAT engines leave ``nodes`` ``None`` and fill the ledgers the other
    engines leave ``None``: ``encoding`` (the CNF's size), ``solver`` (every
    solver's work), ``reused_solver`` (whether the live session's last call
    was answered by its live solver kept from an earlier call; a count
    reports ``False`` and the one-shot engine ``None``) and ``components``
    (those the last one-shot ``count_worlds`` multiplied,
    ``component_cache_hits`` of them from its cache).  On the live session
    ``worlds`` and ``duplicate_worlds`` describe the most recent call.
    """

    nodes: int | None = 0
    pruned: int = 0
    worlds: int = 0
    duplicate_worlds: int = 0
    symmetry_skips: int = 0
    encoding: EncodingStats | None = None
    solver: SolverStats | None = None
    reused_solver: bool | None = None
    components: int | None = None
    component_cache_hits: int = 0


@dataclass(frozen=True, slots=True)
class _CompiledRow:
    """A c-table row compiled once, with the plan, for grounding at a node.

    ``template`` is the row with ``None`` for its variables; each
    ``(position, variable)`` of ``fills`` writes the value of a variable.
    ``condition`` is the row's condition, or ``None`` when it is ``TRUE``
    and needs no evaluation.  A completed row fills every variable
    position; the row of an early check fills the positions ground by the
    check's depth, which cover every position its plans read.
    """

    relation: str
    condition: Condition | None
    template: tuple[Constant, ...]
    fills: tuple[tuple[int, Variable], ...]


def _compile_row(relation: str, row: CTableRow) -> _CompiledRow:
    return _CompiledRow(
        relation=relation,
        condition=None if row.condition.is_true else row.condition,
        template=tuple(None if isinstance(t, Variable) else t for t in row.terms),
        fills=tuple((p, t) for p, t in enumerate(row.terms) if isinstance(t, Variable)),
    )


@dataclass(frozen=True, slots=True)
class _EarlyCheck:
    """The plans that judge a variable row at one depth before it completes.

    ``row`` fills the variables assigned by that depth; its condition is
    ground by that depth too.
    """

    row: _CompiledRow
    plans: tuple[SeedPlan, ...]


#: The canonical world form produced by :func:`world_key`: the relations'
#: row sets in schema order.
WorldKey = tuple[frozenset[Row], ...]


def world_key(world: GroundInstance) -> WorldKey:
    """A canonical form for world deduplication.

    Two worlds over the same schema are equal iff their keys are equal; the
    key hashes only the tuple sets (in schema order), not the schema itself,
    which makes it cheaper than hashing :class:`GroundInstance` objects in a
    ``seen`` set.
    """
    return tuple(
        world.relation(name).rows for name in world.schema.relation_names
    )


def interchangeable_fresh_values(
    cinstance: CInstance,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain,
) -> tuple[Constant, ...]:
    """The fresh Adom values that nothing in the input distinguishes.

    A fresh value is interchangeable when it occurs in no c-table term or
    condition, no master tuple, no constraint and no finite attribute
    domain: then any permutation of such values maps satisfying valuations
    to satisfying valuations.  The values come in the pools' order, which
    is the order :class:`WorldSearch` ranks them in under
    ``break_symmetry``; the certain-answer renaming closure of
    :func:`repro.ctables.possible_worlds.renaming_closure` permutes the same
    set.
    """
    mentioned = frozenset().union(
        cinstance.constants(),
        master.constants(),
        constraint_set_constants(constraints),
        adom.finite_domain_values,
    )
    fresh = set(adom.fresh_values) - mentioned
    return tuple(value for value in adom.ordered() if value in fresh)


def _ranks(values: Iterable[Constant]) -> dict[Constant, int]:
    return {value: rank for rank, value in enumerate(values)}


class WorldSearchBase:
    """The front-ends every engine offers over its :meth:`search`.

    A subclass fills :attr:`stats` and yields the ``(µ, µ(T))`` pairs of
    ``Mod_Adom(T, D_m, V)`` from :meth:`search`; it overrides a front-end
    only where it has a faster path (the SAT engines decide
    :meth:`has_world` with one solver call and count without building
    worlds).
    """

    stats: SearchStats

    def search(self) -> Iterator[tuple[Valuation, GroundInstance]]:
        """Enumerate ``(µ, µ(T))`` pairs with ``(µ(T), D_m) |= V``."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[tuple[Valuation, GroundInstance]]:
        return self.search()

    def worlds(self, deduplicate: bool = True) -> Iterator[GroundInstance]:
        """Enumerate the worlds, suppressing duplicates by canonical form."""
        seen: set[WorldKey] = set()
        for _valuation, world in self.search():
            if deduplicate:
                key = world_key(world)
                if key in seen:
                    self.stats.duplicate_worlds += 1
                    continue
                seen.add(key)
            yield world

    def has_world(self) -> bool:
        """Whether ``Mod_Adom(T, D_m, V)`` is non-empty."""
        for _ in self.search():
            return True
        return False

    def count_worlds(self) -> int:
        """The number of distinct worlds."""
        return sum(1 for _ in self.worlds(deduplicate=True))


class WorldSearch(WorldSearchBase):
    """Backtracking enumeration of ``Mod_Adom(T, D_m, V)`` with propagation.

    Parameters
    ----------
    cinstance, master, constraints, adom:
        The decision-procedure input; ``adom`` defaults to the
        :func:`~repro.ctables.possible_worlds.default_active_domain` of the
        other three.
    break_symmetry:
        Restrict the search to one representative per permutation class of
        the :func:`interchangeable_fresh_values`, the class's first member
        in search order.  Sound for any per-world test that renaming those
        values cannot change: whether *some* world exists, or the first
        world passing or failing such a test, are kept.  The world set is
        not, so a caller that needs every world leaves it off, and one that
        intersects per-world answers closes each under the renamings first
        (:func:`repro.ctables.possible_worlds.renaming_closure`).
    checker:
        A prebuilt :class:`ConstraintChecker` for ``(master, constraints)``.
        Callers that run many searches against the same master data pass one
        to avoid re-evaluating the constraint right-hand sides per search.
    stop_check:
        A zero-argument callable polled every :data:`STOP_CHECK_STRIDE` search
        nodes; returning ``True`` aborts the search by raising
        :class:`~repro.exceptions.SearchCancelledError`.  The service's
        ``/worlds`` stream passes one that turns true when its client
        disconnects.
    pool_order:
        A value-order hint applied (stably) to every candidate pool.  The
        only hint currently defined is ``"fresh_first"``: try the fresh
        ``New`` values of the active domain before the constants, which
        front-loads the candidates most likely to create genuinely new
        tuples — the order the single-tuple-extension sweeps want.
        Reordering pools never changes the *set* of worlds, only the
        sequence they are found in, so callers that promise order-identical
        enumeration must leave this off.
    """

    def __init__(
        self,
        cinstance: CInstance,
        master: MasterData,
        constraints: Sequence[ContainmentConstraint],
        adom: ActiveDomain | None = None,
        *,
        break_symmetry: bool = False,
        checker: ConstraintChecker | None = None,
        stop_check: Callable[[], bool] | None = None,
        pool_order: str | None = None,
    ) -> None:
        if adom is None:
            from repro.ctables.possible_worlds import default_active_domain

            adom = default_active_domain(cinstance, master, constraints)
        self._cinstance = cinstance
        self._schema = cinstance.schema
        self._adom = adom
        self._checker = checker or ConstraintChecker(master, constraints)
        self._stop_check = stop_check
        self.stats = SearchStats()

        restrictions = cinstance.variable_domains()
        self._pools = variable_pools(cinstance.variables(), adom, restrictions)
        if pool_order is not None:
            if pool_order not in POOL_ORDERS:
                raise SearchError(
                    f"pool_order must be one of {POOL_ORDERS}, got {pool_order!r}"
                )
            fresh = set(adom.fresh_values)
            for pool in self._pools.values():
                # Stable: fresh values first, both groups keeping their
                # existing relative order.
                pool.sort(key=lambda value: value not in fresh)
        rows = [(name, row) for name, _index, row in cinstance.rows()]
        self._order = order_variables(
            self._pools, [row.variables() for _name, row in rows]
        )
        # Node consistency: a row whose condition is TRUE is in every world,
        # so a value it cannot take with a plan's head in the right-hand
        # side is in no satisfying valuation.  The pools are cut after the
        # order is fixed, each in its own order, so only effort moves.
        full = {variable: len(pool) for variable, pool in self._pools.items()}
        for name, row in rows:
            if row.condition.is_true:
                for variable, values in self._checker.row_supports(name, row.terms).items():
                    self._pools[variable] = [v for v in self._pools[variable] if v in values]
        #: (variable, pool, values the restriction removed) per depth.
        self._levels = [
            (variable, self._pools[variable], full[variable] - len(self._pools[variable]))
            for variable in self._order
        ]
        self._exhausted = not all(self._pools.values())
        # depth[v]: the search depth from which variable v is assigned.
        depth = {variable: i + 1 for i, variable in enumerate(self._order)}
        # completions[0] holds the rows that are ground from the start;
        # completions[d + 1] the rows whose last variable is order[d].
        self._completions: list[list[_CompiledRow]] = [
            [] for _ in range(len(self._order) + 1)
        ]
        self._early: list[list[_EarlyCheck]] = [[] for _ in self._completions]
        for name, row in rows:
            level = max((depth[v] for v in row.variables()), default=0)
            compiled = _compile_row(name, row)
            self._completions[level].append(compiled)
            self._schedule_early_checks(compiled, row, level, depth)

        # The tuples of the ground instance a run is rooted at (over()).
        self._root: tuple[tuple[str, frozenset[Row]], ...] = ()
        self._break_symmetry = break_symmetry
        self._interchangeable: tuple[Constant, ...] = ()
        self._fresh_rank: dict[Constant, int] = {}
        if break_symmetry:
            self._interchangeable = interchangeable_fresh_values(
                cinstance, master, constraints, adom
            )
            self._fresh_rank = _ranks(self._interchangeable)

    def _schedule_early_checks(
        self,
        compiled: _CompiledRow,
        row: CTableRow,
        level: int,
        depth: Mapping[Variable, int],
    ) -> None:
        """Schedule each plan of ``row`` at the first depth where the
        positions it reads and the row's condition are ground, when that
        depth comes before ``level``, the row's completion depth."""
        if not level:
            return  # ground from the start: pushed at the root
        conditioned = max((depth[v] for v in row.condition.variables()), default=0)
        ground_at = {p: depth[v] for p, v in compiled.fills}
        plans_at: dict[int, list[SeedPlan]] = {}
        for _index, plans in self._checker.seed_plans(compiled.relation):
            for plan in plans:
                if plan.arity != row.arity:
                    continue  # the push raises the ArityError
                at = max([conditioned, *(ground_at.get(p, 0) for p in plan.reads)])
                if at < level:
                    plans_at.setdefault(at, []).append(plan)
        for at, plans_here in plans_at.items():
            fills = tuple((p, v) for p, v in compiled.fills if ground_at[p] <= at)
            self._early[at].append(
                _EarlyCheck(row=replace(compiled, fills=fills), plans=tuple(plans_here))
            )

    @property
    def order(self) -> list[Variable]:
        """The variable-assignment order the search uses (deterministic)."""
        return list(self._order)

    @property
    def pools(self) -> dict[Variable, list[Constant]]:
        """The per-variable candidate pools (after any ``pool_order``, cut
        to the values the master data allows)."""
        return {variable: list(pool) for variable, pool in self._pools.items()}

    def over(self, instance: GroundInstance) -> "WorldSearch":
        """A run of this search rooted at the ground instance ``instance``.

        The run is equivalent to a fresh :class:`WorldSearch` over ``T ∪ I``
        (``T`` this search's c-instance, ``I`` the instance) with the same
        Adom, checker and options: the tuples of ``I`` are pushed at the
        root, before the rows of ``T`` that are ground from the start; the
        run has its own checker session and :attr:`stats`; and under
        ``break_symmetry`` the fresh values ``I`` mentions are excluded from
        the interchangeable ranks, as ``T ∪ I`` would exclude them.  The
        compiled plan is shared with this search, not rebuilt: ``I`` adds no
        variable, so the order, the pools, the completion levels and the
        early-check schedule of ``T ∪ I`` are those of ``T`` (a ground row
        restricts no pool).
        """
        if instance.schema != self._schema:
            raise SearchError("a rooted run needs an instance over the search's schema")
        run = copy.copy(self)
        run.stats = SearchStats()
        run._root = tuple(
            (name, instance.relation(name).rows) for name in self._schema.relation_names
        )
        if self._break_symmetry:
            mentioned = instance.constants()
            run._fresh_rank = _ranks(
                value for value in self._interchangeable if value not in mentioned
            )
        return run

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def search(self) -> Iterator[tuple[Valuation, GroundInstance]]:
        """Enumerate ``(µ, µ(T))`` pairs with ``(µ(T), D_m) |= V``."""
        if self._exhausted:
            # A variable has no value left: there is no valuation at all.
            self.stats.pruned += 1
            return
        session = self._checker.session(self._schema.relation_names)
        # reprolint: disable=R002 -- the root of a run is never popped: the
        # session is the run's own.  The verdict is a union of violations,
        # so the order of these pushes changes neither it nor the facts.
        rooted = all(session.push(name, row) for name, rows in self._root for row in rows)
        if not rooted or not self._push_level(session, 0, {}):
            # The tuples fixed by the ground rows already violate a CC; by
            # monotonicity no valuation can repair that.
            self.stats.pruned += 1
            return
        yield from self._descend(0, {}, session, 0)

    def _push_level(
        self,
        session: CheckerSession,
        level: int,
        valuation: Valuation,
    ) -> bool:
        """Push the rows completed at ``level`` and run its early checks;
        ``False`` on a violation.

        The caller unwinds via :meth:`CheckerSession.pop_to` against a mark
        taken before the call, so a partially applied level needs no special
        handling — pops are symmetric with pushes either way.
        """
        for row in self._completions[level]:
            if row.condition is not None and not row.condition.evaluate(valuation):
                continue
            values = list(row.template)
            for position, variable in row.fills:
                values[position] = valuation[variable]
            # reprolint: disable=R002 -- pops are the caller's contract: every
            # caller unwinds via pop_to against a mark taken before this call.
            if not session.push(row.relation, tuple(values)):
                return False
        # A level may complete without a single push (no rows ground here),
        # in which case the session's standing verdict decides: at the root
        # this is where an atom-free constraint's base violation surfaces.
        if not session.is_satisfied:
            return False
        # A row not yet complete whose condition holds is in every world
        # below, and a plan reading only its ground positions judges every
        # completion alike: by CQ monotonicity an escape now is an escape in
        # every world of the subtree.
        escapes, facts = self._checker.escapes, session.facts
        for check in self._early[level]:
            row = check.row
            if row.condition is not None and not row.condition.evaluate(valuation):
                continue
            values = list(row.template)
            for position, variable in row.fills:
                values[position] = valuation[variable]
            partial = tuple(values)
            for plan in check.plans:
                if escapes(facts, plan, partial):
                    return False
        return True

    def _descend(
        self,
        depth: int,
        valuation: Valuation,
        session: CheckerSession,
        used_fresh: int,
    ) -> Iterator[tuple[Valuation, GroundInstance]]:
        if depth == len(self._order):
            world = GroundInstance(
                self._schema,
                {name: tuple(rows) for name, rows in session.facts.items()},
            )
            self.stats.worlds += 1
            yield dict(valuation), world
            return
        variable, pool, removed = self._levels[depth]
        if removed:
            # The values the pool restriction took out: cut, never tried.
            self.stats.pruned += removed
        for value in pool:
            rank = self._fresh_rank.get(value)
            if rank is None:
                next_used = used_fresh
            elif rank > used_fresh:
                # A later fresh value would start a branch that is a mere
                # renaming of one rooted at fresh value #used_fresh.
                self.stats.symmetry_skips += 1
                continue
            else:
                next_used = used_fresh + (1 if rank == used_fresh else 0)
            self.stats.nodes = nodes = (self.stats.nodes or 0) + 1
            if (
                self._stop_check is not None
                and nodes % STOP_CHECK_STRIDE == 0
                and self._stop_check()
            ):
                raise SearchCancelledError("world search cancelled by stop_check")
            valuation[variable] = value
            mark = session.mark()
            try:
                if self._push_level(session, depth + 1, valuation):
                    yield from self._descend(depth + 1, valuation, session, next_used)
                else:
                    self.stats.pruned += 1
            finally:
                # Unwind even when SearchCancelledError (stop_check) or
                # GeneratorExit (an abandoned enumeration) escapes mid-branch,
                # so the session stays balanced for reuse after an abort.
                session.pop_to(mark)
                del valuation[variable]
