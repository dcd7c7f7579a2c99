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
* for pure existence checks (:meth:`WorldSearch.has_world`), the fresh
  ``New`` values of the active domain are interchangeable, so the search
  explores only one representative per permutation class of fresh values
  (``break_symmetry=True``);
* world enumeration deduplicates via a cheap canonical form
  (:func:`world_key`) instead of hashing full :class:`GroundInstance`
  objects; and
* the compiled plan (order, pools, completion levels, early-check schedule
  and the rows compiled for grounding) is built once per c-instance ``T``:
  :meth:`WorldSearch.over` roots a run at a ground instance ``I`` and is
  equivalent to a fresh search over ``T ∪ I``, which is how the deciders
  test every world of ``Mod_Adom(T)`` against the same adjoined rows.

The engine enumerates exactly the valuations the naive path accepts (pruning
is sound and complete for satisfying valuations), so
:mod:`repro.ctables.possible_worlds` can route through it transparently.
Early checks cut only subtrees without a satisfying valuation, so the
``(valuation, world)`` sequence is the one a search that checked complete
rows alone would produce; only ``nodes`` and the pushes fall.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Mapping, Sequence

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

#: How many search nodes may elapse between two ``stop_check`` polls.
STOP_CHECK_STRIDE = 64

#: The pool-order hints :class:`WorldSearch` understands.
POOL_ORDERS = ("fresh_first",)


@dataclass
class SearchStats:
    """Counters describing one search run (reset per :class:`WorldSearch`).

    ``nodes`` counts value assignments tried.  ``pruned`` counts the
    branches cut, by either kind of cut: a push that violated a constraint,
    or an early check of a row not yet complete.
    """

    nodes: int = 0
    pruned: int = 0
    worlds: int = 0
    duplicate_worlds: int = 0
    symmetry_skips: int = 0


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


class WorldSearch:
    """Backtracking enumeration of ``Mod_Adom(T, D_m, V)`` with propagation.

    Parameters
    ----------
    cinstance, master, constraints, adom:
        The decision-procedure input; ``adom`` defaults to the
        :func:`~repro.ctables.possible_worlds.default_active_domain` of the
        other three.
    break_symmetry:
        Restrict the search to one representative per permutation class of
        interchangeable fresh Adom values.  Sound for existence checks only:
        it preserves whether *some* satisfying valuation exists, not the full
        world set, so enumerating callers must leave it off.
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
        self._mentioned: frozenset[Constant] = frozenset()
        self._fresh_rank: dict[Constant, int] = {}
        if break_symmetry:
            self._mentioned = frozenset().union(
                cinstance.constants(),
                master.constants(),
                constraint_set_constants(constraints),
                adom.finite_domain_values,
            )
            self._fresh_rank = self._interchangeable_fresh_ranks(self._mentioned)

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
        """The per-variable candidate pools (after any ``pool_order``)."""
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
        early-check schedule of ``T ∪ I`` are those of ``T``.
        """
        if instance.schema != self._schema:
            raise SearchError("a rooted run needs an instance over the search's schema")
        run = copy.copy(self)
        run.stats = SearchStats()
        run._root = tuple(
            (name, instance.relation(name).rows) for name in self._schema.relation_names
        )
        if self._break_symmetry:
            run._fresh_rank = self._interchangeable_fresh_ranks(
                self._mentioned | instance.constants()
            )
        return run

    # ------------------------------------------------------------------
    # symmetry
    # ------------------------------------------------------------------
    def _interchangeable_fresh_ranks(
        self, mentioned: frozenset[Constant]
    ) -> dict[Constant, int]:
        """Rank the fresh Adom values that nothing in the input distinguishes.

        A fresh value is interchangeable when it is not ``mentioned``: it
        occurs in no c-table term or condition (nor in the instance a run is
        rooted at), no master tuple, no constraint and no finite attribute
        domain — then any permutation of such values maps satisfying
        valuations to satisfying valuations, and it suffices to explore
        assignments whose fresh values are first used in rank order.
        """
        ranks: dict[Constant, int] = {}
        for value in self._adom.fresh_values:
            if value not in mentioned:
                ranks[value] = len(ranks)
        return ranks

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def search(self) -> Iterator[tuple[Valuation, GroundInstance]]:
        """Enumerate ``(µ, µ(T))`` pairs with ``(µ(T), D_m) |= V``."""
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

    def __iter__(self) -> Iterator[tuple[Valuation, GroundInstance]]:
        return self.search()

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
        variable = self._order[depth]
        for value in self._pools[variable]:
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
            self.stats.nodes += 1
            if (
                self._stop_check is not None
                and self.stats.nodes % STOP_CHECK_STRIDE == 0
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

    # ------------------------------------------------------------------
    # front-ends
    # ------------------------------------------------------------------
    def worlds(self, deduplicate: bool = True) -> Iterator[GroundInstance]:
        """Enumerate the worlds, suppressing duplicates by canonical form."""
        seen: set[tuple[frozenset[Row], ...]] = set()
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
