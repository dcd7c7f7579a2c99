"""Incremental containment-constraint checking on partially grounded worlds.

The pruning rule of the engine rests on monotonicity: the left-hand side of a
containment constraint ``q(R) ⊆ p(R_m)`` is a CQ, and CQs are monotone in the
database.  The tuples contributed by the c-table rows that are already fully
grounded under a partial valuation form a *subset* of every world reachable
from that partial valuation, so

    ``q(definite tuples) ⊄ p(D_m)  ⟹  q(µ(T)) ⊄ p(D_m)`` for every
    completion ``µ`` of the partial valuation,

and the whole branch can be discarded.  :class:`ConstraintChecker`
precomputes the (fixed) right-hand sides ``p(D_m)`` once.

Each push is checked by **semi-naive delta evaluation**.  When a tuple ``t``
joins relation ``R``, the only LHS answers that can newly escape the
right-hand side are those derived by a homomorphism using ``t`` somewhere.
For every LHS atom over ``R`` the checker seeds the CQ match with
``atom ↦ t`` and joins the *remaining* atoms outward against the
already-grounded fact set; the union over seed positions covers exactly the
new answers.  The full left-hand side is never re-evaluated, which cuts the
per-tuple cost from ``O(|facts|^k)`` to ``O(|facts|^(k-1))`` for a
``k``-atom constraint.  The checker compiles every (constraint, seed atom)
pair once, at construction, into a :class:`~repro.search.joinplan.SeedPlan`:
a push tests the row's positions directly, decides a one-atom constraint
from the row alone, and joins the remaining atoms of the others through the
hash indexes of :class:`~repro.relational.indexing.IndexedFactStore` in the
selectivity-greedy order of :func:`repro.search.joinplan.join_escapes_rhs`.

The incremental surface is a :class:`CheckerSession` (created per search via
:meth:`ConstraintChecker.session`): a ``push(relation, row)`` /- ``pop()``
snapshot stack over a fact store owned by the session.  Sessions make the
checker itself stateless — its plans never change after construction, and
the join probes they memoise on first use are pure functions of the plan —
so one :class:`ConstraintChecker` can be shared by the
:class:`repro.api.Database` facade, the parallel engine's workers and
arbitrarily many concurrent searches.  Because CQ answers are monotone in
the fact store, a push can only *add* violations and popping it removes
exactly the violations it added — the session tracks per-push violation
sets, so verdicts stay exact across any push/pop sequence (including pushes
after a violation and pushes of already-present tuples).  Sessions evaluate
each push through :meth:`ConstraintChecker._newly_violated`, the hook a
reference checker overrides to swap the evaluation strategy while keeping
the session protocol.  The library path runs each plan through
:meth:`ConstraintChecker.escapes` and reads the plans through
:meth:`ConstraintChecker.seed_plans`, both shared with the early checks of
:class:`repro.search.engine.WorldSearch`, which run a plan on a row that is
not yet complete and push nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable, Mapping, Sequence

from repro.constraints.containment import ContainmentConstraint
from repro.exceptions import SearchError
from repro.queries.evaluation import evaluate_cq_on_facts
from repro.relational.indexing import IndexedFactStore
from repro.relational.instance import GroundInstance, Row
from repro.relational.master import MasterData
from repro.search.joinplan import SeedPlan, compile_seed_plans, join_escapes_rhs, seed_matches


#: ``(constraint index, that constraint's plans)`` pairs, in constraint order.
SeededPlans = tuple[tuple[int, tuple[SeedPlan, ...]], ...]


@dataclass(frozen=True)
class _Entry:
    """One constraint with its LHS relations and precomputed RHS."""

    constraint: ContainmentConstraint
    relations: frozenset[str]
    rhs: frozenset[Row]


class ConstraintChecker:
    """Containment-constraint checks with precomputed right-hand sides.

    ``master`` and ``constraints`` form the constraint context; the
    right-hand sides ``p(D_m)`` are evaluated and every (constraint, seed
    atom) plan is compiled once here, and shared by every session.
    """

    __slots__ = ("_entries", "_base_violations", "_seeds")

    def __init__(
        self,
        master: MasterData,
        constraints: Sequence[ContainmentConstraint],
    ) -> None:
        entries: list[_Entry] = []
        base: set[int] = set()
        seeds: dict[str, list[tuple[int, tuple[SeedPlan, ...]]]] = {}
        for index, constraint in enumerate(constraints):
            query = constraint.query
            entry = _Entry(
                constraint=constraint,
                relations=frozenset(query.relation_names()),
                rhs=constraint.right_answer(master),
            )
            entries.append(entry)
            if not query.atoms:
                # Atom-free constraints (constant/equality-only LHS) never
                # touch a relation, so no push can ever re-check them; their
                # verdict is fixed at construction time and seeded into every
                # session as a base violation when it fails.
                if not evaluate_cq_on_facts(query, {}) <= entry.rhs:
                    base.add(index)
                continue
            plans = compile_seed_plans(query, entry.rhs)
            for relation in sorted(entry.relations):
                on_relation = tuple(plan for plan in plans if plan.atom.relation == relation)
                if on_relation:
                    seeds.setdefault(relation, []).append((index, on_relation))
        self._entries = entries
        self._base_violations = frozenset(base)
        #: relation → (constraint index, plans seeded by a tuple of it), in
        #: constraint order.
        self._seeds: Mapping[str, SeededPlans] = {
            relation: tuple(plans) for relation, plans in seeds.items()
        }

    @property
    def constraints(self) -> list[ContainmentConstraint]:
        """The constraints being checked, in input order."""
        return [entry.constraint for entry in self._entries]

    @property
    def entries(self) -> list[tuple[ContainmentConstraint, frozenset[str], frozenset[Row]]]:
        """``(constraint, LHS relation names, precomputed RHS answer)`` triples.

        Exposed so other engines (e.g. the CNF encoder of
        :mod:`repro.search.cnf_encoding`) can share the per-master-data
        right-hand-side evaluation instead of redoing it.
        """
        return [
            (entry.constraint, entry.relations, entry.rhs)
            for entry in self._entries
        ]

    def session(self, relation_names: Iterable[str] = ()) -> "CheckerSession":
        """A fresh push/pop session over an (initially empty) fact store.

        Sessions are independent: a shared checker can serve any number of
        concurrent searches, each with its own session.
        """
        return CheckerSession(self, relation_names)

    def satisfied_by(self, instance: GroundInstance) -> bool:
        """Whether ``(instance, D_m) |= V``: the instance is partially closed.

        The instance's tuples are pushed on a session of their own, so the
        answer costs one delta check per tuple against the precomputed
        right-hand sides, not a full evaluation of every constraint.
        """
        session = self.session(instance.schema.relation_names)
        for name in instance.schema.relation_names:
            for row in instance.relation(name).rows:
                # reprolint: disable=R002 -- never popped: the session is this
                # call's own and is dropped on return.
                if not session.push(name, row):
                    return False
        return session.is_satisfied

    # ------------------------------------------------------------------
    # per-push evaluation (used by sessions)
    # ------------------------------------------------------------------
    def _newly_violated(
        self,
        facts: IndexedFactStore,
        relation: str,
        row: Row,
        already: AbstractSet[int],
    ) -> frozenset[int]:
        """Indices of constraints newly violated by adding ``row`` to ``relation``.

        ``facts`` must already contain the new row.  Constraints in
        ``already`` are skipped — they were violated before this push, and by
        monotonicity they stay violated until the pushes that violated them
        are popped.

        A new LHS answer must map some atom over ``relation`` onto ``row``,
        so each such atom's plan seeds the match with the row; the remaining
        atoms join against the full fact store (which already contains the
        row, covering homomorphisms that use it several times).
        """
        fresh: list[int] = []
        for index, plans in self.seed_plans(relation):
            if index in already:
                continue
            for plan in plans:
                if self.escapes(facts, plan, row):
                    fresh.append(index)
                    break
        return frozenset(fresh)

    def seed_plans(self, relation: str) -> SeededPlans:
        """``(constraint index, plans)`` for the plans a tuple of ``relation``
        seeds, in constraint order.

        The push path and the early checks of
        :class:`repro.search.engine.WorldSearch` both read the plans here, so
        a checker that overrides this hook changes both.
        """
        return self._seeds.get(relation, ())

    def escapes(self, facts: IndexedFactStore, plan: SeedPlan, row: Row) -> bool:
        """Whether a match of ``plan`` that maps its atom onto ``row`` has a
        head outside the constraint's right-hand side.

        The remaining atoms join against ``facts``.  Only the positions in
        ``plan.reads`` of ``row`` are read, so every row that agrees with
        ``row`` on them gets the same verdict against the same facts.
        """
        values = seed_matches(plan, row)
        if values is None:
            return False
        if plan.atoms:
            return join_escapes_rhs(facts, plan, values)
        return plan.head is None or plan.head(values) not in plan.rhs


#: One trail frame: ``(relation, row, actually_added, newly_violated_ids)``.
_TrailEntry = tuple[str, "Row", bool, frozenset[int]]


class CheckerSession:
    """A push/pop snapshot stack over a session-owned fact store.

    ``push(relation, row)`` adds a tuple and returns whether the store still
    satisfies every constraint; ``pop()`` undoes the most recent push
    exactly (facts *and* violation bookkeeping).  Pushing a tuple that is
    already present is a recorded no-op: the verdict is unchanged and the
    matching ``pop()`` does not remove the tuple.

    The monotonicity of CQ answers in the fact store makes the bookkeeping
    exact: a push can only introduce violations, never repair one, so the
    set of violated constraints is the union of the per-push violation sets
    on the trail (plus any atom-free base violations fixed at checker
    construction).
    """

    __slots__ = ("_checker", "facts", "_trail", "_violated", "_retracted")

    def __init__(
        self, checker: ConstraintChecker, relation_names: Iterable[str] = ()
    ) -> None:
        self._checker = checker
        # A dict[str, set[Row]] subclass: plain mapping reads everywhere,
        # with lazily built hash indexes (and value interning) maintained by
        # the push/pop mutators for the delta joins.
        self.facts: IndexedFactStore = IndexedFactStore(relation_names)
        self._trail: list[_TrailEntry] = []
        self._violated: set[int] = set(checker._base_violations)
        self._retracted = False

    @property
    def depth(self) -> int:
        """The number of pushes currently on the trail."""
        return len(self._trail)

    @property
    def is_satisfied(self) -> bool:
        """Whether the current fact store satisfies every constraint."""
        return not self._violated

    def violated_constraints(self) -> list[ContainmentConstraint]:
        """The constraints currently violated, in input order."""
        entries = self._checker._entries
        return [entries[index].constraint for index in sorted(self._violated)]

    def push(self, relation: str, row: Row) -> bool:
        """Add ``row`` to ``relation``; return whether all constraints hold.

        A retracted session records no trail entry: it can never pop again.
        """
        row, added = self.facts.add_row(relation, row)
        if not added:
            if not self._retracted:
                self._trail.append((relation, row, False, frozenset()))
            return not self._violated
        try:
            fresh = self._checker._newly_violated(
                self.facts, relation, row, self._violated
            )
        except BaseException:
            # Exception-safe unwind (reprolint R002): the row — and every
            # index entry it contributed — must not outlive a failed push,
            # or the trail would no longer mirror the store.
            self.facts.discard_row(relation, row)
            raise
        self._violated |= fresh
        if not self._retracted:
            self._trail.append((relation, row, True, fresh))
        return not self._violated

    def pop(self) -> None:
        """Undo the most recent push (facts, index entries, violation state)."""
        self._refuse_if_retracted("pop()")
        if not self._trail:
            raise SearchError("pop() without a matching push()")
        relation, row, added, fresh = self._trail.pop()
        if added:
            self.facts.discard_row(relation, row)
        self._violated -= fresh

    def retract(self, relation: str, row: Row) -> bool:
        """Remove ``row`` from ``relation`` out of push order (update path).

        Unlike :meth:`pop`, which unwinds the *most recent* push, a
        retraction removes an arbitrary present tuple — the primitive the
        incremental-update layer (:meth:`repro.api.Database.update`) needs
        for drops.  CQ monotonicity means removing a tuple can only *repair*
        violations, never introduce one, so the verdict is refreshed by
        fully re-evaluating exactly the constraints whose left-hand side
        mentions ``relation``.

        Retraction trades the trail for flexibility: the per-push violation
        attribution no longer matches the store afterwards, so the session
        drops its trail, records none from then on (``depth`` stays 0) and
        subsequent :meth:`pop` and :meth:`pop_to` calls raise.  Sessions used
        for backtracking search should never retract; sessions owned by the
        update layer never pop.

        Returns whether the row was present (and therefore removed).
        """
        row = self.facts.intern_row(row)
        if not self.facts.discard_row(relation, row):
            return False
        self._retracted = True
        self._trail.clear()
        for index, entry in enumerate(self._checker._entries):
            if relation not in entry.relations:
                continue
            if evaluate_cq_on_facts(entry.constraint.query, self.facts) <= entry.rhs:
                self._violated.discard(index)
            else:
                self._violated.add(index)
        return True

    def mark(self) -> int:
        """A snapshot token for :meth:`pop_to` (the current trail depth)."""
        return len(self._trail)

    def pop_to(self, mark: int) -> None:
        """Pop until the trail is back at the given snapshot token."""
        self._refuse_if_retracted("pop_to()")
        while len(self._trail) > mark:
            self.pop()

    def _refuse_if_retracted(self, call: str) -> None:
        if self._retracted:
            raise SearchError(
                f"{call} after retract(): a retraction invalidates the per-push "
                "violation attribution, so the trail no longer mirrors the "
                "store; use a fresh session for push/pop search"
            )
