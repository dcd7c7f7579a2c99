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
``k``-atom constraint.  The remaining-atom join runs through the hash
indexes of :class:`~repro.relational.indexing.IndexedFactStore` in the
selectivity-greedy order of :mod:`repro.search.joinplan`.

The incremental surface is a :class:`CheckerSession` (created per search via
:meth:`ConstraintChecker.session`): a ``push(relation, row)`` /- ``pop()``
snapshot stack over a fact store owned by the session.  Sessions make the
checker itself stateless, so one :class:`ConstraintChecker` can be shared by
the :class:`repro.api.Database` facade, the parallel engine's workers and
arbitrarily many concurrent searches.  Because CQ answers are monotone in
the fact store, a push can only *add* violations and popping it removes
exactly the violations it added — the session tracks per-push violation
sets, so verdicts stay exact across any push/pop sequence (including pushes
after a violation and pushes of already-present tuples).  Sessions evaluate
each push through :meth:`ConstraintChecker._newly_violated`, the one hook a
reference checker overrides to swap the evaluation strategy while keeping
the session protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable, Mapping, Sequence

from repro.constraints.containment import ContainmentConstraint
from repro.exceptions import SearchError
from repro.queries.atoms import Comparison, RelationAtom
from repro.queries.evaluation import evaluate_cq_on_facts, match_atom
from repro.queries.terms import Term, Variable
from repro.relational.indexing import IndexedFactStore
from repro.relational.instance import Row
from repro.relational.master import MasterData
from repro.search.joinplan import join_escapes_rhs, relevant_variables


@dataclass(frozen=True)
class _Entry:
    """One constraint with everything the delta evaluator precomputes."""

    constraint: ContainmentConstraint
    relations: frozenset[str]
    rhs: frozenset[Row]
    atoms: tuple[RelationAtom, ...]
    comparisons: tuple[Comparison, ...]
    head: tuple[Term, ...]
    #: relation name → indices of the LHS atoms that can match a tuple of it.
    seeds: Mapping[str, tuple[int, ...]]
    #: variables the indexed join must keep (head/comparison/shared); the
    #: rest are existentially projected away by the index buckets.
    relevant: frozenset[Variable]


class ConstraintChecker:
    """Containment-constraint checks with precomputed right-hand sides.

    ``master`` and ``constraints`` form the constraint context; the
    right-hand sides ``p(D_m)`` are evaluated once here and shared by every
    session.
    """

    __slots__ = ("_entries", "_base_violations")

    def __init__(
        self,
        master: MasterData,
        constraints: Sequence[ContainmentConstraint],
    ) -> None:
        entries: list[_Entry] = []
        base: set[int] = set()
        for index, constraint in enumerate(constraints):
            query = constraint.query
            seeds: dict[str, tuple[int, ...]] = {}
            for atom_index, atom in enumerate(query.atoms):
                seeds[atom.relation] = seeds.get(atom.relation, ()) + (atom_index,)
            entry = _Entry(
                constraint=constraint,
                relations=frozenset(query.relation_names()),
                rhs=constraint.right_answer(master),
                atoms=query.atoms,
                comparisons=query.comparisons,
                head=query.head,
                seeds=seeds,
                relevant=relevant_variables(
                    query.atoms, query.comparisons, query.head
                ),
            )
            entries.append(entry)
            if not entry.atoms:
                # Atom-free constraints (constant/equality-only LHS) never
                # touch a relation, so no push can ever re-check them; their
                # verdict is fixed at construction time and seeded into every
                # session as a base violation when it fails.
                if not evaluate_cq_on_facts(query, {}) <= entry.rhs:
                    base.add(index)
        self._entries = entries
        self._base_violations = frozenset(base)

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
        """
        fresh: set[int] = set()
        for index, entry in enumerate(self._entries):
            if index in already or relation not in entry.seeds:
                continue
            if self._delta_violates(entry, facts, relation, row):
                fresh.add(index)
        return frozenset(fresh)

    def _delta_violates(
        self,
        entry: _Entry,
        facts: IndexedFactStore,
        relation: str,
        row: Row,
    ) -> bool:
        """Whether some *new* LHS answer (one using ``row``) escapes the RHS.

        Seeds the conjunctive match at every LHS atom over ``relation`` in
        turn: a new homomorphism must map at least one such atom onto the new
        tuple, and the remaining atoms join against the full fact store
        (which already contains the tuple, covering homomorphisms that use it
        several times) through the store's hash indexes, in greedy
        selectivity order (:func:`repro.search.joinplan.join_escapes_rhs`).
        """
        for atom_index in entry.seeds[relation]:
            seed = match_atom(entry.atoms[atom_index], row, {})
            if seed is None:
                continue
            rest = entry.atoms[:atom_index] + entry.atoms[atom_index + 1:]
            if join_escapes_rhs(
                facts,
                rest,
                entry.comparisons,
                entry.head,
                entry.rhs,
                seed,
                entry.relevant,
            ):
                return True
        return False


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
        """Add ``row`` to ``relation``; return whether all constraints hold."""
        row, added = self.facts.add_row(relation, row)
        if not added:
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
        self._trail.append((relation, row, True, fresh))
        return not self._violated

    def pop(self) -> None:
        """Undo the most recent push (facts, index entries, violation state)."""
        if self._retracted:
            raise SearchError(
                "pop() after retract(): a retraction invalidates the per-push "
                "violation attribution, so the trail no longer mirrors the "
                "store; use a fresh session for push/pop search"
            )
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
        attribution no longer matches the store afterwards, so subsequent
        :meth:`pop` calls raise.  Sessions used for backtracking search
        should never retract; sessions owned by the update layer never pop.

        Returns whether the row was present (and therefore removed).
        """
        row = self.facts.intern_row(row)
        if not self.facts.discard_row(relation, row):
            return False
        self._retracted = True
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
        while len(self._trail) > mark:
            self.pop()
