"""Reference constraint checkers for the differential suites and the bench.

The library checks containment constraints one way: semi-naive delta
evaluation whose remaining-atom joins run over hash indexes
(:class:`repro.search.propagation.ConstraintChecker`).  The two checkers
here answer the same per-push question the slow, obvious ways, so the
``delta_differential`` suites and ``benchmarks/bench_engine.py`` can hold
the library path to them:

* :class:`FullRecomputeChecker` re-evaluates every constraint the pushed
  relation touches from scratch;
* :class:`LinearScanChecker` seeds the new tuple into each matching atom
  exactly as the library does, but joins the remaining atoms by the linear
  scans of :func:`repro.queries.evaluation.match_conjunction`.

Both subclass :class:`ConstraintChecker` and override only its per-push hook
``_newly_violated``, so their sessions share the library's push/pop/retract
trail, violation bookkeeping and fact store: a verdict that differs can only
come from the evaluation strategy.

:class:`PushOnlyChecker` keeps the library's evaluation but overrides the plan
hook ``seed_plans`` so that every plan reads the whole row: a
:class:`~repro.search.engine.WorldSearch` under it checks a row only once the
row is complete and pushed, with no early check — the reference the
early-check suites compare the library's search with.

:func:`check` evaluates a whole fact store statelessly, from scratch — the
ground truth the incremental verdicts are compared with.
"""

from __future__ import annotations

from dataclasses import replace
from typing import AbstractSet, Mapping, Sequence

from repro.constraints.containment import ContainmentConstraint
from repro.queries.cq import ConjunctiveQuery
from repro.queries.evaluation import (
    evaluate_cq_on_facts,
    instantiate_head,
    match_atom,
    match_conjunction,
)
from repro.relational.indexing import IndexedFactStore
from repro.relational.instance import Row
from repro.relational.master import MasterData
from repro.search.propagation import ConstraintChecker, SeededPlans

Facts = Mapping[str, AbstractSet[Row]]


def check(checker: ConstraintChecker, facts: Facts) -> bool:
    """Whether ``facts`` satisfies every constraint, evaluated from scratch."""
    return all(
        evaluate_cq_on_facts(constraint.query, facts) <= rhs
        for constraint, _relations, rhs in checker.entries
    )


class FullRecomputeChecker(ConstraintChecker):
    """Re-evaluates each constraint the pushed relation touches, in full."""

    def __init__(
        self, master: MasterData, constraints: Sequence[ContainmentConstraint]
    ) -> None:
        super().__init__(master, constraints)
        self._plans = self.entries

    def _newly_violated(
        self,
        facts: IndexedFactStore,
        relation: str,
        row: Row,
        already: AbstractSet[int],
    ) -> frozenset[int]:
        del row  # the recompute reads the whole store, new tuple included
        return frozenset(
            index
            for index, (constraint, relations, rhs) in enumerate(self._plans)
            if index not in already
            and relation in relations
            and not evaluate_cq_on_facts(constraint.query, facts) <= rhs
        )


class LinearScanChecker(ConstraintChecker):
    """Delta seeding as in the library; remaining atoms joined by linear scans."""

    def __init__(
        self, master: MasterData, constraints: Sequence[ContainmentConstraint]
    ) -> None:
        super().__init__(master, constraints)
        self._plans: list[tuple[ConjunctiveQuery, dict[str, list[int]], frozenset[Row]]] = []
        for constraint, _relations, rhs in self.entries:
            seeds: dict[str, list[int]] = {}
            for position, atom in enumerate(constraint.query.atoms):
                seeds.setdefault(atom.relation, []).append(position)
            self._plans.append((constraint.query, seeds, rhs))

    def _newly_violated(
        self,
        facts: IndexedFactStore,
        relation: str,
        row: Row,
        already: AbstractSet[int],
    ) -> frozenset[int]:
        return frozenset(
            index
            for index, (query, seeds, rhs) in enumerate(self._plans)
            if index not in already
            and relation in seeds
            and _delta_escapes(query, seeds[relation], facts, row, rhs)
        )


def _delta_escapes(
    query: ConjunctiveQuery,
    positions: Sequence[int],
    facts: Facts,
    row: Row,
    rhs: frozenset[Row],
) -> bool:
    """Whether an LHS answer derived with ``row`` at one of ``positions``
    escapes ``rhs``; ``facts`` already holds ``row``, so homomorphisms that
    use it several times are covered too."""
    for position in positions:
        seed = match_atom(query.atoms[position], row, {})
        if seed is None:
            continue
        rest = query.atoms[:position] + query.atoms[position + 1:]
        for assignment in match_conjunction(
            rest, query.comparisons, facts, initial=seed
        ):
            if instantiate_head(query.head, assignment) not in rhs:
                return True
    return False


class PushOnlyChecker(ConstraintChecker):
    """The library checker with every plan reading every row position.

    The search schedules an early check of a row only at a depth where the
    positions the plan reads are ground before the row completes, so under
    this checker it schedules none; pushes evaluate exactly as the library's.
    """

    def __init__(
        self, master: MasterData, constraints: Sequence[ContainmentConstraint]
    ) -> None:
        super().__init__(master, constraints)
        self._whole_rows: dict[str, SeededPlans] = {}

    def seed_plans(self, relation: str) -> SeededPlans:
        plans = self._whole_rows.get(relation)
        if plans is None:
            plans = self._whole_rows[relation] = tuple(
                (index, tuple(replace(plan, reads=tuple(range(plan.arity))) for plan in seeded))
                for index, seeded in super().seed_plans(relation)
            )
        return plans


#: Every checker the differential suites run in lockstep, by label: the
#: library's indexed delta checker first, then the two references.
CHECKERS: dict[str, type[ConstraintChecker]] = {
    "delta-indexed": ConstraintChecker,
    "delta-linear": LinearScanChecker,
    "full": FullRecomputeChecker,
}
