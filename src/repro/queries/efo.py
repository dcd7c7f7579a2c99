"""Positive existential first-order queries (∃FO⁺).

An ∃FO⁺ query is built from relation atoms and comparisons by closing under
``∧``, ``∨`` and ``∃`` (Section 2.3).  Semantically every ∃FO⁺ query is
equivalent to a UCQ, but the UCQ may be exponentially larger; the deciders of
the paper therefore work on the ∃FO⁺ representation directly (guessing one
disjunct at a time), and so does the evaluation engine here.

:func:`to_ucq` provides the explicit (possibly exponential) unfolding, which
is convenient for cross-checking the evaluators in tests and for reusing the
tableau-based machinery of the strong completeness characterisation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import QueryError
from repro.queries.atoms import Comparison, RelationAtom
from repro.queries.cq import ConjunctiveQuery
from repro.queries.formulas import (
    And,
    Atom,
    Compare,
    Exists,
    Formula,
    Or,
)
from repro.queries.terms import ConstantTerm, Term, Variable
from repro.queries.ucq import UnionOfConjunctiveQueries


@dataclass(frozen=True)
class ExistentialPositiveQuery:
    """An ∃FO⁺ query: a head of terms plus a positive existential formula."""

    head: tuple[Term, ...]
    formula: Formula
    name: str

    def __init__(
        self, head: Sequence[Term], formula: Formula, name: str = "Q"
    ) -> None:
        if not formula.is_positive():
            raise QueryError(
                f"query {name!r} uses negation or universal quantification; "
                "it is not an ∃FO+ query"
            )
        object.__setattr__(self, "head", tuple(head))
        object.__setattr__(self, "formula", formula)
        object.__setattr__(self, "name", name)

    @property
    def arity(self) -> int:
        """Arity of the query result."""
        return len(self.head)

    def head_variables(self) -> set[Variable]:
        """Variables occurring in the head."""
        return {t for t in self.head if isinstance(t, Variable)}

    def variables(self) -> set[Variable]:
        """Free variables of the formula plus head variables."""
        return self.formula.free_variables() | self.head_variables()

    def constants(self) -> set[ConstantTerm]:
        """Constants of the head and the formula."""
        head_consts = {t for t in self.head if not isinstance(t, Variable)}
        return head_consts | self.formula.constants()

    def relation_names(self) -> set[str]:
        """Relation names referenced by the formula."""
        return self.formula.relation_names()

    # ------------------------------------------------------------------
    # UCQ unfolding
    # ------------------------------------------------------------------
    def to_ucq(self) -> UnionOfConjunctiveQueries:
        """Unfold the query into an equivalent (possibly larger) UCQ.

        Every disjunct of the result is a conjunctive query whose body is one
        way of choosing a disjunct in each ``Or`` node of the formula.
        """
        disjuncts = []
        for index, (atoms, comparisons) in enumerate(_conjunctive_branches(self.formula)):
            disjuncts.append(
                ConjunctiveQuery(
                    head=self.head,
                    atoms=atoms,
                    comparisons=comparisons,
                    name=f"{self.name}#{index}",
                )
            )
        return UnionOfConjunctiveQueries(tuple(disjuncts), name=self.name)

    def __repr__(self) -> str:
        head = ", ".join(repr(t) for t in self.head)
        return f"{self.name}({head}) := {self.formula!r}"


def _conjunctive_branches(
    formula: Formula,
) -> list[tuple[tuple[RelationAtom, ...], tuple[Comparison, ...]]]:
    """All conjunctive branches (atom list, comparison list) of a positive formula."""
    if isinstance(formula, Atom):
        return [((formula.atom,), ())]
    if isinstance(formula, Compare):
        return [((), (formula.comparison,))]
    if isinstance(formula, Exists):
        # Existential quantifiers are implicit in the CQ representation.
        return _conjunctive_branches(formula.child)
    if isinstance(formula, Or):
        branches: list[tuple[tuple[RelationAtom, ...], tuple[Comparison, ...]]] = []
        for child in formula.children:
            branches.extend(_conjunctive_branches(child))
        return branches
    if isinstance(formula, And):
        child_branches = [_conjunctive_branches(c) for c in formula.children]
        combined: list[tuple[tuple[RelationAtom, ...], tuple[Comparison, ...]]] = []
        for combo in itertools.product(*child_branches):
            atoms: tuple[RelationAtom, ...] = ()
            comparisons: tuple[Comparison, ...] = ()
            for a, c in combo:
                atoms += a
                comparisons += c
            combined.append((atoms, comparisons))
        return combined
    raise QueryError(f"unexpected node {type(formula).__name__} in positive formula")


def efo(
    name: str, head: Sequence[Term], formula: Formula
) -> ExistentialPositiveQuery:
    """Shorthand constructor for :class:`ExistentialPositiveQuery`."""
    return ExistentialPositiveQuery(head=head, formula=formula, name=name)


def cq_as_efo(query: ConjunctiveQuery) -> ExistentialPositiveQuery:
    """View a conjunctive query as an ∃FO⁺ query."""
    parts: list[Formula] = [Atom(a) for a in query.atoms]
    parts.extend(Compare(c) for c in query.comparisons)
    if not parts:
        raise QueryError("cannot convert an empty-bodied CQ to ∃FO+")
    formula: Formula = parts[0] if len(parts) == 1 else And(tuple(parts))
    return ExistentialPositiveQuery(query.head, formula, name=query.name)


def ucq_as_efo(query: UnionOfConjunctiveQueries) -> ExistentialPositiveQuery:
    """View a UCQ as an ∃FO⁺ query.

    Because the disjuncts of a UCQ may use different variable names for the
    same head position, each disjunct is first rewritten so that its head is
    literally the head of the first disjunct, by adding equality atoms where
    needed.
    """
    reference_head = query.disjuncts[0].head
    reference_vars = {t for t in reference_head if isinstance(t, Variable)}
    formulas: list[Formula] = []
    for index, q in enumerate(query.disjuncts):
        if index > 0:
            # Avoid accidental variable capture: variables of later disjuncts
            # must not collide with the reference head variables unless they
            # are being aligned with them explicitly below.
            q = q.rename_apart(reference_vars)
        parts: list[Formula] = [Atom(a) for a in q.atoms]
        parts.extend(Compare(c) for c in q.comparisons)
        # Align the head of this disjunct with the reference head.
        from repro.queries.atoms import eq as _eq  # local import to avoid cycle

        for ref_term, own_term in zip(reference_head, q.head):
            if ref_term != own_term:
                parts.append(Compare(_eq(ref_term, own_term)))
        if not parts:
            raise QueryError("cannot convert an empty-bodied CQ to ∃FO+")
        formulas.append(parts[0] if len(parts) == 1 else And(tuple(parts)))
    formula: Formula = formulas[0] if len(formulas) == 1 else Or(tuple(formulas))
    return ExistentialPositiveQuery(reference_head, formula, name=query.name)
