"""Unions of conjunctive queries (UCQ).

A UCQ is a query ``Q1 ∪ ... ∪ Qk`` where each ``Qi`` is a conjunctive query of
the same arity (Section 2.3).  The answer on an instance is the union of the
answers of the disjuncts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.exceptions import QueryError
from repro.queries.cq import ConjunctiveQuery
from repro.queries.terms import ConstantTerm, Variable


@dataclass(frozen=True)
class UnionOfConjunctiveQueries:
    """A union ``Q1 ∪ ... ∪ Qk`` of conjunctive queries."""

    disjuncts: tuple[ConjunctiveQuery, ...]
    name: str

    def __init__(
        self, disjuncts: Sequence[ConjunctiveQuery], name: str = "Q"
    ) -> None:
        disjuncts = tuple(disjuncts)
        if not disjuncts:
            raise QueryError("a UCQ must have at least one disjunct")
        arity = disjuncts[0].arity
        for q in disjuncts:
            if q.arity != arity:
                raise QueryError(
                    f"UCQ disjuncts must share an arity; got {arity} and {q.arity}"
                )
        object.__setattr__(self, "disjuncts", disjuncts)
        object.__setattr__(self, "name", name)

    @property
    def arity(self) -> int:
        """Arity of the query result."""
        return self.disjuncts[0].arity

    def __len__(self) -> int:
        return len(self.disjuncts)

    def __iter__(self) -> Iterator[ConjunctiveQuery]:
        return iter(self.disjuncts)

    def variables(self) -> set[Variable]:
        """All variables occurring in any disjunct."""
        result: set[Variable] = set()
        for q in self.disjuncts:
            result |= q.variables()
        return result

    def constants(self) -> set[ConstantTerm]:
        """All constants occurring in any disjunct."""
        result: set[ConstantTerm] = set()
        for q in self.disjuncts:
            result |= q.constants()
        return result

    def relation_names(self) -> set[str]:
        """Names of relations referenced by any disjunct."""
        result: set[str] = set()
        for q in self.disjuncts:
            result |= q.relation_names()
        return result

    def is_inequality_free(self) -> bool:
        """Whether no disjunct uses ``≠``."""
        return all(q.is_inequality_free() for q in self.disjuncts)

    def union(self, other: "UnionOfConjunctiveQueries") -> "UnionOfConjunctiveQueries":
        """The union of two UCQs (arities must match)."""
        return UnionOfConjunctiveQueries(
            self.disjuncts + other.disjuncts, name=f"{self.name}∪{other.name}"
        )

    def __repr__(self) -> str:
        return " ∪ ".join(repr(q) for q in self.disjuncts)


def ucq(name: str, *disjuncts: ConjunctiveQuery) -> UnionOfConjunctiveQueries:
    """Shorthand constructor for :class:`UnionOfConjunctiveQueries`."""
    return UnionOfConjunctiveQueries(disjuncts, name=name)


def as_ucq(
    query: "ConjunctiveQuery | UnionOfConjunctiveQueries",
) -> UnionOfConjunctiveQueries:
    """View a CQ as a single-disjunct UCQ (identity on UCQs)."""
    if isinstance(query, UnionOfConjunctiveQueries):
        return query
    return UnionOfConjunctiveQueries((query,), name=query.name)


def ucq_from(
    disjuncts: Iterable[ConjunctiveQuery], name: str = "Q"
) -> UnionOfConjunctiveQueries:
    """Build a UCQ from an iterable of disjuncts."""
    return UnionOfConjunctiveQueries(tuple(disjuncts), name=name)
