"""First-order queries (FO).

Full first-order queries built from relation atoms and comparisons using
``∧``, ``∨``, ``¬``, ``∃`` and ``∀`` (Section 2.3).  Evaluation uses
*active-domain semantics*: quantifiers (and assignments to the free/head
variables) range over the constants occurring in the instance plus the
constants occurring in the query.  This is the standard finite-model
semantics used implicitly by the paper's examples (e.g. the query of
Example 5.3 compares two relations for containment).

RCDP, RCQP and MINP are undecidable for FO (Theorems 4.1, 4.5, 5.1, 6.1); the
library therefore evaluates FO queries exactly but only offers *bounded*
completeness checks for them (see :mod:`repro.completeness`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.queries.formulas import Formula
from repro.queries.terms import ConstantTerm, Term, Variable
from repro.relational.instance import GroundInstance, Row


@dataclass(frozen=True)
class FirstOrderQuery:
    """A first-order query: a head of terms plus an FO formula."""

    head: tuple[Term, ...]
    formula: Formula
    name: str

    def __init__(self, head: Sequence[Term], formula: Formula, name: str = "Q") -> None:
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
        """Free variables of the formula plus head variables.

        Part of the query protocol's explicit ``variables()`` contract (see
        :class:`repro.queries.evaluation.QueryProtocol`): the variables for
        which the ``Adom`` construction of Proposition 3.3 provisions fresh
        values.  Quantifier-bound variables range over the active domain at
        evaluation time and need no provisioning, exactly as for ∃FO⁺.
        """
        return self.formula.free_variables() | self.head_variables()

    def constants(self) -> set[ConstantTerm]:
        """Constants of the head and the formula."""
        head_consts = {t for t in self.head if not isinstance(t, Variable)}
        return head_consts | self.formula.constants()

    def relation_names(self) -> set[str]:
        """Relation names referenced by the formula."""
        return self.formula.relation_names()

    def __repr__(self) -> str:
        head = ", ".join(repr(t) for t in self.head)
        return f"{self.name}({head}) := {self.formula!r}"


def fo(name: str, head: Sequence[Term], formula: Formula) -> FirstOrderQuery:
    """Shorthand constructor for :class:`FirstOrderQuery`."""
    return FirstOrderQuery(head=head, formula=formula, name=name)


@dataclass(frozen=True)
class NativeQuery:
    """A query given directly as a Python function over ground instances.

    Several constructions in the paper define queries by cases rather than by
    a formula (e.g. the query of the proof of Theorem 4.5(1), or the query of
    Example 5.3: ``Q(I1, I2) = {(a)} if I1 ⊆ I2 else {(b)}``).  Such queries
    are FO-definable, but spelling out the formula obscures the construction.
    ``NativeQuery`` lets tests and reductions define the query exactly as the
    paper does, by an arbitrary (pure) function from instances to relations of
    a fixed arity.

    The completeness deciders treat native queries like FO queries: only the
    bounded checks apply, and monotonicity must be declared explicitly by the
    caller when known.
    """

    name: str
    arity: int
    function: Callable[[GroundInstance], frozenset[Row]]
    monotone: bool = False

    def evaluate(self, instance: GroundInstance) -> frozenset[Row]:
        """Evaluate the query function on a ground instance."""
        result = frozenset(tuple(row) for row in self.function(instance))
        for row in result:
            if len(row) != self.arity:
                raise ValueError(
                    f"native query {self.name!r} produced a row of arity "
                    f"{len(row)}, expected {self.arity}"
                )
        return result

    def variables(self) -> set[Variable]:
        """Native queries carry no syntax, hence no variables.

        Part of the query protocol's explicit ``variables()`` contract;
        callers that need fresh Adom values for a native query must extend
        the active domain themselves.
        """
        return set()

    def __repr__(self) -> str:
        return f"NativeQuery({self.name!r}, arity={self.arity})"


def native_query(
    name: str,
    arity: int,
    function: Callable[[GroundInstance], frozenset[Row]],
    monotone: bool = False,
) -> NativeQuery:
    """Shorthand constructor for :class:`NativeQuery`."""
    return NativeQuery(name=name, arity=arity, function=function, monotone=monotone)
