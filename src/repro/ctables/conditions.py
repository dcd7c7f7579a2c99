"""Local conditions of c-tables.

Following Imieliński & Lipski and Grahne (and Section 2.2 of the paper), the
condition ``ξ(t)`` attached to a tuple ``t`` of a c-table is a conjunction of
atomic conditions of the forms ``x = y``, ``x ≠ y``, ``x = c`` and ``x ≠ c``,
where ``x, y`` are variables and ``c`` is a constant.  We reuse the
:class:`~repro.queries.atoms.Comparison` atoms of the query layer for the
conjuncts, so conditions and query comparisons share one representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.exceptions import ConditionError
from repro.queries.atoms import Comparison, eq, neq
from repro.queries.terms import ConstantTerm, Term, Variable, is_variable


@dataclass(frozen=True)
class Condition:
    """A conjunction of atomic (in)equality conditions."""

    conjuncts: tuple[Comparison, ...]

    def __init__(self, conjuncts: Sequence[Comparison] = ()) -> None:
        conjuncts = tuple(conjuncts)
        for conjunct in conjuncts:
            if not isinstance(conjunct, Comparison):
                raise ConditionError(
                    f"condition conjuncts must be comparisons, got {conjunct!r}"
                )
            if not conjunct.variables():
                # Constant-only conjuncts are legal but suspicious; they are
                # either trivially true or make the condition unsatisfiable.
                continue
        object.__setattr__(self, "conjuncts", conjuncts)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def is_true(self) -> bool:
        """Whether this is the trivial condition (no conjuncts)."""
        return not self.conjuncts

    def variables(self) -> set[Variable]:
        """Variables mentioned by the condition."""
        result: set[Variable] = set()
        for conjunct in self.conjuncts:
            result |= conjunct.variables()
        return result

    def constants(self) -> set[ConstantTerm]:
        """Constants mentioned by the condition."""
        result: set[ConstantTerm] = set()
        for conjunct in self.conjuncts:
            result |= conjunct.constants()
        return result

    # ------------------------------------------------------------------
    # evaluation and combination
    # ------------------------------------------------------------------
    def evaluate(self, valuation: Mapping[Variable, ConstantTerm]) -> bool:
        """Evaluate the condition under a valuation of (at least) its variables.

        Raises
        ------
        ConditionError
            If a variable of the condition is not covered by the valuation.
        """
        for conjunct in self.conjuncts:
            grounded = conjunct.substitute(valuation)
            if grounded.variables():
                missing = sorted(v.name for v in grounded.variables())
                raise ConditionError(
                    f"valuation does not cover condition variables {missing}"
                )
            if not grounded.evaluate_ground():
                return False
        return True

    def rename(self, renaming: Mapping[Variable, Variable]) -> "Condition":
        """The condition with variables renamed."""
        return Condition(tuple(c.rename(renaming) for c in self.conjuncts))

    def substitute(self, assignment: Mapping[Variable, ConstantTerm]) -> "Condition":
        """The condition with constants substituted for some variables.

        Conjuncts that become ground and true are dropped; ground false
        conjuncts are kept (making the condition unsatisfiable), so that the
        result is still a syntactically valid condition.
        """
        remaining: list[Comparison] = []
        for conjunct in self.conjuncts:
            grounded = conjunct.substitute(assignment)
            if not grounded.variables() and grounded.evaluate_ground():
                continue
            remaining.append(grounded)
        return Condition(tuple(remaining))

    def __repr__(self) -> str:
        if self.is_true:
            return "true"
        return " ∧ ".join(repr(c) for c in self.conjuncts)


#: The trivial (always true) condition.
TRUE = Condition(())


def condition(*conjuncts: Comparison) -> Condition:
    """Shorthand constructor for :class:`Condition`."""
    return Condition(conjuncts)


def var_eq(variable: Variable, value: Term) -> Comparison:
    """Atomic condition ``x = t`` (``t`` a constant or variable)."""
    if not is_variable(variable):
        raise ConditionError("the left-hand side of a condition atom must be a variable")
    return eq(variable, value)


def var_neq(variable: Variable, value: Term) -> Comparison:
    """Atomic condition ``x ≠ t`` (``t`` a constant or variable)."""
    if not is_variable(variable):
        raise ConditionError("the left-hand side of a condition atom must be a variable")
    return neq(variable, value)
