"""Classical dependencies: FDs, INDs, CFDs and denial constraints.

Section 3 of the paper discusses the impact of integrity constraints on the
analysis of relative completeness: denial constraints and conditional
functional dependencies (CFDs) can be expressed as containment constraints in
CQ (keeping the analysis decidable), whereas adding inclusion dependencies
(INDs) *as constraints on the database itself* makes RCDP and RCQP
undecidable even for CQ (Proposition 3.1).

This module defines the dependency classes themselves and their satisfaction
over ground instances; :mod:`repro.constraints.encode` translates them into
CCs where the paper does, and :mod:`repro.constraints.integrity` provides the
implication machinery (attribute closure for FDs) used by the Proposition 3.1
reduction tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.exceptions import ConstraintError
from repro.queries.cq import ConjunctiveQuery
from repro.queries.evaluation import evaluate_cq
from repro.relational.domains import Constant
from repro.relational.instance import GroundInstance

#: Wildcard symbol for CFD pattern tuples ("_" in the data-quality literature).
WILDCARD = "_"


@dataclass(frozen=True)
class FunctionalDependency:
    """A functional dependency ``R: X → Y``."""

    relation: str
    lhs: tuple[str, ...]
    rhs: tuple[str, ...]

    def __init__(self, relation: str, lhs: Sequence[str], rhs: Sequence[str]) -> None:
        lhs = tuple(lhs)
        rhs = tuple(rhs)
        if not rhs:
            raise ConstraintError("an FD needs at least one right-hand-side attribute")
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    def is_satisfied(self, instance: GroundInstance) -> bool:
        """Whether the instance satisfies the FD."""
        rel = instance.relation(self.relation)
        schema = rel.schema
        lhs_pos = [schema.position_of(a) for a in self.lhs]
        rhs_pos = [schema.position_of(a) for a in self.rhs]
        seen: dict[tuple[Constant, ...], tuple[Constant, ...]] = {}
        for row in rel.rows:
            key = tuple(row[p] for p in lhs_pos)
            value = tuple(row[p] for p in rhs_pos)
            if key in seen and seen[key] != value:
                return False
            seen[key] = value
        return True

    def __repr__(self) -> str:
        return f"{self.relation}: {','.join(self.lhs) or '∅'} → {','.join(self.rhs)}"


@dataclass(frozen=True)
class InclusionDependency:
    """An inclusion dependency ``R1[X1] ⊆ R2[X2]``."""

    source_relation: str
    source_attributes: tuple[str, ...]
    target_relation: str
    target_attributes: tuple[str, ...]

    def __init__(
        self,
        source_relation: str,
        source_attributes: Sequence[str],
        target_relation: str,
        target_attributes: Sequence[str],
    ) -> None:
        source_attributes = tuple(source_attributes)
        target_attributes = tuple(target_attributes)
        if len(source_attributes) != len(target_attributes):
            raise ConstraintError(
                "an IND needs the same number of attributes on both sides"
            )
        if not source_attributes:
            raise ConstraintError("an IND needs at least one attribute")
        object.__setattr__(self, "source_relation", source_relation)
        object.__setattr__(self, "source_attributes", source_attributes)
        object.__setattr__(self, "target_relation", target_relation)
        object.__setattr__(self, "target_attributes", target_attributes)

    def is_satisfied(self, instance: GroundInstance) -> bool:
        """Whether the instance satisfies the IND (both relations in ``instance``)."""
        source = instance.relation(self.source_relation)
        target = instance.relation(self.target_relation)
        src_pos = [source.schema.position_of(a) for a in self.source_attributes]
        tgt_pos = [target.schema.position_of(a) for a in self.target_attributes]
        target_proj = {tuple(row[p] for p in tgt_pos) for row in target.rows}
        return all(
            tuple(row[p] for p in src_pos) in target_proj for row in source.rows
        )

    def __repr__(self) -> str:
        return (
            f"{self.source_relation}[{','.join(self.source_attributes)}] ⊆ "
            f"{self.target_relation}[{','.join(self.target_attributes)}]"
        )


@dataclass(frozen=True)
class ConditionalFunctionalDependency:
    """A conditional functional dependency ``R: (X → Y, tp)``.

    ``pattern`` assigns to each attribute in ``lhs + rhs`` either a constant
    or the wildcard ``"_"``.  The CFD applies only to tuples matching the
    constants on the left-hand side; matching tuples must agree on ``Y``
    whenever they agree on ``X``, and right-hand-side constants in the pattern
    must be taken literally.
    """

    relation: str
    lhs: tuple[str, ...]
    rhs: tuple[str, ...]
    pattern: tuple[Constant, ...] = field(default=())

    def __init__(
        self,
        relation: str,
        lhs: Sequence[str],
        rhs: Sequence[str],
        pattern: Sequence[Constant] | None = None,
    ) -> None:
        lhs = tuple(lhs)
        rhs = tuple(rhs)
        if not rhs:
            raise ConstraintError("a CFD needs at least one right-hand-side attribute")
        if pattern is None:
            pattern = tuple(WILDCARD for _ in lhs + rhs)
        pattern = tuple(pattern)
        if len(pattern) != len(lhs) + len(rhs):
            raise ConstraintError(
                "a CFD pattern must cover every LHS and RHS attribute"
            )
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "pattern", pattern)

    @property
    def lhs_pattern(self) -> tuple[Constant, ...]:
        """The pattern components for the left-hand-side attributes."""
        return self.pattern[: len(self.lhs)]

    @property
    def rhs_pattern(self) -> tuple[Constant, ...]:
        """The pattern components for the right-hand-side attributes."""
        return self.pattern[len(self.lhs):]

    def _matches_lhs(self, row: tuple[Constant, ...], positions: list[int]) -> bool:
        for value, pattern_value in zip(
            (row[p] for p in positions), self.lhs_pattern
        ):
            if pattern_value != WILDCARD and value != pattern_value:
                return False
        return True

    def is_satisfied(self, instance: GroundInstance) -> bool:
        """Whether the instance satisfies the CFD."""
        rel = instance.relation(self.relation)
        schema = rel.schema
        lhs_pos = [schema.position_of(a) for a in self.lhs]
        rhs_pos = [schema.position_of(a) for a in self.rhs]
        matching = [row for row in rel.rows if self._matches_lhs(row, lhs_pos)]
        # Constant RHS pattern components must hold on every matching tuple.
        for row in matching:
            for value, pattern_value in zip(
                (row[p] for p in rhs_pos), self.rhs_pattern
            ):
                if pattern_value != WILDCARD and value != pattern_value:
                    return False
        # Wildcard RHS components behave like an ordinary FD on the matching tuples.
        seen: dict[tuple[Constant, ...], tuple[Constant, ...]] = {}
        for row in matching:
            key = tuple(row[p] for p in lhs_pos)
            value = tuple(row[p] for p in rhs_pos)
            if key in seen and seen[key] != value:
                return False
            seen[key] = value
        return True

    def __repr__(self) -> str:
        return (
            f"{self.relation}: ({','.join(self.lhs) or '∅'} → {','.join(self.rhs)}, "
            f"{self.pattern})"
        )


@dataclass(frozen=True)
class DenialConstraint:
    """A denial constraint: a Boolean CQ that must have an empty answer."""

    query: ConjunctiveQuery
    name: str = ""

    def __post_init__(self) -> None:
        if self.query.arity != 0:
            raise ConstraintError("a denial constraint must wrap a Boolean query")

    def is_satisfied(self, instance: GroundInstance) -> bool:
        """Whether the forbidden pattern has no match in the instance."""
        return not evaluate_cq(self.query, instance)

    def __repr__(self) -> str:
        label = self.name or "denial"
        return f"{label}: ¬{self.query!r}"


def fd(relation: str, lhs: Sequence[str] | str, rhs: Sequence[str] | str) -> FunctionalDependency:
    """Shorthand constructor for :class:`FunctionalDependency`.

    Attribute lists may be given as comma/space separated strings.
    """
    return FunctionalDependency(relation, _attrs(lhs), _attrs(rhs))


def ind(
    source_relation: str,
    source_attributes: Sequence[str] | str,
    target_relation: str,
    target_attributes: Sequence[str] | str,
) -> InclusionDependency:
    """Shorthand constructor for :class:`InclusionDependency`."""
    return InclusionDependency(
        source_relation, _attrs(source_attributes), target_relation, _attrs(target_attributes)
    )


def cfd(
    relation: str,
    lhs: Sequence[str] | str,
    rhs: Sequence[str] | str,
    pattern: Sequence[Constant] | None = None,
) -> ConditionalFunctionalDependency:
    """Shorthand constructor for :class:`ConditionalFunctionalDependency`."""
    return ConditionalFunctionalDependency(relation, _attrs(lhs), _attrs(rhs), pattern)


def _attrs(spec: Sequence[str] | str) -> tuple[str, ...]:
    if isinstance(spec, str):
        return tuple(p for p in spec.replace(",", " ").split() if p)
    return tuple(spec)


def satisfies_dependencies(
    instance: GroundInstance, dependencies: Iterable
) -> bool:
    """Whether the instance satisfies every dependency in the collection."""
    return all(dep.is_satisfied(instance) for dep in dependencies)
