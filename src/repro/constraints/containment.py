"""Containment constraints (CCs).

A containment constraint (Section 2.1) has the form ``q(R) ⊆ p(R_m)`` where
``q`` is a conjunctive query (with ``=`` and ``≠``) over the database schema
``R`` and ``p`` is a projection query over the master schema ``R_m``.  A
ground instance ``I`` and master data ``D_m`` satisfy the constraint iff
``q(I) ⊆ p(D_m)``.

The right-hand side ``p`` is allowed to be:

* a projection of a master relation (the common case, e.g. Example 2.1),
* a full master relation (projection on all attributes), or
* an arbitrary CQ over the master schema — strictly more general than the
  paper requires, which is convenient for writing the gadget constraints of
  the lower-bound proofs exactly as stated.

The special case of an *empty* right-hand side (a projection of an empty
master relation, written ``q ⊆ D_∅`` in the paper) is what turns a CC into a
denial constraint; :func:`denial_cc` builds it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.exceptions import ConstraintError
from repro.queries.atoms import RelationAtom
from repro.queries.cq import ConjunctiveQuery
from repro.queries.evaluation import evaluate_cq
from repro.queries.terms import Variable, variables as make_variables
from repro.relational.instance import GroundInstance, Row
from repro.relational.master import MasterData
from repro.relational.schema import DatabaseSchema


@dataclass(frozen=True)
class ProjectionQuery:
    """A projection query ``π_attributes(R_m)`` over a master relation.

    The degenerate case with ``attributes = None`` projects on all attributes
    (i.e. it is the master relation itself).
    """

    relation: str
    attributes: tuple[str, ...] | None = None

    def evaluate(self, master: MasterData) -> frozenset[Row]:
        """The set of tuples the projection yields on the master data."""
        rel = master.relation(self.relation)
        if self.attributes is None:
            return rel.rows
        positions = [rel.schema.position_of(a) for a in self.attributes]
        return frozenset(tuple(row[p] for p in positions) for row in rel.rows)

    @property
    def arity_hint(self) -> int | None:
        """The output arity if determined by the attribute list."""
        if self.attributes is None:
            return None
        return len(self.attributes)

    def __repr__(self) -> str:
        if self.attributes is None:
            return self.relation
        return f"π[{', '.join(self.attributes)}]({self.relation})"


@dataclass(frozen=True)
class EmptyRHS:
    """The empty right-hand side ``D_∅``: no tuple is allowed on the left."""

    arity: int | None = None

    def evaluate(self, master: MasterData) -> frozenset[Row]:
        """Always the empty set, regardless of the master data."""
        return frozenset()

    def __repr__(self) -> str:
        return "∅"


@dataclass(frozen=True)
class ContainmentConstraint:
    """A containment constraint ``q(R) ⊆ p(R_m)``."""

    query: ConjunctiveQuery
    master_query: "ProjectionQuery | ConjunctiveQuery | EmptyRHS"
    name: str = ""

    def __post_init__(self) -> None:
        arity = self.query.arity
        rhs = self.master_query
        if isinstance(rhs, ConjunctiveQuery) and rhs.arity != arity:
            raise ConstraintError(
                f"CC {self.name or self.query.name!r}: left arity {arity} differs "
                f"from right arity {rhs.arity}"
            )
        if isinstance(rhs, ProjectionQuery) and rhs.arity_hint not in (None, arity):
            raise ConstraintError(
                f"CC {self.name or self.query.name!r}: left arity {arity} differs "
                f"from projection arity {rhs.arity_hint}"
            )

    # ------------------------------------------------------------------
    # satisfaction
    # ------------------------------------------------------------------
    def left_answer(self, instance: GroundInstance) -> frozenset[Row]:
        """``q(I)``."""
        return evaluate_cq(self.query, instance)

    def right_answer(self, master: MasterData) -> frozenset[Row]:
        """``p(D_m)``."""
        rhs = self.master_query
        if isinstance(rhs, ConjunctiveQuery):
            return evaluate_cq(rhs, master.instance)
        return rhs.evaluate(master)

    def is_satisfied(self, instance: GroundInstance, master: MasterData) -> bool:
        """Whether ``(I, D_m) |= q ⊆ p``."""
        return self.left_answer(instance) <= self.right_answer(master)

    def violations(
        self, instance: GroundInstance, master: MasterData
    ) -> frozenset[Row]:
        """The tuples of ``q(I)`` that are not covered by ``p(D_m)``."""
        return self.left_answer(instance) - self.right_answer(master)

    # ------------------------------------------------------------------
    # metadata used by the Adom construction and the deciders
    # ------------------------------------------------------------------
    def constants(self) -> set[Constant]:
        """Constants mentioned by the left-hand side query."""
        consts = set(self.query.constants())
        if isinstance(self.master_query, ConjunctiveQuery):
            consts |= self.master_query.constants()
        return consts

    def variables(self) -> set[Variable]:
        """Variables mentioned by the left-hand side query."""
        result = set(self.query.variables())
        if isinstance(self.master_query, ConjunctiveQuery):
            result |= self.master_query.variables()
        return result

    def relation_names(self) -> set[str]:
        """Database relations constrained by the left-hand side."""
        return self.query.relation_names()

    def is_inclusion_dependency(self) -> bool:
        """Whether the CC is an IND-shaped constraint ``π(R) ⊆ π(R_m)``.

        The tractable RCQP cases of Corollary 7.2 apply when every CC has
        this shape: a single relation atom on the left, no comparisons, and a
        projection of a single master relation on the right.
        """
        simple_left = (
            len(self.query.atoms) == 1
            and not self.query.comparisons
            and all(isinstance(t, Variable) for t in self.query.atoms[0].terms)
        )
        simple_right = isinstance(self.master_query, (ProjectionQuery, EmptyRHS))
        return simple_left and simple_right

    def __repr__(self) -> str:
        label = f"{self.name}: " if self.name else ""
        return f"{label}{self.query!r} ⊆ {self.master_query!r}"


def cc(
    query: ConjunctiveQuery,
    master_query: "ProjectionQuery | ConjunctiveQuery | EmptyRHS",
    name: str = "",
) -> ContainmentConstraint:
    """Shorthand constructor for :class:`ContainmentConstraint`."""
    return ContainmentConstraint(query=query, master_query=master_query, name=name)


def projection(relation: str, *attributes: str) -> ProjectionQuery:
    """Shorthand constructor for :class:`ProjectionQuery`."""
    return ProjectionQuery(relation, tuple(attributes) or None)


def denial_cc(query: ConjunctiveQuery, name: str = "") -> ContainmentConstraint:
    """A denial constraint ``q(R) ⊆ ∅`` expressed as a CC.

    Satisfied exactly when ``q(I)`` is empty, independent of master data.
    """
    return ContainmentConstraint(query=query, master_query=EmptyRHS(), name=name)


def relation_containment_cc(
    database_relation: str,
    schema: DatabaseSchema,
    master_relation: str,
    name: str = "",
) -> ContainmentConstraint:
    """The CC ``R ⊆ R_m`` stating a database relation is bounded by a master relation.

    This is the shape used for the gadget relations of the lower-bound proofs
    (e.g. ``R_(0,1) ⊆ R^m_(0,1)`` in Proposition 3.3).
    """
    rel_schema = schema[database_relation]
    vars_ = make_variables([f"{database_relation.lower()}_{a}" for a in rel_schema.attribute_names])
    query = ConjunctiveQuery(
        head=vars_,
        atoms=(RelationAtom(database_relation, vars_),),
        name=f"all_{database_relation}",
    )
    return ContainmentConstraint(
        query=query, master_query=ProjectionQuery(master_relation), name=name
    )


def satisfies_all(
    instance: GroundInstance,
    master: MasterData,
    constraints: Iterable[ContainmentConstraint],
) -> bool:
    """Whether ``(I, D_m) |= V`` for a set ``V`` of CCs."""
    return all(c.is_satisfied(instance, master) for c in constraints)


def violated_constraints(
    instance: GroundInstance,
    master: MasterData,
    constraints: Iterable[ContainmentConstraint],
) -> list[ContainmentConstraint]:
    """The CCs of ``V`` violated by ``(I, D_m)``."""
    return [c for c in constraints if not c.is_satisfied(instance, master)]


def constraint_set_constants(
    constraints: Iterable[ContainmentConstraint],
) -> set[Constant]:
    """All constants mentioned by a set of CCs."""
    result: set[Constant] = set()
    for c in constraints:
        result |= c.constants()
    return result


def constraint_set_variables(
    constraints: Iterable[ContainmentConstraint],
) -> set[Variable]:
    """All variables mentioned by a set of CCs."""
    result: set[Variable] = set()
    for c in constraints:
        result |= c.variables()
    return result
