"""The Boolean gadget relations of Figure 2 and the CQ encoding of 3CNF formulas.

Every lower-bound proof of the paper re-uses the same finite-model gadget:
four constant relations encoding the Boolean domain and the truth tables of
disjunction, conjunction and negation,

    ``I_(0,1)(X)``, ``I_∨(A1, A2, B)``, ``I_∧(A1, A2, B)``, ``I_¬(A, Ā)``,

together with a conjunctive query ``Q_ψ`` that evaluates a 3CNF formula ψ by
joining through those relations: each literal is looked up (possibly through
``R_¬``), each clause is the ``∨`` of its three literals, and the clauses are
chained with ``∧``; a designated output variable carries the truth value of
ψ.  This module builds the relations (Figure 2) and the encoding, which the
reduction modules then assemble into c-instances, CCs and queries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from repro.exceptions import ReductionError
from repro.queries.atoms import RelationAtom
from repro.queries.terms import Term, Variable
from repro.reductions.sat import CNFFormula
from repro.relational.domains import BOOLEAN_DOMAIN
from repro.relational.instance import Relation
from repro.relational.schema import RelationSchema

#: Canonical names of the gadget relations in the *database* schema.
R_BOOL = "R_bool"
R_OR = "R_or"
R_AND = "R_and"
R_NOT = "R_not"

#: Canonical names of their master-data copies.
RM_BOOL = "Rm_bool"
RM_OR = "Rm_or"
RM_AND = "Rm_and"
RM_NOT = "Rm_not"
RM_EMPTY = "Rm_empty"


def bool_relation_schema(name: str = R_BOOL) -> RelationSchema:
    """Schema of the Boolean-domain relation ``R_(0,1)(X)``."""
    return RelationSchema(name, [("X", BOOLEAN_DOMAIN)])


def or_relation_schema(name: str = R_OR) -> RelationSchema:
    """Schema of the disjunction relation ``R_∨(A1, A2, B)``."""
    return RelationSchema(
        name, [("A1", BOOLEAN_DOMAIN), ("A2", BOOLEAN_DOMAIN), ("B", BOOLEAN_DOMAIN)]
    )


def and_relation_schema(name: str = R_AND) -> RelationSchema:
    """Schema of the conjunction relation ``R_∧(A1, A2, B)``."""
    return RelationSchema(
        name, [("A1", BOOLEAN_DOMAIN), ("A2", BOOLEAN_DOMAIN), ("B", BOOLEAN_DOMAIN)]
    )


def not_relation_schema(name: str = R_NOT) -> RelationSchema:
    """Schema of the negation relation ``R_¬(A, Ā)``."""
    return RelationSchema(name, [("A", BOOLEAN_DOMAIN), ("NotA", BOOLEAN_DOMAIN)])


def bool_rows() -> list[tuple[int, ...]]:
    """The rows of ``I_(0,1)`` (Figure 2)."""
    return [(1,), (0,)]


def or_rows() -> list[tuple[int, ...]]:
    """The rows of ``I_∨`` (Figure 2)."""
    return [(a, b, int(bool(a) or bool(b))) for a, b in itertools.product((0, 1), repeat=2)]


def and_rows() -> list[tuple[int, ...]]:
    """The rows of ``I_∧`` (Figure 2)."""
    return [(a, b, int(bool(a) and bool(b))) for a, b in itertools.product((0, 1), repeat=2)]


def not_rows() -> list[tuple[int, ...]]:
    """The rows of ``I_¬`` (Figure 2)."""
    return [(0, 1), (1, 0)]


def gadget_relation(name: str, kind: str) -> Relation:
    """A populated gadget relation of the given kind (``bool``/``or``/``and``/``not``)."""
    builders = {
        "bool": (bool_relation_schema, bool_rows),
        "or": (or_relation_schema, or_rows),
        "and": (and_relation_schema, and_rows),
        "not": (not_relation_schema, not_rows),
    }
    if kind not in builders:
        raise ReductionError(f"unknown gadget relation kind {kind!r}")
    schema_builder, rows_builder = builders[kind]
    return Relation(schema_builder(name), rows_builder())


def gadget_rows() -> dict[str, list[tuple[int, ...]]]:
    """Rows of all four gadget relations keyed by their canonical database names."""
    return {
        R_BOOL: bool_rows(),
        R_OR: or_rows(),
        R_AND: and_rows(),
        R_NOT: not_rows(),
    }


def master_gadget_rows() -> dict[str, list[tuple[int, ...]]]:
    """Rows of the master copies of the gadget relations (plus the empty relation)."""
    return {
        RM_BOOL: bool_rows(),
        RM_OR: or_rows(),
        RM_AND: and_rows(),
        RM_NOT: not_rows(),
        RM_EMPTY: [],
    }


@dataclass(frozen=True)
class FormulaEncoding:
    """The CQ encoding ``Q_ψ`` of a 3CNF formula.

    ``atoms`` are relation atoms over the gadget relations; ``output`` is the
    term carrying the truth value of ψ; ``auxiliary_variables`` are the fresh
    variables introduced for intermediate literal/clause values.
    """

    atoms: tuple[RelationAtom, ...]
    output: Term
    auxiliary_variables: tuple[Variable, ...]


def encode_formula(
    formula: CNFFormula,
    variable_terms: Mapping[int, Term],
    prefix: str = "ψ",
    bool_relation: str = R_BOOL,
    or_relation: str = R_OR,
    and_relation: str = R_AND,
    not_relation: str = R_NOT,
) -> FormulaEncoding:
    """Encode ``ψ(x̄)`` as a conjunction of gadget atoms (the query ``Q_ψ``).

    ``variable_terms`` maps each propositional variable index to the term
    (query variable or constant) holding its truth value.  The returned atoms
    compute, via joins with ``R_¬``, ``R_∨`` and ``R_∧``, a term ``output``
    that equals 1 iff ψ is satisfied by the values of the variable terms.
    """
    missing = formula.variables() - set(variable_terms)
    if missing:
        raise ReductionError(
            f"variable_terms does not cover propositional variables {sorted(missing)}"
        )
    atoms: list[RelationAtom] = []
    auxiliary: list[Variable] = []
    counter = itertools.count(1)

    def fresh(hint: str) -> Variable:
        variable = Variable(f"{prefix}_{hint}_{next(counter)}")
        auxiliary.append(variable)
        return variable

    def literal_term(literal: int) -> Term:
        base = variable_terms[abs(literal)]
        if literal > 0:
            return base
        negated = fresh(f"not{abs(literal)}")
        atoms.append(RelationAtom(not_relation, (base, negated)))
        return negated

    clause_outputs: list[Term] = []
    for clause_index, clause in enumerate(formula.clauses):
        literal_values = [literal_term(lit) for lit in clause.literals]
        # Fold the clause's literals with R_∨.
        current = literal_values[0]
        for position, value in enumerate(literal_values[1:], start=1):
            result = fresh(f"c{clause_index}_or{position}")
            atoms.append(RelationAtom(or_relation, (current, value, result)))
            current = result
        clause_outputs.append(current)

    # Fold the clause outputs with R_∧.
    output = clause_outputs[0]
    for position, value in enumerate(clause_outputs[1:], start=1):
        result = fresh(f"and{position}")
        atoms.append(RelationAtom(and_relation, (output, value, result)))
        output = result

    # A single-clause, single-positive-literal formula produces no atoms; the
    # output is then just the variable term itself, which is fine.
    return FormulaEncoding(
        atoms=tuple(atoms),
        output=output,
        auxiliary_variables=tuple(auxiliary),
    )


def assignment_atoms(
    variable_terms: Mapping[int, Term], bool_relation: str = R_BOOL
) -> tuple[RelationAtom, ...]:
    """Atoms asserting that each variable term carries a Boolean value.

    This is the query ``Q_Y(ȳ) = R_(0,1)(y1) ∧ ... ∧ R_(0,1)(ym)`` used by the
    reductions to range over all truth assignments of a block of variables.
    """
    return tuple(
        RelationAtom(bool_relation, (variable_terms[index],))
        for index in sorted(variable_terms)
    )
