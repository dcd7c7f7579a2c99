"""Propositional structures used by the paper's lower-bound reductions.

The lower bounds of the paper are established by reductions from quantified
Boolean satisfiability problems:

* ``∀*∃*3SAT`` (Πᵖ₂-complete) — Proposition 3.3;
* ``∃*∀*∃*3SAT`` (Σᵖ₃-complete) — Theorems 4.8, 5.1, 6.1;
* ``∀*∃*∀*∃*3SAT`` (Πᵖ₄-complete) — Theorem 5.6;
* ``SAT-UNSAT`` (DP-complete) and ``∃*∀*3DNF-∀*∃*3CNF`` (Dᵖ₂-complete).

This module provides 3CNF formulas, quantified Boolean formulas with an
arbitrary quantifier prefix, a brute-force evaluator (fine for the tiny
instances used to validate the reductions), and generators of random small
instances for the benchmark harness.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from repro.exceptions import ReductionError

#: A literal is a non-zero integer: ``+i`` stands for variable ``x_i`` and
#: ``-i`` for its negation (DIMACS convention).
Literal = int


@dataclass(frozen=True)
class Clause:
    """A disjunction of literals (typically three, for 3SAT)."""

    literals: tuple[Literal, ...]

    def __init__(self, literals: Sequence[Literal]) -> None:
        literals = tuple(literals)
        if not literals:
            raise ReductionError("a clause must contain at least one literal")
        if any(lit == 0 for lit in literals):
            raise ReductionError("literal 0 is not allowed (DIMACS convention)")
        object.__setattr__(self, "literals", literals)

    def variables(self) -> set[int]:
        """Indices of the variables occurring in the clause."""
        return {abs(lit) for lit in self.literals}

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        """Whether the clause is satisfied under a (total enough) assignment."""
        for lit in self.literals:
            try:
                value = assignment[abs(lit)]
            except KeyError as exc:
                raise ReductionError(
                    f"assignment does not cover variable x{abs(lit)}"
                ) from exc
            if value == (lit > 0):
                return True
        return False

    def __repr__(self) -> str:
        def show(lit: Literal) -> str:
            return f"x{lit}" if lit > 0 else f"¬x{-lit}"

        return "(" + " ∨ ".join(show(lit) for lit in self.literals) + ")"


@dataclass(frozen=True)
class CNFFormula:
    """A conjunction of clauses."""

    clauses: tuple[Clause, ...]

    def __init__(self, clauses: Sequence[Clause | Sequence[Literal]]) -> None:
        normalised = tuple(
            clause if isinstance(clause, Clause) else Clause(clause)
            for clause in clauses
        )
        if not normalised:
            raise ReductionError("a CNF formula must contain at least one clause")
        object.__setattr__(self, "clauses", normalised)

    def variables(self) -> set[int]:
        """Indices of all variables in the formula."""
        result: set[int] = set()
        for clause in self.clauses:
            result |= clause.variables()
        return result

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        """Whether the formula holds under the assignment."""
        return all(clause.evaluate(assignment) for clause in self.clauses)

    def is_satisfiable(self) -> bool:
        """Satisfiability via the DPLL solver of :mod:`repro.reductions.dpll`.

        The reduction validators call this on every instance they build;
        routing it through the watched-literal solver keeps them polynomial
        in practice instead of exponential by construction.  The old
        exhaustive scan survives as :meth:`is_satisfiable_brute_force`, the
        cross-check oracle for small instances.
        """
        from repro.reductions.dpll import DPLLSolver

        solver = DPLLSolver(clause.literals for clause in self.clauses)
        return solver.solve() is not None

    def is_satisfiable_brute_force(self, max_variables: int = 12) -> bool:
        """Exhaustive satisfiability check (cross-check oracle).

        Refuses instances beyond ``max_variables`` variables: anything larger
        belongs to :meth:`is_satisfiable`.
        """
        variables = sorted(self.variables())
        if len(variables) > max_variables:
            raise ReductionError(
                f"brute-force satisfiability over {len(variables)} variables "
                f"exceeds the {max_variables}-variable cross-check bound; "
                "use is_satisfiable() (DPLL) instead"
            )
        for values in itertools.product((False, True), repeat=len(variables)):
            if self.evaluate(dict(zip(variables, values))):
                return True
        return False

    def __repr__(self) -> str:
        return " ∧ ".join(repr(clause) for clause in self.clauses)


class Quantifier(str, Enum):
    """A quantifier of a QBF prefix block."""

    EXISTS = "∃"
    FORALL = "∀"


@dataclass(frozen=True)
class QuantifierBlock:
    """A maximal block of identically quantified variables."""

    quantifier: Quantifier
    variables: tuple[int, ...]

    def __init__(self, quantifier: Quantifier, variables: Sequence[int]) -> None:
        variables = tuple(variables)
        object.__setattr__(self, "quantifier", quantifier)
        object.__setattr__(self, "variables", variables)


@dataclass(frozen=True)
class QuantifiedFormula:
    """A quantified Boolean formula with a 3CNF matrix.

    The quantifier prefix is a sequence of blocks; variables not mentioned in
    the prefix are implicitly existentially quantified innermost (this never
    happens for well-formed reduction inputs but keeps evaluation total).
    """

    prefix: tuple[QuantifierBlock, ...]
    matrix: CNFFormula

    def __init__(
        self,
        prefix: Sequence[QuantifierBlock | tuple[Quantifier, Sequence[int]]],
        matrix: CNFFormula,
    ) -> None:
        blocks = []
        for block in prefix:
            if isinstance(block, QuantifierBlock):
                blocks.append(block)
            else:
                quantifier, variables = block
                blocks.append(QuantifierBlock(quantifier, tuple(variables)))
        object.__setattr__(self, "prefix", tuple(blocks))
        object.__setattr__(self, "matrix", matrix)

    def prefix_variables(self) -> set[int]:
        """Variables bound by the prefix."""
        result: set[int] = set()
        for block in self.prefix:
            result |= set(block.variables)
        return result

    def is_true(self) -> bool:
        """Brute-force evaluation of the QBF (exponential, for tiny instances)."""
        free = sorted(self.matrix.variables() - self.prefix_variables())
        blocks = list(self.prefix)
        if free:
            blocks.append(QuantifierBlock(Quantifier.EXISTS, tuple(free)))

        def recurse(index: int, assignment: dict[int, bool]) -> bool:
            if index == len(blocks):
                return self.matrix.evaluate(assignment)
            block = blocks[index]
            outcomes = []
            for values in itertools.product((False, True), repeat=len(block.variables)):
                extended = dict(assignment)
                extended.update(zip(block.variables, values))
                outcomes.append(recurse(index + 1, extended))
                # Short-circuit where possible.
                if block.quantifier is Quantifier.EXISTS and outcomes[-1]:
                    return True
                if block.quantifier is Quantifier.FORALL and not outcomes[-1]:
                    return False
            if block.quantifier is Quantifier.EXISTS:
                return any(outcomes)
            return all(outcomes)

        return recurse(0, {})

    def __repr__(self) -> str:
        prefix = " ".join(
            f"{block.quantifier.value}{{{', '.join(f'x{v}' for v in block.variables)}}}"
            for block in self.prefix
        )
        return f"{prefix}. {self.matrix!r}"


# ---------------------------------------------------------------------------
# constructors matching the paper's problem names
# ---------------------------------------------------------------------------
def forall_exists_3sat(
    universal: Sequence[int], existential: Sequence[int], clauses: Sequence[Sequence[Literal]]
) -> QuantifiedFormula:
    """A ``∀X ∃Y ψ`` instance (the Πᵖ₂-complete problem of Proposition 3.3)."""
    return QuantifiedFormula(
        prefix=[
            (Quantifier.FORALL, universal),
            (Quantifier.EXISTS, existential),
        ],
        matrix=CNFFormula(clauses),
    )


def exists_forall_exists_3sat(
    outer: Sequence[int],
    universal: Sequence[int],
    inner: Sequence[int],
    clauses: Sequence[Sequence[Literal]],
) -> QuantifiedFormula:
    """A ``∃X ∀Y ∃Z ψ`` instance (Σᵖ₃-complete; Theorems 4.8, 5.1, 6.1)."""
    return QuantifiedFormula(
        prefix=[
            (Quantifier.EXISTS, outer),
            (Quantifier.FORALL, universal),
            (Quantifier.EXISTS, inner),
        ],
        matrix=CNFFormula(clauses),
    )


def random_3cnf(
    variables: Sequence[int], clause_count: int, rng: random.Random
) -> CNFFormula:
    """A random 3CNF formula over the given variables."""
    if not variables:
        raise ReductionError("need at least one variable for a random 3CNF")
    clauses = []
    for _ in range(clause_count):
        chosen = [rng.choice(list(variables)) for _ in range(3)]
        literals = tuple(v if rng.random() < 0.5 else -v for v in chosen)
        clauses.append(Clause(literals))
    return CNFFormula(clauses)


def random_forall_exists_instance(
    universal_count: int,
    existential_count: int,
    clause_count: int,
    seed: int = 0,
) -> QuantifiedFormula:
    """A random ``∀X ∃Y ψ`` instance with the given dimensions."""
    rng = random.Random(seed)
    universal = list(range(1, universal_count + 1))
    existential = list(
        range(universal_count + 1, universal_count + existential_count + 1)
    )
    matrix = random_3cnf(universal + existential, clause_count, rng)
    return QuantifiedFormula(
        prefix=[(Quantifier.FORALL, universal), (Quantifier.EXISTS, existential)],
        matrix=matrix,
    )


def random_exists_forall_exists_instance(
    outer_count: int,
    universal_count: int,
    inner_count: int,
    clause_count: int,
    seed: int = 0,
) -> QuantifiedFormula:
    """A random ``∃X ∀Y ∃Z ψ`` instance with the given dimensions."""
    rng = random.Random(seed)
    outer = list(range(1, outer_count + 1))
    universal = list(range(outer_count + 1, outer_count + universal_count + 1))
    inner_start = outer_count + universal_count + 1
    inner = list(range(inner_start, inner_start + inner_count))
    matrix = random_3cnf(outer + universal + inner, clause_count, rng)
    return QuantifiedFormula(
        prefix=[
            (Quantifier.EXISTS, outer),
            (Quantifier.FORALL, universal),
            (Quantifier.EXISTS, inner),
        ],
        matrix=matrix,
    )
