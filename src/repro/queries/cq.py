"""Conjunctive queries (CQ) with equality and inequality.

A conjunctive query is built from relation atoms, ``=`` and ``≠``, closed
under conjunction and existential quantification (Section 2.3).  We represent
a CQ in the standard rule form

    Q(u) :- R1(w1), ..., Rk(wk), c1, ..., cm

where ``u`` is the *head* (output summary, a tuple of terms), the ``Ri(wi)``
are relation atoms and the ``cj`` are comparison atoms.  Variables not
occurring in the head are implicitly existentially quantified.

Safety
------
Evaluation requires the query to be *range restricted*: every variable that
occurs in the head or in a comparison must be *bound*, i.e. either occur in a
relation atom or be forced equal to a constant / bound variable through a
chain of equality atoms.  (The paper's Example 5.5 uses a head variable bound
only by ``x = a``; the definition above admits it.)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.exceptions import UnsafeQueryError
from repro.queries.atoms import Comparison, ComparisonOp, RelationAtom
from repro.queries.terms import (
    ConstantTerm,
    Term,
    Variable,
    is_variable,
    substitute_all,
    term_constants,
    term_variables,
)

_FRESH_COUNTER = itertools.count(1)


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunctive query with equality and inequality atoms."""

    head: tuple[Term, ...]
    atoms: tuple[RelationAtom, ...]
    comparisons: tuple[Comparison, ...]
    name: str

    def __init__(
        self,
        head: Sequence[Term],
        atoms: Sequence[RelationAtom] = (),
        comparisons: Sequence[Comparison] = (),
        name: str = "Q",
    ) -> None:
        object.__setattr__(self, "head", tuple(head))
        object.__setattr__(self, "atoms", tuple(atoms))
        object.__setattr__(self, "comparisons", tuple(comparisons))
        object.__setattr__(self, "name", name)
        self._check_safety()

    # ------------------------------------------------------------------
    # structural accessors
    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        """Arity of the query result."""
        return len(self.head)

    def head_variables(self) -> set[Variable]:
        """Variables occurring in the head."""
        return term_variables(self.head)

    def body_variables(self) -> set[Variable]:
        """Variables occurring in the body (atoms and comparisons)."""
        result: set[Variable] = set()
        for a in self.atoms:
            result |= a.variables()
        for c in self.comparisons:
            result |= c.variables()
        return result

    def variables(self) -> set[Variable]:
        """All variables of the query."""
        return self.head_variables() | self.body_variables()

    def constants(self) -> set[ConstantTerm]:
        """All constants occurring anywhere in the query."""
        result: set[ConstantTerm] = set(term_constants(self.head))
        for a in self.atoms:
            result |= a.constants()
        for c in self.comparisons:
            result |= c.constants()
        return result

    def relation_names(self) -> set[str]:
        """Names of relations referenced by the query."""
        return {a.relation for a in self.atoms}

    def equality_atoms(self) -> tuple[Comparison, ...]:
        """The equality comparisons of the query."""
        return tuple(c for c in self.comparisons if c.op is ComparisonOp.EQ)

    def inequality_atoms(self) -> tuple[Comparison, ...]:
        """The inequality comparisons of the query."""
        return tuple(c for c in self.comparisons if c.op is ComparisonOp.NEQ)

    def is_inequality_free(self) -> bool:
        """Whether the query contains no ``≠`` atoms."""
        return not self.inequality_atoms()

    # ------------------------------------------------------------------
    # safety / range restriction
    # ------------------------------------------------------------------
    def bound_variables(self) -> set[Variable]:
        """Variables bound by atoms or by equality chains to bound terms."""
        bound = set()
        for a in self.atoms:
            bound |= a.variables()
        changed = True
        while changed:
            changed = False
            for comp in self.comparisons:
                if comp.op is not ComparisonOp.EQ:
                    continue
                left_ok = not is_variable(comp.left) or comp.left in bound
                right_ok = not is_variable(comp.right) or comp.right in bound
                if left_ok and is_variable(comp.right) and comp.right not in bound:
                    bound.add(comp.right)
                    changed = True
                if right_ok and is_variable(comp.left) and comp.left not in bound:
                    bound.add(comp.left)
                    changed = True
        return bound

    def _check_safety(self) -> None:
        bound = self.bound_variables()
        dangling = (self.head_variables() | self.body_variables()) - bound
        if dangling:
            names = sorted(v.name for v in dangling)
            raise UnsafeQueryError(
                f"query {self.name!r} is not range restricted; "
                f"unbound variables: {names}"
            )

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def substitute(
        self, assignment: Mapping[Variable, ConstantTerm]
    ) -> "ConjunctiveQuery":
        """The query with constants substituted for some of its variables."""
        return ConjunctiveQuery(
            head=substitute_all(self.head, assignment),
            atoms=tuple(a.substitute(assignment) for a in self.atoms),
            comparisons=tuple(c.substitute(assignment) for c in self.comparisons),
            name=self.name,
        )

    def rename_variables(
        self, renaming: Mapping[Variable, Variable]
    ) -> "ConjunctiveQuery":
        """The query with variables consistently renamed."""
        new_head = tuple(
            renaming.get(t, t) if is_variable(t) else t for t in self.head
        )
        return ConjunctiveQuery(
            head=new_head,
            atoms=tuple(a.rename(renaming) for a in self.atoms),
            comparisons=tuple(c.rename(renaming) for c in self.comparisons),
            name=self.name,
        )

    def rename_apart(self, taken: Iterable[Variable]) -> "ConjunctiveQuery":
        """Rename this query's variables away from the given set.

        Used when a query tableau must be combined with another query or with
        a c-table whose variables it must not capture (Lemma 4.2).
        """
        taken_names = {v.name for v in taken}
        renaming: dict[Variable, Variable] = {}
        for v in sorted(self.variables(), key=lambda x: x.name):
            if v.name in taken_names:
                fresh = Variable(f"{v.name}#{next(_FRESH_COUNTER)}")
                while fresh.name in taken_names:
                    fresh = Variable(f"{v.name}#{next(_FRESH_COUNTER)}")
                renaming[v] = fresh
                taken_names.add(fresh.name)
        if not renaming:
            return self
        return self.rename_variables(renaming)

    # ------------------------------------------------------------------
    # tableau view
    # ------------------------------------------------------------------
    def tableau(self) -> tuple[tuple[RelationAtom, ...], tuple[Term, ...]]:
        """The tableau representation ``(T_Q, u_Q)`` of the query.

        ``T_Q`` is the sequence of relation atoms (a tableau whose rows may
        contain variables) and ``u_Q`` is the output summary.  Comparison
        atoms are not part of the tableau; callers that need them use
        :attr:`comparisons` directly.
        """
        return self.atoms, self.head

    def __repr__(self) -> str:
        head = ", ".join(repr(t) for t in self.head)
        body_parts = [repr(a) for a in self.atoms] + [repr(c) for c in self.comparisons]
        body = ", ".join(body_parts) if body_parts else "true"
        return f"{self.name}({head}) :- {body}"


def cq(
    name: str,
    head: Sequence[Term],
    atoms: Sequence[RelationAtom] = (),
    comparisons: Sequence[Comparison] = (),
) -> ConjunctiveQuery:
    """Shorthand constructor for :class:`ConjunctiveQuery`."""
    return ConjunctiveQuery(head=head, atoms=atoms, comparisons=comparisons, name=name)


def boolean_cq(
    name: str,
    atoms: Sequence[RelationAtom] = (),
    comparisons: Sequence[Comparison] = (),
) -> ConjunctiveQuery:
    """A Boolean conjunctive query (empty head)."""
    return ConjunctiveQuery(head=(), atoms=atoms, comparisons=comparisons, name=name)
