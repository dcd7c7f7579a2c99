"""FP: positive existential queries with an inflational fixpoint operator.

The paper's language FP (Section 2.3) extends ∃FO⁺ with an inflational
fixpoint; queries are written as a finite collection of datalog-style rules

    p(x̄) ← p1(x̄1), ..., pm(x̄m)

where every ``pi`` is either an atomic formula over the database schema
(extensional, EDB), an IDB predicate defined by the rules, or a comparison
atom (``=`` / ``≠``).  Evaluation is bottom-up and inflational: facts are only
ever added, and the program has reached its fixpoint when one full round of
rule applications adds nothing new.  One IDB predicate is designated as the
*output* predicate; the answer of the query is its content at the fixpoint.

FP queries are monotone in the database (adding EDB facts can only add output
facts); the weak-completeness machinery of Section 5 relies on exactly this
property (Lemma 5.2 and Theorem 5.4), and the property is exposed here via
:func:`FixpointQuery.is_monotone`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.exceptions import QueryError
from repro.queries.atoms import Comparison, RelationAtom
from repro.queries.terms import ConstantTerm, Variable


@dataclass(frozen=True)
class Rule:
    """A single FP rule ``head ← body``.

    The head must be an atom over an IDB predicate.  The body is a sequence of
    relation atoms (over EDB or IDB predicates) and comparison atoms.
    """

    head: RelationAtom
    body: tuple["RelationAtom | Comparison", ...]

    def __init__(
        self, head: RelationAtom, body: Sequence["RelationAtom | Comparison"]
    ) -> None:
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", tuple(body))
        self._check_safety()

    def _check_safety(self) -> None:
        body_atom_vars: set[Variable] = set()
        for item in self.body:
            if isinstance(item, RelationAtom):
                body_atom_vars |= item.variables()
        # Equality atoms may bind further variables (x = c or x = y with y bound).
        bound = set(body_atom_vars)
        changed = True
        while changed:
            changed = False
            for item in self.body:
                if isinstance(item, Comparison) and item.op.value == "=":
                    left_var = isinstance(item.left, Variable)
                    right_var = isinstance(item.right, Variable)
                    left_ok = not left_var or item.left in bound
                    right_ok = not right_var or item.right in bound
                    if left_ok and right_var and item.right not in bound:
                        bound.add(item.right)
                        changed = True
                    if right_ok and left_var and item.left not in bound:
                        bound.add(item.left)
                        changed = True
        unsafe = self.head.variables() - bound
        if unsafe:
            names = sorted(v.name for v in unsafe)
            raise QueryError(
                f"rule for {self.head.relation!r} is unsafe; "
                f"head variables {names} are not bound in the body"
            )
        for item in self.body:
            if isinstance(item, Comparison):
                dangling = item.variables() - bound
                if dangling:
                    names = sorted(v.name for v in dangling)
                    raise QueryError(
                        f"rule for {self.head.relation!r} has a comparison over "
                        f"unbound variables {names}"
                    )

    def body_atoms(self) -> tuple[RelationAtom, ...]:
        """The relation atoms of the body."""
        return tuple(item for item in self.body if isinstance(item, RelationAtom))

    def body_comparisons(self) -> tuple[Comparison, ...]:
        """The comparison atoms of the body."""
        return tuple(item for item in self.body if isinstance(item, Comparison))

    def variables(self) -> set[Variable]:
        """All variables of the rule."""
        result = set(self.head.variables())
        for item in self.body:
            result |= item.variables()
        return result

    def constants(self) -> set[ConstantTerm]:
        """All constants of the rule."""
        result = set(self.head.constants())
        for item in self.body:
            result |= item.constants()
        return result

    def __repr__(self) -> str:
        body = ", ".join(repr(item) for item in self.body)
        return f"{self.head!r} ← {body}"


@dataclass(frozen=True)
class FixpointQuery:
    """An FP query: a set of rules plus a designated output predicate."""

    rules: tuple[Rule, ...]
    output: str
    name: str

    def __init__(self, rules: Sequence[Rule], output: str, name: str = "Q") -> None:
        rules = tuple(rules)
        if not rules:
            raise QueryError("an FP query needs at least one rule")
        idb = {rule.head.relation for rule in rules}
        if output not in idb:
            raise QueryError(
                f"output predicate {output!r} is not defined by any rule "
                f"(IDB predicates: {sorted(idb)})"
            )
        arities: dict[str, int] = {}
        for rule in rules:
            existing = arities.get(rule.head.relation)
            if existing is not None and existing != rule.head.arity:
                raise QueryError(
                    f"IDB predicate {rule.head.relation!r} used with arities "
                    f"{existing} and {rule.head.arity}"
                )
            arities[rule.head.relation] = rule.head.arity
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "output", output)
        object.__setattr__(self, "name", name)

    # ------------------------------------------------------------------
    # structural accessors
    # ------------------------------------------------------------------
    def idb_predicates(self) -> set[str]:
        """Predicates defined by the rules (intensional)."""
        return {rule.head.relation for rule in self.rules}

    def idb_arity(self, predicate: str) -> int:
        """Arity of an IDB predicate."""
        for rule in self.rules:
            if rule.head.relation == predicate:
                return rule.head.arity
        raise QueryError(f"{predicate!r} is not an IDB predicate of {self.name!r}")

    def edb_predicates(self) -> set[str]:
        """Predicates used in rule bodies but not defined by any rule."""
        idb = self.idb_predicates()
        result: set[str] = set()
        for rule in self.rules:
            for atom in rule.body_atoms():
                if atom.relation not in idb:
                    result.add(atom.relation)
        return result

    @property
    def arity(self) -> int:
        """Arity of the query result (arity of the output predicate)."""
        return self.idb_arity(self.output)

    def constants(self) -> set[ConstantTerm]:
        """All constants occurring in the rules."""
        result: set[ConstantTerm] = set()
        for rule in self.rules:
            result |= rule.constants()
        return result

    def variables(self) -> set[Variable]:
        """All variables occurring in the rules."""
        result: set[Variable] = set()
        for rule in self.rules:
            result |= rule.variables()
        return result

    def relation_names(self) -> set[str]:
        """EDB relation names referenced by the program."""
        return self.edb_predicates()

    @staticmethod
    def is_monotone() -> bool:
        """FP queries are monotone in the database (inflational semantics)."""
        return True

    def __repr__(self) -> str:
        return f"FP({self.name}: {len(self.rules)} rules, output={self.output})"


def rule(head: RelationAtom, *body: "RelationAtom | Comparison") -> Rule:
    """Shorthand constructor for :class:`Rule`."""
    return Rule(head, body)


def fixpoint_query(name: str, output: str, rules: Iterable[Rule]) -> FixpointQuery:
    """Shorthand constructor for :class:`FixpointQuery`."""
    return FixpointQuery(tuple(rules), output=output, name=name)
