"""Conditional tables (c-tables).

A c-table of a relation schema ``R`` is a pair ``(T, ξ)`` where ``T`` is a
tableau — tuples whose components are constants or variables — and ``ξ``
associates a local condition with each tuple (Section 2.2).  Variables of an
attribute ``A`` range over ``dom(A)``; constants and variables never mix
(enforced by the library through distinct Python types).

A :class:`CTable` is immutable.  Its rows are :class:`CTableRow` objects
pairing a tuple of terms with a :class:`~repro.ctables.conditions.Condition`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from repro.exceptions import CTableError, ValuationError
from repro.ctables.conditions import TRUE, Condition
from repro.queries.terms import ConstantTerm, Term, Variable, is_variable
from repro.relational.domains import Constant
from repro.relational.instance import Relation, Row
from repro.relational.schema import RelationSchema


@dataclass(frozen=True)
class CTableRow:
    """A row of a c-table: a tuple of terms plus a local condition."""

    terms: tuple[Term, ...]
    condition: Condition

    def __init__(self, terms: Sequence[Term], condition: Condition = TRUE) -> None:
        object.__setattr__(self, "terms", tuple(terms))
        object.__setattr__(self, "condition", condition)

    @property
    def arity(self) -> int:
        """Number of components of the row."""
        return len(self.terms)

    def variables(self) -> set[Variable]:
        """Variables of the row's terms and of its condition."""
        result = {t for t in self.terms if is_variable(t)}
        result |= self.condition.variables()
        return result

    def term_variables(self) -> set[Variable]:
        """Variables occurring in the row's terms only."""
        return {t for t in self.terms if is_variable(t)}

    def constants(self) -> set[ConstantTerm]:
        """Constants of the row's terms and of its condition."""
        result = {t for t in self.terms if not is_variable(t)}
        result |= self.condition.constants()
        return result

    def is_ground(self) -> bool:
        """Whether the row contains no variables and has the trivial condition."""
        return not self.variables() and self.condition.is_true

    def apply(self, valuation: Mapping[Variable, Constant]) -> Row | None:
        """Instantiate the row under a valuation.

        Returns the resulting ground tuple, or ``None`` if the row's local
        condition evaluates to false under the valuation.
        """
        if not self.condition.evaluate(valuation):
            return None
        values: list[Constant] = []
        for term in self.terms:
            if is_variable(term):
                if term not in valuation:
                    raise ValuationError(
                        f"valuation does not cover variable {term!r}"
                    )
                values.append(valuation[term])
            else:
                values.append(term)
        return tuple(values)

    def __repr__(self) -> str:
        inner = ", ".join(repr(t) for t in self.terms)
        if self.condition.is_true:
            return f"({inner})"
        return f"({inner}) if {self.condition!r}"


class CTable:
    """A c-table ``(T, ξ)`` over a relation schema."""

    __slots__ = ("_schema", "_rows")

    def __init__(
        self,
        schema: RelationSchema,
        rows: Iterable[CTableRow | Sequence[Term]] = (),
    ) -> None:
        normalised: list[CTableRow] = []
        for row in rows:
            if not isinstance(row, CTableRow):
                row = CTableRow(row)
            if row.arity != schema.arity:
                raise CTableError(
                    f"row {row!r} has arity {row.arity}, schema {schema.name!r} "
                    f"expects {schema.arity}"
                )
            self._check_finite_domains(schema, row)
            normalised.append(row)
        self._schema = schema
        self._rows = tuple(normalised)

    @staticmethod
    def _check_finite_domains(schema: RelationSchema, row: CTableRow) -> None:
        for attribute, term in zip(schema.attributes, row.terms):
            if not is_variable(term) and attribute.domain.is_finite:
                if term not in attribute.domain:
                    raise CTableError(
                        f"constant {term!r} is outside the finite domain of "
                        f"{schema.name}.{attribute.name}"
                    )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def schema(self) -> RelationSchema:
        """The relation schema of the c-table."""
        return self._schema

    @property
    def name(self) -> str:
        """The relation name."""
        return self._schema.name

    @property
    def rows(self) -> tuple[CTableRow, ...]:
        """The rows of the c-table, in insertion order."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[CTableRow]:
        return iter(self._rows)

    def is_empty(self) -> bool:
        """Whether the c-table has no rows."""
        return not self._rows

    def is_ground(self) -> bool:
        """Whether every row is ground (no variables, trivial conditions)."""
        return all(row.is_ground() for row in self._rows)

    def variables(self) -> set[Variable]:
        """All variables of the c-table (rows and conditions)."""
        result: set[Variable] = set()
        for row in self._rows:
            result |= row.variables()
        return result

    def constants(self) -> set[ConstantTerm]:
        """All constants of the c-table (rows and conditions)."""
        result: set[ConstantTerm] = set()
        for row in self._rows:
            result |= row.constants()
        return result

    # ------------------------------------------------------------------
    # functional updates
    # ------------------------------------------------------------------
    def add_row(
        self, terms: Sequence[Term], condition: Condition = TRUE
    ) -> "CTable":
        """A new c-table with one row appended."""
        return CTable(self._schema, list(self._rows) + [CTableRow(terms, condition)])

    def remove_row(self, index: int) -> "CTable":
        """A new c-table with the row at ``index`` removed."""
        if not 0 <= index < len(self._rows):
            raise CTableError(f"row index {index} out of range")
        remaining = list(self._rows)
        del remaining[index]
        return CTable(self._schema, remaining)

    def restrict(self, indices: Iterable[int]) -> "CTable":
        """A new c-table containing only the rows at the given indices."""
        keep = sorted(set(indices))
        for index in keep:
            if not 0 <= index < len(self._rows):
                raise CTableError(f"row index {index} out of range")
        return CTable(self._schema, [self._rows[i] for i in keep])

    # ------------------------------------------------------------------
    # semantics
    # ------------------------------------------------------------------
    def apply(self, valuation: Mapping[Variable, Constant]) -> Relation:
        """The ground relation ``µ(T)`` induced by a valuation.

        Rows whose condition is violated are dropped, as per the definition
        of ``µ(T)`` in Section 2.2.
        """
        rows: set[Row] = set()
        for row in self._rows:
            ground = row.apply(valuation)
            if ground is not None:
                rows.add(ground)
        return Relation(self._schema, rows)

    @classmethod
    def from_relation(cls, relation: Relation) -> "CTable":
        """View a ground relation as a c-table without variables or conditions."""
        return cls(relation.schema, [CTableRow(row) for row in relation])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CTable):
            return NotImplemented
        return self._schema == other._schema and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._schema, self._rows))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CTable({self.name}, {len(self._rows)} rows, {len(self.variables())} vars)"
