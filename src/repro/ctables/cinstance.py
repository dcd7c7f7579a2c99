"""c-instances: one c-table per relation of a database schema.

A c-instance ``T = (T1, ..., Tn)`` of a database schema collects one c-table
per relation (Section 2.2).  A valuation of the c-instance instantiates every
variable with a constant and yields a ground instance ``µ(T)``; the set of
ground instances obtained from valuations that respect the containment
constraints is ``Mod(T, D_m, V)`` (see
:mod:`repro.ctables.possible_worlds`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from repro.exceptions import CTableError
from repro.ctables.conditions import TRUE, Condition
from repro.ctables.ctable import CTable, CTableRow
from repro.queries.terms import ConstantTerm, Term, Variable, is_variable
from repro.relational.domains import Constant, Domain
from repro.relational.instance import GroundInstance
from repro.relational.schema import DatabaseSchema


class CInstance:
    """A c-instance: a c-table for every relation of a database schema."""

    __slots__ = ("_schema", "_tables")

    def __init__(
        self,
        schema: DatabaseSchema,
        tables: Mapping[str, CTable | Iterable[CTableRow | Sequence[Term]]] | None = None,
    ) -> None:
        tables = tables or {}
        for name in tables:
            if name not in schema:
                raise CTableError(f"c-instance mentions unknown relation {name!r}")
        built: dict[str, CTable] = {}
        for rel_schema in schema:
            supplied = tables.get(rel_schema.name, ())
            if isinstance(supplied, CTable):
                if supplied.schema != rel_schema:
                    raise CTableError(
                        f"c-table for {rel_schema.name!r} has a different schema"
                    )
                built[rel_schema.name] = supplied
            else:
                built[rel_schema.name] = CTable(rel_schema, supplied)
        self._schema = schema
        self._tables = built

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def schema(self) -> DatabaseSchema:
        """The database schema of the c-instance."""
        return self._schema

    def table(self, name: str) -> CTable:
        """The c-table stored under ``name``."""
        if name not in self._tables:
            raise CTableError(f"no c-table {name!r} in this c-instance")
        return self._tables[name]

    def __getitem__(self, name: str) -> CTable:
        return self.table(name)

    def tables(self) -> Mapping[str, CTable]:
        """Read-only view of the name → c-table mapping."""
        return dict(self._tables)

    def __iter__(self) -> Iterator[CTable]:
        return iter(self._tables.values())

    @property
    def size(self) -> int:
        """Total number of rows across all c-tables (``|T|``)."""
        return sum(len(t) for t in self._tables.values())

    def is_empty(self) -> bool:
        """Whether every c-table is empty."""
        return self.size == 0

    def is_ground(self) -> bool:
        """Whether the c-instance contains no variables or conditions."""
        return all(t.is_ground() for t in self._tables.values())

    def variables(self) -> set[Variable]:
        """All variables of the c-instance."""
        result: set[Variable] = set()
        for t in self._tables.values():
            result |= t.variables()
        return result

    def constants(self) -> set[ConstantTerm]:
        """All constants of the c-instance."""
        result: set[ConstantTerm] = set()
        for t in self._tables.values():
            result |= t.constants()
        return result

    def rows(self) -> Iterator[tuple[str, int, CTableRow]]:
        """Iterate over ``(relation name, row index, row)`` triples."""
        for name in self._schema.relation_names:
            for index, row in enumerate(self._tables[name].rows):
                yield name, index, row

    def variable_domains(self) -> dict[Variable, Domain]:
        """The finite attribute domain constraining each variable, if any.

        A variable that occurs in a finite-domain attribute position must be
        instantiated within that finite domain (Section 3, definition of
        valuations on ``Adom``).  If a variable occurs in several positions
        with finite domains, the intersection applies; occurrences in
        infinite-domain positions impose no restriction.
        """
        result: dict[Variable, Domain] = {}
        for name, table in self._tables.items():
            rel_schema = self._schema[name]
            for row in table.rows:
                for attribute, term in zip(rel_schema.attributes, row.terms):
                    if not is_variable(term) or attribute.domain.is_infinite:
                        continue
                    current = result.get(term)
                    if current is None:
                        result[term] = attribute.domain
                    else:
                        merged = frozenset(current.values or ()) & frozenset(
                            attribute.domain.values or ()
                        )
                        result[term] = Domain(
                            name=f"{current.name}∩{attribute.domain.name}",
                            values=merged,
                        )
        return result

    def relation_fingerprints(self) -> dict[str, int]:
        """An order-insensitive content fingerprint per relation.

        Two c-tables with the same *set* of rows get the same fingerprint
        even when their insertion orders differ: row order never affects the
        possible-world semantics, so a drop followed by a re-add restores the
        fingerprint.  The incremental-update layer
        (:meth:`repro.api.Database.update`) keys its decision cache on these
        values and invalidates exactly the entries whose dependency relations
        changed.
        """
        return {
            name: hash((name, frozenset(table.rows)))
            for name, table in self._tables.items()
        }

    def ground_tuples(self) -> dict[str, frozenset[tuple[Constant, ...]]]:
        """The definite ground tuples per relation (rows with no variables).

        These are the tuples present in *every* world.  The update layer
        diffs them across an update to drive the incremental SAT session's
        guard assumptions and the baseline checker session.
        """
        result: dict[str, set[tuple[Constant, ...]]] = {
            name: set() for name in self._schema.relation_names
        }
        for name, table in self._tables.items():
            for row in table.rows:
                if row.variables():
                    continue
                ground = row.apply({})
                if ground is not None:
                    result[name].add(ground)
        return {name: frozenset(rows) for name, rows in result.items()}

    # ------------------------------------------------------------------
    # functional updates
    # ------------------------------------------------------------------
    def with_row(
        self, relation: str, terms: Sequence[Term], condition: Condition = TRUE
    ) -> "CInstance":
        """A new c-instance with one row appended to the named c-table."""
        updated = dict(self._tables)
        updated[relation] = self.table(relation).add_row(terms, condition)
        return CInstance(self._schema, updated)

    def without_row(self, relation: str, index: int) -> "CInstance":
        """A new c-instance with one row removed from the named c-table."""
        updated = dict(self._tables)
        updated[relation] = self.table(relation).remove_row(index)
        return CInstance(self._schema, updated)

    def proper_subinstances(self) -> Iterator["CInstance"]:
        """All c-instances obtained by removing exactly one row."""
        for name, index, _row in self.rows():
            yield self.without_row(name, index)

    def strict_subinstances(self) -> Iterator["CInstance"]:
        """All c-instances obtained by removing a non-empty set of rows.

        The weak-model minimality check (Theorem 5.6) must consider every
        ``T' ⊊ T``, not only single-row removals (Example 5.5); hence this
        exponential enumeration, smallest removals first.
        """
        from repro.utils.itertools_ext import powerset

        positions = [(name, index) for name, index, _row in self.rows()]
        for removal in powerset(positions, include_empty=False):
            removal_by_relation: dict[str, set[int]] = {}
            for name, index in removal:
                removal_by_relation.setdefault(name, set()).add(index)
            updated: dict[str, CTable] = {}
            for name, table in self._tables.items():
                drop = removal_by_relation.get(name, set())
                keep = [i for i in range(len(table)) if i not in drop]
                updated[name] = table.restrict(keep)
            yield CInstance(self._schema, updated)

    # ------------------------------------------------------------------
    # semantics
    # ------------------------------------------------------------------
    def apply(self, valuation: Mapping[Variable, Constant]) -> GroundInstance:
        """The ground instance ``µ(T)`` induced by a valuation."""
        relations = {name: table.apply(valuation) for name, table in self._tables.items()}
        return GroundInstance(self._schema, relations)

    @classmethod
    def from_ground_instance(cls, instance: GroundInstance) -> "CInstance":
        """View a ground instance as a c-instance without variables."""
        tables = {
            name: CTable.from_relation(rel)
            for name, rel in instance.relations().items()
        }
        return cls(instance.schema, tables)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CInstance):
            return NotImplemented
        return self._schema == other._schema and self._tables == other._tables

    def __hash__(self) -> int:
        per_table = sorted(self._tables.items(), key=lambda item: item[0])
        return hash((self._schema, tuple(per_table)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{name}:{len(t)}" for name, t in self._tables.items())
        return f"CInstance({parts})"


def cinstance(
    schema: DatabaseSchema,
    **tables: CTable | Iterable[CTableRow | Sequence[Term]],
) -> CInstance:
    """Keyword-argument convenience constructor for c-instances."""
    return CInstance(schema, tables)
