"""Ground relations and ground database instances.

A *ground instance* ``I = (I1, ..., In)`` of a database schema assigns to each
relation schema a finite set of tuples whose components are constants
(Section 2.1).  Ground instances are the possible worlds represented by
c-instances and the objects over which queries are evaluated.

Both :class:`Relation` and :class:`GroundInstance` are immutable: all update
operations return new objects.  This makes them safe to use as members of
sets (e.g. when enumerating ``Mod(T, D_m, V)``) and as dictionary keys.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from repro.exceptions import SchemaError, UnknownRelationError
from repro.relational.domains import Constant
from repro.relational.schema import DatabaseSchema, RelationSchema

#: A database tuple is an ordinary Python tuple of constants.
Row = tuple[Constant, ...]


class Relation:
    """A finite set of tuples conforming to a relation schema."""

    __slots__ = ("_schema", "_rows")

    def __init__(
        self, schema: RelationSchema, rows: Iterable[Sequence[Constant]] = ()
    ) -> None:
        validated = frozenset(schema.validate_tuple(row) for row in rows)
        self._schema = schema
        self._rows = validated

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def schema(self) -> RelationSchema:
        """The relation schema this relation conforms to."""
        return self._schema

    @property
    def name(self) -> str:
        """The relation name."""
        return self._schema.name

    @property
    def rows(self) -> frozenset[Row]:
        """The tuples of the relation as a frozenset."""
        return self._rows

    @property
    def arity(self) -> int:
        """Number of attributes."""
        return self._schema.arity

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(sorted(self._rows, key=repr))

    def __contains__(self, row: Sequence[Constant]) -> bool:
        return tuple(row) in self._rows

    def is_empty(self) -> bool:
        """Whether the relation has no tuples."""
        return not self._rows

    # ------------------------------------------------------------------
    # functional updates
    # ------------------------------------------------------------------
    def add(self, *rows: Sequence[Constant]) -> "Relation":
        """A new relation with the given tuples added."""
        return Relation(self._schema, list(self._rows) + [tuple(r) for r in rows])

    def remove(self, *rows: Sequence[Constant]) -> "Relation":
        """A new relation with the given tuples removed (missing rows ignored)."""
        drop = {tuple(r) for r in rows}
        return Relation(self._schema, (r for r in self._rows if r not in drop))

    def union(self, other: "Relation") -> "Relation":
        """Set union of two relations over the same schema."""
        self._require_same_schema(other)
        return Relation(self._schema, self._rows | other._rows)

    # ------------------------------------------------------------------
    # comparisons
    # ------------------------------------------------------------------
    def issubset(self, other: "Relation") -> bool:
        """Whether every tuple of this relation also occurs in ``other``."""
        self._require_same_schema(other)
        return self._rows <= other._rows

    def constants(self) -> frozenset[Constant]:
        """All constants occurring in the relation."""
        return frozenset(value for row in self._rows for value in row)

    def _require_same_schema(self, other: "Relation") -> None:
        if self._schema != other._schema:
            raise SchemaError(
                f"relations {self.name!r} and {other.name!r} have different schemas"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._schema == other._schema and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._schema, self._rows))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation({self.name}, {len(self._rows)} rows)"


class GroundInstance:
    """A ground instance of a database schema (one relation per schema)."""

    __slots__ = ("_schema", "_relations")

    def __init__(
        self,
        schema: DatabaseSchema,
        relations: Mapping[str, Iterable[Sequence[Constant]]] | None = None,
    ) -> None:
        relations = relations or {}
        for name in relations:
            if name not in schema:
                raise UnknownRelationError(
                    f"instance mentions relation {name!r} not in the schema"
                )
        built: dict[str, Relation] = {}
        for rel_schema in schema:
            rows = relations.get(rel_schema.name, ())
            if isinstance(rows, Relation):
                if rows.schema != rel_schema:
                    raise SchemaError(
                        f"relation object for {rel_schema.name!r} has a different schema"
                    )
                built[rel_schema.name] = rows
            else:
                built[rel_schema.name] = Relation(rel_schema, rows)
        self._schema = schema
        self._relations = built

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def schema(self) -> DatabaseSchema:
        """The database schema of the instance."""
        return self._schema

    def relation(self, name: str) -> Relation:
        """The relation stored under ``name``."""
        if name not in self._relations:
            raise UnknownRelationError(f"no relation {name!r} in this instance")
        return self._relations[name]

    def __getitem__(self, name: str) -> Relation:
        return self.relation(name)

    def relations(self) -> Mapping[str, Relation]:
        """Read-only view of the name → relation mapping."""
        return dict(self._relations)

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    @property
    def size(self) -> int:
        """Total number of tuples across all relations (``|I|`` in the paper)."""
        return sum(len(rel) for rel in self._relations.values())

    def is_empty(self) -> bool:
        """Whether every relation is empty."""
        return self.size == 0

    def constants(self) -> frozenset[Constant]:
        """All constants occurring anywhere in the instance."""
        result: set[Constant] = set()
        for rel in self._relations.values():
            result |= rel.constants()
        return frozenset(result)

    def tuples(self) -> Iterator[tuple[str, Row]]:
        """Iterate over ``(relation name, tuple)`` pairs of the instance."""
        for name in self._schema.relation_names:
            for row in self._relations[name]:
                yield name, row

    # ------------------------------------------------------------------
    # functional updates
    # ------------------------------------------------------------------
    def with_tuple(self, relation: str, row: Sequence[Constant]) -> "GroundInstance":
        """A new instance with one tuple added to the named relation."""
        return self.with_tuples({relation: [row]})

    def with_tuples(
        self, additions: Mapping[str, Iterable[Sequence[Constant]]]
    ) -> "GroundInstance":
        """A new instance with tuples added to several relations."""
        updated: dict[str, Iterable[Sequence[Constant]]] = {}
        for name, rel in self._relations.items():
            extra = list(additions.get(name, ()))
            updated[name] = list(rel.rows) + [tuple(r) for r in extra]
        for name in additions:
            if name not in self._relations:
                raise UnknownRelationError(
                    f"cannot add tuples to unknown relation {name!r}"
                )
        return GroundInstance(self._schema, updated)

    def without_tuple(self, relation: str, row: Sequence[Constant]) -> "GroundInstance":
        """A new instance with one tuple removed from the named relation."""
        updated = {name: list(rel.rows) for name, rel in self._relations.items()}
        target = tuple(row)
        updated[relation] = [r for r in updated[relation] if r != target]
        return GroundInstance(self._schema, updated)

    def union(self, other: "GroundInstance") -> "GroundInstance":
        """Relation-wise union of two instances over the same schema."""
        self._require_same_schema(other)
        merged = {
            name: list(rel.rows) + list(other._relations[name].rows)
            for name, rel in self._relations.items()
        }
        return GroundInstance(self._schema, merged)

    # ------------------------------------------------------------------
    # comparisons (the ``(`` relation of the paper)
    # ------------------------------------------------------------------
    def issubset(self, other: "GroundInstance") -> bool:
        """Whether each relation of this instance is contained in ``other``'s."""
        self._require_same_schema(other)
        return all(
            rel.issubset(other._relations[name])
            for name, rel in self._relations.items()
        )

    def extends(self, other: "GroundInstance") -> bool:
        """Whether this instance *strictly* extends ``other`` (``other ( self``).

        This is the extension order of Section 2.1: component-wise containment
        with at least one strict containment.
        """
        return other.issubset(self) and other != self

    def proper_subinstances(self) -> Iterator["GroundInstance"]:
        """All instances obtained by removing exactly one tuple."""
        for name, row in self.tuples():
            yield self.without_tuple(name, row)

    def _require_same_schema(self, other: "GroundInstance") -> None:
        if self._schema != other._schema:
            raise SchemaError("ground instances are over different schemas")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroundInstance):
            return NotImplemented
        return self._schema == other._schema and self._relations == other._relations

    def __hash__(self) -> int:
        per_relation = sorted(
            ((name, rel.rows) for name, rel in self._relations.items()),
            key=lambda item: item[0],
        )
        return hash((self._schema, tuple(per_relation)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{name}:{len(rel)}" for name, rel in self._relations.items()
        )
        return f"GroundInstance({parts})"


def empty_instance(schema: DatabaseSchema) -> GroundInstance:
    """The instance with all relations empty (``I_∅`` in the paper's proofs)."""
    return GroundInstance(schema, {})


def instance(
    schema: DatabaseSchema, **relations: Iterable[Sequence[Constant]]
) -> GroundInstance:
    """Keyword-argument convenience constructor for ground instances.

    Examples
    --------
    >>> from repro.relational.schema import schema as rel_schema, database_schema
    >>> db = database_schema(rel_schema("R", "A", "B"))
    >>> instance(db, R=[(1, 2)]).size
    1
    """
    return GroundInstance(schema, relations)
