"""Relation and database schemas.

A *database schema* ``R = (R1, ..., Rn)`` is a collection of relation schemas
(Section 2.1 of the paper).  Each relation schema is a named sequence of
attributes, and each attribute has a (finite or infinite) domain.

The classes here are immutable value objects: schemas can be shared freely
between instances, c-tables, queries and constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from repro.exceptions import ArityError, SchemaError, UnknownRelationError
from repro.relational.domains import ANY, Constant, Domain


@dataclass(frozen=True)
class Attribute:
    """A named attribute with a domain.

    Attributes compare by name *and* domain; two relation schemas that use the
    same attribute name with different domains are therefore distinct.
    """

    name: str
    domain: Domain = ANY

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Attribute({self.name!r}, {self.domain.name!r})"


def _as_attribute(spec: "Attribute | str | tuple[str, Domain]") -> Attribute:
    """Coerce user friendly attribute specifications into :class:`Attribute`."""
    if isinstance(spec, Attribute):
        return spec
    if isinstance(spec, str):
        return Attribute(spec)
    if isinstance(spec, tuple) and len(spec) == 2:
        name, domain = spec
        return Attribute(name, domain)
    raise SchemaError(f"cannot interpret {spec!r} as an attribute")


@dataclass(frozen=True)
class RelationSchema:
    """A relation schema: a name plus an ordered tuple of attributes."""

    name: str
    attributes: tuple[Attribute, ...]

    def __init__(
        self,
        name: str,
        attributes: Sequence["Attribute | str | tuple[str, Domain]"],
    ) -> None:
        if not name:
            raise SchemaError("relation name must be non-empty")
        attrs = tuple(_as_attribute(a) for a in attributes)
        if len(attrs) == 0:
            raise SchemaError(f"relation {name!r} must have at least one attribute")
        seen: set[str] = set()
        for attr in attrs:
            if attr.name in seen:
                raise SchemaError(
                    f"relation {name!r} has duplicate attribute {attr.name!r}"
                )
            seen.add(attr.name)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "attributes", attrs)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        """Number of attributes."""
        return len(self.attributes)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """Names of the attributes, in order."""
        return tuple(a.name for a in self.attributes)

    def position_of(self, attribute: str) -> int:
        """Index of the attribute with the given name.

        Raises
        ------
        SchemaError
            If no attribute with that name exists.
        """
        for i, attr in enumerate(self.attributes):
            if attr.name == attribute:
                return i
        raise SchemaError(f"relation {self.name!r} has no attribute {attribute!r}")

    def attribute(self, name: str) -> Attribute:
        """The attribute object with the given name."""
        return self.attributes[self.position_of(name)]

    # ------------------------------------------------------------------
    # tuple validation
    # ------------------------------------------------------------------
    def validate_tuple(self, values: Sequence[Constant]) -> tuple[Constant, ...]:
        """Check arity and finite-domain membership of a candidate tuple.

        Returns the tuple as an immutable ``tuple``.
        """
        if len(values) != self.arity:
            raise ArityError(
                f"relation {self.name!r} expects arity {self.arity}, "
                f"got {len(values)} values"
            )
        for attr, value in zip(self.attributes, values):
            if attr.domain.is_finite and value not in attr.domain:
                raise SchemaError(
                    f"value {value!r} not in finite domain of "
                    f"{self.name}.{attr.name}"
                )
        return tuple(values)

    def rename(self, new_name: str) -> "RelationSchema":
        """A copy of this schema under a different relation name."""
        return RelationSchema(new_name, self.attributes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        attrs = ", ".join(self.attribute_names)
        return f"RelationSchema({self.name}({attrs}))"


class DatabaseSchema:
    """A database schema: an ordered mapping from relation names to schemas."""

    def __init__(self, relations: Iterable[RelationSchema]) -> None:
        ordered: dict[str, RelationSchema] = {}
        for rel in relations:
            if rel.name in ordered:
                raise SchemaError(f"duplicate relation {rel.name!r} in schema")
            ordered[rel.name] = rel
        if not ordered:
            raise SchemaError("a database schema must contain at least one relation")
        self._relations = ordered

    # ------------------------------------------------------------------
    # mapping-style access
    # ------------------------------------------------------------------
    def __getitem__(self, name: str) -> RelationSchema:
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(
                f"relation {name!r} is not part of the schema "
                f"({sorted(self._relations)})"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[RelationSchema]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    @property
    def relation_names(self) -> tuple[str, ...]:
        """Names of all relations, in declaration order."""
        return tuple(self._relations)

    def relations(self) -> Mapping[str, RelationSchema]:
        """Read-only view of the name → schema mapping."""
        return dict(self._relations)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def extend(self, *new_relations: RelationSchema) -> "DatabaseSchema":
        """A new schema with additional relations appended."""
        return DatabaseSchema(list(self._relations.values()) + list(new_relations))

    def restrict(self, names: Iterable[str]) -> "DatabaseSchema":
        """A new schema containing only the named relations."""
        keep = list(names)
        return DatabaseSchema([self[name] for name in keep])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatabaseSchema):
            return NotImplemented
        return self._relations == other._relations

    def __hash__(self) -> int:
        return hash(tuple(self._relations.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DatabaseSchema({', '.join(self.relation_names)})"


def schema(name: str, *attributes: "Attribute | str | tuple[str, Domain]") -> RelationSchema:
    """Shorthand constructor for a :class:`RelationSchema`.

    Examples
    --------
    >>> schema("R", "A", "B").arity
    2
    """
    return RelationSchema(name, attributes)


def database_schema(*relations: RelationSchema) -> DatabaseSchema:
    """Shorthand constructor for a :class:`DatabaseSchema`."""
    return DatabaseSchema(relations)
