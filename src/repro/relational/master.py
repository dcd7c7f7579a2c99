"""Master data.

Master data ``D_m`` (Section 2.1) is a ground instance of a master schema
``R_m``.  It is assumed consistent and closed-world: it provides an *upper
bound* on the information a partially closed database may contain about the
aspects of the enterprise it covers.

:class:`MasterData` is a thin wrapper around :class:`GroundInstance` that
exists mainly to make signatures of the decision procedures self-documenting
(``(T, Q, Dm, V)`` throughout the paper) and to host a couple of master-data
specific helpers (e.g. the canonical "empty master relation" used to encode
denial constraints and functional dependencies as containment constraints,
Example 2.1).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.relational.domains import Constant
from repro.relational.instance import GroundInstance, Relation
from repro.relational.schema import DatabaseSchema


class MasterData:
    """Master data: a consistent, closed-world ground instance."""

    __slots__ = ("_instance",)

    def __init__(
        self,
        schema: DatabaseSchema,
        relations: Mapping[str, Iterable[Sequence[Constant]]] | None = None,
    ) -> None:
        self._instance = GroundInstance(schema, relations)

    # ------------------------------------------------------------------
    # delegation to the underlying ground instance
    # ------------------------------------------------------------------
    @property
    def schema(self) -> DatabaseSchema:
        """The master schema ``R_m``."""
        return self._instance.schema

    @property
    def instance(self) -> GroundInstance:
        """The underlying ground instance."""
        return self._instance

    def relation(self, name: str) -> Relation:
        """The master relation stored under ``name``."""
        return self._instance.relation(name)

    def __getitem__(self, name: str) -> Relation:
        return self._instance[name]

    def __contains__(self, name: str) -> bool:
        return name in self._instance.schema

    @property
    def size(self) -> int:
        """Total number of master tuples."""
        return self._instance.size

    def constants(self) -> frozenset[Constant]:
        """All constants occurring in the master data."""
        return self._instance.constants()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MasterData):
            return NotImplemented
        return self._instance == other._instance

    def __hash__(self) -> int:
        return hash(("MasterData", self._instance))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MasterData({self._instance!r})"


def empty_master(schema: DatabaseSchema) -> MasterData:
    """Master data with every master relation empty.

    Several lower-bound constructions in the paper (Proposition 3.1,
    Theorem 4.5) use empty master data; the encodings of FDs and denial
    constraints as CCs (Example 2.1) use an empty master relation ``D_∅`` as
    the right-hand side of the constraint.
    """
    return MasterData(schema, {})
