"""Structural typing contracts for the engine, checker and query layers.

This module centralises the :class:`typing.Protocol` classes that describe
how the major subsystems plug into each other, so that type checkers (the
``mypy --strict`` gate) and human readers share one written contract:

* :class:`WorldSearchEngine` — what a registered world-search engine
  factory must produce (the registry's ``WorldSearchLike`` is an alias),
  and :class:`RootedWorldSearchEngine`, what an engine declaring the
  ``rooted_runs`` capability adds to it;
* :class:`SupportsCheckerSessions` / :class:`CheckerSessionProtocol` — the
  incremental constraint-checking channel engines consume;
* :class:`SearchSink` — the collector fed by
  :func:`repro.search.registry.collect_searches`;
* :class:`QueryProtocol` (re-exported from
  :mod:`repro.queries.evaluation`) — the structural contract every query
  representation satisfies.

None of these names are part of the stable public API surface locked by
``tests/api/public_api_snapshot.json`` — they are typing aids, importable
as ``repro.protocols`` but free to grow new optional members.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Iterator, Protocol, runtime_checkable

from repro.queries.evaluation import QueryProtocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.constraints.containment import ContainmentConstraint
    from repro.ctables.valuation import Valuation
    from repro.relational.instance import GroundInstance, Row

__all__ = [
    "CheckerSessionProtocol",
    "QueryProtocol",
    "RootedWorldSearchEngine",
    "SearchSink",
    "SupportsCheckerSessions",
    "WorldSearchEngine",
]


@runtime_checkable
class WorldSearchEngine(Protocol):
    """The object shape every registered engine factory must produce.

    The three built-in engines (propagating, sat, naive) all satisfy this
    protocol, and the registry's
    :data:`~repro.search.registry.EngineFactory` is typed to return it.
    ``stats`` is deliberately loose (``Any``): the per-engine stats shapes
    are heterogeneous (tree-search node counts, CNF clause counts) and are
    folded together duck-typed by
    :func:`repro.decision.aggregate_search_stats`.  Every engine's
    ``stats.worlds`` counts satisfying valuations, after both
    :meth:`search` and :meth:`count_worlds`.
    """

    stats: Any

    def search(self) -> Iterator[tuple[Valuation, GroundInstance]]:
        """Enumerate ``(valuation, world)`` pairs of ``Mod_Adom(T, D_m, V)``."""
        ...

    def worlds(self, deduplicate: bool = True) -> Iterator[GroundInstance]:
        """Enumerate the possible worlds, optionally deduplicated."""
        ...

    def has_world(self) -> bool:
        """Whether at least one possible world exists (existence fast path)."""
        ...

    def count_worlds(self) -> int:
        """The number of distinct possible worlds."""
        ...


@runtime_checkable
class RootedWorldSearchEngine(WorldSearchEngine, Protocol):
    """An engine whose runs can be rooted at a ground instance.

    Declared by the ``rooted_runs`` registry capability and consumed by
    :class:`repro.search.registry.SearchTemplate`.
    """

    def over(self, instance: GroundInstance) -> WorldSearchEngine:
        """A run over ``T ∪ instance`` sharing this engine's compiled plan."""
        ...


@runtime_checkable
class CheckerSessionProtocol(Protocol):
    """An incremental constraint-checking session (push/pop trail).

    The contract engines rely on: :meth:`push` asserts one fact and reports
    whether all containment constraints still hold; :meth:`pop` retracts the
    most recent fact; :meth:`mark` / :meth:`pop_to` bracket a subtree so an
    engine can unwind a whole branch (including across exceptions — lint
    rule R002 enforces the balanced-unwind discipline on implementations
    and callers alike).
    """

    @property
    def depth(self) -> int:
        """The number of facts currently pushed."""
        ...

    @property
    def is_satisfied(self) -> bool:
        """Whether every constraint holds for the pushed facts."""
        ...

    def push(self, relation: str, row: Row) -> bool:
        """Assert one fact; returns whether all constraints still hold."""
        ...

    def pop(self) -> None:
        """Retract the most recently pushed fact."""
        ...

    def mark(self) -> int:
        """The current trail position, for a later :meth:`pop_to`."""
        ...

    def pop_to(self, mark: int) -> None:
        """Retract every fact pushed after ``mark`` was taken."""
        ...


@runtime_checkable
class SupportsCheckerSessions(Protocol):
    """The checker channel: a factory of incremental checking sessions.

    :class:`repro.search.propagation.ConstraintChecker` is the canonical
    implementation; engines that accept a prebuilt checker (capability
    ``accepts_checker``) receive one through this interface, either as an
    explicit ``checker=`` argument or ambiently via
    :func:`repro.search.registry.use_checker`.
    """

    @property
    def constraints(self) -> list[ContainmentConstraint]:
        """The containment constraints the checker enforces."""
        ...

    def session(self, relation_names: Iterable[str] = ()) -> CheckerSessionProtocol:
        """A fresh session seeded with empty relations of the given names."""
        ...


class SearchSink(Protocol):
    """Anything :func:`repro.search.registry.collect_searches` can feed.

    A plain ``list`` satisfies this; :class:`repro.decision.DecisionRecorder`
    uses one to attribute engine work to the Decision it builds.
    """

    def append(self, search: WorldSearchEngine, /) -> None:
        """Receive one engine object at its creation."""
        ...
