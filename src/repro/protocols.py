"""Structural typing contracts for the engine and query layers.

This module centralises the :class:`typing.Protocol` classes that describe
how the major subsystems plug into each other, so that type checkers (the
``mypy --strict`` gate) and human readers share one written contract:

* :class:`WorldSearchEngine` — what a registered world-search engine
  factory must produce, and :class:`RootedWorldSearchEngine`, what an
  engine declaring the ``rooted_runs`` capability adds to it;
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

from typing import TYPE_CHECKING, Iterator, Protocol, runtime_checkable

from repro.queries.evaluation import QueryProtocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ctables.valuation import Valuation
    from repro.relational.instance import GroundInstance
    from repro.search.engine import SearchStats

__all__ = [
    "QueryProtocol",
    "RootedWorldSearchEngine",
    "SearchSink",
    "WorldSearchEngine",
]


@runtime_checkable
class WorldSearchEngine(Protocol):
    """The object shape every registered engine factory must produce.

    The three built-in engines (propagating, sat, naive) all satisfy this
    protocol, and the registry's
    :data:`~repro.search.registry.EngineFactory` is typed to return it.
    Every engine fills one :class:`~repro.search.engine.SearchStats`, which
    :func:`repro.decision.aggregate_search_stats` sums field by field.
    Every engine's ``stats.worlds`` counts satisfying valuations, after both
    :meth:`search` and :meth:`count_worlds`.  Subclassing
    :class:`~repro.search.engine.WorldSearchBase` supplies every method
    but :meth:`search`.
    """

    stats: SearchStats

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


class SearchSink(Protocol):
    """Anything :func:`repro.search.registry.collect_searches` can feed.

    A plain ``list`` satisfies this; :class:`repro.decision.DecisionRecorder`
    uses one to attribute engine work to the Decision it builds.
    """

    def append(self, search: WorldSearchEngine, /) -> None:
        """Receive one engine object at its creation."""
        ...
