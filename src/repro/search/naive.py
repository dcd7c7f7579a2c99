"""The naive cross-product engine (``engine="naive"``) as a search object.

The original reference path enumerated ``itertools.product`` over the
variable pools inline in :mod:`repro.ctables.possible_worlds`.  Wrapping it
in :class:`NaiveWorldSearch` gives it the same object shape as the other
engines (:class:`~repro.search.engine.WorldSearch`,
:class:`~repro.search.sat_engine.SATWorldSearch`) so the engine registry
(:mod:`repro.search.registry`) can treat all three uniformly — and so the
differential harness keeps a reference implementation whose only cleverness
is having none: every Adom valuation is materialised and the containment
constraints are checked on complete worlds only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.constraints.containment import ContainmentConstraint, satisfies_all
from repro.ctables.adom import ActiveDomain
from repro.ctables.cinstance import CInstance
from repro.ctables.valuation import Valuation, enumerate_valuations
from repro.relational.instance import GroundInstance, Row
from repro.relational.master import MasterData
from repro.search.engine import world_key


@dataclass
class NaiveSearchStats:
    """Counters describing one naive enumeration run."""

    nodes: int = 0  # complete valuations materialised
    worlds: int = 0  # satisfying valuations yielded
    duplicate_worlds: int = 0


class NaiveWorldSearch:
    """Cross-product enumeration of ``Mod_Adom(T, D_m, V)``.

    The reference implementation the optimised engines are parity-tested
    against: no propagation, no symmetry breaking, no sharing — just every
    valuation over the Adom pools, filtered on complete worlds.
    """

    def __init__(
        self,
        cinstance: CInstance,
        master: MasterData,
        constraints: Sequence[ContainmentConstraint],
        adom: ActiveDomain | None = None,
    ) -> None:
        if adom is None:
            from repro.ctables.possible_worlds import default_active_domain

            adom = default_active_domain(cinstance, master, constraints)
        self._cinstance = cinstance
        self._master = master
        self._constraints = list(constraints)
        self._adom = adom
        self.stats = NaiveSearchStats()

    def search(self) -> Iterator[tuple[Valuation, GroundInstance]]:
        """Enumerate ``(µ, µ(T))`` pairs with ``(µ(T), D_m) |= V``."""
        for valuation in enumerate_valuations(self._cinstance, self._adom):
            self.stats.nodes += 1
            world = self._cinstance.apply(valuation)
            if satisfies_all(world, self._master, self._constraints):
                self.stats.worlds += 1
                yield valuation, world

    def __iter__(self) -> Iterator[tuple[Valuation, GroundInstance]]:
        return self.search()

    def worlds(self, deduplicate: bool = True) -> Iterator[GroundInstance]:
        """Enumerate the worlds, suppressing duplicates when asked to."""
        seen: set[tuple[frozenset[Row], ...]] = set()
        for _valuation, world in self.search():
            if deduplicate:
                key = world_key(world)
                if key in seen:
                    self.stats.duplicate_worlds += 1
                    continue
                seen.add(key)
            yield world

    def has_world(self) -> bool:
        """Whether ``Mod_Adom(T, D_m, V)`` is non-empty."""
        for _ in self.search():
            return True
        return False

    def count_worlds(self) -> int:
        """The number of distinct worlds."""
        return sum(1 for _ in self.worlds(deduplicate=True))
