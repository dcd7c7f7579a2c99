"""Search engines over the possible worlds of a c-instance.

The decision procedures of the paper all reduce to enumerating (or probing)
``Mod_Adom(T, D_m, V)``.  This package provides the two non-trivial
engines behind that enumeration:

* the **propagating** engine (:mod:`repro.search.engine`) — pruned
  backtracking: per-variable candidate pools, early containment-constraint
  propagation on partially grounded worlds, fresh-value symmetry breaking
  for existence checks and canonical-form deduplication;
* the **SAT** engine (:mod:`repro.search.sat_engine`) — membership is
  compiled to CNF (:mod:`repro.search.cnf_encoding`) and decided by the
  DPLL solver of :mod:`repro.reductions.dpll`; conditions and
  inequality-heavy constraints are evaluated once at encoding time.

All engines are registered in the pluggable registry of
:mod:`repro.search.registry` (the cross-product reference path included, as
:class:`repro.search.naive.NaiveWorldSearch`);
:mod:`repro.ctables.possible_worlds` resolves the ``engine`` keyword —
a name string or an :class:`~repro.search.registry.EngineConfig` — through
:func:`repro.search.registry.get_engine`, so third-party engines registered
with :func:`repro.search.registry.register_engine` are selectable everywhere
without touching core modules.  The default is ``engine="propagating"``; the
SAT route is ``engine="sat"`` and the reference path is ``engine="naive"``.
"""

from repro.search.cnf_encoding import (
    EncodingStats,
    WorldEncoding,
    encode_world_search,
)
from repro.search.engine import SearchStats, WorldSearch, world_key
from repro.search.naive import NaiveSearchStats, NaiveWorldSearch
from repro.search.ordering import order_variables
from repro.search.propagation import CheckerSession, ConstraintChecker
from repro.search.registry import (
    DEFAULT_ENGINE,
    EngineCapabilities,
    EngineConfig,
    EngineSpec,
    engine_names,
    get_engine,
    register_engine,
    resolve_engine_name,
    unregister_engine,
)
from repro.search.sat_engine import SATSearchStats, SATWorldSearch

__all__ = [
    "CheckerSession",
    "ConstraintChecker",
    "DEFAULT_ENGINE",
    "EncodingStats",
    "EngineCapabilities",
    "EngineConfig",
    "EngineSpec",
    "NaiveSearchStats",
    "NaiveWorldSearch",
    "SATSearchStats",
    "SATWorldSearch",
    "SearchStats",
    "WorldEncoding",
    "WorldSearch",
    "encode_world_search",
    "engine_names",
    "get_engine",
    "order_variables",
    "register_engine",
    "resolve_engine_name",
    "unregister_engine",
    "world_key",
]
