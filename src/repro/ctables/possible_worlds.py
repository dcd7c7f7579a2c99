"""Possible worlds of a partially closed c-instance.

``Mod(T, D_m, V)`` is the set of ground instances ``µ(T)`` obtained from
valuations ``µ`` such that ``(µ(T), D_m) |= V`` (Section 2.2).  The set is
infinite in general (variables range over infinite domains), but by
Proposition 3.3 it suffices to consider valuations over the active domain
``Adom``; the paper writes the restricted set ``Mod_Adom(T, D_m, V)``.

This module enumerates ``Mod_Adom``.  The enumeration is backed by
interchangeable engines resolved through the registry of
:mod:`repro.search.registry`; every function here (and every decider in
:mod:`repro.completeness`) accepts an ``engine`` keyword naming one —
a string, an :class:`~repro.search.registry.EngineConfig`, or ``None`` for
the default.  The built-in engines:

* ``engine="propagating"`` (the default) — the backtracking search of
  :mod:`repro.search`: variables are assigned one at a time, containment
  constraints are checked on partially grounded worlds so dead branches are
  pruned before their exponentially many completions are materialised, fresh
  Adom values are symmetry-reduced for existence checks and for the
  deciders' per-world tests (:func:`representative_worlds`), and duplicate
  worlds are suppressed via a canonical form;
* ``engine="sat"`` — membership in ``Mod_Adom(T, D_m, V)`` is compiled to
  CNF (:mod:`repro.search.cnf_encoding`) and handed to the DPLL solver of
  :mod:`repro.reductions.dpll`; existence checks are a single SAT call and
  enumeration uses selector-projected blocking clauses.  Conditions and
  (in)equality-heavy constraints are evaluated once, at encoding time, which
  is the regime where this engine overtakes the propagating one; and
* ``engine="naive"`` — the original cross-product enumeration
  (:class:`~repro.search.naive.NaiveWorldSearch`), kept as the reference
  implementation the engines are parity-tested against.

Additional engines registered through
:func:`repro.search.registry.register_engine` are selectable here without
any change to this module.  All engines produce the same set of valuations
and worlds (only the enumeration order may differ).  The higher-level decision
procedures (consistency, RCDP, RCQP, MINP) are built on top of this module
in :mod:`repro.completeness`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Iterator, Mapping, Sequence

from repro.constraints.containment import (
    ContainmentConstraint,
    constraint_set_constants,
    constraint_set_variables,
)
from repro.ctables.adom import ActiveDomain, build_active_domain
from repro.ctables.cinstance import CInstance
from repro.ctables.valuation import Valuation
from repro.queries.evaluation import Query, query_constants, query_variables
from repro.relational.instance import GroundInstance
from repro.relational.master import MasterData
from repro.search.propagation import ConstraintChecker
from repro.search.registry import (
    DEFAULT_ENGINE,
    EngineConfig,
    EngineSpec,
    SearchTemplate,
    WorldSearchLike,
)

__all__ = [
    "DEFAULT_ENGINE",
    "default_active_domain",
    "has_model",
    "model_count",
    "models",
    "models_with_valuations",
    "representative_worlds",
    "search_template",
]


def _engine_plan(
    engine: EngineConfig | str | None,
) -> tuple[EngineSpec, Mapping[str, Any]]:
    """Resolve an engine selection to ``(spec, factory options)``."""
    config = EngineConfig.coerce(engine)
    return config.spec(), config.options


def _make_search(
    cinstance: CInstance,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain | None,
    engine: EngineConfig | str | None,
    *,
    break_symmetry: bool = False,
    checker: "ConstraintChecker | None" = None,
) -> WorldSearchLike:
    spec, options = _engine_plan(engine)
    if adom is None:
        adom = default_active_domain(cinstance, master, constraints)
    return spec.create(
        cinstance,
        master,
        constraints,
        adom,
        checker=checker,
        break_symmetry=break_symmetry and spec.capabilities.symmetry_breaking,
        options=options,
    )


def default_active_domain(
    cinstance: CInstance,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    query: Query | None = None,
) -> ActiveDomain:
    """The ``Adom`` of Proposition 3.3 / Theorem 4.1 for the given input.

    Constants come from the c-instance, the master data, the CCs and (when
    supplied) the query; fresh values are added for the variables of the
    c-instance and of the CCs (and of the query when supplied, per the
    explicit ``variables()`` contract of the query protocol).
    """
    query_consts = query_constants(query) if query is not None else frozenset()
    query_vars = set(query_variables(query)) if query is not None else set()
    return build_active_domain(
        cinstance=cinstance,
        master=master,
        constraint_constants=constraint_set_constants(constraints),
        query_constants=query_consts,
        extra_variables=constraint_set_variables(constraints) | query_vars,
    )


def models_with_valuations(
    cinstance: CInstance,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain | None = None,
    engine: EngineConfig | str | None = None,
    checker: "ConstraintChecker | None" = None,
) -> Iterator[tuple[Valuation, GroundInstance]]:
    """Enumerate ``(µ, µ(T))`` pairs with ``µ(T) ∈ Mod_Adom(T, D_m, V)``.

    ``checker`` optionally shares a prebuilt
    :class:`~repro.search.propagation.ConstraintChecker` with the
    engine — pass it explicitly for generator consumers
    (the ambient :func:`repro.search.registry.use_checker` channel must not
    be held open across generator suspension).
    """
    yield from _make_search(
        cinstance, master, constraints, adom, engine, checker=checker
    ).search()


def models(
    cinstance: CInstance,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain | None = None,
    deduplicate: bool = True,
    engine: EngineConfig | str | None = None,
    checker: "ConstraintChecker | None" = None,
) -> Iterator[GroundInstance]:
    """Enumerate ``Mod_Adom(T, D_m, V)``.

    Distinct valuations may induce the same ground instance; by default the
    duplicates are suppressed so callers iterate over the set of worlds.
    ``checker`` shares a prebuilt constraint checker (see
    :func:`models_with_valuations`).
    """
    yield from _make_search(
        cinstance, master, constraints, adom, engine, checker=checker
    ).worlds(deduplicate=deduplicate)


def has_model(
    cinstance: CInstance,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain | None = None,
    engine: EngineConfig | str | None = None,
    checker: "ConstraintChecker | None" = None,
) -> bool:
    """Whether ``Mod(T, D_m, V)`` is non-empty (the consistency property).

    By the correctness argument of Proposition 3.3, emptiness over ``Adom``
    coincides with emptiness over all valuations.  Engines whose
    capabilities declare ``symmetry_breaking`` are asked to apply fresh-value
    symmetry reduction here: renaming cannot turn a world into none, so
    (non-)emptiness is kept.
    """
    return _make_search(
        cinstance, master, constraints, adom, engine,
        break_symmetry=True, checker=checker,
    ).has_world()


def representative_worlds(
    cinstance: CInstance,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain,
    query: Query,
    engine: EngineConfig | str | None = None,
) -> Iterator[GroundInstance]:
    """One world of ``Mod_Adom(T, D_m, V)`` per renaming of the fresh values.

    CQ, UCQ and ∃FO⁺ queries are generic, so a permutation of the fresh Adom
    values that ``T``, ``D_m``, ``V`` and ``Q`` never mention maps worlds to
    worlds, complete worlds to complete worlds and minimal ones to minimal
    ones.  The strong, viable and MINP deciders therefore test one world per
    class: engines that declare ``symmetry_breaking`` enumerate only the
    class representatives, the others every world.  The query's constants
    are moved out of ``fresh_values``, which leaves the value set and the
    pools unchanged but keeps them out of the interchangeable values.  The
    propagating engine's representative is the first member of its class in
    search order, so the first world a decider accepts is the one the full
    enumeration finds.
    """
    constants = query_constants(query)
    adom = replace(
        adom, fresh_values=tuple(v for v in adom.fresh_values if v not in constants)
    )
    yield from _make_search(
        cinstance, master, constraints, adom, engine, break_symmetry=True
    ).worlds()


def search_template(
    cinstance: CInstance,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain,
    engine: EngineConfig | str | None = None,
    checker: "ConstraintChecker | None" = None,
    *,
    break_symmetry: bool = False,
) -> SearchTemplate:
    """Runs over ``T ∪ I`` for one c-instance ``T`` and many ground ``I``.

    ``template.over(I)`` is the selected engine's search over ``T ∪ I``
    (drain it with ``search()``, ``worlds()`` or ``has_world()``); see
    :class:`~repro.search.registry.SearchTemplate`.  ``adom`` is required,
    because the default Adom of ``T`` alone is not the Adom of ``T ∪ I``.

    ``break_symmetry=True`` asks engines that support it for fresh-value
    symmetry reduction (value precedence over the interchangeable fresh Adom
    values): a run then yields exactly one representative per orbit of the
    fresh-value permutation group instead of the full set of valuations.
    That is *not* the ``Mod_Adom`` multiset, so only a per-run test that
    renaming cannot change may use it (e.g. the strict-extension filter of
    :func:`repro.completeness.extensions.has_partially_closed_extension`).
    Engines without the capability ignore the flag, which is sound: they
    enumerate a superset of the representatives.
    """
    spec, options = _engine_plan(engine)
    return SearchTemplate(
        spec,
        cinstance,
        master,
        constraints,
        adom,
        checker=checker,
        break_symmetry=break_symmetry and spec.capabilities.symmetry_breaking,
        options=options,
    )


def model_count(
    cinstance: CInstance,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain | None = None,
    engine: EngineConfig | str | None = None,
    checker: "ConstraintChecker | None" = None,
) -> int:
    """The number of distinct worlds in ``Mod_Adom(T, D_m, V)``.

    Every engine counts through its own ``count_worlds()``: the tree
    searches drain their deduplicated worlds, and the SAT engine multiplies
    the sub-world counts of its clause-graph components without building a
    world, which is faster and lighter on memory for wide instances.
    """
    return _make_search(
        cinstance, master, constraints, adom, engine, checker=checker
    ).count_worlds()
