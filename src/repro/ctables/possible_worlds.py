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
  Adom values are symmetry-reduced for existence checks, for the deciders'
  per-world tests and for the certain answers (:func:`representative_worlds`
  with :func:`renaming_closure`), and duplicate worlds are suppressed via a
  canonical form;
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

import functools
import math
from collections import Counter
from dataclasses import replace
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.constraints.containment import (
    ContainmentConstraint,
    constraint_set_constants,
    constraint_set_variables,
)
from repro.ctables.adom import ActiveDomain, build_active_domain
from repro.ctables.cinstance import CInstance
from repro.ctables.valuation import Valuation
from repro.protocols import WorldSearchEngine
from repro.queries.evaluation import Query, query_constants, query_variables
from repro.relational.domains import Constant
from repro.relational.instance import GroundInstance, Row
from repro.relational.master import MasterData
from repro.search.engine import interchangeable_fresh_values
from repro.search.propagation import ConstraintChecker
from repro.search.registry import (
    DEFAULT_ENGINE,
    EngineConfig,
    EngineSpec,
    SearchTemplate,
)

__all__ = [
    "DEFAULT_ENGINE",
    "default_active_domain",
    "has_model",
    "model_count",
    "models",
    "models_with_valuations",
    "renaming_closure",
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
) -> WorldSearchEngine:
    spec, options = _engine_plan(engine)
    if adom is None:
        adom = default_active_domain(cinstance, master, constraints)
    return spec.create(
        cinstance,
        master,
        constraints,
        adom,
        checker=checker,
        break_symmetry=break_symmetry,
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
    coincides with emptiness over all valuations.  The engine is asked for
    fresh-value symmetry reduction here: renaming cannot turn a world into
    none, so (non-)emptiness is kept.
    """
    return _make_search(
        cinstance, master, constraints, adom, engine,
        break_symmetry=True, checker=checker,
    ).has_world()


def _distinguish_query_constants(adom: ActiveDomain, query: Query) -> ActiveDomain:
    """``adom`` with the query's constants moved out of ``fresh_values``.

    The value set and the pools stay unchanged, but a fresh value the query
    names is no longer interchangeable.
    """
    constants = query_constants(query)
    return replace(
        adom, fresh_values=tuple(v for v in adom.fresh_values if v not in constants)
    )


def representative_worlds(
    cinstance: CInstance,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain,
    query: Query,
    engine: EngineConfig | str | None = None,
) -> Iterator[GroundInstance]:
    """One world of ``Mod_Adom(T, D_m, V)`` per renaming of the fresh values.

    CQ, UCQ, ∃FO⁺, FO and FP queries are generic, so a permutation of the
    fresh Adom values that ``T``, ``D_m``, ``V`` and ``Q`` never mention
    (:func:`~repro.search.engine.interchangeable_fresh_values`, with the
    query's constants moved out of ``fresh_values``) maps worlds to worlds,
    complete or minimal worlds to complete or minimal ones, and ``Q(I)`` to
    ``Q`` of the renamed world.  So the strong, viable and MINP deciders
    test one world per class, and the certain answers intersect the
    :func:`renaming_closure` of one world's answer per class.  Engines that
    honour ``break_symmetry`` (propagating) enumerate only the class
    representatives; the others (SAT, naive) enumerate every world, a set
    closed under the renamings, on which the closure changes no
    intersection.  The propagating engine's representative is the first
    member of its class in search order, so the first world a decider
    accepts is the one the full enumeration finds.
    """
    yield from _make_search(
        cinstance, master, constraints, _distinguish_query_constants(adom, query),
        engine, break_symmetry=True,
    ).worlds()


def renaming_closure(
    cinstance: CInstance,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain,
    query: Query,
) -> Callable[[frozenset[Row]], frozenset[Row]]:
    """Close answers of ``query`` under the renamings of the fresh values.

    The returned map keeps a tuple only if every injective renaming of the
    interchangeable values it mentions, into the set
    :func:`representative_worlds` permutes, is in the answer too.  For a
    generic query the closure of ``Q(I)`` is ``⋂_π Q(π(I))``, the
    intersection over the class of ``I``.  It keeps a fresh-valued tuple
    whose every renaming is in the answer, so it is not the answer with its
    fresh-valued tuples dropped.  A tuple's renamings are the tuples with
    its constants in the same places and its interchangeable values in the
    same repetition pattern: with ``k`` distinct such values out of ``n``
    there are ``n!/(n-k)!`` of them.
    """
    adom = _distinguish_query_constants(adom, query)
    fresh = frozenset(adom.fresh_values)

    @functools.cache
    def interchangeable() -> frozenset[Constant]:
        return frozenset(interchangeable_fresh_values(cinstance, master, constraints, adom))

    def close(answer: frozenset[Row]) -> frozenset[Row]:
        # reprolint: disable=R001 -- a set in, a set out.
        if not any(value in fresh for row in answer for value in row):
            return answer  # no renaming moves it: the common case, kept cheap
        moved = interchangeable()
        # reprolint: disable=R001 -- a set in, a set out.
        shapes = {row: _renaming_shape(row, moved) for row in answer}
        members = Counter(shapes.values())
        return frozenset(
            row
            for row, key in shapes.items()
            if members[key] == math.perm(len(moved), max(key[0], default=-1) + 1)
        )

    return close


def _renaming_shape(
    row: Row, interchangeable: frozenset[Constant]
) -> tuple[tuple[int, ...], Row]:
    """What a row shares with its renamings: the pattern of first
    occurrences of its interchangeable values (``-1`` elsewhere), and its
    other values in order."""
    slots: dict[Constant, int] = {}
    pattern = tuple(
        slots.setdefault(value, len(slots)) if value in interchangeable else -1
        for value in row
    )
    return pattern, tuple(value for value in row if value not in interchangeable)


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

    ``break_symmetry=True`` asks the engine for fresh-value symmetry
    reduction (value precedence over the interchangeable fresh Adom
    values): a run then yields exactly one representative per orbit of the
    fresh-value permutation group instead of the full set of valuations.
    That is *not* the ``Mod_Adom`` multiset, so only a per-run test that
    renaming cannot change may use it (e.g. the strict-extension filter of
    :func:`repro.completeness.extensions.has_partially_closed_extension`).
    Engines that ignore the flag are still sound: they enumerate a superset
    of the representatives.
    """
    spec, options = _engine_plan(engine)
    return SearchTemplate(
        spec,
        cinstance,
        master,
        constraints,
        adom,
        checker=checker,
        break_symmetry=break_symmetry,
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
