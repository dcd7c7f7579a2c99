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
  Adom values are symmetry-reduced for pure existence checks, and duplicate
  worlds are suppressed via a canonical form;
* ``engine="sat"`` — membership in ``Mod_Adom(T, D_m, V)`` is compiled to
  CNF (:mod:`repro.search.cnf_encoding`) and handed to the DPLL solver of
  :mod:`repro.reductions.dpll`; existence checks are a single SAT call and
  enumeration uses selector-projected blocking clauses.  Conditions and
  (in)equality-heavy constraints are evaluated once, at encoding time, which
  is the regime where this engine overtakes the propagating one;
* ``engine="parallel"`` — the sharded process-parallel engine of
  :mod:`repro.search.parallel`: the propagating search tree is partitioned by
  the first ordered variable's pool values (pairs of the first two variables
  when the first pool is small) and the shards are farmed to a process pool,
  with results merged in shard order so the enumeration is order-identical
  to the serial propagating engine.  The ``workers`` keyword (default: one
  per available CPU) sizes the pool; small searches silently fall back to
  the serial path; and
* ``engine="naive"`` — the original cross-product enumeration
  (:class:`~repro.search.naive.NaiveWorldSearch`), kept as the reference
  implementation the engines are parity-tested against.

Additional engines registered through
:func:`repro.search.registry.register_engine` are selectable here without
any change to this module.  All engines produce the same set of valuations
and worlds (only the enumeration order may differ; the parallel engine
reproduces the ``"propagating"`` order exactly).  The higher-level decision
procedures (consistency, RCDP, RCQP, MINP) are built on top of this module
in :mod:`repro.completeness`.
"""

from __future__ import annotations

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
    "search_template",
]


def _engine_plan(
    engine: EngineConfig | str | None, workers: int | None
) -> tuple[EngineSpec, int | None, Mapping[str, Any]]:
    """Resolve an engine selection to ``(spec, workers, factory options)``.

    An explicit ``workers=`` argument wins over the config's ``workers``
    field (the keyword is the more local declaration).
    """
    config = EngineConfig.coerce(engine)
    spec = config.spec()
    return spec, workers if workers is not None else config.workers, config.options


def _make_search(
    cinstance: CInstance,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain | None,
    engine: EngineConfig | str | None,
    workers: int | None,
    *,
    existence: bool = False,
    checker: "ConstraintChecker | None" = None,
) -> WorldSearchLike:
    spec, workers, options = _engine_plan(engine, workers)
    if adom is None:
        adom = default_active_domain(cinstance, master, constraints)
    return spec.create(
        cinstance,
        master,
        constraints,
        adom,
        workers=workers,
        checker=checker,
        break_symmetry=existence and spec.capabilities.symmetry_breaking,
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
    workers: int | None = None,
    checker: "ConstraintChecker | None" = None,
) -> Iterator[tuple[Valuation, GroundInstance]]:
    """Enumerate ``(µ, µ(T))`` pairs with ``µ(T) ∈ Mod_Adom(T, D_m, V)``.

    ``workers`` sizes the worker pool of engines that support one (default:
    one worker per available CPU); the other engines ignore it.  ``checker``
    optionally shares a prebuilt
    :class:`~repro.search.propagation.ConstraintChecker` with
    checker-accepting engines — pass it explicitly for generator consumers
    (the ambient :func:`repro.search.registry.use_checker` channel must not
    be held open across generator suspension).
    """
    yield from _make_search(
        cinstance, master, constraints, adom, engine, workers, checker=checker
    ).search()


def models(
    cinstance: CInstance,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain | None = None,
    deduplicate: bool = True,
    engine: EngineConfig | str | None = None,
    workers: int | None = None,
    checker: "ConstraintChecker | None" = None,
) -> Iterator[GroundInstance]:
    """Enumerate ``Mod_Adom(T, D_m, V)``.

    Distinct valuations may induce the same ground instance; by default the
    duplicates are suppressed so callers iterate over the set of worlds.
    ``workers`` sizes the worker pool of engines that support one;
    ``checker`` shares a prebuilt constraint checker (see
    :func:`models_with_valuations`).
    """
    yield from _make_search(
        cinstance, master, constraints, adom, engine, workers, checker=checker
    ).worlds(deduplicate=deduplicate)


def has_model(
    cinstance: CInstance,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain | None = None,
    engine: EngineConfig | str | None = None,
    workers: int | None = None,
    checker: "ConstraintChecker | None" = None,
) -> bool:
    """Whether ``Mod(T, D_m, V)`` is non-empty (the consistency property).

    By the correctness argument of Proposition 3.3, emptiness over ``Adom``
    coincides with emptiness over all valuations.  Engines whose
    capabilities declare ``symmetry_breaking`` are asked to apply fresh-value
    symmetry reduction here, which preserves (non-)emptiness but not the
    world multiset — existence is all this function reports.  Engines with
    ``supports_cancellation`` abandon in-flight work as soon as an answer is
    known (the parallel engine races its shards and cancels the losers).
    """
    return _make_search(
        cinstance, master, constraints, adom, engine, workers,
        existence=True, checker=checker,
    ).has_world()


def search_template(
    cinstance: CInstance,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain,
    engine: EngineConfig | str | None = None,
    workers: int | None = None,
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
    That is *not* the ``Mod_Adom`` multiset — only existence probes whose
    acceptance predicate is invariant under fresh-value permutation (e.g.
    the strict-extension filter of
    :func:`repro.completeness.extensions.has_partially_closed_extension`)
    may use it.  Engines without the capability ignore the flag, which is
    sound: they enumerate a superset of the representatives.
    """
    spec, workers, options = _engine_plan(engine, workers)
    return SearchTemplate(
        spec,
        cinstance,
        master,
        constraints,
        adom,
        workers=workers,
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
    workers: int | None = None,
    checker: "ConstraintChecker | None" = None,
) -> int:
    """The number of distinct worlds in ``Mod_Adom(T, D_m, V)``.

    Engines whose capabilities declare ``counts_natively`` count without
    materialising the worlds through :func:`models` — the SAT engine
    multiplies the sub-world counts of its clause-graph components, the
    parallel engine merges per-shard world-key sets — which is both faster
    and lighter on memory for wide instances.
    """
    spec, resolved_workers, _options = _engine_plan(engine, workers)
    search = _make_search(
        cinstance, master, constraints, adom, engine, resolved_workers,
        checker=checker,
    )
    if spec.capabilities.counts_natively:
        return search.count_worlds()
    return sum(1 for _ in search.worlds(deduplicate=True))
