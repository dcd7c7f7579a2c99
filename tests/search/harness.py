"""Reusable differential-testing harness for the world-search engines.

Any instance can be run through every engine and compared against the naive
reference enumeration in one call:

* :func:`assert_engine_parity` — identical world sets, world multisets,
  ``(valuation, world)`` pair sets, model counts and existence verdicts from
  every engine, and one stats record with one meaning in all of them (the
  reference included): ``stats`` is a
  :class:`~repro.search.engine.SearchStats`, ``stats.worlds`` is the number
  of ``(valuation, world)`` pairs after a drained ``search()`` and after
  ``count_worlds()``, and ``stats.worlds - stats.duplicate_worlds`` the
  number of distinct worlds after a drained ``worlds()`` and after
  ``count_worlds()``.  For ``"sat"`` a fresh live session
  (:class:`~repro.search.sat_engine.IncrementalSATSession`) counts too, and
  its value and stats must meet the same bars;
* :func:`assert_decider_parity` — identical verdicts from an
  ``engine``-accepting decision procedure across engines;
* :func:`assert_rooted_parity` — every engine's run of a search template
  over the variable rows, rooted at the ground rows, equals that engine's
  search over the whole instance;
* :func:`assert_extension_engine_parity` — the engine-routed extension
  searches of :mod:`repro.completeness.extensions` (single-tuple, tableau,
  bounded) produce identical results from every engine *and* agree with
  independent brute-force oracles built straight from ``itertools.product``
  over the Adom pools plus :func:`satisfies_all` on complete instances —
  the :data:`EXTENSION_FIXTURES` family feeds it ground instances covering
  finite domains, saturated bounds, joins and comparison-laden tableaux;
* :func:`assert_representative_parity` — the strong, viable and MINP
  deciders, which test one world per renaming of the fresh Adom values on
  the propagating engine, give the verdict and witness of the
  :data:`FULL_ENUMERATION` drop-in that tests every world, on the random
  c-instances and queries of :func:`random_decider_case`;
* :func:`assert_certain_parity` — on the same cases, the weak-completeness
  report, both certain answers and MINPʷ, which intersect the renaming
  closure of one world's answer per class on the propagating engine,
  equal those of the full enumeration, of naive and of SAT.

New engines join the corpus by being added to :data:`ALL_ENGINES`; every
parity test in ``tests/search`` routes through this module, so a fourth
engine lands with four-way parity guaranteed by construction.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.completeness.certain import (
    certain_answer_over_extensions,
    certain_answer_over_models,
)
from repro.completeness.consistency import extensibility_active_domain
from repro.completeness.extensions import (
    bounded_extensions,
    has_partially_closed_extension,
    single_tuple_extensions,
    tableau_extensions,
)
from repro.completeness.minp import (
    is_minimal_strongly_complete,
    is_minimal_viably_complete,
    is_minimal_weakly_complete,
)
from repro.completeness.strong import is_strongly_complete
from repro.completeness.viable import is_viably_complete
from repro.completeness.weak import weak_completeness_report
from repro.constraints.containment import (
    cc,
    denial_cc,
    projection,
    relation_containment_cc,
    satisfies_all,
)
from repro.ctables.cinstance import CInstance, cinstance
from repro.ctables.conditions import condition, var_eq, var_neq
from repro.ctables.ctable import CTableRow
from repro.ctables.possible_worlds import (
    default_active_domain,
    has_model,
    model_count,
    models,
    models_with_valuations,
    search_template,
)
from repro.exceptions import BoundExceededError, InconsistentCInstanceError
from repro.queries.atoms import atom, neq
from repro.queries.cq import boolean_cq, cq
from repro.queries.terms import var
from repro.queries.ucq import ucq
from repro.relational.domains import BOOLEAN_DOMAIN
from repro.relational.instance import GroundInstance, instance
from repro.relational.master import MasterData
from repro.relational.schema import RelationSchema, database_schema, schema
from repro.api import Database
from repro.search.engine import SearchStats
from repro.search.sat_engine import IncrementalSATSession
from repro.search.registry import (
    EngineConfig,
    collect_searches,
    get_engine,
    register_engine,
    unregister_engine,
)

#: Every world-search engine the repository ships, reference first.
ALL_ENGINES = ("naive", "propagating", "sat")

#: The engine the others are compared against.
REFERENCE_ENGINE = "naive"

#: The engines checked against the reference by default.
CHECKED_ENGINES = tuple(e for e in ALL_ENGINES if e != REFERENCE_ENGINE)


@dataclass
class EngineObservation:
    """Everything one engine reports about one instance."""

    engine: str
    worlds: frozenset
    world_multiset: Counter
    pairs: frozenset
    count: int
    has: bool
    #: ``stats.worlds`` after a drained ``search()`` and after
    #: ``count_worlds()``, each on a fresh engine (for ``"sat"``, then
    #: after a fresh live session's count).
    worlds_stat: tuple[int, ...]
    #: ``stats`` after a drained ``worlds()`` and after ``count_worlds()``,
    #: each on a fresh engine (for ``"sat"``, then after a fresh live
    #: session's count).
    distinct_stats: tuple[object, ...]
    #: The count of a fresh live SAT session (``"sat"`` only).
    session_count: int | None = None


def observe_stats(
    cinst, master, constraints, adom, engine
) -> tuple[tuple[int, ...], tuple[object, ...], int | None]:
    """``stats.worlds`` of one engine after ``search()`` and ``count_worlds()``,
    and its ``stats`` after ``worlds()`` and ``count_worlds()``.

    For ``"sat"`` the one-shot engine counts by components, so a fresh
    :class:`~repro.search.sat_engine.IncrementalSATSession`, the live
    session of a ``Database`` facade, counts too: its ``stats`` join both
    tuples, and its count is returned last (``None`` for other engines).
    """
    spec = EngineConfig.coerce(engine).spec()
    drained = spec.create(cinst, master, constraints, adom)
    for _pair in drained.search():
        pass
    listed = spec.create(cinst, master, constraints, adom)
    for _world in listed.worlds():
        pass
    counted = spec.create(cinst, master, constraints, adom)
    counted.count_worlds()
    worlds_stat = (drained.stats.worlds, counted.stats.worlds)
    distinct_stats = (listed.stats, counted.stats)
    if engine != "sat":
        return worlds_stat, distinct_stats, None
    session = IncrementalSATSession(cinst, master, constraints, adom)
    session_count = session.count_worlds()
    return (
        worlds_stat + (session.stats.worlds,),
        distinct_stats + (session.stats,),
        session_count,
    )


def observe_engine(cinst, master, constraints, adom, engine) -> EngineObservation:
    """Run one instance through one engine, capturing every public surface."""
    worlds_stat, distinct_stats, session_count = observe_stats(
        cinst, master, constraints, adom, engine
    )
    return EngineObservation(
        engine=engine,
        worlds=frozenset(models(cinst, master, constraints, adom, engine=engine)),
        world_multiset=Counter(
            models(cinst, master, constraints, adom, deduplicate=False, engine=engine)
        ),
        pairs=frozenset(
            (frozenset(valuation.items()), world)
            for valuation, world in models_with_valuations(
                cinst, master, constraints, adom, engine=engine
            )
        ),
        count=model_count(cinst, master, constraints, adom, engine=engine),
        has=has_model(cinst, master, constraints, adom, engine=engine),
        worlds_stat=worlds_stat,
        distinct_stats=distinct_stats,
        session_count=session_count,
    )


def assert_engine_parity(
    cinst,
    master,
    constraints,
    query=None,
    engines: Sequence[str] = CHECKED_ENGINES,
    adom=None,
) -> dict[str, EngineObservation]:
    """All engines agree with the reference on every observable surface.

    ``stats`` is checked on the reference and on every engine.
    ``stats.worlds`` counts the ``(valuation, world)`` pairs, so a stat that
    counted distinct worlds after ``count_worlds()`` would fail here on any
    instance where two valuations ground the same world; ``stats`` is a
    :class:`~repro.search.engine.SearchStats` whose ``worlds -
    duplicate_worlds`` is the number of distinct worlds after ``worlds()``
    and after ``count_worlds()``.

    Returns the per-engine observations so callers can make extra assertions
    (e.g. on expected world counts) without re-running the engines.
    """
    if adom is None:
        adom = default_active_domain(cinst, master, constraints, query)
    reference = observe_engine(cinst, master, constraints, adom, REFERENCE_ENGINE)
    observations = {REFERENCE_ENGINE: reference}
    for engine in engines:
        observed = observe_engine(cinst, master, constraints, adom, engine)
        observations[engine] = observed
        assert observed.worlds == reference.worlds, engine
        assert observed.world_multiset == reference.world_multiset, engine
        assert observed.pairs == reference.pairs, engine
        assert observed.count == reference.count, engine
        assert observed.has == reference.has, engine
        if observed.session_count is not None:
            assert observed.session_count == reference.count, (engine, "live session")
    for engine, observed in observations.items():
        valuations = len(observed.pairs)
        assert all(stat == valuations for stat in observed.worlds_stat), (
            "stats.worlds", engine, observed.worlds_stat, valuations,
        )
        for stats in observed.distinct_stats:
            assert isinstance(stats, SearchStats), ("stats type", engine, type(stats))
            assert stats.worlds - stats.duplicate_worlds == len(observed.worlds), (
                "stats.worlds - stats.duplicate_worlds", engine, stats,
                len(observed.worlds),
            )
    return observations


def assert_decider_parity(
    run: Callable[[str], object], engines: Sequence[str] = CHECKED_ENGINES
) -> object:
    """An ``engine``-accepting decision procedure returns one verdict for all.

    ``run`` is called once per engine (reference first) and every verdict is
    compared against the reference's; the reference verdict is returned.
    """
    reference = run(REFERENCE_ENGINE)
    for engine in engines:
        assert run(engine) == reference, engine
    return reference


def split_ground_rows(cinst) -> tuple[CInstance, GroundInstance]:
    """``(T, I)``: the rows with a variable or a condition, and the rest."""
    rows: dict[str, list] = {name: [] for name in cinst.schema.relation_names}
    tuples: dict[str, list] = {name: [] for name in cinst.schema.relation_names}
    for name, _index, row in cinst.rows():
        if row.is_ground():
            tuples[name].append(row.terms)
        else:
            rows[name].append(row)
    return CInstance(cinst.schema, rows), GroundInstance(cinst.schema, tuples)


def assert_rooted_parity(
    cinst, master, constraints, engines: Sequence[str] = ALL_ENGINES, adom=None
) -> None:
    """A run rooted at the ground rows equals the search of the whole instance.

    The ground rows become the instance ``I`` a template over the other rows
    is rooted at (:func:`repro.ctables.possible_worlds.search_template`);
    every engine must then enumerate what it enumerates over the whole
    instance: the same ``(valuation, world)`` sequence, or the same set on
    SAT, whose order follows its encoding.
    """
    if adom is None:
        adom = default_active_domain(cinst, master, constraints)
    T, I = split_ground_rows(cinst)
    for engine in engines:
        rooted = list(search_template(T, master, constraints, adom, engine=engine)
                      .over(I).search())
        whole = list(models_with_valuations(cinst, master, constraints, adom, engine=engine))
        if engine == "sat":
            assert {(frozenset(v.items()), world) for v, world in rooted} == {
                (frozenset(v.items()), world) for v, world in whole
            }, engine
        else:
            assert rooted == whole, engine


# ---------------------------------------------------------------------------
# extension-search parity (engine-routed completeness/extensions.py)
# ---------------------------------------------------------------------------
def oracle_candidate_rows(relation, adom):
    """The raw Adom candidate universe of a relation, straight from product."""
    pools = [adom.pool_for(attribute.domain) for attribute in relation.attributes]
    return [tuple(combo) for combo in itertools.product(*pools)]


def oracle_single_tuple_extensions(base, master, constraints, adom):
    """All partially closed ``I ∪ {t}`` with ``t`` an Adom tuple not in ``I``."""
    extensions = set()
    for name in base.schema.relation_names:
        for row in oracle_candidate_rows(base.schema[name], adom):
            if row in base.relation(name).rows:
                continue
            extended = base.with_tuple(name, row)
            if satisfies_all(extended, master, constraints):
                extensions.add(extended)
    return extensions


def oracle_tableau_extensions(base, query, master, constraints, adom):
    """All ``(ν, I ∪ ν(T_Q))`` with comparisons satisfied and ``V`` preserved."""
    from repro.queries.tableau import freeze

    variables = sorted(query.variables(), key=lambda v: v.name)
    pools = []
    for variable in variables:
        pool = adom.ordered()
        for a in query.atoms:
            if a.relation not in base.schema:
                continue
            rel_schema = base.schema[a.relation]
            for attribute, term in zip(rel_schema.attributes, a.terms):
                if term == variable and attribute.domain.is_finite:
                    pool = [v for v in pool if v in adom.pool_for(attribute.domain)]
        pools.append(pool)
    results = set()
    for combo in itertools.product(*pools):
        valuation = dict(zip(variables, combo))
        if not all(c.evaluate(valuation) for c in query.comparisons):
            continue
        extended = base.with_tuples(freeze(query.atoms, valuation))
        if satisfies_all(extended, master, constraints):
            results.add((frozenset(valuation.items()), extended))
    return results


def oracle_bounded_extensions(base, master, constraints, adom, max_new_tuples):
    """All partially closed supersets of ``I`` adding ≤ k Adom tuples."""
    universe = [
        (name, row)
        for name in base.schema.relation_names
        for row in oracle_candidate_rows(base.schema[name], adom)
        if row not in base.relation(name).rows
    ]
    results = set()
    for count in range(1, max_new_tuples + 1):
        for combo in itertools.combinations(universe, count):
            extended = base
            for name, row in combo:
                extended = extended.with_tuple(name, row)
            if extended != base and satisfies_all(extended, master, constraints):
                results.add(extended)
    return results


@dataclass(frozen=True)
class ExtensionFixture:
    """One extension-search input: a ground instance plus its CC context."""

    label: str
    base: object  # GroundInstance
    master: object  # MasterData
    constraints: tuple
    query: object  # ConjunctiveQuery driving the tableau search
    max_new_tuples: int = 2


def _extension_fixtures() -> list[ExtensionFixture]:
    x, y = var("x"), var("y")
    bool_pair = database_schema(
        RelationSchema("R", [("A", BOOLEAN_DOMAIN), ("B", BOOLEAN_DOMAIN)])
    )
    master_pair = MasterData(
        database_schema(schema("Rm", "A", "B")), {"Rm": [(0, 0), (1, 1)]}
    )
    bound = cc(
        cq("bound", [x, y], atoms=[atom("R", x, y)]),
        projection("Rm", "A", "B"),
        name="r⊆rm",
    )
    two_rel = database_schema(schema("P", "A", "B"), schema("S", "A"))
    two_master = MasterData(
        database_schema(schema("Pm", "A", "B"), schema("Sm", "A")),
        {"Pm": [("a", "b"), ("b", "c")], "Sm": [("a",), ("c",)]},
    )
    saturated_master = MasterData(
        database_schema(
            RelationSchema("Rm", [("A", BOOLEAN_DOMAIN), ("B", BOOLEAN_DOMAIN)])
        ),
        {"Rm": [(1, 1)]},
    )
    return [
        ExtensionFixture(
            label="bool-pair-empty",
            base=instance(bool_pair, R=[]),
            master=master_pair,
            constraints=(bound,),
            query=cq("Q", [x, y], atoms=[atom("R", x, y)]),
        ),
        ExtensionFixture(
            label="bool-pair-seeded",
            base=instance(bool_pair, R=[(0, 0)]),
            master=master_pair,
            constraints=(bound,),
            query=cq("Q", [x], atoms=[atom("R", x, y)], comparisons=[neq(x, y)]),
        ),
        ExtensionFixture(
            label="saturated-bound",
            base=instance(bool_pair, R=[(1, 1)]),
            master=saturated_master,
            constraints=(relation_containment_cc("R", bool_pair, "Rm"),),
            query=cq("Q", [x], atoms=[atom("R", x, x)]),
        ),
        ExtensionFixture(
            label="two-relations-joined",
            base=instance(two_rel, P=[("a", "b")], S=[("a",)]),
            master=two_master,
            constraints=(
                cc(
                    cq("p_bound", [x, y], atoms=[atom("P", x, y)]),
                    projection("Pm", "A", "B"),
                    name="p⊆pm",
                ),
                cc(
                    cq("s_bound", [x], atoms=[atom("S", x)]),
                    projection("Sm", "A"),
                    name="s⊆sm",
                ),
                denial_cc(
                    cq("no_join", [x], atoms=[atom("P", x, y), atom("S", y)]),
                    name="p⋈s=∅",
                ),
            ),
            query=cq("Q", [x, y], atoms=[atom("P", x, y), atom("S", x)]),
            max_new_tuples=1,
        ),
    ]


#: The extension-search fixture family every engine is run over.
EXTENSION_FIXTURES = _extension_fixtures()


@dataclass
class ExtensionObservation:
    """Everything one engine reports about one extension-search fixture."""

    engine: str
    single: frozenset
    tableau: frozenset
    bounded: frozenset
    has_extension: bool


def observe_extensions(fixture: ExtensionFixture, engine: str) -> ExtensionObservation:
    """Run one fixture's three extension searches through one engine."""
    adom = extensibility_active_domain(
        fixture.base, fixture.master, list(fixture.constraints)
    )
    return ExtensionObservation(
        engine=engine,
        single=frozenset(
            single_tuple_extensions(
                fixture.base, fixture.master, fixture.constraints, adom,
                engine=engine,
            )
        ),
        tableau=frozenset(
            (frozenset(valuation.items()), extended)
            for valuation, extended in tableau_extensions(
                fixture.base, fixture.query, fixture.master,
                fixture.constraints, adom, engine=engine,
            )
        ),
        bounded=frozenset(
            bounded_extensions(
                fixture.base, fixture.master, fixture.constraints, adom,
                max_new_tuples=fixture.max_new_tuples,
                engine=engine,
            )
        ),
        has_extension=has_partially_closed_extension(
            fixture.base, fixture.master, fixture.constraints, adom,
            engine=engine,
        ),
    )


def assert_extension_engine_parity(
    fixture: ExtensionFixture,
    engines: Sequence[str] = CHECKED_ENGINES,
) -> dict[str, ExtensionObservation]:
    """Every engine agrees with the naive reference *and* the oracles."""
    adom = extensibility_active_domain(
        fixture.base, fixture.master, list(fixture.constraints)
    )
    expected_single = oracle_single_tuple_extensions(
        fixture.base, fixture.master, fixture.constraints, adom
    )
    expected_tableau = oracle_tableau_extensions(
        fixture.base, fixture.query, fixture.master, fixture.constraints, adom
    )
    expected_bounded = oracle_bounded_extensions(
        fixture.base, fixture.master, fixture.constraints, adom,
        fixture.max_new_tuples,
    )
    reference = observe_extensions(fixture, REFERENCE_ENGINE)
    assert reference.single == expected_single, fixture.label
    assert reference.tableau == expected_tableau, fixture.label
    assert reference.bounded == expected_bounded, fixture.label
    assert reference.has_extension == bool(expected_single), fixture.label
    observations = {REFERENCE_ENGINE: reference}
    for engine in engines:
        observed = observe_extensions(fixture, engine)
        observations[engine] = observed
        assert observed.single == reference.single, (fixture.label, engine)
        assert observed.tableau == reference.tableau, (fixture.label, engine)
        assert observed.bounded == reference.bounded, (fixture.label, engine)
        assert observed.has_extension == reference.has_extension, (
            fixture.label,
            engine,
        )
    return observations


# ---------------------------------------------------------------------------
# update-stream parity (incremental Database.update vs rebuild oracle)
# ---------------------------------------------------------------------------
def observe_database(db, engine) -> tuple:
    """One facade's observable surface under one engine, canonicalised.

    Mirrors :func:`observe_engine` at the :class:`repro.api.Database` level:
    world set, ``(valuation, world)`` pair set, model count and consistency
    verdict.  Returned as a plain tuple so whole observations compare with
    ``==`` across engines and across facades.
    """
    worlds = frozenset(db.worlds(engine=engine))
    pairs = frozenset(
        (frozenset(valuation.items()), world)
        for valuation, world in db.valuations(engine=engine)
    )
    count = db.count(engine=engine).value
    has = bool(db.is_consistent(engine=engine, witness=False))
    return (worlds, pairs, count, has)


def assert_update_stream_parity(
    cinst,
    master,
    constraints,
    script,
    engines: Sequence[str] = CHECKED_ENGINES,
):
    """One incremental facade tracks a rebuild oracle across an update script.

    A single :class:`repro.api.Database` (with the incremental-capable SAT
    engine as its default) applies every :class:`UpdateStep` of ``script``
    via :meth:`~repro.api.Database.update`.  After *each* step, a fresh
    facade is rebuilt from scratch over the updated c-instance and both are
    observed through the naive reference and every checked engine: the
    incremental facade must be indistinguishable from the rebuild on world
    sets, ``(valuation, world)`` pairs, model counts and consistency — i.e.
    the mutated cached state (checker sessions, live SAT solver, decision
    cache) never leaks a stale answer.  The live SAT session also counts
    twice per step, once through the facade and once directly, bypassing
    the decision cache: its enumeration solver outlives every count, so a
    count that left state behind would show up in the second.

    Returns the incremental facade so callers can assert on its final state.
    """
    db = Database(cinst, master, constraints, engine="sat")
    for index, step in enumerate(script):
        if step.kind == "add":
            db.update(add_rows={step.relation: [step.row]})
        else:
            db.update(drop_rows={step.relation: [step.row]})
        oracle = Database(db.cinstance, master, constraints, engine="sat")
        reference = observe_database(oracle, REFERENCE_ENGINE)
        counts = (db.count().value, db._sat_session_for().count_worlds())
        assert counts == (reference[2], reference[2]), (index, step)
        for engine in engines:
            incremental = observe_database(db, engine)
            assert incremental == reference, (index, step, engine)
            rebuilt = observe_database(oracle, engine)
            assert rebuilt == reference, (index, step, engine)
    return db


# ---------------------------------------------------------------------------
# one world per renaming: the exact deciders against full enumeration
# ---------------------------------------------------------------------------
#: The propagating engine behind a factory that passes
#: ``break_symmetry=False``: the strong, viable and MINP deciders, the weak
#: report and the certain answers see every world on it.
FULL_ENUMERATION = "propagating-full-enumeration"

#: The four deciders that test one world per renaming class.
REPRESENTATIVE_DECIDERS = {
    "strong": is_strongly_complete,
    "viable": is_viably_complete,
    "minp-strong": is_minimal_strongly_complete,
    "minp-viable": is_minimal_viably_complete,
}

DECIDER_SCHEMA = database_schema(schema("R", "A", "B"), schema("S", "A"))
DECIDER_MASTER = MasterData(
    database_schema(schema("Rm", "A", "B")), {"Rm": [(0, 0), (0, 1), (1, 2)]}
)
#: The variables of every decider case.  The Adom supplies their fresh
#: values in name order (v, v1, v2), and the pools sort them by ``repr``
#: (v1, v2, v): the ranks must follow the pools for the witnesses to agree.
_v, _v1, _v2 = var("v"), var("v1"), var("v2")
#: The optional constraints: R bounded by the master relation, and A → B.
DECIDER_BOUND = cc(
    cq("r", [_v, _v1], atoms=[atom("R", _v, _v1)]), projection("Rm", "A", "B"),
    name="r⊆rm",
)
DECIDER_FD = denial_cc(
    boolean_cq("fd", atoms=[atom("R", _v, _v1), atom("R", _v, _v2)],
               comparisons=[neq(_v1, _v2)]),
    name="fd:A→B",
)


@contextmanager
def full_enumeration_engine() -> Iterator[str]:
    """Register :data:`FULL_ENUMERATION` for the block; yields its name."""
    spec = get_engine("propagating")

    def factory(*args, break_symmetry, **kwargs):
        del break_symmetry  # every world, whatever the caller asks
        return spec.factory(*args, break_symmetry=False, **kwargs)

    register_engine(FULL_ENUMERATION, factory, spec.capabilities, replace=True)
    try:
        yield FULL_ENUMERATION
    finally:
        unregister_engine(FULL_ENUMERATION)


@dataclass(frozen=True)
class DeciderCase:
    """An input of the strong, viable and MINP deciders."""

    cinstance: CInstance
    constraints: tuple
    query: object
    label: str
    master: MasterData = DECIDER_MASTER


def random_decider_case(seed: int, unary: bool = False) -> DeciderCase:
    """A small c-instance over ``R(A, B)`` and ``S(A)`` with a CQ or UCQ.

    Rows draw constants inside and outside the master data and two of the
    three variables, so variables repeat within and across rows, and a row
    may carry a condition; the bound CC and the FD are each present or not.
    The query's variables share their names with those of ``T`` and ``V``,
    which keeps the Adom at three fresh values, and its constants may lie
    outside the master data.  The query is Boolean or unary; ``unary=True``
    makes it unary with the same draws, so its answers can name fresh
    values.
    """
    rng = random.Random(f"deciders:{seed}")
    row_terms = [0, 1, 2, 7, _v, _v2, _v, _v2]

    def row(arity: int) -> CTableRow:
        terms = [rng.choice(row_terms) for _ in range(arity)]
        if rng.random() < 0.6:
            return CTableRow(terms)
        test = var_eq if rng.random() < 0.5 else var_neq
        return CTableRow(terms, condition(test(rng.choice([_v, _v2]), rng.choice([0, 1, 7]))))

    T = cinstance(
        DECIDER_SCHEMA,
        R=[row(2) for _ in range(rng.randint(1, 2))],
        S=[row(1) for _ in range(rng.randint(0, 1))],
    )
    constraints = tuple(c for c in (DECIDER_BOUND, DECIDER_FD) if rng.random() < 0.5)
    query_terms = [0, 1, 7, _v, _v1, _v2, _v, _v1, _v2]
    arity = rng.choice([0, 1]) or int(unary)

    def conjunct(name: str):
        atoms = []
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.6:
                atoms.append(atom("R", rng.choice(query_terms), rng.choice(query_terms)))
            else:
                atoms.append(atom("S", rng.choice(query_terms)))
        variables = sorted({t for a in atoms for t in a.variables()}, key=lambda v: v.name)
        if arity and not variables:
            atoms.append(atom("S", _v))
            variables = [_v]
        return cq(name, [rng.choice(variables)] if arity else [], atoms=atoms)

    if rng.random() < 0.3:
        query = ucq("Q", conjunct("Q1"), conjunct("Q2"))
    else:
        query = conjunct("Q")
    rows = " ".join(f"{name}{row!r}" for name, _index, row in T.rows())
    label = f"T={{{rows}}} V={[c.name for c in constraints]} Q={query!r}"
    return DeciderCase(T, constraints, query, label)


#: The master data of :func:`random_fresh_case`: no constant at all.
FRESH_MASTER = MasterData(database_schema(schema("Rm", "A", "B")), {"Rm": []})
#: Its optional constraints: no R(z, z), the FD A → B, at most one S tuple.
FRESH_CONSTRAINTS = (
    denial_cc(boolean_cq("loop", atoms=[atom("R", _v, _v)]), name="no-loop"),
    DECIDER_FD,
    denial_cc(
        boolean_cq("one-s", atoms=[atom("S", _v), atom("S", _v1)],
                   comparisons=[neq(_v, _v1)]),
        name="|S|≤1",
    ),
)


def random_fresh_case(seed: int) -> DeciderCase:
    """A c-instance whose every world takes only fresh values, with a unary
    CQ or UCQ.

    Neither ``T``, the master data, the constraints nor the query names a
    constant, so the Adom is the fresh values of the variables alone and
    every answer names fresh values: the certain answers hold only what
    every renaming keeps.
    """
    rng = random.Random(f"fresh:{seed}")
    terms = [_v, _v1, _v2, var("w")]
    T = cinstance(
        DECIDER_SCHEMA,
        R=[tuple(rng.choice(terms) for _ in range(2)) for _ in range(rng.randint(1, 2))],
        S=[(rng.choice(terms),) for _ in range(rng.randint(0, 2))],
    )
    constraints = tuple(c for c in FRESH_CONSTRAINTS if rng.random() < 0.5)

    def conjunct(name: str):
        atoms = [
            atom("R", rng.choice(terms), rng.choice(terms))
            if rng.random() < 0.6
            else atom("S", rng.choice(terms))
            for _ in range(rng.randint(1, 2))
        ]
        variables = sorted({t for a in atoms for t in a.variables()}, key=lambda v: v.name)
        return cq(name, [rng.choice(variables)], atoms=atoms)

    query = (
        ucq("Q", conjunct("Q1"), conjunct("Q2")) if rng.random() < 0.3 else conjunct("Q")
    )
    rows = " ".join(f"{name}{row!r}" for name, _index, row in T.rows())
    label = f"T={{{rows}}} V={[c.name for c in constraints]} Q={query!r}"
    return DeciderCase(T, constraints, query, label, FRESH_MASTER)


def decider_outcomes(case: DeciderCase, engine: str, limit: int | None = None) -> dict:
    """``(verdict, witness, searches)`` of each of the four deciders, or
    ``(exception name,)`` where one raised the inconsistency or the bound."""
    outcomes: dict[str, tuple] = {}
    for name, decide in REPRESENTATIVE_DECIDERS.items():
        try:
            decision = decide(
                case.cinstance, case.query, case.master, list(case.constraints),
                limit=limit, engine=engine,
            )
        except (InconsistentCInstanceError, BoundExceededError) as err:
            outcomes[name] = (type(err).__name__,)
        else:
            outcomes[name] = (bool(decision), decision.witness, decision.stats.searches)
    return outcomes


def assert_representative_parity(case: DeciderCase) -> dict:
    """The deciders on propagating against every world, and naive.

    Against :data:`FULL_ENUMERATION` the verdict and the witness must be
    identical, and ``stats.searches`` never higher; the naive engine, which
    tests every world in its own order, must give the same verdict.  An
    inconsistent c-instance must raise on all three.  Returns the
    propagating outcomes and the full enumeration's, by decider.
    """
    with full_enumeration_engine() as full:
        expected = decider_outcomes(case, full)
    reduced = decider_outcomes(case, "propagating")
    naive = decider_outcomes(case, "naive")
    for name, want in expected.items():
        got = reduced[name]
        assert got[:2] == want[:2], (name, case.label)
        assert naive[name][:1] == want[:1], (name, "naive", case.label)
        if len(want) == 3:
            assert got[2] <= want[2], (name, "searches", got[2], want[2], case.label)
    return {name: (reduced[name], expected[name]) for name in expected}


def assert_limited_parity(case: DeciderCase, limit: int) -> dict:
    """Under a ``limit``, every answer of the full enumeration is kept.

    Where :data:`FULL_ENUMERATION` answers, the propagating engine gives the
    same verdict and witness.  Where it raises ``BoundExceededError`` the
    propagating engine may answer instead, because it skips the worlds whose
    tableau scans tripped the bound; it never raises where the full
    enumeration answers.  Returns both outcomes by decider.
    """
    with full_enumeration_engine() as full:
        expected = decider_outcomes(case, full, limit=limit)
    reduced = decider_outcomes(case, "propagating", limit=limit)
    for name, want in expected.items():
        if want != ("BoundExceededError",):
            assert reduced[name][:2] == want[:2], (name, limit, case.label)
    return {name: (reduced[name], expected[name]) for name in expected}


# ---------------------------------------------------------------------------
# one world per renaming: the weak model and the certain answers
# ---------------------------------------------------------------------------
def _weak_report(case: DeciderCase, engine: str, limit: int | None):
    return weak_completeness_report(
        case.cinstance, case.query, case.master, list(case.constraints),
        limit=limit, engine=engine,
    ).details


def _over_models(case: DeciderCase, engine: str, limit: int | None):
    del limit  # the certain answer over the worlds searches no extension
    return certain_answer_over_models(
        case.cinstance, case.query, case.master, list(case.constraints), engine=engine
    )


def _over_extensions(case: DeciderCase, engine: str, limit: int | None):
    return certain_answer_over_extensions(
        case.cinstance, case.query, case.master, list(case.constraints),
        limit=limit, engine=engine,
    )


def _minp_weak(case: DeciderCase, engine: str, limit: int | None):
    decision = is_minimal_weakly_complete(
        case.cinstance, case.query, case.master, list(case.constraints),
        limit=limit, engine=engine,
    )
    return bool(decision), decision.witness


#: The weak-model procedures that intersect answers over one world per
#: renaming class, each closed under the renamings, on the propagating
#: engine.  Each takes a :class:`DeciderCase`, an engine and a ``limit`` and
#: returns what must agree across engines.
CERTAIN_PROCEDURES: dict[str, Callable[[DeciderCase, str, int | None], object]] = {
    "weak": _weak_report,
    "over-models": _over_models,
    "over-extensions": _over_extensions,
    "minp-weak": _minp_weak,
}


def certain_outcomes(case: DeciderCase, engine: str, limit: int | None = None) -> dict:
    """``(answer, searches)`` of each weak-model procedure, or
    ``(exception name,)`` where one raised the inconsistency or the bound.

    ``answer`` is the full :class:`WeakCompletenessReport`, the certain
    answer over the worlds, the :class:`ExtensionCertainAnswer` or the MINPʷ
    verdict and witness; ``searches`` counts the engine objects the call
    created, as ``Decision.stats.searches`` does.
    """
    outcomes: dict[str, tuple] = {}
    for name, procedure in CERTAIN_PROCEDURES.items():
        searches: list = []
        try:
            with collect_searches(searches):
                answer = procedure(case, engine, limit)
        except (InconsistentCInstanceError, BoundExceededError) as err:
            outcomes[name] = (type(err).__name__,)
        else:
            outcomes[name] = (answer, len(searches))
    return outcomes


def assert_certain_parity(case: DeciderCase) -> dict:
    """The weak-model procedures on propagating against every world, naive
    and SAT.

    Against :data:`FULL_ENUMERATION` every answer must be identical, and
    the searches never more; the naive and SAT engines, which intersect
    over every world, must give the same answers.  An inconsistent
    c-instance must raise on all four.  Returns the propagating outcomes
    and the full enumeration's, by procedure.
    """
    with full_enumeration_engine() as full:
        expected = certain_outcomes(case, full)
    reduced = certain_outcomes(case, "propagating")
    others = {engine: certain_outcomes(case, engine) for engine in ("naive", "sat")}
    for name, want in expected.items():
        got = reduced[name]
        assert got[:1] == want[:1], (name, got[:1], want[:1], case.label)
        for engine, outcomes in others.items():
            assert outcomes[name][:1] == want[:1], (name, engine, case.label)
        if len(want) == 2:
            assert got[1] <= want[1], (name, "searches", got[1], want[1], case.label)
    return {name: (reduced[name], expected[name]) for name in expected}


def assert_certain_limited_parity(case: DeciderCase, limit: int) -> dict:
    """Under a ``limit``, every answer of the full enumeration is kept.

    Where :data:`FULL_ENUMERATION` answers, the propagating engine gives the
    same answer and does not raise ``BoundExceededError``: the extension
    budget is spent per world, and each representative is the first world
    of its class in search order, so the reduced sweep meets no world the
    full one has not met before it stops.  Where the full enumeration
    raises, the propagating engine may answer instead.  Returns both
    outcomes by procedure.
    """
    with full_enumeration_engine() as full:
        expected = certain_outcomes(case, full, limit=limit)
    reduced = certain_outcomes(case, "propagating", limit=limit)
    for name, want in expected.items():
        if want != ("BoundExceededError",):
            assert reduced[name][:1] == want[:1], (name, limit, case.label)
    return {name: (reduced[name], expected[name]) for name in expected}
