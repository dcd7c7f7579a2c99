"""Reusable differential-testing harness for the world-search engines.

Any instance can be run through every engine and compared against the naive
reference enumeration in one call:

* :func:`assert_engine_parity` — identical world sets, world multisets,
  ``(valuation, world)`` pair sets, model counts and existence verdicts from
  every engine, and one meaning for ``stats.worlds`` in all of them (the
  reference included): the number of ``(valuation, world)`` pairs, after a
  drained ``search()`` and after ``count_worlds()``;
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
  finite domains, saturated bounds, joins and comparison-laden tableaux.

New engines join the corpus by being added to :data:`ALL_ENGINES`; every
parity test in ``tests/search`` routes through this module, so a fourth
engine lands with four-way parity guaranteed by construction.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.completeness.consistency import extensibility_active_domain
from repro.completeness.extensions import (
    bounded_extensions,
    has_partially_closed_extension,
    single_tuple_extensions,
    tableau_extensions,
)
from repro.constraints.containment import (
    cc,
    denial_cc,
    projection,
    relation_containment_cc,
    satisfies_all,
)
from repro.ctables.cinstance import CInstance
from repro.ctables.possible_worlds import (
    default_active_domain,
    has_model,
    model_count,
    models,
    models_with_valuations,
    search_template,
)
from repro.queries.atoms import atom, neq
from repro.queries.cq import cq
from repro.queries.terms import var
from repro.relational.domains import BOOLEAN_DOMAIN
from repro.relational.instance import GroundInstance, instance
from repro.relational.master import MasterData
from repro.relational.schema import RelationSchema, database_schema, schema
from repro.api import Database
from repro.search.registry import EngineConfig

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
    #: ``count_worlds()``, each on a fresh engine.
    worlds_stat: tuple[int, int]


def observe_worlds_stat(cinst, master, constraints, adom, engine) -> tuple[int, int]:
    """``stats.worlds`` of one engine after ``search()`` and ``count_worlds()``."""
    spec = EngineConfig.coerce(engine).spec()
    drained = spec.create(cinst, master, constraints, adom)
    for _pair in drained.search():
        pass
    counted = spec.create(cinst, master, constraints, adom)
    counted.count_worlds()
    return drained.stats.worlds, counted.stats.worlds


def observe_engine(cinst, master, constraints, adom, engine) -> EngineObservation:
    """Run one instance through one engine, capturing every public surface."""
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
        worlds_stat=observe_worlds_stat(cinst, master, constraints, adom, engine),
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

    ``stats.worlds`` is checked on the reference and on every engine: it
    counts the ``(valuation, world)`` pairs, so a stat that counted distinct
    worlds after ``count_worlds()`` would fail here on any instance where two
    valuations ground the same world.

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
    for engine, observed in observations.items():
        valuations = len(observed.pairs)
        assert observed.worlds_stat == (valuations, valuations), (
            "stats.worlds", engine, observed.worlds_stat, valuations,
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
