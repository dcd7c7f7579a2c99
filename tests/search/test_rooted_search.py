"""Runs rooted at a ground instance against fresh engines over ``T ∪ I``.

The deciders build one search template per call for the rows they adjoin
(:func:`repro.ctables.possible_worlds.search_template`) and root it at
every world through ``over(I)``.  That run must be the search a fresh
engine over ``T ∪ I`` makes: the propagating engine, which declares the
``rooted_runs`` capability and shares its compiled plan between runs, must
give the identical ``(valuation, world)`` sequence and the same ``nodes``,
``pruned`` and ``worlds``; the engines without the flag are built afresh
over ``T ∪ I`` per run and give the same sequence (naive, a drop-in) or
the same set (SAT).

The corpus and the hypothesis suite cover ground rows, conditions, repeated
variables, a row that never grounds and an instance that is not partially
closed.  Two more checks pin what sharing must not do: a run keeps the
fresh-value ranks of ``T`` alone, and a template outlives its decider call.
"""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.completeness.models import CompletenessModel
from repro.constraints.containment import cc, denial_cc, projection
from repro.ctables.adom import build_active_domain
from repro.ctables.cinstance import CInstance, cinstance
from repro.ctables.conditions import condition, var_eq, var_neq
from repro.ctables.ctable import CTableRow
from repro.ctables.possible_worlds import default_active_domain, search_template
from repro.queries.atoms import atom, neq
from repro.queries.cq import boolean_cq, cq
from repro.queries.terms import var
from repro.relational.instance import instance
from repro.relational.master import MasterData
from repro.relational.schema import database_schema, schema
from repro.search.engine import WorldSearch
from repro.search.registry import (
    EngineCapabilities,
    EngineConfig,
    SearchTemplate,
    collect_searches,
    register_engine,
    unregister_engine,
)
from repro.workloads.patients import build_patient_scenario

x, y, z, w = var("x"), var("y"), var("z"), var("w")

DB_SCHEMA = database_schema(schema("R", "A", "B", "C"), schema("S", "A"))
MASTER = MasterData(
    database_schema(schema("Rm", "A", "B"), schema("Sm", "A")),
    {"Rm": [(0, 0), (1, 1), (1, 2), (2, 0)], "Sm": [(0,), (2,)]},
)

FD = denial_cc(
    boolean_cq("fd", atoms=[atom("R", x, y, z), atom("R", x, w, var("u"))],
               comparisons=[neq(y, w)]),
    name="fd:A→B",
)
BOUND = cc(cq("ab", [x, y], atoms=[atom("R", x, y, z)]), projection("Rm", "A", "B"),
           name="ab⊆rm")
JOIN = cc(cq("join", [y], atoms=[atom("R", x, y, z), atom("S", y)]),
          projection("Sm", "A"), name="r⋈s⊆sm")
S_BOUND = cc(cq("s", [x], atoms=[atom("S", x)]), projection("Sm", "A"), name="s⊆sm")
POOL = [FD, BOUND, JOIN, S_BOUND]

#: A row whose condition no valuation satisfies: it is never pushed.
NEVER = CTableRow((x, y, z), condition(var_eq(x, 0), var_eq(x, 1)))

DROP_IN = "rooted-test-drop-in"


@pytest.fixture
def drop_in():
    """A WorldSearch-backed engine registered without ``rooted_runs``;
    yields the engines its factory built."""
    built = []

    def factory(cinstance, master, constraints, adom, *, checker,
                break_symmetry, **options):
        search = WorldSearch(cinstance, master, constraints, adom,
                             break_symmetry=break_symmetry, checker=checker, **options)
        built.append(search)
        return search

    register_engine(DROP_IN, factory, EngineCapabilities(symmetry_breaking=True))
    try:
        yield built
    finally:
        unregister_engine(DROP_IN)


def union(T, I):
    """``T ∪ I`` as one c-instance: I's tuples first, then T's rows."""
    result = CInstance.from_ground_instance(I)
    for name, _index, row in T.rows():
        result = result.with_row(name, row.terms, row.condition)
    return result


def rooted_and_fresh(engine, T, I, constraints, break_symmetry=False):
    """The run of a template over ``T`` rooted at ``I``, and a fresh engine
    over ``T ∪ I``, both drained; returns their pairs and engine objects."""
    adom = default_active_domain(union(T, I), MASTER, constraints)
    config = EngineConfig.coerce(engine)
    spec = config.spec()
    template = search_template(T, MASTER, constraints, adom, engine=config,
                               break_symmetry=break_symmetry)
    runs = []
    with collect_searches(runs):
        rooted = template.over(I)
    assert runs == [rooted]  # one run, one recorded search
    fresh = spec.create(
        union(T, I), MASTER, constraints, adom,
        break_symmetry=break_symmetry and spec.capabilities.symmetry_breaking,
        options=config.options,
    )
    return list(rooted.search()), list(fresh.search()), rooted, fresh


def assert_rooted_equals_fresh(engine, T, I, constraints, break_symmetry=False):
    pairs, expected, rooted, fresh = rooted_and_fresh(
        engine, T, I, constraints, break_symmetry
    )
    if EngineConfig.coerce(engine).name == "sat":
        assert {(frozenset(v.items()), world) for v, world in pairs} == {
            (frozenset(v.items()), world) for v, world in expected
        }
    else:
        assert pairs == expected
    if isinstance(rooted, WorldSearch):
        assert (rooted.stats.nodes, rooted.stats.pruned, rooted.stats.worlds) == (
            fresh.stats.nodes, fresh.stats.pruned, fresh.stats.worlds
        )
    return pairs


ENGINES = ["propagating", "naive", "sat", DROP_IN]

CORPUS = {
    "tableau-row": (
        {"R": [(x, y, z)]},
        {"R": [(0, 0, 5), (1, 1, 5)], "S": [(0,)]},
        [FD, BOUND],
    ),
    "ground-row-and-condition": (
        {"R": [(2, 0, 7), CTableRow((x, y, z), condition(var_neq(x, 2)))], "S": [(w,)]},
        {"R": [(1, 2, 0)], "S": [(2,)]},
        [FD, JOIN, S_BOUND],
    ),
    "repeated-variable": ({"R": [(x, x, z)], "S": [(x,)]}, {"S": [(0,)]}, [BOUND, S_BOUND]),
    "never-grounds": ({"R": [NEVER, (x, 1, y)]}, {"R": [(1, 1, 1)]}, [FD, BOUND]),
    "instance-not-closed": ({"R": [(x, y, z)]}, {"R": [(7, 7, 7)]}, [BOUND]),
    "empty-instance": ({"R": [(x, y, 0)], "S": [(y,)]}, {}, [JOIN, BOUND]),
}


class TestCorpus:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    @pytest.mark.parametrize("engine", ENGINES)
    def test_rooted_run_equals_a_fresh_engine(self, drop_in, engine, name):
        rows, tuples, constraints = CORPUS[name]
        assert_rooted_equals_fresh(
            engine, cinstance(DB_SCHEMA, **rows), instance(DB_SCHEMA, **tuples), constraints
        )

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_break_symmetry(self, name):
        rows, tuples, constraints = CORPUS[name]
        assert_rooted_equals_fresh(
            "propagating", cinstance(DB_SCHEMA, **rows), instance(DB_SCHEMA, **tuples),
            constraints, break_symmetry=True,
        )

    def test_runs_share_the_plan_and_keep_their_own_stats(self):
        T = cinstance(DB_SCHEMA, R=[(x, y, z)])
        adom = default_active_domain(T, MASTER, [FD, BOUND])
        template = WorldSearch(T, MASTER, [FD, BOUND], adom)
        first = template.over(instance(DB_SCHEMA, R=[(0, 0, 5)]))
        second = template.over(instance(DB_SCHEMA, R=[(1, 1, 5)]))
        assert first._completions is second._completions is template._completions
        assert first._early is template._early
        drained = list(first.search())
        assert drained and first.stats.worlds == len(drained)
        assert second.stats.nodes == 0 and template.stats.nodes == 0

    def test_drop_in_without_the_flag_is_built_per_run(self, drop_in):
        T = cinstance(DB_SCHEMA, R=[(x, y, z)])
        adom = default_active_domain(T, MASTER, [BOUND])
        template = search_template(T, MASTER, [BOUND], adom, engine=DROP_IN)
        assert drop_in == []  # nothing is built until a run is asked for
        for tuples in ({"R": [(0, 0, 1)]}, {"S": [(2,)]}):
            list(template.over(instance(DB_SCHEMA, **tuples)).search())
        assert len(drop_in) == 2


def test_a_run_ranks_the_fresh_values_without_those_the_instance_mentions():
    # A world mentions the fresh value its variable took.  Over T ∪ I that
    # value is distinguished, so the next fresh value becomes rank 0; a run
    # that kept the ranks of T alone would skip it.
    T = cinstance(DB_SCHEMA, S=[(x,)])
    adom = build_active_domain(T, MASTER, extra_variables=[y, z])
    taken = adom.fresh_values[0]
    I = instance(DB_SCHEMA, S=[(taken,)])
    template = WorldSearch(T, MASTER, [], adom, break_symmetry=True)
    fresh = WorldSearch(union(T, I), MASTER, [], adom, break_symmetry=True)
    expected = list(fresh.search())
    assert list(template.over(I).search()) == expected
    assert {v[x] for v, _world in expected} >= {taken, adom.fresh_values[1]}

    stale = template.over(I)
    stale._fresh_rank = template._fresh_rank  # the ranks of T alone
    assert list(stale.search()) != expected


def test_no_template_survives_its_decider_call(monkeypatch):
    scenario = build_patient_scenario()
    queries = scenario.queries()
    built = []
    init = SearchTemplate.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(weakref.ref(self))

    monkeypatch.setattr(SearchTemplate, "__init__", spy)
    database = Database(scenario.figure1, scenario.master, scenario.constraints)
    strong = database.complete(queries["Q1"], CompletenessModel.STRONG)
    # One template for the one tableau, against 290 worlds.
    assert len(built) == 1 and strong.stats.searches == 291
    decisions = [
        database.complete(queries["Q1"], CompletenessModel.WEAK),
        database.complete(queries["Q3"], CompletenessModel.VIABLE),
        database.minp(queries["Q4"]),
    ]
    assert decisions and len(built) > 1
    gc.collect()
    assert [ref() for ref in built] == [None] * len(built)


#: Terms a random row draws from: constants of the master data and one
#: outside it, and few enough variables that rows share and repeat them.
TERMS = st.sampled_from([0, 1, 2, 7, x, y, z])
VALUES = st.sampled_from([0, 1, 2, 7])
CONDITIONS = st.one_of(
    st.none(),
    st.tuples(st.sampled_from([x, y, z]), st.booleans(), st.sampled_from([0, 1, 2])),
)


def _row(terms, cond):
    if cond is None:
        return tuple(terms)
    variable, equal, value = cond
    return CTableRow(tuple(terms), condition((var_eq if equal else var_neq)(variable, value)))


r_rows = st.builds(_row, st.tuples(TERMS, TERMS, TERMS), CONDITIONS)
s_rows = st.builds(_row, st.tuples(TERMS), CONDITIONS)


@st.composite
def rooted_cases(draw):
    r = draw(st.lists(r_rows, min_size=1, max_size=3))
    r += draw(st.lists(st.tuples(VALUES, VALUES, VALUES), max_size=1))  # ground rows
    if draw(st.booleans()):
        r.append(NEVER)
    T = cinstance(DB_SCHEMA, R=r, S=draw(st.lists(s_rows, max_size=2)))
    I = instance(
        DB_SCHEMA,
        R=draw(st.lists(st.tuples(VALUES, VALUES, VALUES), max_size=3)),
        S=draw(st.lists(st.tuples(VALUES), max_size=2)),
    )
    constraints = draw(st.lists(st.sampled_from(POOL), unique=True, min_size=1, max_size=3))
    return T, I, constraints


class TestRandomInstances:
    @settings(max_examples=60, deadline=None)
    @given(case=rooted_cases(), break_symmetry=st.booleans())
    def test_propagating_and_naive(self, case, break_symmetry):
        T, I, constraints = case
        for engine in ("propagating", "naive"):
            assert_rooted_equals_fresh(engine, T, I, constraints, break_symmetry)

    @settings(max_examples=25, deadline=None)
    @given(case=rooted_cases())
    def test_sat(self, case):
        T, I, constraints = case
        assert_rooted_equals_fresh("sat", T, I, constraints)
