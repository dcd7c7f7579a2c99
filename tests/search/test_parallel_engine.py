"""The sharded process-parallel engine: planning, fallback, cancellation.

Four-way parity across the shared fixture corpus lives in
``test_engine_parity.py`` (every check there runs ``engine="parallel"``
too, through the public API whose small instances take the serial
fallback).  This module forces the actual process-pool path
(``min_parallel_valuations=0``) and exercises what is specific to it:

* shard planning (first-variable sharding, the two-variable fallback for
  small first pools, serial fallback conditions),
* order-identity of the merged enumeration with the serial engine,
* independence of the results from the ``workers`` count and from the
  shard submission order (hypothesis-driven, random constrained
  c-instances),
* the ``has_world`` cancellation fairness regression: a satisfiable
  instance whose *first* shard is expensive must return promptly because
  another shard finds a model and the cancellation event actually fires,
* the ``stop_check`` hook of the serial engine the cancellation rides on.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings, strategies as st

from harness import assert_engine_parity, assert_workers_independent
from repro.constraints.containment import cc, denial_cc, projection
from repro.ctables.cinstance import CInstance, cinstance
from repro.ctables.ctable import CTable, CTableRow
from repro.ctables.possible_worlds import default_active_domain, has_model, models
from repro.exceptions import SearchCancelledError, SearchError
from repro.queries.atoms import atom, eq, neq
from repro.queries.cq import boolean_cq, cq
from repro.queries.terms import Variable, var
from repro.relational.domains import BOOLEAN_DOMAIN
from repro.relational.master import MasterData, empty_master
from repro.relational.schema import RelationSchema, database_schema, schema
from repro.search.engine import STOP_CHECK_STRIDE, WorldSearch
from repro.search.parallel import (
    ParallelWorldSearch,
    resolve_workers,
    shutdown_pools,
)
from repro.workloads.generator import registry_workload, wide_pool_workload

x, y = var("x"), var("y")

PAIR_SCHEMA = database_schema(schema("R", "A", "B"))
EMPTY_MASTER = empty_master(database_schema(schema("M", "A")))


def forced(cinst, master, constraints, adom=None, **kwargs):
    """A ParallelWorldSearch with the serial fallback disabled."""
    kwargs.setdefault("workers", 2)
    return ParallelWorldSearch(
        cinst, master, constraints, adom, min_parallel_valuations=0, **kwargs
    )


# ---------------------------------------------------------------------------
# shard planning and serial fallback
# ---------------------------------------------------------------------------
class TestShardPlanning:
    def test_wide_first_pool_shards_on_one_variable(self):
        workload = wide_pool_workload(rows=3, values_per_key=2)
        search = forced(workload.cinstance, workload.master, workload.constraints)
        list(search.search())
        assert not search.stats.serial_fallback
        assert len(search.stats.shard_variables) == 1
        # One shard per pool value of the first ordered variable.
        first = search.stats.shard_variables[0]
        assert search.stats.shards == len(search.pools[first])

    def test_small_first_pool_falls_back_to_variable_pair(self):
        # Boolean pools have two values; with two workers that is below the
        # shards-per-worker floor, so the first *two* variables shard jointly.
        bool_schema = database_schema(
            RelationSchema("R", [("A", BOOLEAN_DOMAIN), ("B", BOOLEAN_DOMAIN)])
        )
        T = cinstance(bool_schema, R=[(x, y)])
        search = forced(T, EMPTY_MASTER, [])
        list(search.search())
        assert not search.stats.serial_fallback
        assert len(search.stats.shard_variables) == 2
        assert search.stats.shards == 4  # 2 x 2 Boolean prefixes

    def test_single_variable_instance_cannot_pair(self):
        bool_schema = database_schema(RelationSchema("R", [("A", BOOLEAN_DOMAIN)]))
        T = cinstance(bool_schema, R=[(x,)])
        search = forced(T, EMPTY_MASTER, [])
        list(search.search())
        assert len(search.stats.shard_variables) == 1
        assert search.stats.shards == 2

    def test_workers_one_takes_serial_fallback(self):
        workload = registry_workload(master_size=3, db_rows=3, variable_count=2)
        search = forced(
            workload.cinstance, workload.master, workload.constraints, workers=1
        )
        list(search.search())
        assert search.stats.serial_fallback

    def test_small_search_takes_serial_fallback_by_default(self):
        workload = registry_workload(master_size=3, db_rows=3, variable_count=2)
        search = ParallelWorldSearch(
            workload.cinstance, workload.master, workload.constraints, workers=2
        )
        list(search.search())
        assert search.stats.serial_fallback

    def test_serial_fallback_shares_the_planning_checker(self, monkeypatch):
        # The ordering pass and the serial fallback run on one checker.
        import repro.search.propagation as propagation

        built = []
        compile_plans = propagation.ConstraintChecker.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            compile_plans(self, *args, **kwargs)

        monkeypatch.setattr(propagation.ConstraintChecker, "__init__", counting)
        workload = registry_workload(master_size=3, db_rows=3, variable_count=2)
        search = ParallelWorldSearch(
            workload.cinstance, workload.master, workload.constraints, workers=2
        )
        assert search.has_world()
        assert search.stats.serial_fallback
        assert len(built) == 1

    def test_ground_instance_has_no_shards(self):
        T = cinstance(PAIR_SCHEMA, R=[("c", "d")])
        search = forced(T, EMPTY_MASTER, [])
        worlds = list(search.worlds())
        assert search.stats.serial_fallback  # no variables, nothing to shard
        assert len(worlds) == 1

    def test_resolve_workers_validation(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        with pytest.raises(SearchError):
            resolve_workers(0)

    def test_unknown_shard_order_rejected(self):
        workload = registry_workload(master_size=2, db_rows=2, variable_count=1)
        with pytest.raises(SearchError):
            ParallelWorldSearch(
                workload.cinstance,
                workload.master,
                workload.constraints,
                shard_order="random",
            )


# ---------------------------------------------------------------------------
# forced-parallel parity and order identity
# ---------------------------------------------------------------------------
class TestForcedParallelParity:
    @pytest.mark.parametrize(
        "master_size,db_rows,variable_count",
        [(3, 3, 2), (4, 3, 3)],
    )
    def test_registry_workloads(self, master_size, db_rows, variable_count):
        workload = registry_workload(
            master_size=master_size, db_rows=db_rows, variable_count=variable_count
        )
        assert_workers_independent(
            workload.cinstance, workload.master, workload.constraints
        )

    def test_wide_pool_enumeration_is_order_identical(self):
        workload = wide_pool_workload(rows=3, values_per_key=3)
        adom = default_active_domain(
            workload.cinstance, workload.master, workload.constraints
        )
        serial = list(
            models(
                workload.cinstance, workload.master, workload.constraints,
                adom, engine="propagating",
            )
        )
        search = forced(
            workload.cinstance, workload.master, workload.constraints, adom
        )
        assert list(search.worlds()) == serial

    def test_duplicate_worlds_deduplicated_across_shards(self):
        # Distinct shard-variable values can induce the same world; the merge
        # must deduplicate across shard boundaries like serial does in-stream.
        T = cinstance(PAIR_SCHEMA, R=[(x, "c"), (y, "c")])
        adom = default_active_domain(T, EMPTY_MASTER, [])
        serial = list(models(T, EMPTY_MASTER, [], adom, engine="propagating"))
        search = forced(T, EMPTY_MASTER, [], adom)
        merged = list(search.worlds())
        assert merged == serial
        assert search.stats.duplicate_worlds > 0

    def test_has_world_parity_on_inconsistent_instance(self):
        workload = wide_pool_workload(rows=3, values_per_key=2)
        search = forced(workload.cinstance, workload.master, workload.constraints)
        assert search.has_world() is False
        assert search.stats.found_shard is None

    def test_count_worlds_matches_naive(self):
        workload = wide_pool_workload(rows=3, values_per_key=3)
        naive = sum(
            1
            for _ in models(
                workload.cinstance, workload.master, workload.constraints,
                engine="naive",
            )
        )
        search = forced(workload.cinstance, workload.master, workload.constraints)
        assert search.count_worlds() == naive


# ---------------------------------------------------------------------------
# hypothesis: parallel-vs-serial parity, workers and shard-order independence
# ---------------------------------------------------------------------------
CONSTANTS = st.integers(min_value=0, max_value=2)
VARIABLE_NAMES = st.sampled_from(["x", "y", "z"])


def _terms():
    return st.one_of(CONSTANTS, VARIABLE_NAMES.map(Variable))


@st.composite
def _cinstances(draw):
    rows = draw(st.lists(st.tuples(_terms(), _terms()), min_size=1, max_size=3))
    table = CTable(PAIR_SCHEMA["R"], [CTableRow(terms) for terms in rows])
    return CInstance(PAIR_SCHEMA, {"R": table})


@st.composite
def _constraint_sets(draw):
    """Zero, one or two containment constraints over R against fixed masters."""
    master = MasterData(
        database_schema(schema("Rm", "A", "B")),
        {"Rm": [(0, 0), (1, 1), (2, 1)]},
    )
    constraints = []
    if draw(st.booleans()):
        constraints.append(
            cc(
                cq("bound", [x, y], atoms=[atom("R", x, y)]),
                projection("Rm", "A", "B"),
                name="r⊆rm",
            )
        )
    if draw(st.booleans()):
        constraints.append(
            denial_cc(
                boolean_cq(
                    "no_equal_pair",
                    atoms=[atom("R", x, y)],
                    comparisons=[eq(x, y)],
                ),
                name="x≠y",
            )
        )
    return master, constraints


@given(_cinstances(), _constraint_sets())
@settings(max_examples=15, deadline=None)
def test_random_cinstance_parallel_parity(T, master_and_constraints):
    master, constraints = master_and_constraints
    adom = default_active_domain(T, master, constraints)
    # Public-API four-way parity (parallel may take its serial fallback) ...
    assert_engine_parity(T, master, constraints, adom=adom, engines=("parallel",))
    # ... and the forced process-pool path across worker counts and shard
    # submission orders (1 = serial fallback, 2, None = one per CPU).
    assert_workers_independent(
        T, master, constraints, adom, workers_settings=(1, 2, None)
    )


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=2))
@settings(max_examples=10, deadline=None)
def test_random_boolean_rows_force_pair_sharding(rows):
    bool_schema = database_schema(
        RelationSchema("R", [("A", BOOLEAN_DOMAIN), ("B", BOOLEAN_DOMAIN)])
    )
    table = CTable(
        bool_schema["R"],
        [CTableRow(row) for row in rows]
        + [CTableRow((Variable("x"), Variable("y")))],
    )
    T = CInstance(bool_schema, {"R": table})
    assert_workers_independent(T, EMPTY_MASTER, [])


# ---------------------------------------------------------------------------
# has_world cancellation fairness (the regression the ISSUE calls out)
# ---------------------------------------------------------------------------
def _moded_pigeonhole(rows: int, values_per_key: int):
    """A satisfiable instance whose *first* shard is an expensive dead end.

    ``Mode(a)`` holds a single variable that the engine orders first; its
    candidate pool starts (by ``repr`` order) with the constant ``"0slow"``.
    An all-distinct denial CC over ``Record`` is *gated* on
    ``Mode = "0slow"``: under that prefix the instance is a pigeonhole
    contradiction (``rows`` keys, ``values_per_key`` registry values, all
    distinct) whose refutation walks a large subtree, while every other
    prefix admits an immediate model.  A fair ``has_model`` must therefore
    answer ``True`` promptly — shard 0 being busy is no excuse.
    """
    db_schema = database_schema(
        schema("Mode", "tag"), schema("Record", "key", "value")
    )
    master_schema = database_schema(schema("Registry", "key", "value"))
    master = MasterData(
        master_schema,
        {
            "Registry": [
                (f"k{i}", f"v{j}")
                for i in range(rows)
                for j in range(values_per_key)
            ]
        },
    )
    t, k, v, k2, v2 = var("t"), var("k"), var("v"), var("k2"), var("v2")
    constraints = [
        cc(
            cq("all_records", [k, v], atoms=[atom("Record", k, v)]),
            projection("Registry", "key", "value"),
            name="record⊆registry",
        ),
        denial_cc(
            boolean_cq(
                "slow_all_distinct",
                atoms=[
                    atom("Mode", t),
                    atom("Record", k, v),
                    atom("Record", k2, v2),
                ],
                comparisons=[eq(t, "0slow"), neq(k, k2), eq(v, v2)],
            ),
            name="all-distinct-when-slow",
        ),
    ]
    tables = {
        "Mode": CTable(db_schema["Mode"], [CTableRow((Variable("a"),))]),
        "Record": CTable(
            db_schema["Record"],
            [CTableRow((f"k{i}", Variable(f"w{i}"))) for i in range(rows)],
        ),
    }
    return CInstance(db_schema, tables), master, constraints


class TestHasModelCancellation:
    def test_first_shard_is_the_slow_prefix(self):
        T, master, constraints = _moded_pigeonhole(rows=3, values_per_key=2)
        search = forced(T, master, constraints)
        prefixes = search._prefixes()
        (first_variable,) = search.stats.shard_variables or search._shard_variables()
        assert first_variable.name == "a"
        assert list(prefixes[0].values()) == ["0slow"]

    def test_cancellation_fires_and_returns_promptly(self):
        # Serially, the engine would refute the whole "0slow" pigeonhole
        # subtree (seconds of work) before trying any other Mode value.  With
        # two workers, another shard reports a model almost immediately and
        # the cancellation event must cut the expensive shard short.
        T, master, constraints = _moded_pigeonhole(rows=7, values_per_key=6)
        search = forced(T, master, constraints, workers=2)
        start = time.perf_counter()
        found = search.has_world()
        elapsed = time.perf_counter() - start
        assert found is True
        assert not search.stats.serial_fallback
        assert search.stats.found_shard is not None and search.stats.found_shard > 0
        # The proof that cancellation actually fired: at least one shard was
        # abandoned (mid-search or before starting) instead of running dry.
        assert search.stats.cancelled_shards >= 1
        # "Promptly": well under the multi-second serial refutation of the
        # expensive first shard (generous margin for slow CI hosts).
        assert elapsed < 2.0, f"has_world took {elapsed:.2f}s; cancellation broken?"

    def test_verdict_matches_other_engines(self):
        T, master, constraints = _moded_pigeonhole(rows=3, values_per_key=2)
        assert has_model(T, master, constraints, engine="naive")
        assert forced(T, master, constraints).has_world()


# ---------------------------------------------------------------------------
# the stop_check hook the cancellation rides on
# ---------------------------------------------------------------------------
class TestStopCheck:
    def test_stop_check_aborts_search(self):
        # Big enough that the search visits more than one poll stride.
        workload = wide_pool_workload(rows=4, values_per_key=3)
        adom = default_active_domain(
            workload.cinstance, workload.master, workload.constraints
        )
        search = WorldSearch(
            workload.cinstance,
            workload.master,
            workload.constraints,
            adom,
            stop_check=lambda: True,
        )
        with pytest.raises(SearchCancelledError):
            list(search.search())
        # The poll happens every STOP_CHECK_STRIDE nodes, not per node.
        assert search.stats.nodes == STOP_CHECK_STRIDE

    def test_stop_check_false_is_harmless(self):
        workload = registry_workload(master_size=3, db_rows=3, variable_count=2)
        adom = default_active_domain(
            workload.cinstance, workload.master, workload.constraints
        )
        plain = list(
            WorldSearch(
                workload.cinstance, workload.master, workload.constraints, adom
            ).search()
        )
        polled = list(
            WorldSearch(
                workload.cinstance,
                workload.master,
                workload.constraints,
                adom,
                stop_check=lambda: False,
            ).search()
        )
        assert plain == polled

    def test_parallel_enumeration_cancelled_mid_stream(self):
        # The streaming service rides on this: a consumer-side stop_check
        # flipping true mid-enumeration must abort the *parallel* driver
        # (not just the serial engine) with SearchCancelledError, well
        # before the full world count is merged.
        workload = wide_pool_workload(rows=3, values_per_key=4)  # 24 worlds
        cancelled = {"flag": False}
        search = forced(
            workload.cinstance,
            workload.master,
            workload.constraints,
            stop_check=lambda: cancelled["flag"],
        )
        seen = 0
        with pytest.raises(SearchCancelledError):
            for _valuation, _world in search.search():
                seen += 1
                if seen == 3:
                    cancelled["flag"] = True
        assert seen == 3
        assert not search.stats.serial_fallback
        assert search.stats.worlds < 24

    def test_parallel_existence_check_honours_stop_check(self):
        workload = wide_pool_workload(rows=3, values_per_key=4)
        search = forced(
            workload.cinstance,
            workload.master,
            workload.constraints,
            stop_check=lambda: True,
        )
        with pytest.raises(SearchCancelledError):
            search.has_world()


# ---------------------------------------------------------------------------
# engine-extension guards (forced order / pool overrides)
# ---------------------------------------------------------------------------
class TestWorldSearchExtensions:
    def test_forced_order_must_cover_all_variables(self):
        T = cinstance(PAIR_SCHEMA, R=[(x, y)])
        with pytest.raises(SearchError):
            WorldSearch(T, EMPTY_MASTER, [], order=[x])

    def test_pool_override_for_unknown_variable_rejected(self):
        T = cinstance(PAIR_SCHEMA, R=[(x, "c")])
        with pytest.raises(SearchError):
            WorldSearch(T, EMPTY_MASTER, [], pool_overrides={y: ["c"]})

    def test_pool_override_is_intersected_with_adom_pool(self):
        T = cinstance(PAIR_SCHEMA, R=[(x, "c")])
        adom = default_active_domain(T, EMPTY_MASTER, [])
        search = WorldSearch(
            T, EMPTY_MASTER, [], adom,
            pool_overrides={x: ["not-in-adom", "c"]},
        )
        assert search.pools[x] == ["c"]
        assert [v[x] for v, _w in search.search()] == ["c"]


@pytest.fixture(scope="session", autouse=True)
def _shutdown_worker_pools():
    yield
    shutdown_pools()
