"""Parity tests: every engine must agree with the naive reference path.

The pruned world-search engine and the SAT-backed engine
(:mod:`repro.search`) replace the naive cross-product enumeration of
``Mod_Adom(T, D_m, V)``; these tests assert all engines
produce identical world sets, valuation sets and decision verdicts on every
fixture family the repository uses — workloads, the patients scenario, the
hardness-reduction instances, conditioned rows and hypothesis-generated
random c-tables.

The comparisons themselves live in the reusable differential harness
(:mod:`harness` in this directory): each fixture family is one
:func:`harness.assert_engine_parity` / :func:`harness.assert_decider_parity`
call, and a new engine joins the whole corpus by being added to
``harness.ALL_ENGINES``.  The ``stop_check`` hook of the propagating engine,
which the service's ``/worlds`` stream cancels through, is tested here too.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from harness import (
    CHECKED_ENGINES,
    assert_decider_parity,
    assert_engine_parity,
)
from repro.completeness.consistency import is_consistent
from repro.completeness.minp import (
    is_minimal_strongly_complete,
    is_minimal_viably_complete,
    is_minimal_weakly_complete,
)
from repro.completeness.rcqp import rcqp_bounded_search
from repro.completeness.strong import is_strongly_complete
from repro.completeness.viable import is_viably_complete
from repro.completeness.weak import is_weakly_complete
from repro.constraints.containment import denial_cc, relation_containment_cc
from repro.ctables.cinstance import CInstance, cinstance
from repro.ctables.conditions import condition
from repro.ctables.ctable import CTable, CTableRow
from repro.ctables.possible_worlds import (
    default_active_domain,
    has_model,
    models,
)
from repro.exceptions import SearchCancelledError, SearchError
from repro.queries.atoms import atom, eq, neq
from repro.queries.cq import cq
from repro.queries.terms import Variable, var
from repro.relational.domains import BOOLEAN_DOMAIN
from repro.relational.master import MasterData, empty_master
from repro.relational.schema import RelationSchema, database_schema, schema
from repro.reductions.consistency_reduction import build_consistency_reduction
from repro.reductions.sat import random_forall_exists_instance
from repro.search import ConstraintChecker, WorldSearch, order_variables, world_key
from repro.search.engine import STOP_CHECK_STRIDE
from repro.workloads.generator import registry_workload, wide_pool_workload
from repro.workloads.patients import build_patient_scenario

x, y, z = var("x"), var("y"), var("z")


# ---------------------------------------------------------------------------
# world-set parity across the fixture families (three-way, via the harness)
# ---------------------------------------------------------------------------
class TestWorldParity:
    @pytest.mark.parametrize(
        "master_size,db_rows,variable_count,with_fd",
        [
            (2, 2, 0, True),
            (3, 2, 1, True),
            (3, 3, 2, True),
            (3, 3, 3, False),
            (4, 3, 2, True),
        ],
    )
    def test_registry_workloads(self, master_size, db_rows, variable_count, with_fd):
        workload = registry_workload(
            master_size=master_size,
            db_rows=db_rows,
            variable_count=variable_count,
            with_fd=with_fd,
        )
        assert_engine_parity(workload.cinstance, workload.master, workload.constraints)

    def test_patient_scenario(self):
        scenario = build_patient_scenario()
        assert_engine_parity(
            scenario.figure1, scenario.master, scenario.constraints, scenario.q1
        )

    def test_wide_pool_workload(self):
        workload = wide_pool_workload(rows=3, values_per_key=2)
        assert not workload.consistent
        observations = assert_engine_parity(
            workload.cinstance, workload.master, workload.constraints
        )
        assert observations["naive"].count == 0

    @pytest.mark.parametrize("dimensions", [(1, 1, 2), (2, 1, 3)])
    def test_consistency_reduction_instances(self, dimensions):
        formula = random_forall_exists_instance(*dimensions, seed=7)
        reduction = build_consistency_reduction(formula)
        assert_engine_parity(
            reduction.cinstance, reduction.master, reduction.constraints
        )

    def test_conditioned_rows(self):
        pair_schema = database_schema(schema("R", "A", "B"))
        master = empty_master(database_schema(schema("M", "A")))
        table = CTable(
            pair_schema["R"],
            [
                CTableRow((x, "c"), condition(neq(x, "c"))),
                CTableRow((y, z), condition(eq(y, "c"))),
                CTableRow(("c", "d")),
            ],
        )
        T = CInstance(pair_schema, {"R": table})
        assert_engine_parity(T, master, [])

    def test_inconsistent_cinstance(self):
        bool_schema = database_schema(RelationSchema("R", [("A", BOOLEAN_DOMAIN)]))
        master = empty_master(database_schema(schema("M", "A")))
        forbid_all = denial_cc(cq("q", [x], atoms=[atom("R", x)]))
        T = cinstance(bool_schema, R=[(x,)])
        observations = assert_engine_parity(T, master, [forbid_all])
        assert not observations["naive"].has

    def test_empty_cinstance(self):
        pair_schema = database_schema(schema("R", "A", "B"))
        master = empty_master(database_schema(schema("M", "A")))
        assert_engine_parity(CInstance(pair_schema), master, [])

    def test_duplicate_inducing_rows(self):
        bool_schema = database_schema(
            RelationSchema("R", [("A", BOOLEAN_DOMAIN), "B"])
        )
        master = empty_master(database_schema(schema("M", "A")))
        T = cinstance(bool_schema, R=[(x, "c"), (y, "c")])
        assert_engine_parity(T, master, [])


# ---------------------------------------------------------------------------
# decision-procedure parity (RCDP / MINP / RCQP, every engine)
# ---------------------------------------------------------------------------
class TestDeciderParity:
    @pytest.fixture(scope="class")
    def scenario(self):
        return build_patient_scenario()

    def test_rcdp_verdicts(self, scenario):
        for query in (scenario.q1, scenario.q4):
            for decider in (is_strongly_complete, is_weakly_complete, is_viably_complete):
                assert_decider_parity(
                    lambda engine, d=decider, q=query: d(
                        scenario.figure1,
                        q,
                        scenario.master,
                        scenario.constraints,
                        engine=engine,
                    )
                )

    def test_minp_verdicts(self, scenario):
        trimmed = scenario.figure1.without_row("MVisit", 1)
        for target in (scenario.figure1, trimmed):
            for decider in (
                is_minimal_strongly_complete,
                is_minimal_viably_complete,
                is_minimal_weakly_complete,
            ):
                assert_decider_parity(
                    lambda engine, d=decider, t=target: d(
                        t, scenario.q1, scenario.master, scenario.constraints,
                        engine=engine,
                    )
                )

    def test_consistency_verdicts(self):
        for dimensions in [(1, 1, 2), (2, 1, 3), (2, 2, 4)]:
            formula = random_forall_exists_instance(*dimensions, seed=7)
            reduction = build_consistency_reduction(formula)
            verdict = assert_decider_parity(
                lambda engine, r=reduction: is_consistent(
                    r.cinstance, r.master, r.constraints, engine=engine
                )
            )
            assert verdict == (not reduction.formula_is_true())

    @pytest.mark.parametrize("max_size", [0, 1, 2])
    def test_rcqp_bounded_search_verdicts(self, max_size):
        bool_schema = database_schema(RelationSchema("R", [("A", BOOLEAN_DOMAIN)]))
        master = MasterData(
            database_schema(RelationSchema("Rm", [("A", BOOLEAN_DOMAIN)])),
            {"Rm": [(0,), (1,)]},
        )
        constraint = relation_containment_cc("R", bool_schema, "Rm")
        query = cq("Q", [x], atoms=[atom("R", x)], comparisons=[eq(x, 1)])
        naive = rcqp_bounded_search(
            query, bool_schema, master, [constraint], max_size=max_size, engine="naive"
        )
        for engine_name in CHECKED_ENGINES:
            engine = rcqp_bounded_search(
                query, bool_schema, master, [constraint], max_size=max_size,
                engine=engine_name,
            )
            assert naive.holds == engine.holds, engine_name
            if engine.holds:
                # Engine witnesses are drawn from the same candidate space and
                # must themselves be complete.
                from repro.completeness.ground import is_ground_complete

                assert is_ground_complete(engine.witness, query, master, [constraint])

    def test_rcqp_negative_for_unbounded_query(self):
        free_schema = database_schema(schema("S", "A"))
        master = empty_master(database_schema(schema("M", "A")))
        query = cq("Q", [x], atoms=[atom("S", x)])
        for engine in ("naive",) + CHECKED_ENGINES:
            result = rcqp_bounded_search(
                query, free_schema, master, [], max_size=2, engine=engine
            )
            assert not result.holds


# ---------------------------------------------------------------------------
# property-style parity on random c-tables
# ---------------------------------------------------------------------------
PAIR_SCHEMA = database_schema(RelationSchema("R", ["A", "B"]))
BOOL_PAIR_SCHEMA = database_schema(
    RelationSchema("R", [("A", BOOLEAN_DOMAIN), ("B", BOOLEAN_DOMAIN)])
)
CONSTANTS = st.integers(min_value=0, max_value=2)
VARIABLE_NAMES = st.sampled_from(["x", "y", "z"])


def _terms():
    return st.one_of(CONSTANTS, VARIABLE_NAMES.map(Variable))


@st.composite
def _ctables(draw):
    rows = draw(st.lists(st.tuples(_terms(), _terms()), min_size=0, max_size=3))
    built = []
    for terms in rows:
        variables = [t for t in terms if isinstance(t, Variable)]
        if variables and draw(st.booleans()):
            pivot = draw(st.sampled_from(variables))
            bound = draw(CONSTANTS)
            comparison = eq(pivot, bound) if draw(st.booleans()) else neq(pivot, bound)
            built.append(CTableRow(terms, condition(comparison)))
        else:
            built.append(CTableRow(terms))
    return CTable(PAIR_SCHEMA["R"], built)


@given(_ctables())
@settings(max_examples=40, deadline=None)
def test_random_ctable_world_parity(table):
    T = CInstance(PAIR_SCHEMA, {"R": table})
    master = empty_master(database_schema(schema("M", "A")))
    assert_engine_parity(T, master, [])


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=2))
@settings(max_examples=30, deadline=None)
def test_random_constrained_world_parity(rows):
    master = MasterData(
        database_schema(
            RelationSchema("Rm", [("A", BOOLEAN_DOMAIN), ("B", BOOLEAN_DOMAIN)])
        ),
        {"Rm": [(0, 0), (1, 1)]},
    )
    constraint = relation_containment_cc("R", BOOL_PAIR_SCHEMA, "Rm")
    table = CTable(
        BOOL_PAIR_SCHEMA["R"],
        [CTableRow(row) for row in rows] + [CTableRow((Variable("x"), Variable("y")))],
    )
    T = CInstance(BOOL_PAIR_SCHEMA, {"R": table})
    assert_engine_parity(T, master, [constraint])


# ---------------------------------------------------------------------------
# engine internals: pruning, symmetry, canonical dedup, ordering
# ---------------------------------------------------------------------------
class TestEngineInternals:
    def test_pruning_beats_cross_product(self):
        workload = registry_workload(master_size=3, db_rows=3, variable_count=3)
        adom = default_active_domain(
            workload.cinstance, workload.master, workload.constraints
        )
        search = WorldSearch(
            workload.cinstance, workload.master, workload.constraints, adom
        )
        worlds = list(search.worlds())
        assert worlds  # the workload is consistent
        assert search.stats.pruned > 0
        # The cross product would visit prod(|pool|) leaves; the pruned search
        # must visit strictly fewer nodes in total.
        from repro.ctables.valuation import count_valuations

        assert search.stats.nodes < count_valuations(workload.cinstance, adom)

    def test_symmetry_breaking_preserves_existence(self):
        pair_schema = database_schema(schema("R", "A", "B"))
        master = empty_master(database_schema(schema("M", "A")))
        T = cinstance(pair_schema, R=[(x, "c"), (y, "c"), (z, "d")])
        adom = default_active_domain(T, master, [])
        plain = WorldSearch(T, master, [], adom)
        reduced = WorldSearch(T, master, [], adom, break_symmetry=True)
        assert plain.has_world() and reduced.has_world()
        exhaustive = WorldSearch(T, master, [], adom)
        pruned = WorldSearch(T, master, [], adom, break_symmetry=True)
        total = sum(1 for _ in exhaustive.search())
        reduced_total = sum(1 for _ in pruned.search())
        assert reduced_total < total
        assert pruned.stats.symmetry_skips > 0

    def test_symmetry_skips_only_fresh_permutations(self):
        # Every satisfying valuation must be reachable from a symmetry-reduced
        # one by permuting fresh values, so the *world sizes* seen agree.
        pair_schema = database_schema(schema("R", "A", "B"))
        master = empty_master(database_schema(schema("M", "A")))
        T = cinstance(pair_schema, R=[(x, "c"), (y, "d")])
        adom = default_active_domain(T, master, [])
        full_sizes = {w.size for _v, w in WorldSearch(T, master, [], adom).search()}
        reduced_sizes = {
            w.size
            for _v, w in WorldSearch(T, master, [], adom, break_symmetry=True).search()
        }
        assert full_sizes == reduced_sizes

    def test_world_key_is_canonical(self):
        pair_schema = database_schema(schema("R", "A", "B"))
        master = empty_master(database_schema(schema("M", "A")))
        T = cinstance(pair_schema, R=[(x, "c"), (y, "c")])
        worlds = list(models(T, master, []))
        assert len({world_key(w) for w in worlds}) == len(set(worlds))
        for world in worlds:
            assert world_key(world) == world_key(world)

    def test_unknown_engine_rejected(self):
        pair_schema = database_schema(schema("R", "A", "B"))
        master = empty_master(database_schema(schema("M", "A")))
        T = CInstance(pair_schema)
        with pytest.raises(SearchError):
            list(models(T, master, [], engine="bogus"))

    def test_order_variables_complete_and_deterministic(self):
        pools = {x: [0, 1, 2], y: [0], z: [0, 1]}
        rows = [{x, y}, {z}]
        first = order_variables(pools, [set(vs) for vs in rows])
        second = order_variables(pools, [set(vs) for vs in rows])
        assert first == second
        assert set(first) == {x, y, z}
        # z completes a row on its own and has a small pool: it must precede x.
        assert first.index(z) < first.index(x)

    def test_constraint_checker_session_verdicts(self):
        bool_schema = database_schema(
            RelationSchema("R", [("A", BOOLEAN_DOMAIN)]),
            RelationSchema("S", [("A", BOOLEAN_DOMAIN)]),
        )
        master = MasterData(
            database_schema(RelationSchema("Rm", [("A", BOOLEAN_DOMAIN)])),
            {"Rm": [(1,)]},
        )
        constraint = relation_containment_cc("R", bool_schema, "Rm")
        session = ConstraintChecker(master, [constraint]).session(["R", "S"])
        assert session.push("R", (1,))
        # A relation no constraint mentions never triggers a re-check.
        assert session.push("S", (0,))
        assert not session.push("R", (0,))
        assert session.violated_constraints() == [constraint]
        session.pop_to(0)
        assert session.is_satisfied

    def test_ground_row_violation_prunes_at_root(self):
        bool_schema = database_schema(RelationSchema("R", [("A", BOOLEAN_DOMAIN)]))
        master = empty_master(database_schema(schema("M", "A")))
        forbid_all = denial_cc(cq("q", [x], atoms=[atom("R", x)]))
        T = cinstance(bool_schema, R=[(1,), (x,)])
        adom = default_active_domain(T, master, [forbid_all])
        search = WorldSearch(T, master, [forbid_all], adom)
        assert list(search.search()) == []
        # The fixed ground tuple already violates the denial CC: the search
        # must die at the root without branching on x at all.
        assert search.stats.nodes == 0


class TestStopCheck:
    def test_stop_check_aborts_search(self):
        # Big enough that the search visits more than one poll stride: 260
        # nodes, the registry bound having cut each pool to four values.
        workload = wide_pool_workload(rows=5, values_per_key=4)
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

    def test_enumeration_cancelled_mid_stream(self):
        # The service's /worlds stream rides on this: a stop_check that flips
        # true mid-enumeration aborts the search at its next poll, before the
        # remaining worlds are produced.
        workload = wide_pool_workload(rows=3, values_per_key=4)  # 24 worlds
        cancelled = {"flag": False}
        search = WorldSearch(
            workload.cinstance,
            workload.master,
            workload.constraints,
            stop_check=lambda: cancelled["flag"],
        )
        seen = 0
        with pytest.raises(SearchCancelledError):
            for _pair in search.search():
                seen += 1
                if seen == 3:
                    cancelled["flag"] = True
        assert 3 <= seen < 24
        assert search.stats.nodes == STOP_CHECK_STRIDE

    def test_existence_check_honours_stop_check(self):
        # No world exists (five keys, four registry values, all distinct), so
        # has_world walks past the first poll before it could answer.
        workload = wide_pool_workload(rows=5, values_per_key=4)
        search = WorldSearch(
            workload.cinstance,
            workload.master,
            workload.constraints,
            stop_check=lambda: True,
        )
        with pytest.raises(SearchCancelledError):
            search.has_world()
        assert search.stats.nodes == STOP_CHECK_STRIDE

    def test_count_honours_stop_check(self):
        workload = wide_pool_workload(rows=3, values_per_key=4)
        search = WorldSearch(
            workload.cinstance,
            workload.master,
            workload.constraints,
            stop_check=lambda: True,
        )
        with pytest.raises(SearchCancelledError):
            search.count_worlds()
        assert search.stats.nodes == STOP_CHECK_STRIDE


# ---------------------------------------------------------------------------
# engine selection surface
# ---------------------------------------------------------------------------
class TestEngineSelection:
    def test_default_engine_is_propagating(self):
        from repro.ctables.possible_worlds import DEFAULT_ENGINE
        from repro.search.registry import resolve_engine_name

        assert DEFAULT_ENGINE == "propagating"
        assert resolve_engine_name(None) == "propagating"
        assert resolve_engine_name("naive") == "naive"
        assert resolve_engine_name("sat") == "sat"

    def test_worldsearch_builds_default_adom(self):
        workload = registry_workload(master_size=2, db_rows=2, variable_count=1)
        search = WorldSearch(workload.cinstance, workload.master, workload.constraints)
        assert search.has_world() == has_model(
            workload.cinstance, workload.master, workload.constraints, engine="naive"
        )
