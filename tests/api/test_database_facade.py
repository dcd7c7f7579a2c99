"""Facade-vs-functional parity for :class:`repro.api.Database`.

Every ``Database`` method must agree with the functional API it fronts, on
every registered engine, across the same fixture families the engine-parity
suite uses (registry workloads, the patients scenario, conditioned rows).
The suite also pins the :class:`repro.decision.Decision` invariants the
ISSUE 4 acceptance criteria name: concrete witness worlds from
``is_consistent()`` / ``complete()`` on at least one fixture per engine, and
a dummy engine registered *in the test* being selectable end-to-end through
:class:`~repro.search.registry.EngineConfig` without touching core modules.
"""

from __future__ import annotations

import pytest

from repro.api import Database
from repro.completeness.consistency import is_consistent
from repro.completeness.minp import is_minimal_complete
from repro.completeness.models import STRONG, VIABLE, WEAK, CompletenessModel
from repro.completeness.rcdp import is_relatively_complete
from repro.completeness.rcqp import rcqp, rcqp_bounded_search
from repro.completeness.strong import is_strongly_complete
from repro.completeness.weak import weak_completeness_report
from repro.constraints.containment import satisfies_all
from repro.ctables.cinstance import cinstance
from repro.ctables.possible_worlds import (
    has_model,
    model_count,
    models,
    models_with_valuations,
)
from repro.decision import Decision
from repro.exceptions import SearchError
from repro.queries.atoms import atom
from repro.queries.cq import cq
from repro.queries.terms import var
from repro.relational.domains import BOOLEAN_DOMAIN
from repro.relational.master import MasterData, empty_master
from repro.relational.schema import RelationSchema, database_schema, schema
from repro.search.engine import WorldSearch
from repro.search.registry import (
    EngineCapabilities,
    EngineConfig,
    engine_names,
    register_engine,
    unregister_engine,
)
from repro.workloads.generator import registry_workload
from repro.workloads.patients import build_patient_scenario

#: Every engine the repository registers in core, reference first.
ALL_ENGINES = ("naive", "propagating", "sat")

x, y = var("x"), var("y")


def _fixture_families():
    """(label, cinstance, master, constraints, query) tuples, harness-style."""
    families = []
    for master_size, db_rows, variable_count in [(2, 2, 1), (3, 3, 2)]:
        workload = registry_workload(
            master_size=master_size, db_rows=db_rows, variable_count=variable_count
        )
        families.append(
            (
                f"registry-{master_size}-{db_rows}-{variable_count}",
                workload.cinstance,
                workload.master,
                workload.constraints,
                workload.point_query,
            )
        )
    scenario = build_patient_scenario()
    families.append(
        ("patients", scenario.figure1, scenario.master, scenario.constraints, scenario.q1)
    )
    bool_schema = database_schema(
        RelationSchema("R", [("A", BOOLEAN_DOMAIN), ("B", BOOLEAN_DOMAIN)])
    )
    master = MasterData(
        database_schema(RelationSchema("Rm", [("A", BOOLEAN_DOMAIN)])),
        {"Rm": [(0,), (1,)]},
    )
    conditioned = cinstance(bool_schema, R=[(x, y), (1, x)])
    families.append(
        (
            "conditioned-bool",
            conditioned,
            master,
            [],
            cq("Q", [x], atoms=[atom("R", x, x)]),
        )
    )
    return families


FAMILIES = _fixture_families()
FAMILY_IDS = [family[0] for family in FAMILIES]


@pytest.fixture(params=FAMILIES, ids=FAMILY_IDS)
def family(request):
    return request.param


class TestFacadeVsFunctionalParity:
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_world_surfaces_match(self, family, engine):
        _label, cinst, master, constraints, _query = family
        db = Database(cinst, master, constraints)
        adom = db.adom()
        assert frozenset(db.worlds(engine=engine)) == frozenset(
            models(cinst, master, constraints, adom, engine=engine)
        )
        facade_pairs = {
            (frozenset(v.items()), w) for v, w in db.valuations(engine=engine)
        }
        functional_pairs = {
            (frozenset(v.items()), w)
            for v, w in models_with_valuations(
                cinst, master, constraints, adom, engine=engine
            )
        }
        assert facade_pairs == functional_pairs

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_count_matches_model_count(self, family, engine):
        _label, cinst, master, constraints, _query = family
        db = Database(cinst, master, constraints)
        decision = db.count(engine=engine)
        assert decision.value == model_count(cinst, master, constraints, engine=engine)
        assert decision.holds == (decision.value > 0)
        assert decision.engine_used == engine

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_is_consistent_matches_and_witnesses(self, family, engine):
        _label, cinst, master, constraints, _query = family
        db = Database(cinst, master, constraints)
        decision = db.is_consistent(engine=engine)
        functional = is_consistent(cinst, master, constraints, engine=engine)
        assert decision == functional
        assert decision.holds == has_model(cinst, master, constraints, engine=engine)
        assert decision.engine_used == engine
        if decision.holds:
            # The acceptance criterion: a concrete witness world, from every
            # engine, that really is a possible world.
            assert decision.witness is not None
            assert satisfies_all(decision.witness, master, constraints)
            assert decision.witness in frozenset(db.worlds(engine=engine))

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    @pytest.mark.parametrize("model", list(CompletenessModel))
    def test_complete_matches_functional_rcdp(self, family, engine, model):
        _label, cinst, master, constraints, query = family
        db = Database(cinst, master, constraints)
        decision = db.complete(query, model, engine=engine)
        functional = is_relatively_complete(
            cinst, query, master, constraints, model, engine=engine
        )
        assert decision == functional
        assert decision.holds == functional.holds
        assert decision.model is model
        assert decision.engine_used == engine

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_viable_complete_attaches_witness_world(self, family, engine):
        _label, cinst, master, constraints, query = family
        db = Database(cinst, master, constraints)
        decision = db.complete(query, VIABLE, engine=engine)
        if decision.holds:
            assert satisfies_all(decision.witness, master, constraints)
            assert decision.witness in frozenset(db.worlds(engine=engine))

    def test_weak_complete_carries_report_details(self, family):
        _label, cinst, master, constraints, query = family
        db = Database(cinst, master, constraints)
        decision = db.complete(query, WEAK)
        assert decision.details is not None
        assert decision.details.is_weakly_complete == decision.holds

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_minp_matches_functional(self, engine):
        workload = registry_workload(master_size=2, db_rows=2, variable_count=1)
        db = Database(workload.cinstance, workload.master, workload.constraints)
        decision = db.minp(workload.point_query, STRONG, engine=engine)
        functional = is_minimal_complete(
            workload.cinstance,
            workload.point_query,
            workload.master,
            workload.constraints,
            STRONG,
            engine=engine,
        )
        assert decision == functional

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_rcqp_matches_functional(self, engine):
        bool_schema = database_schema(RelationSchema("R", [("A", BOOLEAN_DOMAIN)]))
        master = MasterData(
            database_schema(RelationSchema("Rm", [("A", BOOLEAN_DOMAIN)])),
            {"Rm": [(0,), (1,)]},
        )
        query = cq("Q", [x], atoms=[atom("R", x)])
        db = Database(cinstance(bool_schema), master, [])
        decision = db.rcqp(query, STRONG, max_size=1, engine=engine)
        functional = rcqp(
            query, bool_schema, master, [], model="strong", max_size=1, engine=engine
        )
        assert decision == functional

    def test_certain_answers_match_report(self, family):
        _label, cinst, master, constraints, query = family
        db = Database(cinst, master, constraints)
        report = db.complete(query, WEAK).details
        assert db.certain_answers(query) == report.certain_over_models


class TestFacadeStateCaching:
    def test_adom_is_cached_per_query(self):
        workload = registry_workload(master_size=2, db_rows=2, variable_count=1)
        db = Database(workload.cinstance, workload.master, workload.constraints)
        assert db.adom() is db.adom()
        assert db.adom(workload.point_query) is db.adom(workload.point_query)
        assert db.adom() is not db.adom(workload.point_query)

    def test_checker_is_prebuilt_once(self):
        workload = registry_workload(master_size=2, db_rows=2, variable_count=1)
        db = Database(workload.cinstance, workload.master, workload.constraints)
        assert db.checker is db.checker
        assert list(db.checker.constraints) == list(workload.constraints)

    def test_default_engine_config_applies(self):
        workload = registry_workload(master_size=2, db_rows=2, variable_count=1)
        db = Database(
            workload.cinstance,
            workload.master,
            workload.constraints,
            engine=EngineConfig(name="sat"),
        )
        assert db.is_consistent().engine_used == "sat"
        # Per-call override wins over the facade default.
        assert db.is_consistent(engine="naive").engine_used == "naive"

    def test_ground_instance_is_coerced(self):
        scenario = build_patient_scenario()
        world = next(
            iter(
                Database(
                    scenario.figure1, scenario.master, scenario.constraints
                ).worlds()
            )
        )
        db = Database(world, scenario.master, scenario.constraints)
        assert db.is_consistent().holds

    def test_unknown_engine_raises(self):
        workload = registry_workload(master_size=2, db_rows=2, variable_count=1)
        db = Database(workload.cinstance, workload.master, workload.constraints)
        with pytest.raises(SearchError):
            db.count(engine="no-such-engine")

    def test_engine_config_options_reach_the_factory(self):
        workload = registry_workload(master_size=3, db_rows=3, variable_count=2)
        db = Database(workload.cinstance, workload.master, workload.constraints)
        reference = frozenset(db.worlds(engine="propagating"))
        fresh_first = frozenset(
            db.worlds(
                engine=EngineConfig(
                    name="propagating", options={"pool_order": "fresh_first"}
                )
            )
        )
        assert fresh_first == reference
        # The factory validates the option it receives.
        bogus = EngineConfig(name="propagating", options={"pool_order": "bogus"})
        with pytest.raises(SearchError):
            list(db.worlds(engine=bogus))


class TestAmbientStateHygiene:
    """Suspended facade generators must not leak shared state (regression)."""

    def test_suspended_worlds_generator_does_not_leak_checker(self):
        # A Database generator left suspended mid-iteration must not leave
        # its ConstraintChecker ambient: a functional call with *different*
        # constraints made while the generator is alive has to see its own
        # constraint set, not the facade's.
        scenario = build_patient_scenario()
        constrained = Database(scenario.figure1, scenario.master, scenario.constraints)
        suspended = constrained.worlds()
        next(suspended)  # suspend inside the enumeration
        unconstrained = frozenset(
            models(scenario.figure1, scenario.master, [])
        )
        reference = frozenset(
            models(scenario.figure1, scenario.master, [], engine="naive")
        )
        assert unconstrained == reference
        suspended.close()

    def test_interleaved_generator_close_keeps_checkers_isolated(self):
        scenario = build_patient_scenario()
        db1 = Database(scenario.figure1, scenario.master, scenario.constraints)
        db2 = Database(scenario.figure1, scenario.master, [])
        g1 = db1.worlds()
        next(g1)
        g2 = db2.worlds()
        next(g2)
        g1.close()  # out-of-LIFO-order teardown must not corrupt anything
        remaining = {next(iter(db2.worlds()))} | set(g2)
        assert remaining == frozenset(db2.worlds(engine="naive")) | remaining
        g2.close()
        # After every generator is gone, fresh calls still agree per engine.
        assert frozenset(db1.worlds()) == frozenset(db1.worlds(engine="naive"))


class TestDummyEngineRegistration:
    """A third-party engine registered in a test, not in core (ISSUE 4)."""

    @pytest.fixture
    def dummy_engine(self):
        def factory(
            cinst, master, constraints, adom, *, checker, break_symmetry, **options,
        ):
            # Delegate to the propagating search: a drop-in replacement
            # demonstrating that no core module needs to know this engine.
            return WorldSearch(
                cinst, master, constraints, adom,
                break_symmetry=break_symmetry, checker=checker,
            )

        register_engine(
            "dummy-test-engine",
            factory,
            EngineCapabilities(symmetry_breaking=True),
        )
        try:
            yield "dummy-test-engine"
        finally:
            unregister_engine("dummy-test-engine")

    def test_registered_dummy_is_listed(self, dummy_engine):
        assert dummy_engine in engine_names()

    def test_dummy_engine_end_to_end_through_engineconfig(self, dummy_engine):
        workload = registry_workload(master_size=3, db_rows=3, variable_count=2)
        db = Database(workload.cinstance, workload.master, workload.constraints)
        config = EngineConfig(name=dummy_engine)
        decision = db.is_consistent(engine=config)
        assert decision.engine_used == dummy_engine
        assert decision == db.is_consistent(engine="propagating")
        assert frozenset(db.worlds(engine=config)) == frozenset(
            db.worlds(engine="propagating")
        )
        # Deciders reach it through the same registry, with no change to
        # possible_worlds.py.
        functional = is_relatively_complete(
            workload.cinstance,
            workload.point_query,
            workload.master,
            workload.constraints,
            STRONG,
            engine=config,
        )
        assert functional.engine_used == dummy_engine
        assert functional == db.complete(workload.point_query, STRONG)

    def test_duplicate_registration_requires_replace(self, dummy_engine):
        with pytest.raises(SearchError):
            register_engine(dummy_engine, lambda *a, **k: None)

    def test_unregistered_engine_is_gone(self):
        assert "dummy-test-engine" not in engine_names()
        workload = registry_workload(master_size=2, db_rows=2, variable_count=1)
        with pytest.raises(SearchError):
            has_model(
                workload.cinstance,
                workload.master,
                workload.constraints,
                engine="dummy-test-engine",
            )


class TestDecisionObject:
    def test_bool_and_equality_compatibility(self):
        yes = Decision(holds=True, problem="consistency")
        no = Decision(holds=False, problem="consistency")
        assert yes and not no
        assert yes == True  # noqa: E712 - the boolean shim is the point
        assert no == False  # noqa: E712
        assert yes != no
        assert yes == Decision(holds=True, problem="rcdp")

    def test_repr_is_engine_stable(self):
        a = Decision(holds=True, problem="consistency", engine_used="sat")
        b = Decision(holds=True, problem="consistency", engine_used="naive")
        assert repr(a) == repr(b)
        assert str(a) == "True"

    def test_positional_decider_call_is_truthy(self):
        # The 1.x call shape: positional context, the verdict used as a bool.
        scenario = build_patient_scenario()
        verdict = is_strongly_complete(
            scenario.figure1, scenario.q1, scenario.master, scenario.constraints
        )
        assert verdict
        assert verdict == True  # noqa: E712 - the boolean idiom is the point

    def test_rcqp_details_carry_the_search_report(self):
        bool_schema = database_schema(RelationSchema("R", [("A", BOOLEAN_DOMAIN)]))
        master = MasterData(
            database_schema(RelationSchema("Rm", [("A", BOOLEAN_DOMAIN)])),
            {"Rm": [(0,), (1,)]},
        )
        query = cq("Q", [x], atoms=[atom("R", x)], comparisons=[])
        decision = rcqp_bounded_search(query, bool_schema, master, [], max_size=1)
        assert decision.details.found == decision.holds
        assert decision.details.witness == decision.witness
        assert decision.details.instances_examined == decision.stats.candidates_examined

    def test_weak_details_carry_the_certain_answers(self):
        # Q4 over Fig. 1: John is the certain answer over Mod(T, D_m, V).
        scenario = build_patient_scenario()
        decision = weak_completeness_report(
            scenario.figure1, scenario.q4, scenario.master, scenario.constraints
        )
        report = decision.details
        assert report.certain_over_models == {("John",)}
        assert report.is_weakly_complete == decision.holds
        if not report.no_world_has_extensions:
            assert decision.holds == (
                report.certain_over_models == report.certain_over_extensions
            )

    def test_engine_keyword_accepts_plain_strings(self):
        scenario = build_patient_scenario()
        assert is_consistent(
            scenario.figure1, scenario.master, scenario.constraints, engine="naive"
        ) == is_consistent(
            scenario.figure1, scenario.master, scenario.constraints, engine="sat"
        )

    def test_stats_are_populated(self):
        workload = registry_workload(master_size=3, db_rows=3, variable_count=2)
        db = Database(workload.cinstance, workload.master, workload.constraints)
        propagating = db.is_consistent(engine="propagating")
        assert propagating.stats.wall_time > 0
        assert propagating.stats.searches >= 1
        assert propagating.stats.nodes and propagating.stats.nodes > 0
        sat = db.count(engine="sat")
        assert sat.stats.clauses and sat.stats.clauses > 0

    def test_empty_master_consistency(self):
        free_schema = database_schema(schema("S", "A"))
        db = Database(
            cinstance(free_schema, S=[(x,)]),
            empty_master(database_schema(schema("M", "A"))),
            [],
        )
        for engine in ALL_ENGINES:
            decision = db.is_consistent(engine=engine)
            assert decision.holds and decision.witness is not None
