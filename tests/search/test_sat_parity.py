"""SAT engine internals: the CNF encoding, model decoding and enumeration.

Three-way world/verdict parity across the shared fixture corpus lives in
``test_engine_parity.py``, built on the differential harness of
:mod:`harness` (every check there runs ``engine="sat"`` too); this module
exercises what is specific to the SAT route — the encoding's
selector/presence structure, trivial-unsat detection, condition handling,
inequality-heavy instances and the engine's stats surface.  The handful of
parity-shaped checks below route through the same harness with the corpus
narrowed to the SAT engine.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from harness import assert_decider_parity, assert_engine_parity
from repro.completeness.consistency import is_consistent
from repro.constraints.containment import denial_cc, relation_containment_cc
from repro.ctables.cinstance import CInstance, cinstance
from repro.ctables.conditions import condition
from repro.ctables.ctable import CTable, CTableRow
from repro.ctables.possible_worlds import default_active_domain, has_model, models
from repro.queries.atoms import atom, eq, neq
from repro.queries.cq import cq
from repro.queries.terms import Variable, var
from repro.reductions.dpll import DPLLSolver
from repro.relational.domains import BOOLEAN_DOMAIN
from repro.relational.master import MasterData, empty_master
from repro.relational.schema import RelationSchema, database_schema, schema
from repro.search.cnf_encoding import encode_world_search, iter_solver_models
from repro.search.engine import WorldSearch, world_key
from repro.search.sat_engine import SATWorldSearch
from repro.workloads.generator import inequality_chain_workload
from repro.workloads.patients import build_patient_scenario

x, y = var("x"), var("y")

PAIR_SCHEMA = database_schema(schema("R", "A", "B"))
BOOL_SCHEMA = database_schema(RelationSchema("R", [("A", BOOLEAN_DOMAIN)]))
EMPTY_MASTER = empty_master(database_schema(schema("M", "A")))


def naive_valuations(cinst, master, constraints, adom):
    from repro.ctables.possible_worlds import models_with_valuations

    return {
        frozenset(valuation.items())
        for valuation, _world in models_with_valuations(
            cinst, master, constraints, adom, engine="naive"
        )
    }


def solver_models(encoding):
    """The encoding's valuations, enumerated on a solver of their own."""
    solver = DPLLSolver(encoding.clauses, decisions=encoding.selector.values())
    return list(iter_solver_models(encoding, solver))


# ---------------------------------------------------------------------------
# encoding structure
# ---------------------------------------------------------------------------
class TestEncodingStructure:
    def test_selectors_cover_pools_exactly(self):
        T = cinstance(PAIR_SCHEMA, R=[(x, "c"), (y, "d")])
        adom = default_active_domain(T, EMPTY_MASTER, [])
        encoding = encode_world_search(T, EMPTY_MASTER, [], adom)
        expected = sum(len(encoding.pools[v]) for v in encoding.variables)
        assert encoding.stats.selector_variables == expected
        assert len(encoding.selector_scope()) == expected

    def test_ground_instance_needs_no_variables(self):
        T = cinstance(PAIR_SCHEMA, R=[("c", "d")])
        encoding = encode_world_search(T, EMPTY_MASTER, [])
        assert encoding.stats.selector_variables == 0
        assert encoding.stats.baseline_tuples == 1
        assert not encoding.trivially_unsat

    def test_encoder_builds_no_checker(self, monkeypatch):
        # The encoder needs only the constraints' right-hand sides; a
        # checker would compile delta plans it never runs.
        import repro.search.cnf_encoding as cnf_encoding

        def refuse(*args, **kwargs):
            raise AssertionError("the encoder built a ConstraintChecker")

        monkeypatch.setattr(cnf_encoding, "ConstraintChecker", refuse)
        forbid_all = denial_cc(cq("q", [x, y], atoms=[atom("R", x, y)]))
        T = cinstance(PAIR_SCHEMA, R=[(x, "e")])
        encoding = encode_world_search(T, EMPTY_MASTER, [forbid_all])
        assert solver_models(encoding) == []

    def test_ground_violation_has_no_world(self):
        # The ground row alone violates the constraint.  That is no longer
        # flagged at encode time: the asserted guard refutes the clause.
        forbid_all = denial_cc(cq("q", [x, y], atoms=[atom("R", x, y)]))
        T = cinstance(PAIR_SCHEMA, R=[("c", "d"), (x, "e")])
        encoding = encode_world_search(T, EMPTY_MASTER, [forbid_all])
        assert solver_models(encoding) == []
        search = SATWorldSearch(T, EMPTY_MASTER, [forbid_all])
        assert search.has_world() is False
        assert search.count_worlds() == 0

    def test_decoded_models_are_exactly_the_naive_valuations(self):
        master = MasterData(
            database_schema(RelationSchema("Rm", [("A", BOOLEAN_DOMAIN)])),
            {"Rm": [(1,)]},
        )
        constraint = relation_containment_cc("R", BOOL_SCHEMA, "Rm")
        T = cinstance(BOOL_SCHEMA, R=[(x,), (y,)])
        adom = default_active_domain(T, master, [constraint])
        encoding = encode_world_search(T, master, [constraint], adom)
        decoded = {
            frozenset(valuation.items()) for valuation in solver_models(encoding)
        }
        assert decoded == naive_valuations(T, master, [constraint], adom)

    def test_condition_false_assignments_produce_no_tuple(self):
        # Row (x) if x ≠ 0 over the Boolean domain: only x=1 produces it.
        table = CTable(
            BOOL_SCHEMA["R"], [CTableRow((x,), condition(neq(x, 0)))]
        )
        T = CInstance(BOOL_SCHEMA, {"R": table})
        adom = default_active_domain(T, EMPTY_MASTER, [])
        encoding = encode_world_search(T, EMPTY_MASTER, [], adom)
        # Candidate universe: just the tuple (1,); x=0 grounds to nothing.
        assert encoding.stats.candidate_tuples == 1
        worlds = list(models(T, EMPTY_MASTER, [], adom, engine="sat"))
        sizes = sorted(world.size for world in worlds)
        assert sizes == [0, 1]

    def test_unsatisfiable_condition_row_never_appears(self):
        table = CTable(
            BOOL_SCHEMA["R"],
            [CTableRow((x,), condition(eq(x, 0), neq(x, 0)))],
        )
        T = CInstance(BOOL_SCHEMA, {"R": table})
        adom = default_active_domain(T, EMPTY_MASTER, [])
        encoding = encode_world_search(T, EMPTY_MASTER, [], adom)
        assert encoding.stats.candidate_tuples == 0
        assert all(
            world.size == 0 for world in models(T, EMPTY_MASTER, [], adom, engine="sat")
        )

    def test_finite_domain_restricts_selector_pool(self):
        # x ranges over the Boolean attribute domain only, never the full
        # active domain, so it contributes exactly two selectors.
        T = cinstance(BOOL_SCHEMA, R=[(x,)])
        adom = default_active_domain(T, EMPTY_MASTER, [])
        encoding = encode_world_search(T, EMPTY_MASTER, [], adom)
        assert list(encoding.pools[x]) == [0, 1]
        assert encoding.stats.selector_variables == 2
        assert has_model(T, EMPTY_MASTER, [], adom, engine="sat")


# ---------------------------------------------------------------------------
# engine surface
# ---------------------------------------------------------------------------
class TestSATWorldSearch:
    def test_has_world_is_a_single_sat_call(self):
        T = cinstance(PAIR_SCHEMA, R=[(x, "c")])
        search = SATWorldSearch(T, EMPTY_MASTER, [])
        assert search.has_world()
        assert search.stats.solver is not None
        assert search.stats.solver.solve_calls == 1

    def test_search_counts_worlds_in_stats(self):
        T = cinstance(BOOL_SCHEMA, R=[(x,)])
        search = SATWorldSearch(T, EMPTY_MASTER, [])
        worlds = list(search.worlds())
        assert len(worlds) == 2  # x = 0 and x = 1
        assert search.stats.worlds == 2

    def test_count_worlds_deduplicates(self):
        # Two rows that can collapse onto the same tuple.
        T = cinstance(PAIR_SCHEMA, R=[(x, "c"), (y, "c")])
        naive = set(models(T, EMPTY_MASTER, [], engine="naive"))
        assert SATWorldSearch(T, EMPTY_MASTER, []).count_worlds() == len(naive)

    def test_figure1_one_shot_encoding_stays_small(self):
        # The join skips the pairs of the one variable row's groundings that
        # no world holds together; joining them all made 45,460 clauses.
        scenario = build_patient_scenario()
        args = (scenario.figure1, scenario.master, scenario.constraints)
        search = SATWorldSearch(*args)
        assert search.encoding.stats.clauses <= 1000
        assert search.count_worlds() == 290
        expected = {world_key(world) for world in WorldSearch(*args).worlds()}
        assert {world_key(world) for world in search.worlds()} == expected

    def test_empty_cinstance_has_single_empty_world(self):
        T = CInstance(PAIR_SCHEMA)
        worlds = list(SATWorldSearch(T, EMPTY_MASTER, []).worlds())
        assert len(worlds) == 1
        assert worlds[0].size == 0


# ---------------------------------------------------------------------------
# inequality-heavy instances (the regime the engine targets)
# ---------------------------------------------------------------------------
class TestInequalityHeavyInstances:
    def test_odd_cycle_is_inconsistent_even_cycle_is_not(self):
        for pair_count, expected in ((3, False), (4, True)):
            workload = inequality_chain_workload(pair_count, close_cycle=True)
            verdict = assert_decider_parity(
                lambda engine, w=workload: is_consistent(
                    w.cinstance, w.master, w.constraints, engine=engine
                ),
                engines=("sat", "propagating"),
            )
            assert verdict == expected

    def test_open_chain_world_parity(self):
        workload = inequality_chain_workload(3, close_cycle=False)
        observations = assert_engine_parity(
            workload.cinstance,
            workload.master,
            workload.constraints,
            engines=("sat",),
        )
        # The chain alternates: exactly two world families survive.
        assert len(observations["sat"].worlds) == 2


# ---------------------------------------------------------------------------
# property-style parity on random conditioned c-tables
# ---------------------------------------------------------------------------
CONSTANTS = st.integers(min_value=0, max_value=2)
VARIABLE_NAMES = st.sampled_from(["x", "y", "z"])


def _terms():
    return st.one_of(CONSTANTS, VARIABLE_NAMES.map(Variable))


@st.composite
def _conditioned_ctables(draw):
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


@given(_conditioned_ctables())
@settings(max_examples=40, deadline=None)
def test_random_conditioned_ctable_sat_parity(table):
    T = CInstance(PAIR_SCHEMA, {"R": table})
    assert_engine_parity(T, EMPTY_MASTER, [], engines=("sat",))


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=2))
@settings(max_examples=30, deadline=None)
def test_random_constrained_sat_parity(rows):
    bool_pair = database_schema(
        RelationSchema("R", [("A", BOOLEAN_DOMAIN), ("B", BOOLEAN_DOMAIN)])
    )
    master = MasterData(
        database_schema(
            RelationSchema("Rm", [("A", BOOLEAN_DOMAIN), ("B", BOOLEAN_DOMAIN)])
        ),
        {"Rm": [(0, 0), (1, 1)]},
    )
    constraint = relation_containment_cc("R", bool_pair, "Rm")
    table = CTable(
        bool_pair["R"],
        [CTableRow(row) for row in rows] + [CTableRow((Variable("x"), Variable("y")))],
    )
    T = CInstance(bool_pair, {"R": table})
    assert_engine_parity(T, master, [constraint], engines=("sat",))
