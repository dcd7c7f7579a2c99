"""SAT engine generation 2: CEGAR, first-UIP learning, component counting.

This module covers what is *new* in the gen-2 SAT stack plus the latent-bug
regressions fixed alongside it:

* the solver-stats ledger accumulates across ``SATWorldSearch`` calls
  instead of being rebound per solve (the ``_solver()`` rebinding bug);
* ``IncrementalSATSession.has_world`` reports ``reused_solver`` correctly,
  including on the trivially-unsat early return;
* the CEGAR lazy encoding reaches the same verdicts/worlds as the eager
  encoding and surfaces its refinement rounds in the stats;
* component-caching counting agrees with blocking-clause enumeration and
  the closed-form world count, and surfaces component/cache-hit stats;
* the new knobs flow end-to-end through ``EngineConfig(options=...)`` into
  ``Database`` decisions and ``DecisionStats``.
"""

from __future__ import annotations

import pytest

from repro.api import Database, EngineConfig
from repro.ctables.cinstance import cinstance
from repro.queries.terms import var
from repro.relational.master import empty_master
from repro.relational.schema import database_schema, schema
from repro.search.engine import WorldSearch
from repro.search.sat_engine import IncrementalSATSession, SATWorldSearch
from repro.ctables.possible_worlds import default_active_domain
from repro.workloads.generator import (
    disconnected_components_workload,
    inequality_chain_workload,
    wide_pool_workload,
)

x, y = var("x"), var("y")

PAIR_SCHEMA = database_schema(schema("R", "A", "B"))
EMPTY_MASTER = empty_master(database_schema(schema("M", "A")))


def _observe(search):
    """World multiset of one search object, as (count, set-of-worlds)."""
    worlds = [
        frozenset((name, row) for name, row in world.tuples())
        for world in search.worlds()
    ]
    return len(worlds), set(worlds)


# ---------------------------------------------------------------------------
# S1: the stats ledger accumulates across calls
# ---------------------------------------------------------------------------
class TestSolverStatsAccumulation:
    def test_solver_stats_accumulate_across_calls(self):
        # has_world() then count_worlds() on one search: the second call must
        # add to the same ledger, not silently start a new one.
        workload = inequality_chain_workload(3, close_cycle=False)
        search = SATWorldSearch(
            workload.cinstance, workload.master, workload.constraints
        )
        assert search.has_world()
        ledger = search.stats.solver
        after_first = ledger.solve_calls
        assert after_first == 1
        search.count_worlds()
        assert search.stats.solver is ledger, "ledger was rebound"
        assert ledger.solve_calls > after_first

    def test_fresh_search_still_reports_single_sat_call(self):
        T = cinstance(PAIR_SCHEMA, R=[(x, "c")])
        search = SATWorldSearch(T, EMPTY_MASTER, [])
        assert search.has_world()
        assert search.stats.solver.solve_calls == 1


# ---------------------------------------------------------------------------
# S2: reused_solver on the incremental session
# ---------------------------------------------------------------------------
def _session(workload, **kwargs):
    adom = default_active_domain(
        workload.cinstance, workload.master, workload.constraints
    )
    return IncrementalSATSession(
        workload.cinstance, workload.master, workload.constraints, adom, **kwargs
    )


class TestReusedSolverFlag:
    def test_first_call_reports_fresh_then_reused(self):
        workload = inequality_chain_workload(3, close_cycle=False)
        session = _session(workload)
        assert session.has_world()
        assert session.stats.reused_solver is False
        assert session.has_world()
        assert session.stats.reused_solver is True

    def test_trivially_unsat_early_return_does_not_claim_reuse(self):
        # The pre-fix code set reused_solver before the trivially-unsat
        # early return, so a session that never solved claimed reuse.
        from repro.constraints.containment import denial_cc
        from repro.queries.atoms import atom
        from repro.queries.cq import cq

        forbid_all = denial_cc(cq("q", [x, y], atoms=[atom("R", x, y)]))
        T = cinstance(PAIR_SCHEMA, R=[("c", "d")])
        adom = default_active_domain(T, EMPTY_MASTER, [forbid_all])
        session = IncrementalSATSession(T, EMPTY_MASTER, [forbid_all], adom)
        assert session.has_world() is False
        assert session.stats.reused_solver is False


# ---------------------------------------------------------------------------
# CEGAR parity and stats
# ---------------------------------------------------------------------------
CEGAR_WORKLOADS = [
    pytest.param(lambda: inequality_chain_workload(3, close_cycle=False), id="chain-open"),
    pytest.param(lambda: inequality_chain_workload(3, close_cycle=True), id="chain-odd-cycle"),
    pytest.param(lambda: wide_pool_workload(rows=4, values_per_key=3), id="wide-pool"),
    pytest.param(
        lambda: disconnected_components_workload(components=2, rows_per_component=2),
        id="components",
    ),
]


class TestCEGAR:
    @pytest.mark.parametrize("make", CEGAR_WORKLOADS)
    def test_cegar_matches_eager_worlds_and_count(self, make):
        workload = make()
        args = (workload.cinstance, workload.master, workload.constraints)
        eager = SATWorldSearch(*args)
        lazy = SATWorldSearch(*args, cegar=True)
        assert _observe(lazy) == _observe(eager)
        assert (
            SATWorldSearch(*args, cegar=True).count_worlds()
            == SATWorldSearch(*args).count_worlds()
        )
        assert (
            SATWorldSearch(*args, cegar=True).has_world()
            == SATWorldSearch(*args).has_world()
        )

    def test_lazy_encoding_starts_smaller_and_reports_rounds(self):
        workload = wide_pool_workload(rows=4, values_per_key=3)
        args = (workload.cinstance, workload.master, workload.constraints)
        eager = SATWorldSearch(*args)
        lazy = SATWorldSearch(*args, cegar=True)
        assert lazy._encoding.stats.lazy is True
        assert len(lazy._encoding.clauses) < len(eager._encoding.clauses)
        list(lazy.worlds())
        # Full enumeration of a constrained instance must have refined.
        assert lazy._encoding.stats.cegar_rounds > 0

    def test_session_cegar_survives_updates(self):
        # A session in CEGAR mode keeps its refinement clauses across ground
        # updates: verdicts must track an eagerly rebuilt oracle at every step.
        T = cinstance(PAIR_SCHEMA, R=[(x, "c"), (y, "d")])
        from repro.constraints.containment import denial_cc
        from repro.queries.atoms import atom, neq
        from repro.queries.cq import boolean_cq

        fd = denial_cc(
            boolean_cq(
                "fd",
                atoms=[atom("R", x, "c"), atom("R", y, "c")],
                comparisons=[neq(x, y)],
            ),
            name="fd",
        )
        adom = default_active_domain(T, EMPTY_MASTER, [fd])
        session = IncrementalSATSession(T, EMPTY_MASTER, [fd], adom, cegar=True)
        assert session.has_world() == SATWorldSearch(T, EMPTY_MASTER, [fd]).has_world()
        # Ground adds over the existing constants (the session's contract:
        # the active domain must stay fixed) stream through the lazy encoder;
        # verdict and count parity with a rebuilt oracle hold at every step.
        steps = [("R", ("d", "d")), ("R", ("d", "c"))]
        current = T
        for relation, ground in steps:
            current = current.with_row(relation, ground)
            session.apply(current, [(relation, ground)], [])
            oracle = SATWorldSearch(current, EMPTY_MASTER, [fd], checker=None)
            assert session.has_world() == oracle.has_world()
        assert session.count_worlds() == SATWorldSearch(
            current, EMPTY_MASTER, [fd]
        ).count_worlds()


# ---------------------------------------------------------------------------
# component-caching counting
# ---------------------------------------------------------------------------
class TestComponentCounting:
    @pytest.mark.parametrize("components,rows,values,width", [
        (1, 2, 3, 1),
        (2, 2, 3, 1),
        (3, 2, 2, 2),
    ])
    def test_component_count_matches_enumeration_and_closed_form(
        self, components, rows, values, width
    ):
        workload = disconnected_components_workload(
            components=components,
            rows_per_component=rows,
            values=values,
            row_width=width,
        )
        args = (workload.cinstance, workload.master, workload.constraints)
        expected = workload.world_count
        assert SATWorldSearch(*args).count_worlds() == expected
        component_search = SATWorldSearch(*args, component_counting=True)
        assert component_search.count_worlds() == expected
        assert component_search.stats.components == components
        # Identical components hash to one fingerprint: all but the first hit.
        assert component_search.stats.component_cache_hits == components - 1
        assert WorldSearch(*args).count_worlds() == expected

    def test_component_counting_composes_with_cegar(self):
        workload = disconnected_components_workload(
            components=2, rows_per_component=2, values=3
        )
        args = (workload.cinstance, workload.master, workload.constraints)
        search = SATWorldSearch(*args, cegar=True, component_counting=True)
        assert search.count_worlds() == workload.world_count

    def test_connected_instance_is_one_component(self):
        workload = wide_pool_workload(rows=3, values_per_key=3)
        args = (workload.cinstance, workload.master, workload.constraints)
        search = SATWorldSearch(*args, component_counting=True)
        assert search.count_worlds() == SATWorldSearch(*args).count_worlds()
        assert search.stats.components == 1


# ---------------------------------------------------------------------------
# knobs flow end-to-end through EngineConfig / Database
# ---------------------------------------------------------------------------
class TestEngineConfigOptions:
    def test_options_reach_decision_stats(self):
        workload = disconnected_components_workload(
            components=2, rows_per_component=2, values=3
        )
        db = Database(workload.cinstance, workload.master, workload.constraints)
        config = EngineConfig(
            "sat", options={"cegar": True, "component_counting": True}
        )
        decision = db.count(engine=config)
        assert decision.value == workload.world_count
        assert decision.stats.components == 2
        assert decision.stats.cegar_rounds is not None
