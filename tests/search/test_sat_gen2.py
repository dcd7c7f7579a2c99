"""SAT engine generation 2: first-UIP learning, component counting.

This module covers the gen-2 SAT stack plus the latent-bug regressions
fixed alongside it:

* the solver-stats ledger accumulates across ``SATWorldSearch`` calls
  instead of being rebound per solve (the ``_solver()`` rebinding bug);
* ``IncrementalSATSession.has_world`` reports ``reused_solver`` correctly,
  including on the trivially-unsat early return, and the session's counts
  reach its solver ledger;
* the live session tracks the propagating engine across ground updates;
* the one-shot ``count_worlds`` multiplies clause-graph components and
  agrees with the session's blocking-clause enumeration, the propagating
  engine and the closed-form world count — ground rows, ground-only
  violations, one-value pools and variable-free instances included — and
  its component stats reach ``DecisionStats``.

Both SAT paths share one encoder, so the references here are the
propagating engine and closed forms, never the other SAT path alone.
"""

from __future__ import annotations

import pytest

from repro.constraints.containment import denial_cc
from repro.ctables.cinstance import CInstance, cinstance
from repro.ctables.conditions import condition
from repro.ctables.ctable import CTable, CTableRow
from repro.queries.atoms import atom, neq
from repro.queries.cq import boolean_cq
from repro.queries.terms import var
from repro.relational.domains import Domain
from repro.relational.master import empty_master
from repro.relational.schema import RelationSchema, database_schema, schema
from repro.search.engine import WorldSearch
from repro.search.sat_engine import IncrementalSATSession, SATWorldSearch
from repro.ctables.possible_worlds import default_active_domain, model_count
from repro.decision import DecisionRecorder
from repro.workloads.generator import (
    disconnected_components_workload,
    inequality_chain_workload,
    wide_pool_workload,
)

x, y, z = var("x"), var("y"), var("z")

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

    def test_enumeration_work_reaches_the_ledger_but_not_the_reuse_flag(self):
        # Regression: counts ran on a solver outside the session's ledger, so
        # three counts left solve_calls at 0.  The reuse flag must still
        # follow the live solver alone: counting never makes it True.
        workload = inequality_chain_workload(3, close_cycle=False)
        session = _session(workload)
        for _ in range(3):
            session.count_worlds()
        ledger = session.stats.solver
        assert ledger.solve_calls > 3
        assert ledger.decisions > 0
        assert session.stats.reused_solver is False
        assert session.has_world()
        assert session.stats.reused_solver is False
        assert session.has_world()
        assert session.stats.reused_solver is True
        assert session.stats.solver is ledger

    def test_trivially_unsat_early_return_does_not_claim_reuse(self):
        # The pre-fix code set reused_solver before the trivially-unsat
        # early return, so a session that never solved claimed reuse.
        from repro.queries.cq import cq

        forbid_all = denial_cc(cq("q", [x, y], atoms=[atom("R", x, y)]))
        T = cinstance(PAIR_SCHEMA, R=[("c", "d")])
        adom = default_active_domain(T, EMPTY_MASTER, [forbid_all])
        session = IncrementalSATSession(T, EMPTY_MASTER, [forbid_all], adom)
        assert session.has_world() is False
        assert session.stats.reused_solver is False


# ---------------------------------------------------------------------------
# the live session across ground updates
# ---------------------------------------------------------------------------
def _fd_over(value):
    """``R(x, v), R(y, v), x ≠ y`` is forbidden: two rows may not share ``v``."""
    return denial_cc(
        boolean_cq(
            f"fd_{value}",
            atoms=[atom("R", x, value), atom("R", y, value)],
            comparisons=[neq(x, y)],
        ),
        name=f"fd_{value}",
    )


class TestSessionUpdates:
    def test_session_survives_updates(self):
        # The session keeps its clauses across ground updates: verdicts and
        # counts must track the propagating engine rebuilt at every step.
        T = cinstance(PAIR_SCHEMA, R=[(x, "c"), (y, "d")])
        fd = _fd_over("c")
        adom = default_active_domain(T, EMPTY_MASTER, [fd])
        session = IncrementalSATSession(T, EMPTY_MASTER, [fd], adom)
        assert session.has_world() == WorldSearch(T, EMPTY_MASTER, [fd]).has_world()
        # Ground adds over the existing constants (the session's contract:
        # the active domain must stay fixed) stream through the incremental
        # encoder.
        steps = [("R", ("d", "d")), ("R", ("d", "c"))]
        current = T
        for relation, ground in steps:
            current = current.with_row(relation, ground)
            session.apply(current, [(relation, ground)], [])
            reference = WorldSearch(current, EMPTY_MASTER, [fd])
            assert session.has_world() == reference.has_world()
            assert session.count_worlds() == reference.count_worlds()


# ---------------------------------------------------------------------------
# component-caching counting
# ---------------------------------------------------------------------------
def _counts(cinst, master, constraints):
    """One-shot component count, session enumeration and propagating count."""
    args = (cinst, master, constraints)
    search = SATWorldSearch(*args)
    session = IncrementalSATSession(*args, default_active_domain(*args))
    propagating = WorldSearch(*args).count_worlds()
    return search, search.count_worlds(), session.count_worlds(), propagating


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
        search, one_shot, enumerated, propagating = _counts(
            workload.cinstance, workload.master, workload.constraints
        )
        assert one_shot == enumerated == propagating == workload.world_count
        assert search.stats.components == components
        # Identical components hash to one fingerprint: all but the first hit.
        assert search.stats.component_cache_hits == components - 1

    def test_connected_instance_is_one_component(self):
        workload = wide_pool_workload(rows=3, values_per_key=3)
        search, one_shot, enumerated, propagating = _counts(
            workload.cinstance, workload.master, workload.constraints
        )
        assert one_shot == enumerated == propagating
        assert search.stats.components == 1

    def test_ground_rows_in_components(self):
        # A ground row pins component c0 to v1; the others stay free.
        workload = disconnected_components_workload(
            components=3, rows_per_component=2, values=3
        )
        T = workload.cinstance.with_row("Record", ("c0", "v1"))
        search, one_shot, enumerated, propagating = _counts(
            T, workload.master, workload.constraints
        )
        assert one_shot == enumerated == propagating == 9
        assert search.stats.components == 3

    @pytest.mark.parametrize("s_rows", [[("a",)], [("a",), ("a",)]], ids=["once", "twice"])
    def test_a_shared_ground_tuple_does_not_join_components(self, s_rows):
        # R(k, v), S(v) is forbidden.  The ground S("a") meets both variable
        # rows in violation clauses; with its guard asserted those clauses
        # shrink to units, and x and y stay independent.  A duplicate ground
        # row must not leave a second, unasserted guard behind.
        rs_schema = database_schema(schema("R", "A", "B"), schema("S", "A"))
        forbid = denial_cc(
            boolean_cq("rs", atoms=[atom("R", z, x), atom("S", x)]), name="rs"
        )
        T = cinstance(rs_schema, R=[("c0", x), ("c1", y)], S=s_rows)
        search, one_shot, enumerated, propagating = _counts(
            T, EMPTY_MASTER, [forbid]
        )
        assert one_shot == enumerated == propagating > 0
        assert search.stats.components == 2

    @pytest.mark.parametrize("rows", [
        pytest.param([(x, "c"), (y, "c"), ("d", "c")], id="two-rows-and-ground"),
        pytest.param([(x, "c"), ("d", "c"), (y, "e")], id="with-free-row"),
    ])
    @pytest.mark.parametrize("with_fd", [False, True], ids=["free", "fd"])
    def test_ground_tuple_a_variable_row_also_produces(self, rows, with_fd):
        # ("d", "c") is ground and a grounding of (x, c): worlds that differ
        # only in whether a variable row also produces it are one world.
        T = cinstance(PAIR_SCHEMA, R=rows)
        constraints = [_fd_over("c")] if with_fd else []
        _search, one_shot, enumerated, propagating = _counts(
            T, EMPTY_MASTER, constraints
        )
        assert one_shot == enumerated == propagating > 0

    def test_ground_only_violation_counts_zero(self):
        fd = _fd_over("c")
        T = cinstance(PAIR_SCHEMA, R=[("d", "c"), ("e", "c"), (x, "f")])
        search, one_shot, enumerated, propagating = _counts(T, EMPTY_MASTER, [fd])
        assert one_shot == enumerated == propagating == 0
        assert search.has_world() is False

    def test_one_value_pool(self):
        single = Domain(name="one", values=frozenset({"v"}))
        one_schema = database_schema(RelationSchema("R", ["A", ("B", single)]))
        T = cinstance(one_schema, R=[(x, "v"), ("c", y)])
        search, one_shot, enumerated, propagating = _counts(T, EMPTY_MASTER, [])
        assert list(search.encoding.pools[y]) == ["v"]
        assert one_shot == enumerated == propagating > 1

    def test_row_that_never_grounds(self):
        # (x, y) if y ≠ y has no grounding, so no clause joins x and y; the
        # row must still sit inside one component to be applied there.
        table = CTable(
            PAIR_SCHEMA["R"],
            [
                CTableRow((x, y), condition(neq(y, y))),
                CTableRow((x, "c")),
                CTableRow((y, "e")),
            ],
        )
        T = CInstance(PAIR_SCHEMA, {"R": table})
        _search, one_shot, enumerated, propagating = _counts(T, EMPTY_MASTER, [])
        assert one_shot == enumerated == propagating > 0

    def test_variable_free_instance(self):
        T = cinstance(PAIR_SCHEMA, R=[("c", "d"), ("d", "d")])
        search, one_shot, enumerated, propagating = _counts(T, EMPTY_MASTER, [])
        assert one_shot == enumerated == propagating == 1
        assert search.stats.components == 0
        # ("c", "d") and ("d", "d") share "d": a violation over ground rows.
        _search, one_shot, enumerated, propagating = _counts(
            T, EMPTY_MASTER, [_fd_over("d")]
        )
        assert one_shot == enumerated == propagating == 0


# ---------------------------------------------------------------------------
# component stats reach the decision
# ---------------------------------------------------------------------------
class TestDecisionStats:
    def test_one_shot_count_reports_components(self):
        # The functional count runs the one-shot engine (the facade counts
        # on its live session); its component count reaches the stats of
        # the decision recorded around it.
        workload = disconnected_components_workload(
            components=2, rows_per_component=2, values=3
        )
        rec = DecisionRecorder("model-count", "sat")
        with rec:
            count = model_count(
                workload.cinstance, workload.master, workload.constraints, engine="sat"
            )
        decision = rec.decision(count > 0, value=count)
        assert decision.value == workload.world_count
        assert decision.stats.components == 2
