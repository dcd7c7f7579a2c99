"""Differential + unit suite for the hash-indexed fact store and join planner.

The library's indexed delta checker (:class:`ConstraintChecker`) must be
observationally identical to the linear-scan delta reference
(:class:`checker_oracles.LinearScanChecker`) and to the
recompute-from-scratch reference (:class:`checker_oracles.FullRecomputeChecker`)
on **every** push/pop sequence — the hash-join planner of
:mod:`repro.search.joinplan` only changes how the remaining-atom join is
evaluated, never what it answers.  The hypothesis properties below drive all
three checkers in lockstep over random operation sequences (including pops
across violations); the engine-level tests lock identical world streams and
node/prune counters.  Unit tests pin the index machinery itself: multiset
bucket discards, lazy build vs incremental maintenance and value interning.

Every test carries the ``delta_differential`` marker so ``scripts/check.sh``
runs this suite as part of the dedicated semantics gate.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checker_oracles import CHECKERS, check
from repro.constraints.containment import cc, denial_cc, projection
from repro.ctables.cinstance import cinstance
from repro.ctables.possible_worlds import default_active_domain
from repro.exceptions import SearchError
from repro.queries.atoms import atom, neq
from repro.queries.cq import boolean_cq, cq
from repro.queries.terms import var
from repro.relational.indexing import FactIndex, IndexedFactStore
from repro.relational.master import MasterData
from repro.relational.schema import database_schema, schema
from repro.search.engine import WorldSearch
from repro.search.naive import NaiveWorldSearch
from repro.search.propagation import ConstraintChecker
from repro.workloads.generator import (
    registry_workload,
    skewed_join_workload,
    wide_constraint_workload,
    wide_pool_workload,
)

pytestmark = pytest.mark.delta_differential

x, y, z, w = var("x"), var("y"), var("z"), var("w")

DB_SCHEMA = database_schema(schema("R", "A", "B"), schema("S", "A"))
MASTER = MasterData(
    database_schema(schema("Rm", "A", "B"), schema("Sm", "A")),
    {"Rm": [(0, 0), (1, 1), (1, 2), (2, 0)], "Sm": [(0,), (2,)]},
)

#: Structurally diverse constraints: the multi-atom joins are the hash-join
#: planner's target (seeded chains with projected-away variables), the FD
#: denial exercises comparisons at the leaves, the cross-relation join
#: exercises per-relation index maintenance.
CONSTRAINT_POOL = [
    cc(
        cq("bound", [x, y], atoms=[atom("R", x, y)]),
        projection("Rm", "A", "B"),
        name="r⊆rm",
    ),
    denial_cc(
        boolean_cq(
            "no_path3",
            atoms=[atom("R", x, y), atom("R", y, z), atom("R", z, w)],
        ),
        name="no-3-path",
    ),
    denial_cc(
        boolean_cq(
            "fd",
            atoms=[atom("R", x, y), atom("R", x, z)],
            comparisons=[neq(y, z)],
        ),
        name="fd:A→B",
    ),
    cc(
        cq("join", [y], atoms=[atom("R", x, y), atom("S", y)]),
        projection("Sm", "A"),
        name="r⋈s⊆sm",
    ),
]

r_rows = st.tuples(st.integers(0, 2), st.integers(0, 2))
s_rows = st.tuples(st.integers(0, 2))
push_ops = st.one_of(
    st.tuples(st.just("push"), st.just("R"), r_rows),
    st.tuples(st.just("push"), st.just("S"), s_rows),
    st.tuples(st.just("pop"), st.just(""), st.just(())),
)
constraint_sets = st.lists(
    st.sampled_from(range(len(CONSTRAINT_POOL))), unique=True, max_size=3
).map(lambda indices: [CONSTRAINT_POOL[i] for i in indices])


# ---------------------------------------------------------------------------
# index machinery units
# ---------------------------------------------------------------------------
class TestFactIndex:
    def test_multiset_discard_keeps_shared_continuations(self):
        # Two rows project onto the same out-tuple; discarding one must keep
        # the continuation alive, discarding both must drop it.
        index = FactIndex((0,), (2,))
        index.add(("a", "t1", "b"))
        index.add(("a", "t2", "b"))
        assert index.group(("a",)) == {("b",): 2}
        assert index.buckets == {("a",): {("b",): 2}}
        index.discard(("a", "t1", "b"))
        assert index.group(("a",)) == {("b",): 1}
        index.discard(("a", "t2", "b"))
        assert index.group(("a",)) == {}
        assert not index.buckets  # empty buckets are garbage-collected

    def test_empty_key_and_one_position_out_project_to_tuples(self):
        # The compiled projections must yield tuples for every signature
        # size: an empty key is the one bucket (), and a one-position out
        # is a 1-tuple, not the bare value.
        index = FactIndex((), (1,), rows=[("a", "b"), ("c", "b"), ("c", "d")])
        assert index.buckets == {(): {("b",): 2, ("d",): 1}}
        index.discard(("a", "b"))
        assert index.group(()) == {("b",): 1, ("d",): 1}
        wide = FactIndex((0, 1), (), rows=[("a", "b", "c")])
        assert wide.buckets == {("a", "b"): {(): 1}}
        # An index pickles with its compiled projections.
        for built in (index, wide):
            assert pickle.loads(pickle.dumps(built)).buckets == built.buckets

    def test_group_of_unknown_key_is_empty(self):
        index = FactIndex((0,), (1,), rows=[("a", "b")])
        assert index.group(("zzz",)) == {}

    def test_emptied_key_is_dropped_and_others_kept(self):
        index = FactIndex((0,), (1,))
        for row in [("a", 1), ("a", 2), ("a", 3), ("b", 1)]:
            index.add(row)
        for row in [("a", 1), ("a", 2), ("a", 3)]:
            index.discard(row)
        assert index.buckets == {("b",): {(1,): 1}}

    def test_incremental_maintenance_matches_rebuild(self):
        rows = [("a", i % 3, f"t{i}") for i in range(9)] + [("b", 0, "u")]
        incremental = FactIndex((0, 1), (2,))
        for row in rows:
            incremental.add(row)
        for row in rows[::2]:
            incremental.discard(row)
        rebuilt = FactIndex((0, 1), (2,), rows=[r for r in rows if r not in rows[::2]])
        assert incremental.buckets == rebuilt.buckets


class TestIndexedFactStore:
    def test_is_a_plain_mapping_of_row_sets(self):
        store = IndexedFactStore(["R", "S"])
        store.add_row("R", (1, 2))
        assert store == {"R": {(1, 2)}, "S": set()}

    def test_duplicate_add_reports_not_added(self):
        store = IndexedFactStore(["R"])
        _, added = store.add_row("R", (1, 2))
        assert added
        _, added = store.add_row("R", (1, 2))
        assert not added

    def test_interning_canonicalises_equal_values(self):
        store = IndexedFactStore(["R"])
        first = "key" + str(0)
        second = "key" + str(0)
        assert first is not second  # distinct but equal objects
        row1, _ = store.add_row("R", (first, 1))
        store.discard_row("R", (first, 1))
        row2, _ = store.add_row("R", (second, 1))
        assert row1[0] is row2[0]  # one representative object survives

    def test_indexes_are_lazy_and_stay_in_sync(self):
        store = IndexedFactStore(["R"])
        store.add_row("R", ("a", 1))
        assert not store._indexes  # nothing asked for an index yet
        index = store.index("R", ((0,), (1,)))
        assert len(store._indexes) == 1
        assert index.group(("a",)) == {(1,): 1}
        # Mutations after the build maintain the index incrementally...
        store.add_row("R", ("a", 2))
        store.discard_row("R", ("a", 1))
        assert index.group(("a",)) == {(2,): 1}
        # ...and the same signature returns the same index object.
        assert store.index("R", ((0,), (1,))) is index

    def test_index_on_unknown_relation_is_empty(self):
        store = IndexedFactStore(["R"])
        assert store.index("T", ((0,), ())).group(()) == {}

    def test_discard_of_absent_row_is_a_noop(self):
        store = IndexedFactStore(["R"])
        index = store.index("R", ((0,), (1,)))
        store.discard_row("R", ("ghost", 1))
        store.discard_row("T", ("ghost", 1))
        assert not index.buckets


# ---------------------------------------------------------------------------
# three-way session lockstep
# ---------------------------------------------------------------------------
def lockstep(constraints, operations):
    """Drive all three checkers in lockstep, asserting agreement."""
    sessions = {
        label: checker_class(MASTER, constraints).session(DB_SCHEMA.relation_names)
        for label, checker_class in CHECKERS.items()
    }
    reference = sessions["delta-indexed"]
    for op, relation, row in operations:
        if op == "push":
            verdicts = {
                label: session.push(relation, row)
                for label, session in sessions.items()
            }
            assert len(set(verdicts.values())) == 1, (relation, row, verdicts)
        else:
            if not reference.depth:
                continue
            for session in sessions.values():
                session.pop()
        for label, session in sessions.items():
            assert session.facts == reference.facts, label
            assert session.is_satisfied == reference.is_satisfied, label
            assert (
                session.violated_constraints() == reference.violated_constraints()
            ), label
    return sessions


class TestThreeWayLockstep:
    @settings(max_examples=80, deadline=None)
    @given(constraints=constraint_sets, operations=st.lists(push_ops, max_size=20))
    def test_configurations_agree_on_every_push_pop_sequence(
        self, constraints, operations
    ):
        lockstep(constraints, operations)

    @settings(max_examples=40, deadline=None)
    @given(constraints=constraint_sets, operations=st.lists(push_ops, max_size=14))
    def test_full_unwind_restores_the_empty_store(self, constraints, operations):
        sessions = lockstep(constraints, operations)
        stateless = ConstraintChecker(MASTER, constraints)
        for label, session in sessions.items():
            session.pop_to(0)
            assert all(not rows for rows in session.facts.values()), label
            assert session.is_satisfied == check(stateless, session.facts), label

    def test_pop_after_violation_unwinds_index_entries(self):
        # The violating push adds index entries; popping it must remove
        # exactly those, leaving lookups as if the push never happened.
        checker = ConstraintChecker(MASTER, [CONSTRAINT_POOL[0]])
        session = checker.session(DB_SCHEMA.relation_names)
        assert session.push("R", (1, 1)) is True
        index = session.facts.index("R", ((0,), (1,)))
        assert session.push("R", (2, 2)) is False  # (2,2) ∉ Rm
        assert index.group((2,)) == {(2,): 1}
        session.pop()
        assert session.is_satisfied
        assert index.group((2,)) == {}
        assert session.facts["R"] == {(1, 1)}


# ---------------------------------------------------------------------------
# engine-level differential (identical trees and counters)
# ---------------------------------------------------------------------------
def _workload_corpus():
    return [
        wide_constraint_workload(ground_rows=6, variable_rows=2, width=3),
        skewed_join_workload(hub_degree=6, variable_rows=2),
        registry_workload(master_size=3, db_rows=3, variable_count=2),
    ]


class TestEngineLevelDifferential:
    @pytest.mark.parametrize("workload_index", range(3))
    def test_same_worlds_and_counters_across_configurations(self, workload_index):
        workload = _workload_corpus()[workload_index]
        adom = default_active_domain(
            workload.cinstance, workload.master, workload.constraints
        )
        observed = {}
        for label, checker_class in CHECKERS.items():
            search = WorldSearch(
                workload.cinstance, workload.master, workload.constraints, adom,
                checker=checker_class(workload.master, workload.constraints),
            )
            pairs = [
                (frozenset(valuation.items()), world)
                for valuation, world in search.search()
            ]
            observed[label] = (pairs, search.stats.nodes, search.stats.pruned)
        assert observed["delta-indexed"] == observed["delta-linear"]
        assert observed["delta-indexed"] == observed["full"]

    @settings(max_examples=30, deadline=None)
    @given(
        constraints=constraint_sets,
        ground=st.lists(r_rows, max_size=2),
        seed_rows=st.integers(1, 2),
    )
    def test_random_instances_enumerate_identically(
        self, constraints, ground, seed_rows
    ):
        rows = [tuple(row) for row in ground]
        rows += [(var(f"h{i}"), var(f"t{i}")) for i in range(seed_rows)]
        T = cinstance(DB_SCHEMA, R=rows)
        adom = default_active_domain(T, MASTER, constraints)
        observed = {}
        for label, checker_class in CHECKERS.items():
            search = WorldSearch(
                T, MASTER, constraints, adom,
                checker=checker_class(MASTER, constraints),
            )
            pairs = [
                (frozenset(valuation.items()), world)
                for valuation, world in search.search()
            ]
            observed[label] = (pairs, search.stats.nodes, search.stats.pruned)
        assert observed["delta-indexed"] == observed["delta-linear"]
        assert observed["delta-indexed"] == observed["full"]


# ---------------------------------------------------------------------------
# ordering knobs: same worlds, different visit order
# ---------------------------------------------------------------------------
class TestOrderingKnobs:
    @staticmethod
    def _world_set(search):
        return {
            (frozenset(valuation.items()), world)
            for valuation, world in search.search()
        }

    def test_pruning_heavy_search_matches_naive_enumeration(self):
        # The pigeonhole regime prunes most branches at the checker; the
        # static order must still reach exactly the worlds that brute-force
        # enumeration of every valuation finds.
        workload = wide_pool_workload(rows=4, values_per_key=4)
        adom = default_active_domain(
            workload.cinstance, workload.master, workload.constraints
        )
        search = WorldSearch(
            workload.cinstance, workload.master, workload.constraints, adom
        )
        naive = NaiveWorldSearch(
            workload.cinstance, workload.master, workload.constraints, adom
        )
        assert self._world_set(search) == self._world_set(naive)
        assert search.stats.pruned > 0

    def test_static_order_runs_are_deterministic(self):
        workload = wide_pool_workload(rows=4, values_per_key=3)
        adom = default_active_domain(
            workload.cinstance, workload.master, workload.constraints
        )
        runs = []
        for _ in range(2):
            search = WorldSearch(
                workload.cinstance, workload.master, workload.constraints, adom
            )
            runs.append((list(search.search()), search.stats.nodes, search.stats.pruned))
        assert runs[0] == runs[1]

    def test_fresh_first_pool_order_preserves_the_world_set(self):
        workload = registry_workload(master_size=3, db_rows=3, variable_count=2)
        adom = default_active_domain(
            workload.cinstance, workload.master, workload.constraints
        )
        baseline = WorldSearch(
            workload.cinstance, workload.master, workload.constraints, adom
        )
        ordered = WorldSearch(
            workload.cinstance, workload.master, workload.constraints, adom,
            pool_order="fresh_first",
        )
        assert self._world_set(ordered) == self._world_set(baseline)

    def test_unknown_pool_order_is_rejected(self):
        workload = registry_workload(master_size=2, db_rows=2, variable_count=1)
        adom = default_active_domain(
            workload.cinstance, workload.master, workload.constraints
        )
        with pytest.raises(SearchError):
            WorldSearch(
                workload.cinstance, workload.master, workload.constraints, adom,
                pool_order="alphabetical",
            )
