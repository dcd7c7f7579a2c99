"""Differential suite for the delta-evaluated :class:`ConstraintChecker`.

The library's semi-naive delta checker must be observationally identical to
the recompute-from-scratch and linear-scan reference checkers
(:class:`checker_oracles.FullRecomputeChecker`,
:class:`checker_oracles.LinearScanChecker`) — and all must agree with the
stateless full evaluation of the current fact store — on **every** push/pop
sequence, not only the well-behaved ones the search engine produces.  The
hypothesis properties below drive randomly generated constraint sets, fact
rows and operation sequences through the three checkers in lockstep, and
every constraint shape the compiled seed plans treat apart on its own; the
hand-written regressions pin the trickiest protocol corners (pushing after a
violation, popping back across a violation, pushing a tuple that is already
present, retracting) and the engine-level equivalence (identical worlds
*and* identical node/prune counters from :class:`WorldSearch` under either
checker).

Every test carries the ``delta_differential`` marker so ``scripts/check.sh``
can run the semantics gate as a dedicated step.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checker_oracles import CHECKERS, check
from repro.constraints.containment import cc, denial_cc, projection
from repro.ctables.cinstance import cinstance
from repro.ctables.possible_worlds import default_active_domain
from repro.exceptions import ArityError, SearchError
from repro.queries.atoms import atom, eq, neq
from repro.queries.cq import boolean_cq, cq
from repro.queries.terms import var
from repro.relational.master import MasterData
from repro.relational.schema import database_schema, schema
from repro.search.engine import WorldSearch
from repro.search.propagation import ConstraintChecker

pytestmark = pytest.mark.delta_differential

x, y, z, w = var("x"), var("y"), var("z"), var("w")

DB_SCHEMA = database_schema(schema("R", "A", "B"), schema("S", "A"))
MASTER = MasterData(
    database_schema(schema("Rm", "A", "B"), schema("Sm", "A")),
    {"Rm": [(0, 0), (1, 1), (1, 2), (2, 0)], "Sm": [(0,), (2,)]},
)

#: A pool of structurally diverse constraints the properties sample from:
#: single-atom containment, multi-atom joins (the delta evaluator's seeding
#: target), cross-relation joins, (in)equality comparisons and an
#: equality-only-bound head variable.
CONSTRAINT_POOL = [
    cc(
        cq("bound", [x, y], atoms=[atom("R", x, y)]),
        projection("Rm", "A", "B"),
        name="r⊆rm",
    ),
    cc(
        cq("s_bound", [x], atoms=[atom("S", x)]),
        projection("Sm", "A"),
        name="s⊆sm",
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
    cc(
        cq(
            "eq_head",
            [x, z],
            atoms=[atom("R", x, y)],
            comparisons=[eq(z, 1)],
        ),
        projection("Rm", "A", "B"),
        name="eq-bound-head",
    ),
    # The shapes the compiled seed plans (joinplan.compile_seed_plans) treat
    # apart: tests on row positions, compile-time resolution and decision
    # of comparisons, comparisons tested as soon as a join binds them.
    cc(
        cq("r1", [y], atoms=[atom("R", 1, y)]),
        projection("Sm", "A"),
        name="const-position",
    ),
    cc(
        cq("loop", [x], atoms=[atom("R", x, x)]),
        projection("Sm", "A"),
        name="repeated-variable",
    ),
    denial_cc(
        boolean_cq(
            "symmetric",
            atoms=[atom("R", x, y), atom("R", z, w)],
            comparisons=[eq(x, w), eq(y, z), neq(x, y)],
        ),
        name="eq-atom-variables",
    ),
    cc(
        cq(
            "paper_shape",
            [x],
            atoms=[atom("R", x, y), atom("S", z)],
            comparisons=[eq(y, 1), neq(z, 0)],
        ),
        projection("Sm", "A"),
        name="eq-neq-constant",
    ),
    cc(
        cq("chain", [z], atoms=[atom("R", x, y)], comparisons=[eq(z, w), eq(w, y)]),
        projection("Sm", "A"),
        name="head-via-chain",
    ),
    cc(
        cq("never", [x], atoms=[atom("R", x, y)], comparisons=[eq(0, 1)]),
        projection("Sm", "A"),
        name="false-constants",
    ),
    denial_cc(
        boolean_cq(
            "s_path",
            atoms=[atom("R", x, y), atom("R", y, z), atom("S", w)],
            comparisons=[eq(x, w), neq(x, z)],
        ),
        name="join3-spanning",
    ),
    cc(
        cq("loop_s", [x], atoms=[atom("S", x), atom("R", y, y)]),
        projection("Sm", "A"),
        name="repeat-in-join",
    ),
]

POOL_BY_NAME = {constraint.name: constraint for constraint in CONSTRAINT_POOL}

r_rows = st.tuples(st.integers(0, 2), st.integers(0, 2))
s_rows = st.tuples(st.integers(0, 2))
push_ops = st.one_of(
    st.tuples(st.just("push"), st.just("R"), r_rows),
    st.tuples(st.just("push"), st.just("S"), s_rows),
    st.tuples(st.just("pop"), st.just(""), st.just(())),
)
constraint_sets = st.lists(
    st.sampled_from(range(len(CONSTRAINT_POOL))), unique=True, max_size=4
).map(lambda indices: [CONSTRAINT_POOL[i] for i in indices])


def lockstep(constraints, operations):
    """Drive the delta checker and both references in lockstep.

    Returns the delta session and the full-recompute one.
    """
    sessions = {
        label: checker_class(MASTER, constraints).session(DB_SCHEMA.relation_names)
        for label, checker_class in CHECKERS.items()
    }
    delta_session = sessions["delta-indexed"]
    stateless = ConstraintChecker(MASTER, constraints)
    for op, relation, row in operations:
        if op == "push":
            verdicts = {
                label: session.push(relation, row) for label, session in sessions.items()
            }
            assert len(set(verdicts.values())) == 1, (relation, row, verdicts)
        else:
            if not delta_session.depth:
                continue
            for session in sessions.values():
                session.pop()
        # The ground truth: the incremental verdict must equal a stateless
        # full evaluation of the current store, at every step.
        assert delta_session.is_satisfied == check(stateless, delta_session.facts)
        for label, session in sessions.items():
            assert session.facts == delta_session.facts, label
            assert session.is_satisfied == delta_session.is_satisfied, label
            assert (
                session.violated_constraints() == delta_session.violated_constraints()
            ), label
    return delta_session, sessions["full"]


class TestDeltaFullAgreement:
    @settings(max_examples=120, deadline=None)
    @given(constraints=constraint_sets, operations=st.lists(push_ops, max_size=24))
    def test_checkers_agree_on_every_push_pop_sequence(self, constraints, operations):
        lockstep(constraints, operations)

    @settings(max_examples=60, deadline=None)
    @given(constraints=constraint_sets, operations=st.lists(push_ops, max_size=16))
    def test_full_unwind_restores_the_empty_store(self, constraints, operations):
        delta_session, _full = lockstep(constraints, operations)
        delta_session.pop_to(0)
        assert all(not rows for rows in delta_session.facts.values())
        assert delta_session.is_satisfied == check(
            ConstraintChecker(MASTER, constraints), delta_session.facts
        )


class TestProtocolRegressions:
    def test_pop_after_violation_restores_satisfaction(self):
        constraints = [CONSTRAINT_POOL[0]]  # R ⊆ Rm
        for label, checker_class in CHECKERS.items():
            checker = checker_class(MASTER, constraints)
            session = checker.session(DB_SCHEMA.relation_names)
            assert session.push("R", (1, 1)) is True
            assert session.push("R", (2, 2)) is False  # (2,2) ∉ Rm
            assert not session.is_satisfied
            session.pop()
            assert session.is_satisfied, label
            assert session.facts["R"] == {(1, 1)}

    def test_push_after_unpopped_violation_stays_violated(self):
        constraints = [CONSTRAINT_POOL[0]]
        for checker_class in CHECKERS.values():
            session = checker_class(MASTER, constraints).session(
                DB_SCHEMA.relation_names
            )
            assert session.push("R", (2, 2)) is False
            # A later, individually fine push must not mask the violation...
            assert session.push("R", (1, 1)) is False
            # ...and popping it must not clear the violation either.
            session.pop()
            assert not session.is_satisfied
            session.pop()
            assert session.is_satisfied

    def test_repeated_tuple_pushes_are_popped_symmetrically(self):
        constraints = [CONSTRAINT_POOL[3]]  # FD denial
        for checker_class in CHECKERS.values():
            session = checker_class(MASTER, constraints).session(
                DB_SCHEMA.relation_names
            )
            assert session.push("R", (0, 1)) is True
            assert session.push("R", (0, 1)) is True  # no-op duplicate
            session.pop()  # pops the duplicate, not the tuple
            assert session.facts["R"] == {(0, 1)}
            assert session.push("R", (0, 2)) is False  # FD violation
            session.pop_to(0)
            assert session.is_satisfied
            assert not session.facts["R"]

    def test_repeated_push_while_violated_reports_violation(self):
        constraints = [CONSTRAINT_POOL[0]]
        for checker_class in CHECKERS.values():
            session = checker_class(MASTER, constraints).session()
            assert session.push("R", (2, 2)) is False
            assert session.push("R", (2, 2)) is False  # duplicate of the culprit
            session.pop()
            assert not session.is_satisfied  # the original push still stands
            session.pop()
            assert session.is_satisfied

    def test_pop_underflow_is_rejected(self):
        session = ConstraintChecker(MASTER, [CONSTRAINT_POOL[0]]).session(
            DB_SCHEMA.relation_names
        )
        with pytest.raises(SearchError):
            session.pop()
        assert session.push("R", (1, 1)) is True
        session.pop()
        with pytest.raises(SearchError):
            session.pop()

    def test_atom_free_constraint_seeds_base_violation(self):
        # A constant-only LHS produces an answer over the empty store; no
        # push ever touches it, so the verdict must be fixed at session
        # creation for every checker.
        unsatisfiable = denial_cc(
            boolean_cq("always", comparisons=[eq(1, 1)]), name="⊥"
        )
        for checker_class in CHECKERS.values():
            session = checker_class(MASTER, [unsatisfiable]).session(
                DB_SCHEMA.relation_names
            )
            assert not session.is_satisfied
            assert session.push("R", (1, 1)) is False


class TestCompiledShapes:
    """Each constraint shape the compiled plans treat apart, on its own.

    The scripts push tuples one by one and state the verdict after each; a
    plan that drops the shape's test (a constant position, a repeated
    variable in the seed or in a joined atom, an equality or inequality, an
    equality chain, a false constant comparison, a comparison spanning two
    joined atoms) reports a violation one step too early, and one that
    misresolves it too late.
    """

    SCRIPTS = {
        "const-position": [("R", (0, 1), True), ("R", (1, 0), True), ("R", (1, 1), False)],
        "repeated-variable": [("R", (1, 2), True), ("R", (0, 0), True), ("R", (1, 1), False)],
        "eq-atom-variables": [("R", (0, 1), True), ("R", (1, 2), True), ("R", (1, 0), False)],
        "eq-neq-constant": [
            ("S", (0,), True), ("S", (2,), True), ("R", (1, 0), True), ("R", (0, 1), True),
            ("R", (1, 1), False),
        ],
        "head-via-chain": [("R", (0, 0), True), ("R", (1, 2), True), ("R", (2, 1), False)],
        "false-constants": [("R", (1, 1), True), ("R", (2, 2), True), ("S", (1,), True)],
        "join3-spanning": [
            ("S", (2,), True), ("R", (0, 1), True), ("R", (1, 2), True), ("S", (0,), False),
        ],
        "repeat-in-join": [("R", (0, 1), True), ("S", (1,), True), ("R", (2, 2), False)],
    }

    @pytest.mark.parametrize("name", sorted(SCRIPTS))
    def test_scripted_verdicts(self, name):
        for label, checker_class in CHECKERS.items():
            session = checker_class(MASTER, [POOL_BY_NAME[name]]).session(
                DB_SCHEMA.relation_names
            )
            for relation, row, expected in self.SCRIPTS[name]:
                assert session.push(relation, row) is expected, (label, relation, row)

    @pytest.mark.parametrize("name", sorted(POOL_BY_NAME))
    @settings(max_examples=50, deadline=None)
    @given(operations=st.lists(push_ops, max_size=16))
    def test_each_shape_agrees_alone(self, name, operations):
        lockstep([POOL_BY_NAME[name]], operations)

    def test_wrong_arity_seed_row_raises(self):
        # The plan's seed test reads row positions, so it must check the
        # row's length first, as match_atom does.
        for label, checker_class in CHECKERS.items():
            session = checker_class(MASTER, [CONSTRAINT_POOL[0]]).session(
                DB_SCHEMA.relation_names
            )
            with pytest.raises(ArityError):
                session.push("R", (1,))
            assert not session.facts["R"], label
            assert session.depth == 0, label
            assert session.push("R", (1, 1)) is True, label


class TestSharedProbeMemo:
    """Join probes are built on first use and shared by every session.

    One checker serves interleaved sessions; whichever session meets a
    bound subset first builds the probe the other then reuses, and each
    verdict must still equal a stateless evaluation of its own store.
    """

    JOINS = [constraint for constraint in CONSTRAINT_POOL if len(constraint.query.atoms) > 1]

    @settings(max_examples=60, deadline=None)
    @given(
        operations=st.lists(st.tuples(st.integers(0, 1), push_ops), max_size=30)
    )
    def test_interleaved_sessions_agree_with_full_evaluation(self, operations):
        checker = ConstraintChecker(MASTER, self.JOINS)
        sessions = [checker.session(DB_SCHEMA.relation_names) for _ in range(2)]
        for which, (op, relation, row) in operations:
            session = sessions[which]
            if op == "push":
                session.push(relation, row)
            elif session.depth:
                session.pop()
            assert session.is_satisfied == check(checker, session.facts)

    def test_threads_racing_on_an_empty_memo_agree_with_full_evaluation(self):
        # More threads than cores start together on a fresh checker with a
        # short switch interval, so they interleave inside build_probe; a
        # probe published half-built or under the wrong bound subset would
        # make some verdict differ from a full evaluation.
        failures: list[tuple] = []

        def run(checker: ConstraintChecker, start: threading.Barrier, seed: int) -> None:
            rng = random.Random(seed)
            session = checker.session(DB_SCHEMA.relation_names)
            start.wait()
            for _ in range(60):
                if session.depth and rng.random() < 0.3:
                    session.pop()
                elif rng.random() < 0.5:
                    session.push("R", (rng.randrange(3), rng.randrange(3)))
                else:
                    session.push("S", (rng.randrange(3),))
                if session.is_satisfied != check(checker, session.facts):
                    failures.append((seed, dict(session.facts)))
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(30):
                checker = ConstraintChecker(MASTER, self.JOINS)
                start = threading.Barrier(6)
                threads = [
                    threading.Thread(target=run, args=(checker, start, 6 * round_ + index))
                    for index in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []


class TestRetractedSessionTrail:
    """A retracted session keeps no trail: it can never pop again."""

    def test_push_retract_pairs_leave_depth_unchanged(self):
        constraints = [CONSTRAINT_POOL[0], CONSTRAINT_POOL[3]]
        checker = ConstraintChecker(MASTER, constraints)
        session = checker.session(DB_SCHEMA.relation_names)
        assert session.push("R", (1, 1)) is True
        assert session.push("R", (0, 0)) is True
        assert session.retract("R", (0, 0)) is True
        depth = session.depth
        assert depth == 0
        for step in range(1000):
            row = (step % 3, (step // 3) % 3)
            pushed = session.push("R", row)
            assert pushed == check(checker, session.facts), row
            session.retract("R", row)
            assert session.is_satisfied == check(checker, session.facts), row
            assert session.depth == depth
        with pytest.raises(SearchError):
            session.pop()

    def test_pop_to_after_retract_raises(self):
        checker = ConstraintChecker(MASTER, [CONSTRAINT_POOL[0]])
        session = checker.session(DB_SCHEMA.relation_names)
        mark = session.mark()
        session.push("R", (1, 1))
        session.push("R", (0, 0))
        session.retract("R", (0, 0))
        for token in (mark, session.mark()):
            with pytest.raises(SearchError):
                session.pop_to(token)


class TestAtomFreeConstraintParity:
    """Regression: base violations must surface even when nothing is pushed.

    An always-violated atom-free constraint never touches a relation, so the
    propagating engine's push-based checking used to miss it on instances
    whose root level grounds no rows — yielding worlds the naive engine
    rejects.
    """

    def test_engines_agree_on_empty_instance(self):
        from repro.ctables.possible_worlds import has_model, models

        forbid = denial_cc(boolean_cq("always", comparisons=[eq(1, 1)]), name="⊥")
        T = cinstance(DB_SCHEMA)
        for engine in ("naive", "propagating", "sat"):
            assert list(models(T, MASTER, [forbid], engine=engine)) == [], engine
            assert has_model(T, MASTER, [forbid], engine=engine) is False, engine

    def test_engines_agree_with_variables_present(self):
        from repro.ctables.possible_worlds import models

        forbid = denial_cc(boolean_cq("always", comparisons=[eq(1, 1)]), name="⊥")
        T = cinstance(DB_SCHEMA, R=[(x, y)])
        for engine in ("naive", "propagating", "sat"):
            assert list(models(T, MASTER, [forbid], engine=engine)) == [], engine


class TestEngineLevelDifferential:
    """WorldSearch under a delta checker ≡ WorldSearch under a full checker."""

    CASES = [
        # (c-instance rows, constraints)
        ({"R": [(x, y)]}, [CONSTRAINT_POOL[0]]),
        ({"R": [(0, x), (1, y)], "S": [(z,)]}, [CONSTRAINT_POOL[0], CONSTRAINT_POOL[4]]),
        ({"R": [(x, y), (y, z)]}, [CONSTRAINT_POOL[2], CONSTRAINT_POOL[3]]),
        ({"R": [(2, 2)], "S": [(x,)]}, [CONSTRAINT_POOL[0]]),  # ground violation
    ]

    @pytest.mark.parametrize("rows,constraints", CASES)
    def test_same_worlds_and_same_counters(self, rows, constraints):
        T = cinstance(DB_SCHEMA, **{name: rs for name, rs in rows.items()})
        adom = default_active_domain(T, MASTER, constraints)
        results = {}
        for label in ("delta-indexed", "full"):
            search = WorldSearch(
                T, MASTER, constraints, adom,
                checker=CHECKERS[label](MASTER, constraints),
            )
            pairs = [
                (frozenset(valuation.items()), world)
                for valuation, world in search.search()
            ]
            results[label] = (pairs, search.stats.nodes, search.stats.pruned)
        assert results["delta-indexed"] == results["full"]

    @settings(max_examples=40, deadline=None)
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
        for label in ("delta-indexed", "full"):
            search = WorldSearch(
                T, MASTER, constraints, adom,
                checker=CHECKERS[label](MASTER, constraints),
            )
            pairs = [
                (frozenset(valuation.items()), world)
                for valuation, world in search.search()
            ]
            observed[label] = (pairs, search.stats.nodes, search.stats.pruned)
        assert observed["delta-indexed"] == observed["full"]
