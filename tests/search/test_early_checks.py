"""Early checks and pool restriction of the world search against the
push-only reference.

:class:`~repro.search.engine.WorldSearch` runs a compiled constraint plan on
a variable row as soon as the row positions the plan reads
(:attr:`~repro.search.joinplan.SeedPlan.reads`) and the row's condition are
ground, and cuts the branch when the plan finds an answer outside the
right-hand side.  By CQ monotonicity that answer escapes in every world
below.  Before it searches, it also cuts each variable's pool to the values
a one-atom plan allows for a row whose condition is ``TRUE``
(:meth:`~repro.search.propagation.ConstraintChecker.row_supports`): such a
row is in every world, so a value outside the plan's right-hand side is in
no satisfying valuation.  Both cuts must change nothing but the effort:
:class:`checker_oracles.PushOnlyChecker`, whose plans read every position
(so it schedules no early check) and which restricts no pool, must
enumerate the identical ``(valuation, world)`` sequence with ``nodes`` and
pushes no lower.

The corpus pins the shapes the scheduling and the restriction treat apart
(unread columns, a conditioned row, a variable repeated inside a row, a plan
that reads only constant positions, a seed test on a constant or on a
variable, a constant head term, an emptied pool, symmetry breaking, rooted
runs); a case that needs the condition's variable assigned after the columns
a plan reads pins the variable order by patching
:func:`~repro.search.engine.order_variables`.  The hypothesis suite draws
random rows, conditions and constraint sets.  Every test carries the
``delta_differential`` marker.
"""

from __future__ import annotations

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checker_oracles import PushOnlyChecker
from repro.constraints.containment import cc, denial_cc, projection
from repro.ctables.cinstance import cinstance
from repro.ctables.conditions import condition, var_eq, var_neq
from repro.ctables.ctable import CTableRow
from repro.ctables.possible_worlds import default_active_domain
from repro.queries.atoms import atom, eq, neq
from repro.queries.cq import boolean_cq, cq
from repro.queries.terms import var
from repro.relational.instance import instance
from repro.relational.master import MasterData
from repro.relational.schema import database_schema, schema
from repro.search.engine import WorldSearch
from repro.search.propagation import CheckerSession, ConstraintChecker

pytestmark = pytest.mark.delta_differential

x, y, z, w, u = var("x"), var("y"), var("z"), var("w"), var("u")

DB_SCHEMA = database_schema(schema("R", "A", "B", "C"), schema("S", "A"))
MASTER = MasterData(
    database_schema(schema("Rm", "A", "B"), schema("Sm", "A")),
    {"Rm": [(0, 0), (1, 1), (1, 2), (2, 0)], "Sm": [(0,), (2,)]},
)

#: Constraints that read some columns of ``R`` and not others.
FD = denial_cc(
    boolean_cq("fd", atoms=[atom("R", x, y, z), atom("R", x, w, u)], comparisons=[neq(y, w)]),
    name="fd:A→B",
)
BOUND = cc(cq("ab", [x, y], atoms=[atom("R", x, y, z)]), projection("Rm", "A", "B"), name="ab⊆rm")
JOIN = cc(cq("join", [y], atoms=[atom("R", x, y, z), atom("S", y)]), projection("Sm", "A"),
          name="r⋈s⊆sm")
LOOP = cc(cq("loop", [x], atoms=[atom("R", x, x, z)]), projection("Sm", "A"), name="loop")
NO_ONE = denial_cc(boolean_cq("no_one", atoms=[atom("R", 1, y, z)]), name="no-A=1")
S_BOUND = cc(cq("s", [x], atoms=[atom("S", x)]), projection("Sm", "A"), name="s⊆sm")
#: Seed tests on column C: they read the row's constant there, or its variable.
C_IS_2 = cc(cq("c2", [x, y], atoms=[atom("R", x, y, z)], comparisons=[eq(z, 2)]),
            projection("Rm", "A", "B"), name="ab-where-c=2⊆rm")
C_NOT_2 = cc(cq("c≠2", [x, y], atoms=[atom("R", x, y, z)], comparisons=[neq(z, 2)]),
             projection("Rm", "A", "B"), name="ab-where-c≠2⊆rm")
#: A constant head term: a tail slot of the plan.
TAGGED = cc(cq("tagged", [x, 0], atoms=[atom("S", x)]), projection("Rm", "A", "B"),
            name="s×0⊆rm")
POOL = [FD, BOUND, JOIN, LOOP, NO_ONE, S_BOUND, C_IS_2, C_NOT_2, TAGGED]


def observe(checker_class, T, constraints, order=None, **options):
    """Run one search; return its pairs in order, its stats and its pushes.

    ``order`` pins the variable-assignment order the search builds.
    """
    adom = default_active_domain(T, MASTER, constraints)
    checker = checker_class(MASTER, constraints)
    pushes = 0
    push = CheckerSession.push

    def counted(session, relation, row):
        nonlocal pushes
        pushes += 1
        return push(session, relation, row)

    if order is None:
        search = WorldSearch(T, MASTER, constraints, adom, checker=checker, **options)
    else:
        with patch("repro.search.engine.order_variables", return_value=list(order)):
            search = WorldSearch(T, MASTER, constraints, adom, checker=checker, **options)
        assert search.order == list(order)
    with patch.object(CheckerSession, "push", counted):
        pairs = [(dict(valuation), world) for valuation, world in search.search()]
    return pairs, search.stats, pushes


class UnrestrictedChecker(ConstraintChecker):
    """The library checker with early checks and no pool restriction."""

    def row_supports(self, relation, terms):
        return {}


def assert_same_sequence(T, constraints, **options):
    """The library's search against the push-only one.

    Returns the pairs, then the stats and pushes of both searches.
    """
    pairs, stats, pushes = observe(ConstraintChecker, T, constraints, **options)
    reference, reference_stats, reference_pushes = observe(
        PushOnlyChecker, T, constraints, **options
    )
    assert pairs == reference
    assert stats.worlds == reference_stats.worlds
    assert stats.nodes <= reference_stats.nodes
    assert pushes <= reference_pushes
    return pairs, stats, reference_stats, pushes, reference_pushes


CORPUS = {
    "fd-unread-column": ({"R": [(0, 1, 5), (x, y, z)]}, [FD]),
    "bound-unread-column": ({"R": [(x, y, z), (y, x, w)]}, [BOUND]),
    "join-through-s": ({"R": [(x, y, z)], "S": [(w,)]}, [JOIN, S_BOUND]),
    "two-rows-fd-and-bound": ({"R": [(x, y, z), (x, w, u)]}, [FD, BOUND]),
    "ground-rows-only": ({"R": [(1, 1, 0), (2, 0, 1)]}, [FD, BOUND]),
}


class TestCorpus:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_same_sequence_with_no_more_effort(self, name):
        rows, constraints = CORPUS[name]
        assert_same_sequence(cinstance(DB_SCHEMA, **rows), constraints)

    def test_unread_column_is_not_enumerated_under_a_failed_prefix(self):
        T = cinstance(DB_SCHEMA, R=[(0, 1, 5), (x, y, z)])
        _pairs, stats, reference, pushes, reference_pushes = assert_same_sequence(T, [FD])
        assert stats.nodes < reference.nodes
        assert pushes < reference_pushes

    def test_conditioned_row_is_not_pruned_where_its_condition_fails(self):
        # (x, y) = (0, 2) violates the FD with the ground row, but only in the
        # worlds where w = 0 puts the conditioned row in; with w ≠ 0 those
        # valuations are worlds, and the early check must wait for w.
        T = cinstance(
            DB_SCHEMA,
            R=[(0, 1, 5), CTableRow((x, y, z), condition(var_eq(w, 0)))],
            S=[(w,)],
        )
        pairs, stats, reference, _pushes, _reference_pushes = assert_same_sequence(
            T, [FD], order=[x, y, w, z]
        )
        assert any(v[x] == 0 and v[y] == 2 and v[w] != 0 for v, _world in pairs)
        assert not any(v[x] == 0 and v[y] == 2 and v[w] == 0 for v, _world in pairs)
        assert stats.nodes < reference.nodes

    def test_condition_on_an_unassigned_variable_defers_the_check(self):
        # The condition reads z, assigned last: no check can run before the
        # row completes, so the effort is the push-only reference's.
        T = cinstance(DB_SCHEMA, R=[(0, 1, 5), CTableRow((x, y, z), condition(var_neq(z, 0)))])
        _pairs, stats, reference, pushes, reference_pushes = assert_same_sequence(
            T, [FD], order=[x, y, z]
        )
        assert (stats.nodes, pushes) == (reference.nodes, reference_pushes)

    def test_variable_repeated_inside_a_row(self):
        # LOOP reads positions 0 and 1, both x here: judged once x is ground.
        T = cinstance(DB_SCHEMA, R=[(x, x, z)])
        _pairs, stats, reference, _pushes, _reference_pushes = assert_same_sequence(
            T, [LOOP], order=[x, z]
        )
        assert stats.nodes < reference.nodes

    def test_plan_reading_only_constant_positions_is_decided_at_the_root(self):
        T = cinstance(DB_SCHEMA, R=[(1, x, y)])
        _pairs, stats, reference, pushes, reference_pushes = assert_same_sequence(T, [NO_ONE])
        assert (stats.nodes, stats.pruned, pushes) == (0, 1, 0)
        assert reference.nodes > 0 and reference_pushes > 0

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_break_symmetry_existence_checks(self, name):
        rows, constraints = CORPUS[name]
        T = cinstance(DB_SCHEMA, **rows)
        assert_same_sequence(T, constraints, break_symmetry=True)
        adom = default_active_domain(T, MASTER, constraints)
        verdicts = {
            WorldSearch(
                T, MASTER, constraints, adom, break_symmetry=True,
                checker=checker_class(MASTER, constraints),
            ).has_world()
            for checker_class in (ConstraintChecker, PushOnlyChecker)
        }
        assert len(verdicts) == 1


def adom_pool(T, constraints):
    return default_active_domain(T, MASTER, constraints).ordered()


class TestPoolRestriction:
    def test_seed_tests_the_row_constants_decide(self):
        # C = 2 holds on the first row, so (x, y) must be a pair of Rm; the
        # second row's C = 5 fails the test, so it restricts nothing.
        T = cinstance(DB_SCHEMA, R=[(x, y, 2), (w, u, 5)])
        _pairs, stats, reference, pushes, reference_pushes = assert_same_sequence(T, [C_IS_2])
        search = WorldSearch(T, MASTER, [C_IS_2])
        assert search.pools[x] == [0, 1, 2]
        assert search.pools[y] == [0, 1, 2]
        assert search.pools[w] == search.pools[u] == adom_pool(T, [C_IS_2])
        assert stats.nodes < reference.nodes
        assert pushes < reference_pushes

    @pytest.mark.parametrize(
        "rows,constraint",
        [
            # The seed test reads the variable z: with z = 2 the plan does
            # not match, and (x, y) is free.
            ({"R": [(x, y, z)]}, C_NOT_2),
            ({"R": [(x, y, z)]}, C_IS_2),
            # A conditioned row may be left out of a world.
            ({"R": [CTableRow((x, y, 2), condition(var_neq(w, 0)))], "S": [(w,)]}, C_IS_2),
        ],
        ids=["seed-test-reads-a-variable", "seed-test-reads-a-variable-eq", "conditioned-row"],
    )
    def test_no_restriction_leaves_the_effort_alone(self, rows, constraint):
        T = cinstance(DB_SCHEMA, **rows)
        pairs, stats, pushes = observe(ConstraintChecker, T, [constraint])
        unrestricted, unrestricted_stats, unrestricted_pushes = observe(
            UnrestrictedChecker, T, [constraint]
        )
        assert pairs == unrestricted
        assert stats == unrestricted_stats
        assert pushes == unrestricted_pushes
        assert_same_sequence(T, [constraint])
        search = WorldSearch(T, MASTER, [constraint])
        assert all(pool == adom_pool(T, [constraint]) for pool in search.pools.values())

    def test_head_variable_at_two_head_positions(self):
        # (x, x) must be a pair of Rm with equal columns: x ∈ {0, 1}.
        T = cinstance(DB_SCHEMA, R=[(x, x, z)])
        _pairs, stats, reference, _pushes, _reference_pushes = assert_same_sequence(T, [BOUND])
        assert WorldSearch(T, MASTER, [BOUND]).pools[x] == [0, 1]
        assert stats.nodes < reference.nodes

    def test_constant_head_term(self):
        # (w, 0) must be a pair of Rm: w ∈ {0, 2}.
        T = cinstance(DB_SCHEMA, S=[(w,)])
        pairs, stats, reference, _pushes, _reference_pushes = assert_same_sequence(T, [TAGGED])
        assert WorldSearch(T, MASTER, [TAGGED]).pools[w] == [0, 2]
        assert [valuation[w] for valuation, _world in pairs] == [0, 2]
        # The values removed from w's pool are no nodes, and each is one cut
        # branch at the one node of w's depth, the root.
        assert stats.nodes == 2
        assert stats.pruned == len(adom_pool(T, [TAGGED])) - 2 == reference.pruned

    def test_emptied_pool_means_no_world_and_no_node(self):
        # No pair of Rm has B = 7, so x has no value left, and the search
        # stops before it branches on y, which the order puts first.
        T = cinstance(DB_SCHEMA, R=[(y, 0, 5), (x, 7, z)])
        pairs, stats, reference, pushes, _reference_pushes = assert_same_sequence(T, [BOUND])
        search = WorldSearch(T, MASTER, [BOUND])
        assert search.order[0] == y
        assert search.pools[y] == [0, 2]
        assert search.pools[x] == []
        assert pairs == []
        assert (stats.nodes, stats.worlds, pushes) == (0, 0, 0)
        assert reference.nodes > 0

    def test_break_symmetry_with_the_fresh_values_removed(self):
        # x and y lose the fresh values; z keeps them and still breaks the
        # symmetry among them.
        T = cinstance(DB_SCHEMA, R=[(x, y, z)])
        _pairs, stats, reference, _pushes, _reference_pushes = assert_same_sequence(
            T, [BOUND], break_symmetry=True
        )
        search = WorldSearch(T, MASTER, [BOUND], break_symmetry=True)
        fresh = set(default_active_domain(T, MASTER, [BOUND]).fresh_values)
        assert fresh
        assert not fresh & {*search.pools[x], *search.pools[y]}
        assert fresh <= set(search.pools[z])
        assert stats.symmetry_skips > 0
        assert stats.nodes < reference.nodes

    def test_rooted_runs_share_the_template_pools(self):
        T = cinstance(DB_SCHEMA, R=[(x, y, z)], S=[(w,)])
        constraints = [BOUND, S_BOUND, FD]
        adom = default_active_domain(T, MASTER, constraints)
        template = WorldSearch(T, MASTER, constraints, adom)
        reference = WorldSearch(
            T, MASTER, constraints, adom, checker=PushOnlyChecker(MASTER, constraints)
        )
        assert template.pools[x] == [0, 1, 2]
        assert template.pools[w] == [0, 2]
        for rows in ([(0, 0, 5)], [(1, 2, 5)], [(7, 7, 7)]):
            ground = instance(DB_SCHEMA, R=rows)
            run, expected = template.over(ground), reference.over(ground)
            assert run.pools == template.pools
            assert list(run.search()) == list(expected.search())
            assert run.stats.worlds == expected.stats.worlds
            assert run.stats.nodes <= expected.stats.nodes


#: Terms a random row draws from: constants of the master data and a fresh
#: one, and few enough variables that rows share and repeat them.
TERMS = st.sampled_from([0, 1, 2, 7, x, y, z, w])
CONDITIONS = st.one_of(
    st.none(),
    st.tuples(st.sampled_from([x, y, z, w]), st.booleans(), st.sampled_from([0, 1, 2])),
)


def _row(terms, cond):
    if cond is None:
        return tuple(terms)
    variable, equal, value = cond
    return CTableRow(tuple(terms), condition((var_eq if equal else var_neq)(variable, value)))


r_rows = st.builds(_row, st.tuples(TERMS, TERMS, TERMS), CONDITIONS)
s_rows = st.builds(_row, st.tuples(TERMS), CONDITIONS)


class TestRandomInstances:
    @settings(max_examples=120, deadline=None)
    @given(
        constraints=st.lists(st.sampled_from(POOL), unique=True, min_size=1, max_size=3),
        r=st.lists(r_rows, min_size=1, max_size=3),
        s=st.lists(s_rows, max_size=2),
        break_symmetry=st.booleans(),
    )
    def test_identical_sequence_and_no_more_effort(self, constraints, r, s, break_symmetry):
        T = cinstance(DB_SCHEMA, R=r, S=s)
        assert_same_sequence(T, constraints, break_symmetry=break_symmetry)
