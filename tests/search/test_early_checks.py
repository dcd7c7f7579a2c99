"""Early checks of the world search against the push-only reference.

:class:`~repro.search.engine.WorldSearch` runs a compiled constraint plan on
a variable row as soon as the row positions the plan reads
(:attr:`~repro.search.joinplan.SeedPlan.reads`) and the row's condition are
ground, and cuts the branch when the plan finds an answer outside the
right-hand side.  By CQ monotonicity that answer escapes in every world
below, so the cut must change nothing but the effort:
:class:`checker_oracles.PushOnlyChecker`, whose plans read every position
and which therefore schedules no early check, must enumerate the identical
``(valuation, world)`` sequence with ``nodes`` and pushes no lower.

The corpus pins the shapes the scheduling treats apart (unread columns, a
conditioned row, a variable repeated inside a row, a plan that reads only
constant positions, symmetry breaking); a case that needs the condition's
variable assigned after the columns a plan reads pins the variable order by
patching :func:`~repro.search.engine.order_variables`.  The hypothesis suite
draws random rows, conditions and constraint sets.  Every test carries the
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
from repro.queries.atoms import atom, neq
from repro.queries.cq import boolean_cq, cq
from repro.queries.terms import var
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
POOL = [FD, BOUND, JOIN, LOOP, NO_ONE, S_BOUND]


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
