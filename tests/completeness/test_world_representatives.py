"""The deciders and the certain answers on one world per renaming.

CQ, UCQ, ∃FO⁺, FO and FP queries are generic, so renaming the fresh Adom
values that ``T``, ``D_m``, ``V`` and ``Q`` never mention maps worlds to
worlds, complete (or minimal) worlds to complete (or minimal) ones, and a
world's answer to the renamed world's answer.  On the propagating engine the
four exact strong, viable and MINP deciders therefore test one world per
renaming class (:func:`repro.ctables.possible_worlds.representative_worlds`),
the first of its class in search order, and the weak model's certain
answers intersect the renaming closure of one world's answer per class
(:func:`repro.ctables.possible_worlds.renaming_closure`).  Three checks
hold the deciders to the full enumeration:

* random c-instances with conditions, repeated variables and an optional
  bound CC and FD, against random CQs and UCQs: the verdict and the witness
  of the propagating engine equal those of a drop-in that tests every
  world, with no more searches, and the naive engine gives the same
  verdict;
* the collision case: a caller-built Adom whose fresh value the query
  names, which must not be renamed;
* the ``limit`` case: where the full enumeration answers, the answer is
  kept; where it trips the bound on a world that is not a representative,
  the viable and MINP deciders may answer instead.

The weak-completeness report, both certain answers and MINPʷ meet the same
checks on the same seeds, against naive and SAT too, plus the c-instances
of :func:`random_fresh_case`, whose worlds take only fresh values.  The
constructed cases pin why the closure is needed (a representative's answer
alone is not certain, yet dropping every fresh-valued tuple loses certain
ones), that a native query, which is not generic, keeps every world, and
one FO and one FP query through the facade.
"""

from __future__ import annotations

import pytest

from repro.api import Database
from repro.completeness.certain import (
    ExtensionCertainAnswer,
    certain_answer_over_extensions,
    certain_answer_over_models,
)
from repro.completeness.minp import is_minimal_viably_complete
from repro.completeness.viable import is_viably_complete
from repro.completeness.weak import is_weakly_complete
from repro.constraints.containment import denial_cc
from repro.ctables.adom import build_active_domain
from repro.ctables.cinstance import cinstance
from repro.ctables.possible_worlds import default_active_domain, representative_worlds
from repro.queries.atoms import atom, neq
from repro.queries.cq import boolean_cq, cq
from repro.queries.evaluation import evaluate
from repro.queries.fo import fo, native_query
from repro.queries.formulas import conj, exists, negate, rel
from repro.queries.fp import fixpoint_query, rule
from repro.queries.terms import var
from repro.queries.ucq import ucq
from repro.relational.instance import instance
from repro.relational.master import MasterData
from repro.relational.schema import database_schema, schema
from repro.search.engine import WorldSearch
from tests.search.harness import (
    DeciderCase,
    assert_certain_limited_parity,
    assert_certain_parity,
    assert_limited_parity,
    assert_representative_parity,
    certain_outcomes,
    full_enumeration_engine,
    random_decider_case,
    random_fresh_case,
)

SEEDS = range(60)


@pytest.mark.parametrize("seed", SEEDS)
def test_representatives_match_the_full_enumeration(seed):
    assert_representative_parity(random_decider_case(seed))


def test_the_random_cases_exercise_the_reduction():
    consistent = fewer = 0
    for seed in SEEDS:
        outcomes = assert_representative_parity(random_decider_case(seed))
        if len(outcomes["strong"][1]) == 3:  # (verdict, witness, searches)
            consistent += 1
            fewer += any(got[2] < want[2] for got, want in outcomes.values())
    assert consistent >= 40 and fewer >= 15, (consistent, fewer)


@pytest.mark.parametrize("seed", SEEDS[:30])
@pytest.mark.parametrize("limit", [5, 20])
def test_a_limit_keeps_every_answer_of_the_full_enumeration(seed, limit):
    assert_limited_parity(random_decider_case(seed), limit)


UNARY = database_schema(schema("R", "A"))
EMPTY_MASTER = MasterData(database_schema(schema("Rm", "A")), {"Rm": []})


def test_a_fresh_value_the_query_names_is_not_renamed():
    # T = {R(v0)} over a caller-built Adom with a second fresh value f, and
    # Q :- R(f).  The world R(f) answers Q already, so it is complete, and
    # minimal (the empty instance is not); R(v0 ↦ the other fresh value) is
    # not complete.  Renaming f would leave R(f) untested.
    T = cinstance(UNARY, R=[(var("v0"),)])
    adom = build_active_domain(T, EMPTY_MASTER, extra_variables=[var("w")])
    f = adom.fresh_values[1]
    query = boolean_cq("Q", atoms=[atom("R", f)])
    expected = instance(UNARY, R=[(f,)])

    renamed = WorldSearch(T, EMPTY_MASTER, [], adom, break_symmetry=True)
    assert expected not in list(renamed.worlds())
    assert expected in list(representative_worlds(T, EMPTY_MASTER, [], adom, query))

    for decide in (is_viably_complete, is_minimal_viably_complete):
        for engine in ("propagating", "naive"):
            decision = decide(T, query, EMPTY_MASTER, [], adom=adom, engine=engine)
            assert bool(decision) is True, (decide.__name__, engine)
            assert decision.witness == expected, (decide.__name__, engine)


def test_the_viable_deciders_may_answer_where_the_full_enumeration_trips_the_limit():
    # One S tuple at most (a denial), so the tableau of Q(u) :- R(u, v), S(u)
    # extends the world S(a) only at u = a: the scan of the 25 tableau
    # valuations meets its witness at 5·index(a) + 1.  The master value "a"
    # sorts before the fresh values, so the worlds S("a") and S(rank-0 fresh
    # value), the two representatives, meet it within a limit of 10, while
    # S(rank-1 fresh value), which the full enumeration tests third, trips
    # the bound.  Every world is incomplete, so the verdict is False.
    schema_rs = database_schema(schema("R", "A", "B"), schema("S", "A"))
    master = MasterData(database_schema(schema("Sm", "A")), {"Sm": [("a",)]})
    u, v, w, x = var("u"), var("v"), var("w"), var("x")
    one_s = denial_cc(
        boolean_cq("one-s", atoms=[atom("S", u), atom("S", w)], comparisons=[neq(u, w)]),
        name="|S|≤1",
    )
    T = cinstance(schema_rs, S=[(x,)])
    query = cq("Q", [u], atoms=[atom("R", u, v), atom("S", u)])
    case = DeciderCase(T, (one_s,), query, "at most one S tuple", master)

    outcomes = assert_limited_parity(case, limit=10)
    assert {name: (got[0], want[0]) for name, (got, want) in outcomes.items()} == {
        "strong": (False, False),
        "viable": (False, "BoundExceededError"),
        "minp-strong": (False, False),
        "minp-viable": (False, "BoundExceededError"),
    }
    assert not is_viably_complete(T, query, master, [one_s], engine="naive")


# ---------------------------------------------------------------------------
# the weak model and the certain answers
# ---------------------------------------------------------------------------
#: The random inputs of the certain-answer checks, by family.
CERTAIN_CASES = {
    "decider": random_decider_case,
    "unary": lambda seed: random_decider_case(seed, unary=True),
    "fresh": random_fresh_case,
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", sorted(CERTAIN_CASES))
def test_certain_answers_match_the_full_enumeration(family, seed):
    assert_certain_parity(CERTAIN_CASES[family](seed))


def representative_intersection(case: DeciderCase) -> frozenset | None:
    """``⋂ Q(R)`` over the representatives alone, without the closure."""
    adom = default_active_domain(case.cinstance, case.master, list(case.constraints), case.query)
    answers = [
        evaluate(case.query, world)
        for world in representative_worlds(
            case.cinstance, case.master, list(case.constraints), adom, case.query
        )
    ]
    return frozenset.intersection(*answers) if answers else None


def test_the_random_cases_exercise_the_closure():
    consistent = fewer = closed = 0
    with full_enumeration_engine() as full:
        for make in CERTAIN_CASES.values():
            for seed in SEEDS:
                case = make(seed)
                expected = certain_outcomes(case, full)
                if len(expected["over-models"]) != 2:  # (answer, searches)
                    continue
                consistent += 1
                reduced = certain_outcomes(case, "propagating")
                fewer += any(
                    reduced[name][1] < want[1]
                    for name, want in expected.items()
                    if len(want) == 2
                )
                closed += representative_intersection(case) != expected["over-models"][0]
    assert consistent >= 130 and fewer >= 6 and closed >= 20, (consistent, fewer, closed)


@pytest.mark.parametrize("seed", SEEDS[:30])
@pytest.mark.parametrize("limit", [5, 20])
@pytest.mark.parametrize("family", sorted(CERTAIN_CASES))
def test_a_limit_keeps_every_certain_answer_of_the_full_enumeration(family, seed, limit):
    assert_certain_limited_parity(CERTAIN_CASES[family](seed), limit)


BINARY = database_schema(schema("R", "A", "B"))
z, u, w = var("z"), var("u"), var("w")
#: No R tuple holds 0, and none repeats a value.
NO_ZERO_NO_LOOP = [
    denial_cc(boolean_cq("zero-a", atoms=[atom("R", 0, z)]), name="no R(0, z)"),
    denial_cc(boolean_cq("zero-b", atoms=[atom("R", z, 0)]), name="no R(z, 0)"),
    denial_cc(boolean_cq("loop", atoms=[atom("R", z, z)]), name="no R(z, z)"),
]


def two_fresh_worlds():
    """``T = {R(x, y)}``: its worlds are R(f_x, f_y) and R(f_y, f_x)."""
    T = cinstance(BINARY, R=[(var("x"), var("y"))])
    adom = build_active_domain(T, EMPTY_MASTER, constraint_constants=frozenset({0}))
    return T, adom, adom.fresh_values


def certain_on_every_engine(T, query, adom):
    """Both certain answers of ``query``, on each of the three engines."""
    args = (T, query, EMPTY_MASTER, NO_ZERO_NO_LOOP)
    return {
        engine: (
            certain_answer_over_models(*args, adom=adom, engine=engine),
            certain_answer_over_extensions(*args, adom=adom, engine=engine),
        )
        for engine in ("propagating", "naive", "sat")
    }


def test_the_closure_keeps_a_fresh_value_every_renaming_keeps():
    T, adom, (fx, fy) = two_fresh_worlds()
    either_end = ucq(
        "Q", cq("Q1", [u], atoms=[atom("R", u, w)]), cq("Q2", [u], atoms=[atom("R", w, u)])
    )
    representatives = representative_worlds(T, EMPTY_MASTER, NO_ZERO_NO_LOOP, adom, either_end)
    assert list(representatives) == [instance(BINARY, R=[(fx, fy)])]
    both = frozenset({(fx,), (fy,)})
    for engine, (over_models, over_extensions) in certain_on_every_engine(
        T, either_end, adom
    ).items():
        # Dropping every tuple that names a fresh value would answer ∅.
        assert over_models == both, engine
        assert over_extensions == ExtensionCertainAnswer(both, family_is_empty=False), engine


def test_the_closure_drops_what_only_the_representative_answers():
    T, adom, (fx, fy) = two_fresh_worlds()
    first_end = cq("Q", [u], atoms=[atom("R", u, w)])
    assert evaluate(first_end, instance(BINARY, R=[(fx, fy)])) == {(fx,)}
    for engine, (over_models, over_extensions) in certain_on_every_engine(
        T, first_end, adom
    ).items():
        assert over_models == frozenset(), engine
        # R(f_x, f_y) extends only by R(f_y, f_x), which answers both ends.
        assert over_extensions.answers == {(fx,), (fy,)}, engine
        decision = is_weakly_complete(
            T, first_end, EMPTY_MASTER, NO_ZERO_NO_LOOP, adom=adom, engine=engine
        )
        assert bool(decision) is False, engine


def test_a_native_query_keeps_every_world():
    # Not generic: it asks whether R holds f_x first, which the
    # representative R(f_x, f_y) does and its renaming R(f_y, f_x) does not.
    T, adom, (fx, _fy) = two_fresh_worlds()
    def fx_first_rows(world):
        hit = any(row[0] == fx for row in world.relation("R").rows)
        return frozenset({("hit",)} if hit else ())

    fx_first = native_query("fx-first", 1, fx_first_rows, monotone=True)
    for engine, (over_models, over_extensions) in certain_on_every_engine(
        T, fx_first, adom
    ).items():
        assert over_models == frozenset(), engine
        assert over_extensions.answers == {("hit",)}, engine


EDGE = database_schema(schema("E", "src", "dst"))
EDGE_MASTER = MasterData(database_schema(schema("Em", "src")), {"Em": []})


def test_fo_and_fp_certain_answers_through_the_facade():
    # T = {E(1, x), E(x, y)} with no loop and no edge into 1: node 1 is the
    # only source in every world, and what 1 reaches is two fresh values
    # that differ from world to world.
    x, y = var("x"), var("y")
    T = cinstance(EDGE, E=[(1, x), (x, y)])
    constraints = [
        denial_cc(boolean_cq("loop", atoms=[atom("E", z, z)]), name="no-loop"),
        denial_cc(boolean_cq("into-1", atoms=[atom("E", z, 1)]), name="nothing-into-1"),
    ]
    source = fo(
        "Src", [u], conj(exists([w], rel("E", u, w)), negate(exists([w], rel("E", w, u))))
    )
    reach = fixpoint_query(
        "Reach", "P",
        [rule(atom("P", u), atom("E", 1, u)), rule(atom("P", u), atom("P", w), atom("E", w, u))],
    )
    for engine in ("propagating", "naive", "sat"):
        db = Database(T, EDGE_MASTER, constraints, engine=engine)
        assert db.certain_answers(source) == {(1,)}, engine
        assert db.certain_answers(reach) == frozenset(), engine
        assert db.certain_answers_over_extensions(reach) == frozenset(), engine
    adom = Database(T, EDGE_MASTER, constraints).adom(reach)
    # The representative alone reaches its two fresh values.
    first = next(representative_worlds(T, EDGE_MASTER, constraints, adom, reach))
    assert len(evaluate(reach, first)) == 2
