"""The strong, viable and MINP deciders on one world per renaming.

CQ, UCQ and ∃FO⁺ queries are generic, so renaming the fresh Adom values that
``T``, ``D_m``, ``V`` and ``Q`` never mention maps worlds to worlds and
complete (or minimal) worlds to complete (or minimal) ones.  On the
propagating engine the four exact deciders therefore test one world per
renaming class (:func:`repro.ctables.possible_worlds.representative_worlds`),
the first of its class in search order.  Three checks hold them to the
full enumeration:

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
"""

from __future__ import annotations

import pytest

from repro.completeness.minp import is_minimal_viably_complete
from repro.completeness.viable import is_viably_complete
from repro.constraints.containment import denial_cc
from repro.ctables.adom import build_active_domain
from repro.ctables.cinstance import cinstance
from repro.ctables.possible_worlds import representative_worlds
from repro.queries.atoms import atom, neq
from repro.queries.cq import boolean_cq, cq
from repro.queries.terms import var
from repro.relational.instance import instance
from repro.relational.master import MasterData
from repro.relational.schema import database_schema, schema
from repro.search.engine import WorldSearch
from tests.search.harness import (
    DeciderCase,
    assert_limited_parity,
    assert_representative_parity,
    random_decider_case,
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
