"""The Figure 1 verdict table: 15 ``complete()`` calls on two engines.

Every query of the patients scenario (Q1, Q2 on a present and an absent NHS
number, Q3, Q4) meets every completeness model (strong, weak, viable) on the
Figure 1 c-instance.  Seven of the fifteen verdicts are stated by the paper
(Examples 2.2 and 2.3); the other eight are the table the default engine
committed, and the naive cross-product engine must reproduce all fifteen.

``engine="sat"`` is left out: ``complete(Q3, viable)`` alone takes about
94 s on SAT (its encoding grounds the tableau row over every column; ROADMAP
item 1), against about a second on the two engines below.

Each call's ``Decision.stats`` effort (searches, nodes, worlds) is pinned
too: the deciders build each call's extension searches once and root them
at every world, and a rooted run must do exactly the work of the fresh
search over the world it replaces.  On the propagating engine the strong
and viable deciders test one world per renaming of the fresh Adom values
(Q1 strong: 51 of the 290 worlds, so 52 searches), and the weak decider
intersects the certain answers over those worlds alone (Q1 and Q4 weak:
two world searches and 51 extension runs), while the naive engine still
tests every world.

On the propagating engine the tableau rows of Q1, Q2, Q2' and Q4 meet the
``edinburgh-2000`` bound on their constants alone, so the search cuts the
pools of their variables to what the master's two patients allow before it
starts, nothing for the absent NHS number of Q2' (Q4 strong: 50 nodes,
2,084 with the full pools); Q3's London row and Bob's conditioned row keep
their pools.

The last test pins the early checks of the propagating search on Example 2.2
against the push-only reference checker of ``tests/search/checker_oracles.py``.
"""

from __future__ import annotations

import pytest

from repro import Database, is_relatively_complete
from repro.completeness.models import CompletenessModel
from repro.search.registry import use_checker
from repro.workloads.patients import build_patient_scenario
from tests.search.checker_oracles import PushOnlyChecker

#: The verdicts Examples 2.2 and 2.3 state, by (query, model).
PAPER_VERDICTS = {
    ("Q1", "strong"): True,
    ("Q1", "weak"): True,
    ("Q1", "viable"): True,
    ("Q4", "strong"): False,
    ("Q4", "weak"): True,
    ("Q4", "viable"): True,
    ("Q3", "viable"): False,  # master data says nothing about London
}

#: The rest of the table, committed from the default engine.
TABLE_VERDICTS = {
    ("Q2_present", "strong"): False,
    ("Q2_present", "weak"): True,
    ("Q2_present", "viable"): True,
    ("Q2_absent", "strong"): True,
    ("Q2_absent", "weak"): True,
    ("Q2_absent", "viable"): True,
    ("Q3", "strong"): False,
    ("Q3", "weak"): True,
}

VERDICTS = {**TABLE_VERDICTS, **PAPER_VERDICTS}

#: ``(searches, nodes, worlds)`` of each call's ``Decision.stats``, as a
#: fresh search per world and tableau (or relation) measured them.  The
#: strong, weak and viable rows of the propagating engine count the worlds
#: of the searches over the representatives, and one tableau or extension
#: run per representative world.
EFFORT = {
    "propagating": {
        ("Q1", "strong"): (52, 124, 109),
        ("Q1", "weak"): (53, 350, 167),
        ("Q1", "viable"): (2, 3, 2),
        ("Q2_absent", "strong"): (67, 91, 74),
        ("Q2_absent", "weak"): (3, 8, 3),
        ("Q2_absent", "viable"): (2, 2, 1),
        ("Q2_present", "strong"): (8, 16, 8),
        ("Q2_present", "weak"): (3, 8, 3),
        ("Q2_present", "viable"): (2, 3, 1),
        ("Q3", "strong"): (2, 9, 2),
        ("Q3", "weak"): (3, 8, 3),
        ("Q3", "viable"): (67, 553, 140),
        ("Q4", "strong"): (8, 50, 15),
        ("Q4", "weak"): (53, 350, 167),
        ("Q4", "viable"): (2, 8, 2),
    },
    "naive": {
        ("Q1", "strong"): (291, 5544, 597),
        ("Q1", "weak"): (2, 648, 614),
        ("Q1", "viable"): (2, 19, 2),
        ("Q2_absent", "strong"): (326, 6536, 343),
        ("Q2_absent", "weak"): (2, 2, 2),
        ("Q2_absent", "viable"): (2, 20, 1),
        ("Q2_present", "strong"): (18, 309, 18),
        ("Q2_present", "weak"): (2, 2, 2),
        ("Q2_present", "viable"): (2, 19, 1),
        ("Q3", "strong"): (2, 78, 2),
        ("Q3", "weak"): (2, 2, 2),
        ("Q3", "viable"): (326, 25386, 668),
        ("Q4", "strong"): (18, 5223, 35),
        ("Q4", "weak"): (2, 648, 614),
        ("Q4", "viable"): (2, 325, 2),
    },
}


@pytest.fixture(scope="module")
def scenario():
    return build_patient_scenario()


def test_the_table_covers_every_query_and_model(scenario):
    models = {model.value for model in CompletenessModel}
    assert set(VERDICTS) == {(query, model) for query in scenario.queries() for model in models}
    assert all(set(effort) == set(VERDICTS) for effort in EFFORT.values())


@pytest.mark.parametrize("engine", ["propagating", "naive"])
@pytest.mark.parametrize("query_name,model", sorted(VERDICTS))
def test_figure1_verdict(scenario, engine, query_name, model):
    database = Database(scenario.figure1, scenario.master, scenario.constraints)
    decision = database.complete(
        scenario.queries()[query_name], CompletenessModel(model), engine=engine
    )
    assert bool(decision) is VERDICTS[(query_name, model)]
    assert decision.engine_used == engine
    stats = decision.stats
    assert (stats.searches, stats.nodes, stats.worlds) == EFFORT[engine][(query_name, model)]


def test_example_2_2_checks_the_tableau_row_before_it_completes(scenario):
    # The FD NHS → name reads only (NHS, name) of the tableau row
    # MVisit(?n, ?na, 'LON', ?y), so the search judges the row once ?n and
    # ?na are ground instead of running ?y through its pool for every pair
    # that already fails.  The push-only reference visits 5,569 nodes
    # against 553.
    query = scenario.queries()["Q3"]
    database = Database(scenario.figure1, scenario.master, scenario.constraints)
    decision = database.complete(query, CompletenessModel.VIABLE, engine="propagating")
    with use_checker(PushOnlyChecker(scenario.master, scenario.constraints)):
        reference = is_relatively_complete(
            scenario.figure1,
            query,
            scenario.master,
            scenario.constraints,
            CompletenessModel.VIABLE,
            adom=database.adom(query),
            engine="propagating",
        )
    assert bool(decision) is False
    assert bool(reference) is False
    assert decision.stats.searches == reference.stats.searches
    assert decision.stats.worlds == reference.stats.worlds
    assert decision.stats.nodes * 5 <= reference.stats.nodes
