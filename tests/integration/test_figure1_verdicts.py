"""The Figure 1 verdict table: 15 ``complete()`` calls on two engines.

Every query of the patients scenario (Q1, Q2 on a present and an absent NHS
number, Q3, Q4) meets every completeness model (strong, weak, viable) on the
Figure 1 c-instance.  Seven of the fifteen verdicts are stated by the paper
(Examples 2.2 and 2.3); the other eight are the table the default engine
committed, and the naive cross-product engine must reproduce all fifteen.

``engine="sat"`` and ``engine="parallel"`` are left out: ``complete(Q3,
viable)`` alone takes about 94 s on SAT (its encoding grounds the tableau row
over every column; ROADMAP item 1) and about 56 s on parallel (each shard
returns its whole chunk; ROADMAP item 4), against about a second on the two
engines below.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.completeness.models import CompletenessModel
from repro.workloads.patients import build_patient_scenario

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


@pytest.fixture(scope="module")
def scenario():
    return build_patient_scenario()


def test_the_table_covers_every_query_and_model(scenario):
    models = {model.value for model in CompletenessModel}
    assert set(VERDICTS) == {(query, model) for query in scenario.queries() for model in models}


@pytest.mark.parametrize("engine", ["propagating", "naive"])
@pytest.mark.parametrize("query_name,model", sorted(VERDICTS))
def test_figure1_verdict(scenario, engine, query_name, model):
    database = Database(scenario.figure1, scenario.master, scenario.constraints)
    decision = database.complete(
        scenario.queries()[query_name], CompletenessModel(model), engine=engine
    )
    assert bool(decision) is VERDICTS[(query_name, model)]
    assert decision.engine_used == engine
