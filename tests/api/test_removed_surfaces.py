"""The surfaces 3.0.0 removed fail loudly.

3.0.0 deleted the 1.x→2.0 deprecation shims and the baseline toggles (see the
README migration table); the live SAT session's encoding switches
(``IncrementalSATSession(cegar=)``, ``IncrementalEncoder(lazy_violations=)``)
went after it, when the session's encoding became a single path.  A removed keyword must
raise ``TypeError`` and a removed attribute ``AttributeError``: neither may be
absorbed by a ``**kwargs`` pass-through or an attribute fallback, which would
let a 2.x caller keep running while silently getting the one remaining path.
"""

from __future__ import annotations

import pytest

import repro.ctables
import repro.search
from repro.api import Database, EngineConfig
from repro.completeness.rcqp import rcqp_bounded_search
from repro.completeness.weak import weak_completeness_report
from repro.ctables import possible_worlds
from repro.ctables.possible_worlds import default_active_domain
from repro.queries.atoms import atom
from repro.queries.cq import cq
from repro.queries.terms import var
from repro.reductions.dpll import DPLLSolver
from repro.relational.domains import BOOLEAN_DOMAIN
from repro.relational.master import MasterData
from repro.relational.schema import RelationSchema, database_schema
from repro.search import propagation
from repro.search.engine import WorldSearch
from repro.search.cnf_encoding import IncrementalEncoder
from repro.search.propagation import ConstraintChecker
from repro.search.sat_engine import IncrementalSATSession, SATWorldSearch
from repro.workloads.generator import inequality_chain_workload
from repro.workloads.patients import build_patient_scenario

x = var("x")


@pytest.fixture(scope="module")
def weak_decision():
    scenario = build_patient_scenario()
    return weak_completeness_report(
        scenario.figure1, scenario.q4, scenario.master, scenario.constraints
    )


@pytest.fixture(scope="module")
def rcqp_decision():
    bool_schema = database_schema(RelationSchema("R", [("A", BOOLEAN_DOMAIN)]))
    master = MasterData(
        database_schema(RelationSchema("Rm", [("A", BOOLEAN_DOMAIN)])),
        {"Rm": [(0,), (1,)]},
    )
    query = cq("Q", [x], atoms=[atom("R", x)], comparisons=[])
    return rcqp_bounded_search(query, bool_schema, master, [], max_size=1)


@pytest.mark.parametrize(
    ("decision_fixture", "attribute"),
    [
        ("weak_decision", "is_weakly_complete"),
        ("weak_decision", "certain_over_models"),
        ("weak_decision", "certain_over_extensions"),
        ("weak_decision", "no_world_has_extensions"),
        ("rcqp_decision", "found"),
        ("rcqp_decision", "instances_examined"),
    ],
)
def test_decision_shim_properties_are_gone(request, decision_fixture, attribute):
    decision = request.getfixturevalue(decision_fixture)
    with pytest.raises(AttributeError):
        getattr(decision, attribute)
    # The value the shim used to forward is still on the report.
    assert hasattr(decision.details, attribute)


def test_resolve_engine_is_gone():
    assert not hasattr(possible_worlds, "resolve_engine")
    with pytest.raises(ImportError):
        from repro.ctables import resolve_engine  # noqa: F401
    assert "resolve_engine" not in getattr(repro.ctables, "__all__", ())


def test_checker_modes_are_gone():
    assert not hasattr(propagation, "CHECKER_MODES")
    assert not hasattr(repro.search, "CHECKER_MODES")


def _workload():
    return inequality_chain_workload(2, close_cycle=False)


def _adom(workload):
    return default_active_domain(
        workload.cinstance, workload.master, workload.constraints
    )


REMOVED_KEYWORDS = {
    "ConstraintChecker(mode=)": lambda w: ConstraintChecker(
        w.master, w.constraints, mode="full"
    ),
    "ConstraintChecker(indexed=)": lambda w: ConstraintChecker(
        w.master, w.constraints, indexed=False
    ),
    "Database(checker_mode=)": lambda w: Database(
        w.cinstance, w.master, w.constraints, checker_mode="full"
    ),
    "Database(checker_indexed=)": lambda w: Database(
        w.cinstance, w.master, w.constraints, checker_indexed=False
    ),
    "DPLLSolver(learning=)": lambda w: DPLLSolver([[1, 2]], learning="decision"),
    "WorldSearch(adaptive=)": lambda w: WorldSearch(
        w.cinstance, w.master, w.constraints, _adom(w), adaptive=True
    ),
    "SATWorldSearch(learning=)": lambda w: SATWorldSearch(
        w.cinstance, w.master, w.constraints, learning="decision"
    ),
    "IncrementalSATSession(learning=)": lambda w: IncrementalSATSession(
        w.cinstance, w.master, w.constraints, _adom(w), learning="decision"
    ),
    "IncrementalSATSession(cegar=)": lambda w: IncrementalSATSession(
        w.cinstance, w.master, w.constraints, _adom(w), cegar=True
    ),
    "IncrementalEncoder(lazy_violations=)": lambda w: IncrementalEncoder(
        w.cinstance, w.master, w.constraints, _adom(w), lazy_violations=True
    ),
}


@pytest.mark.parametrize("build", REMOVED_KEYWORDS.values(), ids=REMOVED_KEYWORDS)
def test_removed_keywords_raise_type_error(build):
    with pytest.raises(TypeError):
        build(_workload())


@pytest.mark.parametrize(
    ("engine", "options"),
    [("sat", {"learning": "decision"}), ("propagating", {"adaptive": True})],
    ids=["sat-learning", "propagating-adaptive"],
)
def test_removed_engine_options_raise_type_error(engine, options):
    workload = _workload()
    db = Database(workload.cinstance, workload.master, workload.constraints)
    with pytest.raises(TypeError):
        db.is_consistent(engine=EngineConfig(engine, options=options))
