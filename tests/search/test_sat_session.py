"""The live SAT session against its references.

:class:`~repro.search.sat_engine.IncrementalSATSession` encodes every
violating match some world can hold and skips the rest: a match that uses
two different tuples only one variable row produces needs no clause, since
a valuation grounds the row once.  These suites hold the session to the
one-shot eager :class:`SATWorldSearch` and to the paper's Figure 1 figures:

* Figure 1 plus Bob's 2000 visit stays under 1,000 clauses (the unpruned
  join pairs every two groundings of the one variable row, about 45,000);
* an always-violated atom-free constraint makes every instance
  inconsistent;
* a ground tuple that a variable row can also produce makes that row's
  other tuples clash with it, so adding one must encode the pairs the
  construction skipped;
* violations that join two variable rows are encoded up front and the
  session agrees with a rebuilt eager engine across a stream of ground
  adds and drops.
"""

from __future__ import annotations

from repro.api import Database
from repro.constraints.containment import denial_cc, satisfies_all
from repro.ctables.cinstance import cinstance
from repro.ctables.possible_worlds import default_active_domain
from repro.queries.atoms import atom, eq, neq
from repro.queries.cq import boolean_cq
from repro.queries.terms import var
from repro.relational.master import empty_master
from repro.relational.schema import database_schema, schema
from repro.search.engine import world_key
from repro.search.sat_engine import IncrementalSATSession, SATWorldSearch
from repro.workloads.patients import build_patient_scenario

x, y = var("x"), var("y")

BOB_2000 = ("915-15-336", "Bob", "EDI", 2000)
BOB_2001 = ("915-15-336", "Bob", "EDI", 2001)
JOHN_2000 = ("915-15-335", "John", "EDI", 2000)

PAIR_SCHEMA = database_schema(schema("R", "A", "B"))
EMPTY_MASTER = empty_master(database_schema(schema("M", "A")))


def test_figure1_encoding_stays_small_and_witnesses_hold_the_ground_rows():
    scenario = build_patient_scenario()
    db = Database(
        scenario.figure1, scenario.master, scenario.constraints, engine="sat"
    )
    db.update(add_rows={"MVisit": [BOB_2000]})
    assert db.is_consistent(witness=False)  # builds the live session
    adom = default_active_domain(db.cinstance, scenario.master, scenario.constraints)
    session = IncrementalSATSession(
        db.cinstance, scenario.master, scenario.constraints, adom
    )
    assert len(session.encoding.clauses) <= 1000
    assert session.count_worlds() == 17

    present = BOB_2000
    for new, worlds in ((BOB_2001, 18), (BOB_2000, 17), (BOB_2001, 18)):
        db.update(add_rows={"MVisit": [new]}, drop_rows={"MVisit": [present]})
        present = new
        assert db.count().value == worlds
        decision = db.is_consistent()
        assert decision.stats.reused_solver is True
        world = decision.witness
        assert world is not None
        assert satisfies_all(world, scenario.master, scenario.constraints)
        rows = world.relation("MVisit").rows
        assert new in rows and JOHN_2000 in rows


def test_atom_free_violation_refutes_the_live_session():
    forbid = denial_cc(boolean_cq("always", comparisons=[eq(1, 1)]), name="⊥")
    T = cinstance(PAIR_SCHEMA, R=[(x, "c"), ("c", "d")])
    db = Database(T, EMPTY_MASTER, [forbid], engine="sat")
    assert not db.is_consistent()
    assert not db.is_consistent(witness=False)
    assert db.count().value == 0
    assert SATWorldSearch(T, EMPTY_MASTER, [forbid]).has_world() is False


def _fd_over_c():
    """``R(x, c), R(y, c), x ≠ y`` is forbidden: two rows may not share ``c``."""
    return denial_cc(
        boolean_cq(
            "fd",
            atoms=[atom("R", x, "c"), atom("R", y, "c")],
            comparisons=[neq(x, y)],
        ),
        name="fd",
    )


def test_ground_tuple_shared_with_a_variable_row_encodes_the_skipped_pairs():
    fd = _fd_over_c()
    T = cinstance(PAIR_SCHEMA, R=[(x, "c"), ("d", "e")])
    db = Database(T, EMPTY_MASTER, [fd], engine="sat")
    session_count = db.count()
    assert session_count.value == SATWorldSearch(T, EMPTY_MASTER, [fd]).count_worlds()
    # Every violating pair uses two groundings of the one variable row.
    assert db._sat_session.encoding.stats.blocked_matches == 0
    assert db.is_consistent(witness=False)  # the live solver's first solve

    # ("d", "c") is also a grounding of (x, c): now x = d is the only choice.
    db.update(add_rows={"R": [("d", "c")]})
    assert db.count().value == 1
    assert db.is_consistent(witness=False).stats.reused_solver is True
    world = db.is_consistent().witness
    assert world is not None and world.relation("R").rows == {("d", "c"), ("d", "e")}
    db.update(drop_rows={"R": [("d", "c")]})
    assert db.count().value == session_count.value


def test_variable_row_joins_track_a_rebuilt_eager_engine():
    fd = _fd_over_c()
    T = cinstance(PAIR_SCHEMA, R=[(x, "c"), (y, "c"), ("d", "e")])
    db = Database(T, EMPTY_MASTER, [fd], engine="sat")
    first = db.count()
    assert first.value == SATWorldSearch(T, EMPTY_MASTER, [fd]).count_worlds()
    # x ≠ y joins the two variable rows: encoded up front.
    assert db._sat_session.encoding.stats.blocked_matches > 0
    assert db.is_consistent(witness=False)  # the live solver's first solve

    # ("d", "e") stays, so the active domain (and with it the session)
    # survives every step.
    stream = [
        ("add", ("d", "d")),
        ("add", ("e", "c")),  # with x or y ≠ e: a violation through a ground row
        ("drop", ("e", "c")),
        ("add", ("c", "d")),
        ("drop", ("d", "d")),
        ("add", ("e", "c")),
        ("drop", ("c", "d")),
    ]
    for kind, row in stream:
        if kind == "add":
            db.update(add_rows={"R": [row]})
        else:
            db.update(drop_rows={"R": [row]})
        eager = SATWorldSearch(db.cinstance, EMPTY_MASTER, [fd])
        verdict = db.is_consistent(witness=False)
        assert verdict.stats.reused_solver is True, "the session was rebuilt"
        assert bool(verdict) == eager.has_world()
        assert db.count().value == eager.count_worlds()
        witness = db.is_consistent().witness
        expected = {world_key(world) for world in eager.worlds()}
        if expected:
            assert witness is not None and world_key(witness) in expected
        else:
            assert witness is None
