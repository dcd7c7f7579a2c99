"""The live SAT session against its references.

:class:`~repro.search.sat_engine.IncrementalSATSession` encodes every
violating match some world can hold and skips the rest: a match that uses
two different tuples only one variable row produces needs no clause, since
a valuation grounds the row once.  The one-shot :class:`SATWorldSearch`
runs the same encoder, so these suites hold the session to the propagating
engine and to the paper's Figure 1 figures instead:

* Figure 1 plus Bob's 2000 visit stays under 1,000 clauses (the unpruned
  join pairs every two groundings of the one variable row, about 45,000);
* an always-violated atom-free constraint makes every instance
  inconsistent;
* a ground tuple that a variable row can also produce makes that row's
  other tuples clash with it, so adding one must encode the pairs the
  construction skipped;
* violations that join two variable rows are encoded up front and the
  session agrees with a rebuilt propagating engine across a stream of
  ground adds and drops;
* the session counts on one enumeration solver for its whole life, so
  repeated counts, with and without updates between them, must each equal
  the propagating engine's; that includes an instance whose blocking clause
  is made of level-0 facts, where a count that left its activation literal
  falsified would make every later count 0.  Counting must not change the
  live solver's witnesses, and 500 counts must not grow the enumeration
  solver's clause store;
* a count solves once per cube of valuations with one world, plus once to
  find no more, and weights each model by its cube, so its value and
  ``stats`` equal the propagating engine's on Figure 1 with and without
  Bob's visit.
"""

from __future__ import annotations

import random

import pytest

from repro.api import Database
from repro.constraints.containment import denial_cc, satisfies_all
from repro.ctables.cinstance import cinstance
from repro.ctables.possible_worlds import default_active_domain
from repro.queries.atoms import atom, eq, neq
from repro.queries.cq import boolean_cq
from repro.queries.terms import var
from repro.relational.domains import Domain
from repro.relational.master import MasterData, empty_master
from repro.relational.schema import RelationSchema, database_schema, schema
from repro.search.engine import WorldSearch, world_key
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
    assert WorldSearch(T, EMPTY_MASTER, [forbid]).has_world() is False
    one_shot = SATWorldSearch(T, EMPTY_MASTER, [forbid])
    assert one_shot.has_world() is False
    assert one_shot.count_worlds() == 0


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
    assert session_count.value == WorldSearch(T, EMPTY_MASTER, [fd]).count_worlds()
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


def test_variable_row_joins_track_the_propagating_engine():
    fd = _fd_over_c()
    T = cinstance(PAIR_SCHEMA, R=[(x, "c"), (y, "c"), ("d", "e")])
    db = Database(T, EMPTY_MASTER, [fd], engine="sat")
    first = db.count()
    assert first.value == WorldSearch(T, EMPTY_MASTER, [fd]).count_worlds()
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
        reference = WorldSearch(db.cinstance, EMPTY_MASTER, [fd])
        verdict = db.is_consistent(witness=False)
        assert verdict.stats.reused_solver is True, "the session was rebuilt"
        assert bool(verdict) == reference.has_world()
        assert db.count().value == reference.count_worlds()
        witness = db.is_consistent().witness
        expected = {world_key(world) for world in reference.worlds()}
        if expected:
            assert witness is not None and world_key(witness) in expected
        else:
            assert witness is None


# ---------------------------------------------------------------------------
# repeated counts on the session's one enumeration solver
# ---------------------------------------------------------------------------
def _figure1_with_bob():
    """Figure 1 plus Bob's 2000 visit; drop and re-add that visit."""
    scenario = build_patient_scenario()
    db = Database(
        scenario.figure1, scenario.master, scenario.constraints, engine="sat"
    )
    db.update(add_rows={"MVisit": [BOB_2000]})
    return db, "MVisit", BOB_2000


def _one_value_pool():
    """The only variable's pool is one value, so each blocking clause is
    ``¬s[y=v] ∨ ¬a`` with ``s[y=v]`` a level-0 fact.  With the ground row
    ("d", "v") the denial refutes every world; without it there is one."""
    single = Domain(name="one", values=frozenset({"v"}))
    one_schema = database_schema(RelationSchema("R", ["A", ("B", single)]))
    master = MasterData(database_schema(schema("M", "A")), {"M": [("d",)]})
    both = denial_cc(
        boolean_cq("cd", atoms=[atom("R", "c", y), atom("R", "d", y)]), name="cd"
    )
    T = cinstance(one_schema, R=[("c", y), ("d", "v")])
    db = Database(T, master, [both], engine="sat")
    return db, "R", ("d", "v")


def _no_ground_rows():
    """Two variable rows and no ground row; ("c", "c") comes and goes."""
    T = cinstance(PAIR_SCHEMA, R=[(x, "c"), (y, "c")])
    db = Database(T, EMPTY_MASTER, [_fd_over_c()], engine="sat")
    return db, "R", ("c", "c")


@pytest.mark.parametrize(
    "build",
    [_figure1_with_bob, _one_value_pool, _no_ground_rows],
    ids=["figure1-bob", "one-value-pool", "no-ground-rows"],
)
def test_repeated_counts_track_the_propagating_engine(build):
    db, relation, row = build()
    db.count()  # builds the live session
    session = db._sat_session
    present = row in db.cinstance.ground_tuples()[relation]
    counts = []
    for step in ("start", "toggle", "toggle back"):
        if step != "start":
            key = "drop_rows" if present else "add_rows"
            db.update(**{key: {relation: [row]}})
            present = not present
        assert db._sat_session is session, "the session was rebuilt"
        expected = WorldSearch(db.cinstance, db.master, db.constraints).count_worlds()
        # Twice with no update in between, straight on the session.
        pair = [session.count_worlds(), session.count_worlds()]
        assert pair == [expected, expected], step
        counts.append(expected)
    assert any(counts), "every state had no world"


def _ground(cinst):
    return {
        (name, row) for name, rows in cinst.ground_tuples().items() for row in rows
    }


def test_counts_leave_the_live_solver_witnesses_alone():
    # Two sessions take the same updates and the same existence and witness
    # calls; one also counts three times before each.  The witnesses must be
    # the same worlds.
    db, relation, row = _figure1_with_bob()
    adom = db.adom()
    counting = IncrementalSATSession(db.cinstance, db.master, db.constraints, adom)
    plain = IncrementalSATSession(db.cinstance, db.master, db.constraints, adom)
    updates = [({}, {relation: [row]}), ({relation: [BOB_2001]}, {}),
               ({relation: [row]}, {relation: [BOB_2001]})]
    for added, dropped in [({}, {})] + updates:
        before = _ground(db.cinstance)
        db.update(add_rows=added, drop_rows=dropped)
        after = _ground(db.cinstance)
        for session in (counting, plain):
            session.apply(db.cinstance, after - before, before - after)
        for _ in range(3):
            counting.count_worlds()
        assert counting.has_world() == plain.has_world()
        witness, reference = counting.first_world(), plain.first_world()
        assert (witness is None) == (reference is None)
        if witness is not None:
            assert world_key(witness) == world_key(reference)


def test_five_hundred_counts_keep_the_clause_store_flat():
    # Bob's visit flips between 2000 and 2001 and John's comes and goes:
    # 17 or 18 worlds, and conflicts that leave learned clauses behind.
    rng = random.Random(0)
    db, _relation, _row = _figure1_with_bob()
    db.count()
    session = db._sat_session
    present = BOB_2000
    for _ in range(500):
        new = BOB_2001 if present == BOB_2000 else BOB_2000
        update = {"add_rows": {"MVisit": [new]}, "drop_rows": {"MVisit": [present]}}
        if rng.random() < 0.3:
            key = "drop_rows" if JOHN_2000 in db.cinstance.ground_tuples()["MVisit"] else "add_rows"
            update[key]["MVisit"].append(JOHN_2000)
        db.update(**update)
        present = new
        assert session.count_worlds() == (17 if new == BOB_2000 else 18)
    assert db._sat_session is session, "the session was rebuilt"
    solver = session._enumerator
    assert solver.stats.conflicts > 0
    assert len(solver._clauses) <= 2 * len(session.encoding.clauses)
    assert session._activation not in solver._assign


#: Figure 1 with no Bob visit, and with each of his two: the propagating
#: engine's (value, stats.worlds, stats.duplicate_worlds) of a count.
FIGURE1_COUNTS = [(None, (290, 307, 17)), (BOB_2000, (17, 35, 18)), (BOB_2001, (18, 35, 17))]


def _live_session(bob):
    scenario = build_patient_scenario()
    db = Database(
        scenario.figure1, scenario.master, scenario.constraints, engine="sat"
    )
    if bob is not None:
        db.update(add_rows={"MVisit": [bob]})
    db.count()  # builds the live session
    return db, db._sat_session


@pytest.mark.parametrize("bob, figures", FIGURE1_COUNTS, ids=["figure1", "bob-2000", "bob-2001"])
def test_live_counts_report_the_propagating_engine_stats(bob, figures):
    # With Bob's row, z = 2001 drops the variable row whatever x is: a count
    # that blocks only the variables a world depends on finds one model for
    # those 18 valuations, so unweighted its stats.worlds would read 18.
    db, session = _live_session(bob)
    reference = WorldSearch(db.cinstance, db.master, db.constraints)
    value = reference.count_worlds()
    assert (value, reference.stats.worlds, reference.stats.duplicate_worlds) == figures
    for _ in range(2):
        value = session.count_worlds()
        assert (value, session.stats.worlds, session.stats.duplicate_worlds) == figures


@pytest.mark.parametrize(
    "bob, solves", [(None, 291), (BOB_2000, 19), (BOB_2001, 19)],
    ids=["figure1", "bob-2000", "bob-2001"],
)
def test_a_live_count_solves_once_per_cube_plus_once(bob, solves):
    # Figure 1: 289 valuations keep Bob's row and z = 2001 is one cube.  With
    # a Bob visit: 17 cubes keep the row and z = 2001 is one cube.
    _db, session = _live_session(bob)
    for _ in range(2):
        before = session.stats.solver.solve_calls
        session.count_worlds()
        assert session.stats.solver.solve_calls - before == solves
