"""Property-based suite for the incremental-update layer of the facade.

Random update scripts drive :meth:`repro.api.Database.update` and
:meth:`~repro.api.Database.batch` through the situations the update layer
must get right:

* **drop-then-re-add** — a round trip restores the relation fingerprint, so
  cached decisions survive and batches commit without re-verification;
* **no-op updates** — dropping and re-adding a row in one call touches
  nothing and evicts nothing;
* **consistency flips** — streams that leave and re-enter consistency keep
  every engine's verdict in lockstep with a rebuilt-from-scratch oracle;
* **rolled-back batches** — a raising or inconsistency-rejected batch
  restores the c-instance, the Adom and the decision cache wholesale.

The cache-invalidation contract is pinned through the public
:attr:`repro.decision.DecisionStats.cache_hit` flag: touching an entry's
dependency relations must flip it back to ``False``; updates confined to
relations outside the dependency set (and leaving the active domain alone)
must keep it ``True``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Database
from repro.constraints.containment import cc, projection
from repro.ctables.cinstance import CInstance, cinstance
from repro.ctables.ctable import CTable, CTableRow
from repro.exceptions import InconsistentUpdateError, UpdateError
from repro.queries.atoms import atom
from repro.queries.cq import cq
from repro.queries.fo import fo, native_query
from repro.queries.formulas import conj, exists, forall, rel
from repro.queries.terms import var
from repro.relational.master import MasterData
from repro.relational.schema import database_schema, schema
from repro.search.registry import EngineConfig
from repro.workloads.generator import registry_workload, update_stream_workload
from repro.workloads.patients import build_patient_scenario

ALL_ENGINES = ("naive", "propagating", "sat")


def make_database(seed: int = 0, **kwargs) -> Database:
    workload = registry_workload(seed=seed, **kwargs)
    return Database(
        workload.cinstance, workload.master, workload.constraints, engine="sat"
    )


def two_relation_database() -> Database:
    """``Record`` bounded by the registry plus an unconstrained ``Note``.

    ``Note`` shares the registry's constants, so updates to it can leave the
    Prop. 3.3 active domain untouched — the setup the *non-touching* cache
    assertions need.
    """
    db_schema = database_schema(
        schema("Record", "key", "value"), schema("Note", "key", "text")
    )
    master = MasterData(
        database_schema(schema("Registry", "key", "value")),
        {"Registry": [("k0", "v0"), ("k1", "v1")]},
    )
    k, v = var("k"), var("v")
    bound = cc(
        cq("all_records", [k, v], atoms=[atom("Record", k, v)]),
        projection("Registry", "key", "value"),
        name="record⊆registry",
    )
    cinst = CInstance(
        db_schema,
        {
            "Record": CTable(db_schema["Record"], [CTableRow(("k0", var("m0")))]),
            "Note": CTable(db_schema["Note"], [CTableRow(("k0", "v0"))]),
        },
    )
    return Database(cinst, master, [bound], engine="sat")


# ---------------------------------------------------------------------------
# no-op updates and drop-then-re-add
# ---------------------------------------------------------------------------
def test_drop_then_readd_in_one_call_is_noop():
    db = make_database()
    row = next(
        r.terms for r in db.cinstance.table("Record").rows if not r.variables()
    )
    before = db.is_consistent(witness=False)
    result = db.update(add_rows={"Record": [row]}, drop_rows={"Record": [row]})
    assert result.is_noop
    assert result.touched == frozenset()
    assert not result.adom_changed
    assert result.invalidated == 0
    after = db.is_consistent(witness=False)
    assert after.stats.cache_hit is True
    assert bool(after) == bool(before)


def test_drop_then_readd_across_updates_restores_fingerprint():
    db = make_database()
    row = next(
        r.terms for r in db.cinstance.table("Record").rows if not r.variables()
    )
    fingerprints = db.cinstance.relation_fingerprints()
    dropped = db.update(drop_rows={"Record": [row]})
    assert dropped.touched == frozenset({"Record"})
    assert db.cinstance.relation_fingerprints() != fingerprints
    db.update(add_rows={"Record": [row]})
    assert db.cinstance.relation_fingerprints() == fingerprints


def test_noop_batch_commits_without_verification():
    db = make_database()
    row = next(
        r.terms for r in db.cinstance.table("Record").rows if not r.variables()
    )
    db.is_consistent(witness=False)
    with db.batch() as batch:
        batch.update(drop_rows={"Record": [row]})
        batch.update(add_rows={"Record": [row]})
    # The net no-op left the fingerprints alone: the cached verdict survives.
    assert db.is_consistent(witness=False).stats.cache_hit is True


# ---------------------------------------------------------------------------
# cache-invalidation contract (DecisionStats.cache_hit)
# ---------------------------------------------------------------------------
def test_cache_hit_false_after_touching_update():
    db = make_database()
    first = db.is_consistent(witness=False)
    assert first.stats.cache_hit is False
    assert db.is_consistent(witness=False).stats.cache_hit is True
    registry_rows = sorted(db.master.relation("Registry").rows)
    present = {
        r.terms for r in db.cinstance.table("Record").rows if not r.variables()
    }
    new_row = next(row for row in registry_rows if row not in present)
    result = db.update(add_rows={"Record": [new_row]})
    assert "Record" in result.touched
    assert result.invalidated >= 1
    recomputed = db.is_consistent(witness=False)
    assert recomputed.stats.cache_hit is False
    assert db.is_consistent(witness=False).stats.cache_hit is True


def test_cache_hit_true_after_non_touching_update():
    db = two_relation_database()
    db.is_consistent(witness=False)
    # "Note" is outside the constraints' dependency set and the new row uses
    # only constants already in Adom — the cached verdict must survive.
    result = db.update(add_rows={"Note": [("k1", "v1")]})
    assert result.touched == frozenset({"Note"})
    assert not result.adom_changed
    assert db.is_consistent(witness=False).stats.cache_hit is True


def test_cache_hits_return_the_stored_decision_uncopied():
    workload = registry_workload(seed=0)
    db = Database(workload.cinstance, workload.master, workload.constraints)
    miss = db.is_consistent(witness=False)
    assert miss.stats.cache_hit is False
    first = db.cache_probe("consistency", ("witness", False))
    second = db.cache_probe("consistency", ("witness", False))
    assert first is second
    assert first.stats.cache_hit is True
    assert first == miss
    assert db.is_consistent(witness=False) is first
    # The probe never touches the stored entry.
    assert miss.stats.cache_hit is False


def test_adom_change_invalidates_even_untouched_dependencies():
    db = two_relation_database()
    db.is_consistent(witness=False)
    # A genuinely new constant enters S, so the validation context changes
    # and the cached verdict may not be reused even though only "Note"
    # (outside the dependency set) was touched.
    result = db.update(add_rows={"Note": [("k0", "brand-new")]})
    assert result.touched == frozenset({"Note"})
    assert result.adom_changed
    assert db.is_consistent(witness=False).stats.cache_hit is False


x, y = var("x"), var("y")
#: ``(T's rows, query, rows added to S, answers before and after)`` for a
#: query that reads ``S`` without an atom naming it, over ``R(A, B)`` and
#: ``S(A)`` with no constraints and the master constant 2.
UNNAMED_READERS = {
    # A native query that returns the rows of S.
    "native": (
        {"R": [(1, 1)], "S": [(5,)]},
        native_query("s-rows", 1, lambda instance: instance.relation("S").rows),
        [(6,)],
        ({(5,)}, {(5,), (6,)}),
    ),
    # The x with R(x, y) for every y of the world's active domain.  S(2)
    # leaves the Adom as it was (the master data holds 2) and adds a y that
    # R(1, y) misses.
    "fo": (
        {"R": [(1, 1)], "S": []},
        fo("Hub", [x], conj(exists([y], rel("R", x, y)), forall([y], rel("R", x, y)))),
        [(2,)],
        ({(1,)}, set()),
    ),
}


@pytest.mark.parametrize("reader", sorted(UNNAMED_READERS))
def test_certain_answers_follow_an_update_to_a_relation_the_query_does_not_name(reader):
    rows, query, added, (before, after) = UNNAMED_READERS[reader]
    db_schema = database_schema(schema("R", "A", "B"), schema("S", "A"))
    master = MasterData(database_schema(schema("Rm", "A")), {"Rm": [(2,)]})
    db = Database(cinstance(db_schema, **rows), master, [])
    assert db.certain_answers(query) == before
    assert db.update(add_rows={"S": added}).touched == frozenset({"S"})
    assert db.certain_answers(query) == after
    assert Database(db.cinstance, master, []).certain_answers(query) == after


def test_rcqp_cache_survives_every_update():
    workload = registry_workload(master_size=3, db_rows=2, variable_count=1)
    db = Database(
        workload.cinstance, workload.master, workload.constraints, engine="sat"
    )
    first = db.rcqp(workload.point_query)
    assert first.stats.cache_hit is False
    row = next(
        r.terms for r in db.cinstance.table("Record").rows if not r.variables()
    )
    db.update(drop_rows={"Record": [row]})
    # RCQP quantifies over all databases: the c-instance contents play no
    # role, so its cached verdict has an empty dependency set and survives.
    again = db.rcqp(workload.point_query)
    assert again.stats.cache_hit is True
    assert bool(again) == bool(first)


# ---------------------------------------------------------------------------
# consistency flips
# ---------------------------------------------------------------------------
def test_consistency_flip_and_recovery_across_engines():
    db = make_database(master_size=3, db_rows=2, variable_count=1)
    assert bool(db.is_consistent(witness=False))
    off_registry = ("k0", "v-off")
    result = db.update(add_rows={"Record": [off_registry]})
    # The ground-fact baseline already certifies inconsistency.
    assert result.consistent is False
    for engine in ALL_ENGINES:
        assert not db.is_consistent(engine=EngineConfig(engine), witness=False)
        assert db.count(engine=EngineConfig(engine)).value == 0
    recovered = db.update(drop_rows={"Record": [off_registry]})
    assert recovered.consistent is None
    for engine in ALL_ENGINES:
        assert bool(db.is_consistent(engine=EngineConfig(engine), witness=False))


# ---------------------------------------------------------------------------
# rolled-back batches
# ---------------------------------------------------------------------------
def test_raising_batch_rolls_back_and_propagates():
    db = make_database()
    fingerprints = db.cinstance.relation_fingerprints()
    baseline = db.count().value
    with pytest.raises(RuntimeError, match="boom"):
        with db.batch() as batch:
            batch.update(add_rows={"Record": [("k0", "v-off")]})
            raise RuntimeError("boom")
    assert db.cinstance.relation_fingerprints() == fingerprints
    assert db.count().value == baseline


def test_inconsistent_batch_rolls_back():
    db = make_database(master_size=3, db_rows=2, variable_count=1)
    fingerprints = db.cinstance.relation_fingerprints()
    with pytest.raises(InconsistentUpdateError):
        with db.batch() as batch:
            batch.update(add_rows={"Record": [("k0", "v-off")]})
    assert db.cinstance.relation_fingerprints() == fingerprints
    assert bool(db.is_consistent(witness=False))


def test_batch_misuse_raises():
    db = make_database()
    batch = db.batch()
    with pytest.raises(UpdateError, match="outside the with block"):
        batch.update(add_rows={"Record": [("k0", "v0")]})
    with batch:
        with pytest.raises(UpdateError, match="not reentrant"):
            batch.__enter__()


def test_update_errors_are_atomic():
    db = make_database()
    fingerprints = db.cinstance.relation_fingerprints()
    with pytest.raises(UpdateError):
        db.update(add_rows={"NoSuchRelation": [("a", "b")]})
    with pytest.raises(UpdateError):
        db.update(drop_rows={"Record": [("not", "present")]})
    assert db.cinstance.relation_fingerprints() == fingerprints


# ---------------------------------------------------------------------------
# mixed-type columns
# ---------------------------------------------------------------------------
#: One visit written twice, the year once as an int and once as a str: the
#: ``MVisit.year`` column then mixes value types.
ZED_ROWS = [("915-15-999", "Zed", "EDI", 2000), ("915-15-999", "Zed", "EDI", "2000")]


def assert_matches_rebuild(db: Database) -> None:
    scenario = build_patient_scenario()
    oracle = Database(db.cinstance, scenario.master, scenario.constraints)
    assert bool(db.is_consistent(witness=False)) == bool(
        oracle.is_consistent(witness=False)
    )
    assert db.count().value == oracle.count().value


def test_update_with_mixed_type_rows_matches_rebuild():
    """Regression: ordering the ground diff compared an int with a str and
    raised ``TypeError`` after the new rows were already swapped in."""
    scenario = build_patient_scenario()
    db = Database(scenario.figure1, scenario.master, scenario.constraints)
    assert db.count().value == 290
    result = db.update(add_rows={"MVisit": ZED_ROWS})
    assert result.touched == frozenset({"MVisit"})
    assert len(db.cinstance.table("MVisit").rows) == len(
        scenario.figure1.table("MVisit").rows
    ) + 2
    assert_matches_rebuild(db)
    db.update(drop_rows={"MVisit": ZED_ROWS})
    assert_matches_rebuild(db)
    assert db.count().value == 290


def test_first_update_over_mixed_type_rows_builds_the_baseline():
    """Regression: the ground-fact baseline sorted rows by value, so the
    first update of a database already holding mixed-type rows crashed."""
    scenario = build_patient_scenario()
    mixed = scenario.figure1
    for row in ZED_ROWS:
        mixed = mixed.with_row("MVisit", row)
    db = Database(mixed, scenario.master, scenario.constraints)
    db.update(add_rows={"MVisit": [("915-15-400", "Ann", "EDI", 2001)]})
    assert_matches_rebuild(db)


# ---------------------------------------------------------------------------
# per-call stats on the live SAT session
# ---------------------------------------------------------------------------
BOB_ROWS = (("915-15-336", "Bob", "EDI", 2000), ("915-15-336", "Bob", "EDI", 2001))


def test_live_session_decisions_report_per_call_stats():
    """Regression: the live session's counters accumulated over its life, so
    successive counts after updates reported 35, 70 and 105 valuations where
    a fresh facade reports 35."""
    scenario = build_patient_scenario()
    db = Database(
        scenario.figure1, scenario.master, scenario.constraints, engine="sat"
    )
    db.update(add_rows={"MVisit": [BOB_ROWS[0]]})
    for replacement in (None, BOB_ROWS, BOB_ROWS[::-1]):
        if replacement is not None:
            old, new = replacement
            db.update(add_rows={"MVisit": [new]}, drop_rows={"MVisit": [old]})
        counted = db.count()
        fresh = Database(
            db.cinstance, scenario.master, scenario.constraints, engine="sat"
        ).count()
        assert counted.value == fresh.value
        assert counted.stats.worlds == fresh.stats.worlds


def test_row_replacements_keep_the_baseline_trail_bounded():
    """Regression: the ground-fact checker session unwinds by retract() and
    can never pop, yet every push after a retraction recorded a trail entry,
    so its memory grew with the number of updates (371 B per replacement)."""
    scenario = build_patient_scenario()
    db = Database(scenario.figure1, scenario.master, scenario.constraints)
    db.update(add_rows={"MVisit": [BOB_ROWS[0]]})
    db.update(add_rows={"MVisit": [BOB_ROWS[1]]}, drop_rows={"MVisit": [BOB_ROWS[0]]})
    baseline = db._baseline
    assert baseline is not None
    depth = baseline.depth
    for step in range(2000):
        old, new = BOB_ROWS if step % 2 else BOB_ROWS[::-1]
        result = db.update(add_rows={"MVisit": [new]}, drop_rows={"MVisit": [old]})
        assert result.consistent is None
        assert db._baseline is baseline
        assert baseline.depth == depth
    assert baseline.facts["MVisit"] == db.cinstance.ground_tuples()["MVisit"]


# ---------------------------------------------------------------------------
# hypothesis: random scripts vs a rebuilt oracle
# ---------------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), steps=st.integers(1, 5))
def test_random_scripts_match_rebuild_oracle(seed, steps):
    """Every step of a random script leaves the facade indistinguishable
    from a fresh one built over the same c-instance, on every engine."""
    workload = update_stream_workload(
        steps=steps,
        master_size=3,
        db_rows=2,
        variable_count=1,
        include_violations=True,
        seed=seed,
    )
    base = workload.base
    db = Database(base.cinstance, base.master, base.constraints, engine="sat")
    for step in workload.script:
        rows = {step.relation: [step.row]}
        if step.kind == "add":
            db.update(add_rows=rows)
        else:
            db.update(drop_rows=rows)
        oracle = Database(
            db.cinstance, base.master, base.constraints, engine="sat"
        )
        for engine in ALL_ENGINES:
            config = EngineConfig(engine)
            assert bool(db.is_consistent(engine=config, witness=False)) == bool(
                oracle.is_consistent(engine=config, witness=False)
            )
            assert db.count(engine=config).value == oracle.count(engine=config).value
        assert frozenset(db.worlds()) == frozenset(oracle.worlds())


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), steps=st.integers(1, 4))
def test_random_batches_commit_or_roll_back_atomically(seed, steps):
    """A batch either commits a consistent state or restores the old one."""
    workload = update_stream_workload(
        steps=steps,
        master_size=3,
        db_rows=2,
        variable_count=1,
        include_violations=True,
        seed=seed,
    )
    base = workload.base
    db = Database(base.cinstance, base.master, base.constraints, engine="sat")
    before = db.cinstance.relation_fingerprints()
    try:
        with db.batch() as batch:
            for step in workload.script:
                rows = {step.relation: [step.row]}
                if step.kind == "add":
                    batch.update(add_rows=rows)
                else:
                    batch.update(drop_rows=rows)
    except InconsistentUpdateError:
        assert db.cinstance.relation_fingerprints() == before
    assert bool(db.is_consistent(witness=False)) == bool(
        Database(
            db.cinstance, base.master, base.constraints
        ).is_consistent(witness=False)
    )
