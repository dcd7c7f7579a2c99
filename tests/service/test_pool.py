"""The :class:`DatabasePool`: facade parity, shared cache identity, updates.

These tests run the pool directly (its thread pool, no HTTP) and pin the
property the service's caching is built on: the wire path and direct
:class:`~repro.api.Database` calls memoise under the *same* identity, so
warming one warms the other.
"""

from __future__ import annotations

import asyncio
import sys
import threading

import pytest

from repro.api import Database, EngineConfig
from repro.ctables.cinstance import cinstance
from repro.decision import json_safe
from repro.exceptions import ServiceError
from repro.queries.fo import native_query
from repro.relational.master import MasterData
from repro.relational.schema import database_schema, schema
from repro.search.sat_engine import IncrementalSATSession
from repro.service import pool as pool_module
from repro.service.plugins import SessionSpec, get_workload
from repro.service.pool import DatabasePool
from repro.service.problems import parse_engine


def run(coro):
    return asyncio.run(coro)


def patients_spec():
    return get_workload("patients")()


def registry_spec(**params):
    params.setdefault("master_size", 3)
    params.setdefault("db_rows", 2)
    params.setdefault("variable_count", 1)
    return get_workload("registry")(**params)


@pytest.fixture
def make_pool():
    """Builds pools (no request timeout unless given) and shuts each one
    down after the test."""
    pools: list[DatabasePool] = []

    def make(**options) -> DatabasePool:
        options.setdefault("request_timeout", None)
        pools.append(DatabasePool(**options))
        return pools[-1]

    yield make
    for pool in pools:
        pool.shutdown()


# ---------------------------------------------------------------------------
# session lifecycle
# ---------------------------------------------------------------------------
def test_session_crud(make_pool):
    pool = make_pool()
    state = pool.create_session("a", "patients")
    assert pool.session_names() == ["a"]
    assert state.info()["queries"] == sorted(state.spec.queries)
    with pytest.raises(ServiceError) as err:
        pool.create_session("a", "patients")
    assert err.value.status == 409
    pool.drop_session("a")
    assert pool.session_names() == []
    with pytest.raises(ServiceError) as err:
        pool.session("a")
    assert err.value.status == 404
    with pytest.raises(ServiceError) as err:
        pool.drop_session("a")
    assert err.value.status == 404


def test_invalid_session_names_and_engines(make_pool):
    pool = make_pool()
    with pytest.raises(ServiceError):
        pool.create_session("a/b", "patients")
    with pytest.raises(ServiceError):
        pool.create_session("", "patients")
    with pytest.raises(ServiceError):
        pool.add_session("ok", patients_spec(), engine="no-such-engine")


@pytest.mark.parametrize(
    ("body", "expected"),
    [
        ({}, None),
        # The wire "workers" field went with the parallel engine; like any
        # unknown field it is ignored.
        ({"workers": 2}, None),
        ({"engine": "sat", "workers": 2}, EngineConfig(name="sat")),
    ],
    ids=["default", "workers-alone", "engine-and-workers"],
)
def test_parse_engine(body, expected):
    assert parse_engine(body) == expected


def test_parse_engine_rejects_a_non_string_engine():
    with pytest.raises(ServiceError) as err:
        parse_engine({"engine": 2})
    assert err.value.status == 400


def test_parse_engine_rejects_the_parallel_engine():
    with pytest.raises(ServiceError) as err:
        parse_engine({"engine": "parallel"})
    assert err.value.status == 400
    for name in ("propagating", "sat", "naive"):
        assert repr(name) in str(err.value)


# ---------------------------------------------------------------------------
# decisions: facade parity and shared cache identity
# ---------------------------------------------------------------------------
def test_decide_matches_direct_facade(make_pool):
    spec = patients_spec()
    pool = make_pool()
    pool.add_session("s", spec)
    direct = Database(spec.cinstance, spec.master, spec.constraints)

    async def main():
        env = await pool.decide("s", {"problem": "consistency"})
        assert env["ok"] is True
        assert env["result"]["kind"] == "decision"
        assert env["result"]["holds"] == bool(direct.is_consistent())
        certain = await pool.decide("s", {"problem": "certain", "query": "q1"})
        assert certain["result"]["kind"] == "answers"
        assert certain["result"]["answers"] == json_safe(
            direct.certain_answers(spec.queries["q1"])
        )
        rcdp = await pool.decide(
            "s", {"problem": "complete", "query": "q1", "model": "strong"}
        )
        direct_rcdp = direct.complete(spec.queries["q1"])
        assert rcdp["result"]["holds"] == bool(direct_rcdp)
        assert rcdp["result"]["stats"]["searches"] >= 1

    run(main())


def test_wire_and_facade_share_one_cache(make_pool):
    pool = make_pool()
    state = pool.create_session("s", "patients")

    async def main():
        first = await pool.decide("s", {"problem": "consistency"})
        assert first["cache_hit"] is False
        # The wire decision warmed the session facade's own cache...
        direct = state.database.is_consistent()
        assert direct.stats.cache_hit is True
        # ...and a facade call warms the wire path.
        state.database.rcqp(state.spec.queries["q1"], max_size=2)
        wire = await pool.decide(
            "s", {"problem": "rcqp", "query": "q1", "max_size": 2}
        )
        assert wire["cache_hit"] is True
        assert wire["result"]["stats"]["cache_hit"] is True

    run(main())


def test_engine_override_per_request(make_pool):
    pool = make_pool()
    pool.create_session("s", "patients")

    async def main():
        env = await pool.decide("s", {"problem": "consistency", "engine": "sat"})
        assert env["result"]["engine_used"] == "sat"
        # A different engine is a different cache identity: no false sharing.
        other = await pool.decide(
            "s", {"problem": "consistency", "engine": "propagating"}
        )
        assert other["cache_hit"] is False

    run(main())


def test_include_witness(make_pool):
    pool = make_pool()
    pool.create_session("s", "patients")

    async def main():
        bare = await pool.decide("s", {"problem": "consistency"})
        assert "witness" not in bare["result"]
        env = await pool.decide(
            "s", {"problem": "consistency", "include_witness": True}
        )
        assert env["cache_hit"] is True  # include_witness is not cache identity
        assert "witness" in env["result"]

    run(main())


def test_single_flight_collapses_identical_concurrent_decides(make_pool, monkeypatch):
    pool = make_pool()
    pool.create_session("s", "patients")
    body = {"problem": "complete", "query": "q1", "model": "strong"}
    # The leader's work waits until the five followers have joined its
    # flight: a worker that answered first would cache the answer, and a
    # late request would be a cache hit rather than a follower.
    followers_joined = threading.Event()
    invoke = pool_module.invoke

    def held_invoke(*args):
        assert followers_joined.wait(timeout=30), "the followers never joined"
        return invoke(*args)

    monkeypatch.setattr(pool_module, "invoke", held_invoke)

    async def main():
        requests = asyncio.gather(*(pool.decide("s", dict(body)) for _ in range(6)))
        for _ in range(3000):
            if pool.metrics.singleflight_followers == 5:
                break
            await asyncio.sleep(0.01)
        followers_joined.set()
        envelopes = await requests
        assert pool.metrics.engine_runs == 1
        assert sum(1 for e in envelopes if e["deduplicated"]) == 5
        assert len({e["result"]["holds"] for e in envelopes}) == 1

    run(main())


@pytest.mark.parametrize(
    "follower",
    [
        {"problem": "model_count"},
        {"problem": "count", "engine": "propagating"},
        {"problem": "count", "ignored": True},
    ],
    ids=["alias", "default-engine-named", "ignored-key"],
)
def test_single_flight_keys_on_the_cache_identity(make_pool, monkeypatch, follower):
    """A request the cache treats as the held leader's joins its flight."""
    pool = make_pool()
    pool.create_session("s", "patients")
    follower_joined = threading.Event()
    invoke = pool_module.invoke

    def held_invoke(*args):
        assert follower_joined.wait(timeout=30), "the follower never joined"
        return invoke(*args)

    monkeypatch.setattr(pool_module, "invoke", held_invoke)

    async def main():
        requests = asyncio.gather(
            pool.decide("s", {"problem": "count"}), pool.decide("s", follower)
        )
        for _ in range(3000):
            if pool.metrics.singleflight_followers == 1:
                break
            await asyncio.sleep(0.01)
        follower_joined.set()
        leader, joined = await requests
        assert pool.metrics.engine_runs == 1
        assert (leader["deduplicated"], joined["deduplicated"]) == (False, True)
        assert joined["result"]["value"] == leader["result"]["value"]

    run(main())


def test_decide_errors(make_pool):
    pool = make_pool()
    pool.create_session("s", "patients")

    async def main():
        with pytest.raises(ServiceError) as err:
            await pool.decide("missing", {"problem": "consistency"})
        assert err.value.status == 404
        with pytest.raises(ServiceError):
            await pool.decide("s", {"problem": "tractability"})
        with pytest.raises(ServiceError):
            await pool.decide("s", {"problem": "complete", "query": "nope"})
        with pytest.raises(ServiceError):
            await pool.decide("s", ["not", "an", "object"])
        with pytest.raises(ServiceError):
            await pool.decide("s", {"problem": "consistency", "engine": "warp"})

    run(main())


# ---------------------------------------------------------------------------
# per-session state: the rate window and the recent envelopes
# ---------------------------------------------------------------------------
def test_the_rate_window_slides_per_session(make_pool):
    pool = make_pool()
    first = pool.create_session("a", "patients")
    other = pool.create_session("b", "patients")
    assert first.admit(2, 10.0)
    assert first.admit(2, 10.5)
    assert not first.admit(2, 10.9)
    assert other.admit(2, 10.9)  # sessions count separately
    assert not first.admit(2, 10.999)
    assert first.admit(2, 11.0)  # the request at 10.0 is a second old
    assert not first.admit(2, 11.2)  # the rejected ones were not counted
    assert first.admit(2, 11.5)


def test_a_session_keeps_its_newest_64_envelopes(make_pool):
    pool = make_pool()
    state = pool.create_session("s", "patients")
    for index in range(70):
        state.results.append({"index": index})
    assert [envelope["index"] for envelope in state.results] == list(range(6, 70))


# ---------------------------------------------------------------------------
# updates
# ---------------------------------------------------------------------------
def test_update_invalidates_dependency_scoped_entries(make_pool):
    pool = make_pool()
    pool.create_session("s", "patients")

    async def main():
        await pool.decide("s", {"problem": "consistency"})
        await pool.decide("s", {"problem": "rcqp", "query": "q1", "max_size": 2})
        result = await pool.update(
            "s", {"add_rows": {"MVisit": [["915-15-400", "Ann", "EDI", 2001]]}}
        )
        assert result["update"]["touched"] == ["MVisit"]
        assert result["update"]["invalidated"] >= 1
        # Consistency depended on MVisit: recomputed.
        consistency = await pool.decide("s", {"problem": "consistency"})
        assert consistency["cache_hit"] is False
        # RCQP quantifies over all master-conforming instances: survives.
        rcqp = await pool.decide(
            "s", {"problem": "rcqp", "query": "q1", "max_size": 2}
        )
        assert rcqp["cache_hit"] is True

    run(main())


def s_reader_spec(gate: threading.Event | None = None) -> SessionSpec:
    """``T = {R(1), S(5)}`` without constraints and a native query that
    returns the rows of ``S`` (once ``gate`` is set, if one is given): no
    query atom names ``S``."""

    def s_rows(instance):
        if gate is not None:
            gate.wait(timeout=30.0)
        return instance.relation("S").rows

    db_schema = database_schema(schema("R", "A"), schema("S", "A"))
    return SessionSpec(
        cinstance=cinstance(db_schema, R=[(1,)], S=[(5,)]),
        master=MasterData(database_schema(schema("Rm", "A")), {"Rm": []}),
        constraints=(),
        queries={"s_rows": native_query("s-rows", 1, s_rows)},
    )


def test_native_certain_answers_follow_an_update_to_the_relation_they_read(make_pool):
    pool = make_pool()
    pool.add_session("s", s_reader_spec())
    body = {"problem": "certain", "query": "s_rows"}

    async def main():
        first = await pool.decide("s", body)
        assert first["result"]["answers"] == [[5]]
        assert (await pool.decide("s", body))["cache_hit"] is True
        await pool.update("s", {"add_rows": {"S": [[6]]}})
        after = await pool.decide("s", body)
        assert after["cache_hit"] is False
        assert after["result"]["answers"] == [[5], [6]]

    run(main())


def test_a_timed_out_decision_holds_its_session_until_its_work_returns(make_pool):
    """Regression: the 504 released the session's read lock while the worker
    thread still computed on the facade, so an update committed underneath
    it and the facade cached the late ``[[5]]`` against the updated rows,
    which the next decide answered."""
    gate = threading.Event()
    pool = make_pool(request_timeout=0.2)
    state = pool.add_session("s", s_reader_spec(gate))
    body = {"problem": "certain", "query": "s_rows"}

    async def main():
        with pytest.raises(ServiceError) as err:
            await pool.decide("s", body)
        assert err.value.status == 504
        assert pool.metrics.timeouts == 1
        assert state.lock.readers == 1  # the work still reads the facade
        update = asyncio.ensure_future(pool.update("s", {"add_rows": {"S": [[6]]}}))
        await asyncio.sleep(0.2)
        assert not update.done(), "the update committed under the running work"
        gate.set()
        await update
        assert state.lock.readers == 0
        after = await pool.decide("s", body)
        assert after["cache_hit"] is False
        assert after["result"]["answers"] == [[5], [6]]

    try:
        run(main())
    finally:
        gate.set()


def test_update_bumps_version_and_validates(make_pool):
    pool = make_pool()
    state = pool.create_session("s", "patients")

    async def main():
        assert state.version == 0
        await pool.update(
            "s", {"add_rows": {"MVisit": [["915-15-401", "Bea", "EDI", 2002]]}}
        )
        assert state.version == 1
        with pytest.raises(ServiceError):
            await pool.update("s", {"add_rows": {"NoSuchRelation": [["x"]]}})
        with pytest.raises(ServiceError):
            await pool.update("s", {"add_rows": {"MVisit": [["wrong-arity"]]}})
        with pytest.raises(ServiceError):
            await pool.update("s", {"add_rows": {"MVisit": [[{"not": "scalar"}]]}})
        assert state.version == 1  # failed updates do not bump

    run(main())


def test_inconsistent_batch_is_409_and_rolls_back(make_pool):
    spec = registry_spec()
    pool = make_pool()
    state = pool.add_session("s", spec)
    fingerprints = state.database.cinstance.relation_fingerprints()

    async def main():
        with pytest.raises(ServiceError) as err:
            await pool.batch(
                "s",
                {"steps": [{"add_rows": {"Record": [["k0", "v-off-registry"]]}}]},
            )
        assert err.value.status == 409
        assert state.database.cinstance.relation_fingerprints() == fingerprints
        assert state.version == 0
        # A consistent batch commits and bumps the version once.
        row = next(
            list(r.terms)
            for r in state.database.cinstance.table("Record").rows
            if not r.variables()
        )
        result = await pool.batch(
            "s",
            {
                "steps": [
                    {"drop_rows": {"Record": [row]}},
                    {"add_rows": {"Record": [row]}},
                ]
            },
        )
        assert len(result["steps"]) == 2
        assert state.version == 1

    run(main())


def test_batch_validates_shape(make_pool):
    pool = make_pool()
    pool.create_session("s", "patients")

    async def main():
        with pytest.raises(ServiceError):
            await pool.batch("s", {"steps": "not-a-list"})
        with pytest.raises(ServiceError):
            await pool.batch("s", {"steps": ["not-an-object"]})

    run(main())


#: The six decide bodies of the benchmark's ``service`` workload, then the
#: consistency witness.
SERVICE_BODIES = (
    {"problem": "consistency", "witness": False},
    {"problem": "count"},
    {"problem": "certain", "query": "q1"},
    {"problem": "rcdp", "query": "q1", "model": "viable"},
    {"problem": "rcdp", "query": "q2_present", "model": "strong"},
    {"problem": "rcdp", "query": "q4", "model": "viable"},
    {"problem": "consistency", "include_witness": True},
)


@pytest.mark.parametrize("engine", ["sat", None], ids=["sat", "propagating"])
def test_thread_executor_runs_sat_decisions_concurrently(make_pool, engine):
    """The misses of one session run side by side on its one facade in the
    thread pool, and answer as the same decides run one at a time do.  On
    ``engine="sat"`` the live SAT session that count and both consistency
    forms share serialises them."""
    bob = (["915-15-336", "Bob", "EDI", 2000], ["915-15-336", "Bob", "EDI", 2001])
    sequential = make_pool(executor_workers=len(SERVICE_BODIES))
    sequential.create_session("s", "patients", engine=engine)
    pool = make_pool(executor_workers=len(SERVICE_BODIES))
    state = pool.create_session("s", "patients", engine=engine)
    updates = [{"add_rows": {"MVisit": [bob[0]]}}]
    for old, new in (bob, bob[::-1], bob):
        updates.append({"add_rows": {"MVisit": [new]}, "drop_rows": {"MVisit": [old]}})

    async def answers(target: DatabasePool, concurrent: bool) -> list:
        seen = []
        for update in updates:
            await target.update("s", update)
            if concurrent:
                envelopes = await asyncio.gather(
                    *(target.decide("s", dict(body)) for body in SERVICE_BODIES)
                )
            else:
                envelopes = [await target.decide("s", dict(body)) for body in SERVICE_BODIES]
            assert not any(e["cache_hit"] for e in envelopes)
            seen.append(
                [
                    (e["result"].get("holds"), e["result"].get("value"),
                     e["result"].get("answers"))
                    for e in envelopes
                ]
                + [envelopes[-1]["result"]["witness"]]
            )
        return seen

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often enough to interleave
    try:
        expected = run(answers(sequential, concurrent=False))
        assert [step[1][1] for step in expected] == [17, 18, 17, 18]
        assert run(answers(pool, concurrent=True)) == expected
        assert pool.metrics.engine_runs == len(SERVICE_BODIES) * len(updates)
        # The witness computed beside the others is a world holding Bob's row.
        decision = state.database.is_consistent()
        assert decision.stats.cache_hit
        rows = decision.witness.relation("MVisit").rows
        assert tuple(bob[1]) in rows and tuple(bob[0]) not in rows
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_first_decides_build_one_live_sat_session(make_pool, monkeypatch):
    """Count and both consistency forms, gathered on a fresh ``engine="sat"``
    session, run side by side in the thread pool and share one live SAT
    session: the facade builds it once."""
    built = []
    init = IncrementalSATSession.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(IncrementalSATSession, "__init__", counted_init)
    bodies = (
        {"problem": "count"},
        {"problem": "consistency", "witness": False},
        {"problem": "consistency"},
    )

    async def gather(pool: DatabasePool) -> list:
        return await asyncio.gather(*(pool.decide("s", dict(body)) for body in bodies))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often enough to interleave
    try:
        for _trial in range(3):
            pool = make_pool(executor_workers=len(bodies))
            pool.create_session("s", "patients", engine="sat")
            built.clear()
            envelopes = run(gather(pool))
            assert [e["result"]["holds"] for e in envelopes] == [True] * 3
            assert envelopes[0]["result"]["value"] == 290
            assert len(built) == 1
    finally:
        sys.setswitchinterval(interval)
