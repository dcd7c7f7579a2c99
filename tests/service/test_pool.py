"""The :class:`DatabasePool`: facade parity, shared cache identity, updates.

These tests run the pool directly (inline executor, no HTTP) and pin the
property the service's caching is built on: the wire path and direct
:class:`~repro.api.Database` calls memoise under the *same* identity, so
warming one warms the other.
"""

from __future__ import annotations

import asyncio
import sys

import pytest

from repro.api import Database, EngineConfig
from repro.decision import json_safe
from repro.exceptions import ServiceError
from repro.service.plugins import get_service_plugin
from repro.service.pool import DatabasePool
from repro.service.problems import parse_engine


def run(coro):
    return asyncio.run(coro)


def patients_spec():
    return get_service_plugin("workload", "patients")()


def registry_spec(**params):
    params.setdefault("master_size", 3)
    params.setdefault("db_rows", 2)
    params.setdefault("variable_count", 1)
    return get_service_plugin("workload", "registry")(**params)


def make_pool() -> DatabasePool:
    return DatabasePool(executor="inline", request_timeout=None)


# ---------------------------------------------------------------------------
# session lifecycle
# ---------------------------------------------------------------------------
def test_session_crud():
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


def test_invalid_session_names_and_engines():
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
def test_decide_matches_direct_facade():
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


def test_wire_and_facade_share_one_cache():
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


def test_engine_override_per_request():
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


def test_include_witness():
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


def test_single_flight_collapses_identical_concurrent_decides():
    pool = make_pool()
    pool.create_session("s", "patients")
    body = {"problem": "complete", "query": "q1", "model": "strong"}

    async def main():
        envelopes = await asyncio.gather(
            *(pool.decide("s", dict(body)) for _ in range(6))
        )
        assert pool.metrics.engine_runs == 1
        assert sum(1 for e in envelopes if e["deduplicated"]) == 5
        assert len({e["result"]["holds"] for e in envelopes}) == 1

    run(main())


def test_decide_errors():
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
# updates
# ---------------------------------------------------------------------------
def test_update_invalidates_dependency_scoped_entries():
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


def test_update_bumps_version_and_validates(pool=None):
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


def test_inconsistent_batch_is_409_and_rolls_back():
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


def test_batch_validates_shape():
    pool = make_pool()
    pool.create_session("s", "patients")

    async def main():
        with pytest.raises(ServiceError):
            await pool.batch("s", {"steps": "not-a-list"})
        with pytest.raises(ServiceError):
            await pool.batch("s", {"steps": ["not-an-object"]})

    run(main())


def test_process_replicas_see_updates():
    """Process-executor misses are computed on the session's current rows.

    Regression: worker replicas were rebuilt from the session's creation-time
    spec, so after adding Bob's ground row the process executor still
    answered 290 worlds (and stored that answer in the shared cache, where
    the facade's own ``count()`` then found it) instead of 17.
    """
    bob = ["915-15-336", "Bob", "EDI", 2000]
    inline = make_pool()
    inline.create_session("s", "patients")
    pool = DatabasePool(executor="process", executor_workers=1, request_timeout=None)
    state = pool.create_session("s", "patients")

    async def counts(target: DatabasePool, update: dict) -> tuple[int, int]:
        before = await target.decide("s", {"problem": "count"})
        await target.update("s", update)
        after = await target.decide("s", {"problem": "count"})
        assert after["cache_hit"] is False
        return before["result"]["value"], after["result"]["value"]

    try:
        for update in ({"add_rows": {"MVisit": [bob]}}, {"drop_rows": {"MVisit": [bob]}}):
            expected = run(counts(inline, update))
            assert run(counts(pool, update)) == expected
        assert expected == (17, 290)
        assert state.database.count().value == 290
        run(pool.update("s", {"add_rows": {"MVisit": [bob]}}))
        assert run(pool.decide("s", {"problem": "count"}))["result"]["value"] == 17
        assert state.database.count().value == 17
    finally:
        pool.shutdown()


def test_thread_executor_runs_sat_decisions_concurrently():
    """Count and both consistency forms of one ``engine="sat"`` session run
    side by side on the thread executor: the live SAT session they share
    serialises them, so every answer matches the inline pool's."""
    bob = (["915-15-336", "Bob", "EDI", 2000], ["915-15-336", "Bob", "EDI", 2001])
    bodies = (
        {"problem": "count"},
        {"problem": "consistency", "witness": False},
        {"problem": "consistency", "include_witness": True},
    )
    inline = make_pool()
    inline.create_session("s", "patients", engine="sat")
    pool = DatabasePool(executor="thread", executor_workers=3, request_timeout=None)
    state = pool.create_session("s", "patients", engine="sat")
    updates = [{"add_rows": {"MVisit": [bob[0]]}}]
    for old, new in (bob, bob[::-1], bob):
        updates.append({"add_rows": {"MVisit": [new]}, "drop_rows": {"MVisit": [old]}})

    async def answers(target: DatabasePool, concurrent: bool) -> list:
        seen = []
        for update in updates:
            await target.update("s", update)
            if concurrent:
                envelopes = await asyncio.gather(
                    *(target.decide("s", dict(body)) for body in bodies)
                )
            else:
                envelopes = [await target.decide("s", dict(body)) for body in bodies]
            assert not any(e["cache_hit"] for e in envelopes)
            seen.append(
                [(e["result"]["holds"], e["result"]["value"]) for e in envelopes]
                + [envelopes[2]["result"]["witness"]]
            )
        return seen

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often enough to interleave
    try:
        expected = run(answers(inline, concurrent=False))
        assert [step[0] for step in expected] == [
            (True, 17), (True, 18), (True, 17), (True, 18)
        ]
        assert run(answers(pool, concurrent=True)) == expected
        assert pool.metrics.engine_runs == len(bodies) * len(updates)
        # The witness computed beside the others is a world holding Bob's row.
        decision = state.database.is_consistent()
        assert decision.stats.cache_hit
        rows = decision.witness.relation("MVisit").rows
        assert tuple(bob[1]) in rows and tuple(bob[0]) not in rows
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()
