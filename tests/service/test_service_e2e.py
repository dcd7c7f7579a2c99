"""End-to-end service tests over real sockets (:class:`ServiceThread`).

These assert the PR's acceptance gates at the wire level:

* N identical concurrent requests → exactly one engine search
  (``metrics.engine_runs``), the rest deduplicated or cache hits;
* an update invalidates exactly the dependency-scoped cache entries
  (consistency recomputes, RCQP survives) — observed via wire-level
  ``cache_hit`` / ``Decision.stats``;
* streaming yields the first world while enumeration is still running,
  and a client disconnect cancels the server-side engine search;
* auth / rate-limit / timeout plugins respond 401 / 429 / 504;
* graceful shutdown drains in-flight requests before exiting.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.exceptions import ServiceError
from repro.search.registry import (
    EngineCapabilities,
    get_engine,
    register_engine,
    unregister_engine,
)
from repro.service import (
    PluginSelection,
    ServiceClient,
    ServiceConfig,
    ServiceThread,
)


def make_service(**overrides) -> ServiceThread:
    overrides.setdefault("port", 0)
    overrides.setdefault("executor", "inline")
    overrides.setdefault("request_timeout", None)
    return ServiceThread(ServiceConfig(**overrides))


def wait_for(predicate, timeout=10.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ---------------------------------------------------------------------------
# surface basics
# ---------------------------------------------------------------------------
def test_health_engines_and_session_crud():
    with make_service() as svc:
        client = ServiceClient(svc.base_url)
        assert client.healthz() == {"ok": True, "status": "ok"}
        engines = {e["name"]: e["capabilities"] for e in client.engines()}
        assert {"propagating", "sat", "naive"} <= set(engines)
        assert engines["propagating"]["supports_cancellation"] is True

        assert client.sessions() == []
        info = client.create_session("demo", "patients")
        assert info["name"] == "demo"
        assert info["relations"] == {"MVisit": 2}
        assert client.sessions() == ["demo"]
        assert client.session("demo")["version"] == 0
        with pytest.raises(ServiceError) as err:
            client.create_session("demo", "patients")
        assert err.value.status == 409
        client.drop_session("demo")
        assert client.sessions() == []
        with pytest.raises(ServiceError) as err:
            client.session("demo")
        assert err.value.status == 404


def test_preconfigured_sessions_and_every_problem():
    config_sessions = {
        "demo": __import__(
            "repro.service.config", fromlist=["SessionConfig"]
        ).SessionConfig("patients")
    }
    with make_service(sessions=config_sessions) as svc:
        client = ServiceClient(svc.base_url)
        assert client.sessions() == ["demo"]
        consistency = client.decide("demo", "consistency")
        assert consistency["result"]["holds"] is True
        assert consistency["result"]["stats"]["searches"] >= 1
        count = client.decide("demo", "count")
        assert count["result"]["value"] >= 1
        for problem, extra in (
            ("complete", {"query": "q1", "model": "strong"}),
            ("minp", {"query": "q1"}),
            ("rcqp", {"query": "q1", "max_size": 2}),
        ):
            envelope = client.decide("demo", problem, **extra)
            assert envelope["ok"] is True
            assert "stats" in envelope["result"]
        for problem, extra in (
            ("certain", {"query": "q1"}),
            ("certain_answers_over_extensions", {"query": "q1", "limit": 2000}),
        ):
            envelope = client.decide("demo", problem, **extra)
            assert envelope["result"]["kind"] == "answers"
            assert ["John"] in envelope["result"]["answers"]


def test_unknown_routes_and_methods():
    with make_service() as svc:
        client = ServiceClient(svc.base_url)
        with pytest.raises(ServiceError) as err:
            client.request("GET", "/nonsense")
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            client.request("DELETE", "/sessions")
        assert err.value.status == 405
        with pytest.raises(ServiceError) as err:
            client.request("POST", "/sessions", {"name": "x"})
        assert err.value.status == 400


# ---------------------------------------------------------------------------
# gate: single-flight collapse
# ---------------------------------------------------------------------------
def test_identical_concurrent_requests_run_one_engine_search():
    with make_service(executor="thread") as svc:
        client = ServiceClient(svc.base_url)
        client.create_session("demo", "patients")
        n = 8
        envelopes = [None] * n
        barrier = threading.Barrier(n)

        def fire(i):
            barrier.wait()
            envelopes[i] = ServiceClient(svc.base_url).decide(
                "demo", "complete", query="q1", model="strong"
            )

        threads = [threading.Thread(target=fire, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        metrics = client.metrics()
        assert metrics["engine_runs"] == 1  # the gate
        assert len({e["result"]["holds"] for e in envelopes}) == 1
        # Everyone besides the leader either joined the flight or hit the
        # cache the leader populated.
        followers = sum(1 for e in envelopes if e["deduplicated"])
        cached = sum(1 for e in envelopes if e["cache_hit"])
        assert followers + cached == n - 1
        assert metrics["singleflight_followers"] == followers
        # The leader's Decision object fans out: followers carry real stats.
        for e in envelopes:
            if e["deduplicated"]:
                assert e["result"]["stats"]["searches"] >= 1


def test_repeat_requests_hit_the_cache():
    with make_service() as svc:
        client = ServiceClient(svc.base_url)
        client.create_session("demo", "patients")
        cold = client.decide("demo", "consistency")
        assert cold["cache_hit"] is False
        assert cold["result"]["stats"]["cache_hit"] is False
        warm = client.decide("demo", "consistency")
        assert warm["cache_hit"] is True
        assert warm["result"]["stats"]["cache_hit"] is True
        assert client.metrics()["cache_hits"] == 1


# ---------------------------------------------------------------------------
# gate: dependency-scoped invalidation, observed over the wire
# ---------------------------------------------------------------------------
def test_update_invalidates_scoped_entries_rcqp_survives():
    with make_service() as svc:
        client = ServiceClient(svc.base_url)
        client.create_session("demo", "patients")
        client.decide("demo", "consistency")
        client.decide("demo", "rcqp", query="q1", max_size=2)
        update = client.update(
            "demo", add_rows={"MVisit": [["915-15-400", "Ann", "EDI", 2001]]}
        )
        assert update["update"]["touched"] == ["MVisit"]
        assert update["update"]["invalidated"] >= 1
        assert client.session("demo")["version"] == 1
        after_consistency = client.decide("demo", "consistency")
        assert after_consistency["cache_hit"] is False  # invalidated
        after_rcqp = client.decide("demo", "rcqp", query="q1", max_size=2)
        assert after_rcqp["cache_hit"] is True  # survived (empty dep set)


def test_batch_conflict_is_409_over_the_wire():
    with make_service() as svc:
        client = ServiceClient(svc.base_url)
        client.create_session(
            "reg", "registry", params={"master_size": 3, "db_rows": 2}
        )
        with pytest.raises(ServiceError) as err:
            client.batch(
                "reg", [{"add_rows": {"Record": [["k0", "v-off-registry"]]}}]
            )
        assert err.value.status == 409
        assert client.session("reg")["version"] == 0


# ---------------------------------------------------------------------------
# gate: streaming
# ---------------------------------------------------------------------------
def test_stream_yields_first_world_before_enumeration_completes():
    with make_service(stream_buffer=1) as svc:
        client = ServiceClient(svc.base_url)
        client.create_session(
            "big", "wide", params={"rows": 3, "values_per_key": 4}
        )
        total = client.decide("big", "count")["result"]["value"]
        assert total > 4
        stream = client.stream_worlds("big")
        iterator = iter(stream)
        first = next(iterator)
        assert first  # a non-empty world arrived...
        metrics = client.metrics()
        # ...while the enumeration is still in flight server-side: with a
        # buffer of 1, at most a few worlds have been produced so far.
        assert metrics["streams_completed"] == 0
        assert metrics["worlds_streamed"] < total
        remaining = list(iterator)
        assert 1 + len(remaining) == total
        assert stream.summary == {"kind": "summary", "worlds": total}
        assert wait_for(lambda: client.metrics()["streams_completed"] == 1)


def test_stream_limit_and_engine_selection():
    with make_service() as svc:
        client = ServiceClient(svc.base_url)
        client.create_session("demo", "patients")
        worlds = list(client.stream_worlds("demo", limit=2, engine="sat"))
        assert len(worlds) == 2
        with pytest.raises(ServiceError) as err:
            list(client.stream_worlds("demo", engine="warp-drive"))
        assert err.value.status == 400


def test_client_disconnect_cancels_the_stream():
    with make_service(stream_buffer=1) as svc:
        client = ServiceClient(svc.base_url)
        client.create_session(
            "big", "wide", params={"rows": 4, "values_per_key": 4}
        )
        total = client.decide("big", "count")["result"]["value"]
        stream = client.stream_worlds("big")
        first = next(iter(stream))
        assert first
        stream.close()  # hang up mid-stream
        assert wait_for(lambda: client.metrics()["streams_cancelled"] == 1)
        metrics = client.metrics()
        assert metrics["streams_completed"] == 0
        assert metrics["worlds_streamed"] < total


# ---------------------------------------------------------------------------
# plugins over the wire: auth, rate limit, results backend
# ---------------------------------------------------------------------------
def test_token_auth_gates_everything_but_health():
    auth = PluginSelection("token", {"token": "s3cret"})
    with make_service(auth=auth) as svc:
        anonymous = ServiceClient(svc.base_url)
        assert anonymous.healthz()["ok"] is True  # liveness needs no token
        with pytest.raises(ServiceError) as err:
            anonymous.sessions()
        assert err.value.status == 401
        authed = ServiceClient(svc.base_url, token="s3cret")
        assert authed.sessions() == []
        assert authed.metrics()["rejected"] == 1


def test_rate_limit_returns_429():
    limit = PluginSelection("window", {"max_requests": 2, "window_seconds": 60.0})
    with make_service(rate_limit=limit) as svc:
        client = ServiceClient(svc.base_url)
        client.create_session("demo", "patients")
        client.decide("demo", "consistency")
        client.decide("demo", "consistency")
        with pytest.raises(ServiceError) as err:
            client.decide("demo", "consistency")
        assert err.value.status == 429


def test_results_backend_records_envelopes():
    with make_service() as svc:
        client = ServiceClient(svc.base_url)
        client.create_session("demo", "patients")
        assert client.results("demo") == []
        client.decide("demo", "consistency")
        client.decide("demo", "consistency")
        recorded = client.results("demo")
        assert [r["cache_hit"] for r in recorded] == [False, True]
        assert all(r["problem"] == "consistency" for r in recorded)


# ---------------------------------------------------------------------------
# timeouts (a deliberately slow engine) and graceful shutdown
# ---------------------------------------------------------------------------
class _SleepyEngine:
    """Delegates to the propagating engine after a nap (timeout tests)."""

    def __init__(self, *args, delay=0.0, **kwargs):
        self._delay = delay
        self._inner = get_engine("propagating").factory(*args, **kwargs)

    def _nap(self):
        time.sleep(self._delay)

    def worlds(self, **kwargs):
        self._nap()
        return self._inner.worlds(**kwargs)

    def has_world(self, **kwargs):
        self._nap()
        return self._inner.has_world(**kwargs)

    def count_worlds(self, **kwargs):
        self._nap()
        return self._inner.count_worlds(**kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture()
def sleepy_engine():
    register_engine(
        "sleepy",
        lambda *args, **kwargs: _SleepyEngine(*args, delay=1.0, **kwargs),
        EngineCapabilities(),
    )
    try:
        yield "sleepy"
    finally:
        unregister_engine("sleepy")


def test_request_timeout_is_504(sleepy_engine):
    with make_service(executor="thread", request_timeout=0.2) as svc:
        client = ServiceClient(svc.base_url)
        client.create_session("demo", "patients")
        with pytest.raises(ServiceError) as err:
            client.decide("demo", "consistency", engine=sleepy_engine)
        assert err.value.status == 504
        assert client.metrics()["timeouts"] == 1


def test_graceful_shutdown_drains_inflight_requests(sleepy_engine):
    svc = make_service(executor="thread", drain_timeout=10.0).start()
    client = ServiceClient(svc.base_url)
    client.create_session("demo", "patients")
    outcome = {}

    def slow_request():
        try:
            outcome["envelope"] = ServiceClient(svc.base_url).decide(
                "demo", "consistency", engine=sleepy_engine
            )
        except ServiceError as err:
            outcome["error"] = err

    requests_before = svc.service.metrics.requests
    thread = threading.Thread(target=slow_request)
    thread.start()
    # Wait until the *decide* request itself is in flight: the request
    # counter rules out sampling the tail of an earlier handler (inflight
    # drops to 0 a beat after the client already has its response bytes).
    assert wait_for(
        lambda: svc.service.metrics.requests > requests_before
        and svc.service.inflight >= 1,
        timeout=5.0,
    )
    svc.stop()  # drain-then-exit: the in-flight decision must complete
    thread.join(timeout=15.0)
    assert not thread.is_alive()
    assert "envelope" in outcome, outcome.get("error")
    assert outcome["envelope"]["result"]["holds"] is True
    # And the listener really is down now.
    with pytest.raises(OSError):
        ServiceClient(svc.base_url).healthz()


# ---------------------------------------------------------------------------
# the process executor (one smoke: pickling + replica caching)
# ---------------------------------------------------------------------------
def test_process_executor_smoke():
    with make_service(executor="process", executor_workers=2) as svc:
        client = ServiceClient(svc.base_url)
        client.create_session("demo", "patients")
        cold = client.decide("demo", "consistency")
        assert cold["result"]["holds"] is True
        assert cold["cache_hit"] is False
        warm = client.decide("demo", "consistency")
        assert warm["cache_hit"] is True  # main-process cache is authoritative
        # Updates invalidate across the process boundary (version bump).
        client.update(
            "demo", add_rows={"MVisit": [["915-15-402", "Cal", "EDI", 2003]]}
        )
        after = client.decide("demo", "consistency")
        assert after["cache_hit"] is False
        assert after["result"]["holds"] is True
