"""End-to-end service tests over real sockets (:class:`ServiceThread`).

These assert the PR's acceptance gates at the wire level:

* N identical concurrent requests → exactly one engine search
  (``metrics.engine_runs``), the rest deduplicated or cache hits;
* an update invalidates exactly the dependency-scoped cache entries
  (consistency recomputes, RCQP survives) — observed via wire-level
  ``cache_hit`` / ``Decision.stats``;
* streaming yields the first world while enumeration is still running,
  and a client disconnect cancels the server-side engine search;
* the auth token, the rate limit and the request timeout answer
  401 / 429 / 504;
* graceful shutdown drains in-flight requests before exiting;
* connections persist, on the server and in ``ServiceClient``, and close
  after exactly the responses that must be a connection's last.
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import logging
import socket
import sys
import threading
import time
from urllib.parse import urlsplit

import pytest

from repro.exceptions import ServiceError
from repro.search.registry import (
    EngineCapabilities,
    get_engine,
    register_engine,
    unregister_engine,
)
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceThread,
)


def make_service(**overrides) -> ServiceThread:
    overrides.setdefault("port", 0)
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
    with make_service() as svc:
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


def test_non_finite_update_is_400_and_leaves_the_session_unchanged():
    with make_service() as svc:
        client = ServiceClient(svc.base_url)
        client.create_session("demo", "patients")
        assert client.decide("demo", "consistency")["cache_hit"] is False
        before = client.session("demo")
        with pytest.raises(ServiceError) as err:
            # json.dumps writes the NaN as the bare constant NaN.
            client.update(
                "demo",
                add_rows={"MVisit": [["915-15-400", "Ann", "EDI", float("nan")]]},
            )
        assert err.value.status == 400
        assert "non-finite number NaN" in str(err.value)
        assert client.session("demo") == before
        assert client.metrics()["updates"] == 0
        assert client.decide("demo", "consistency")["cache_hit"] is True


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
# over the wire: the auth token, the rate limit and the recent envelopes
# ---------------------------------------------------------------------------
def test_token_auth_gates_everything_but_health():
    with make_service(auth_token="s3cret") as svc:
        anonymous = ServiceClient(svc.base_url)
        assert anonymous.healthz()["ok"] is True  # liveness needs no token
        with pytest.raises(ServiceError) as err:
            anonymous.sessions()
        assert err.value.status == 401
        authed = ServiceClient(svc.base_url, token="s3cret")
        assert authed.sessions() == []
        assert authed.metrics()["rejected"] == 1


def test_token_auth_accepts_x_repro_token_and_rejects_a_wrong_bearer():
    with make_service(auth_token="s3cret") as svc:
        url = urlsplit(svc.base_url)
        connection = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
        statuses = []
        try:
            for headers in (
                {"x-repro-token": "s3cret"},
                {"Authorization": "Bearer wrong"},
                {"Authorization": "s3cret"},  # no scheme
                {"x-repro-token": "s3cre"},
            ):
                connection.request("GET", "/sessions", headers=headers)
                response = connection.getresponse()
                response.read()
                statuses.append(response.status)
        finally:
            connection.close()
        assert statuses == [200, 401, 401, 401]
        with ServiceClient(svc.base_url, token="wrong") as wrong:
            with pytest.raises(ServiceError) as err:
                wrong.sessions()
            assert err.value.status == 401
        with ServiceClient(svc.base_url, token="s3cret") as authed:
            assert authed.metrics()["rejected"] == 4


def test_rate_limit_returns_429():
    with make_service(rate_limit=2) as svc:
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


def test_a_recreated_session_starts_with_no_results():
    with make_service() as svc, ServiceClient(svc.base_url) as client:
        client.create_session("demo", "patients")
        client.decide("demo", "consistency")
        client.decide("demo", "count")
        assert len(client.results("demo")) == 2
        client.drop_session("demo")
        client.create_session("demo", "patients")
        assert client.results("demo") == []


def test_a_recreated_session_starts_a_fresh_rate_window():
    with make_service(rate_limit=2) as svc, ServiceClient(svc.base_url) as client:
        client.create_session("demo", "patients")
        client.decide("demo", "consistency")
        client.decide("demo", "consistency")
        client.drop_session("demo")
        client.create_session("demo", "patients")
        assert client.decide("demo", "consistency")["ok"] is True


def test_unknown_sessions_answer_404_before_the_rate_limit():
    with make_service(rate_limit=2) as svc, ServiceClient(svc.base_url) as client:
        statuses = []
        for _ in range(3):
            with pytest.raises(ServiceError) as err:
                client.decide("ghost", "consistency")
            statuses.append(err.value.status)
        assert statuses == [404, 404, 404]
        assert client.metrics()["rejected"] == 0


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


def _broken_factory(*args, **kwargs):
    raise RuntimeError("injected fault")


def test_every_internal_error_is_logged_with_its_traceback(caplog):
    caplog.set_level(logging.ERROR, logger="repro.service")
    register_engine("broken", _broken_factory, EngineCapabilities())
    try:
        with make_service() as svc:
            client = ServiceClient(svc.base_url)
            client.create_session("demo", "patients")
            bodies = []
            for problem in ("consistency", "count"):
                url = urlsplit(svc.base_url)
                connection = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
                try:
                    connection.request(
                        "POST", "/sessions/demo/decide",
                        body=json.dumps({"problem": problem, "engine": "broken"}),
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    bodies.append((response.status, json.loads(response.read())))
                finally:
                    connection.close()
            assert client.metrics()["errors"] == 2
    finally:
        unregister_engine("broken")
    assert bodies == [(500, {"ok": False, "error": "internal error: injected fault"})] * 2
    records = [r for r in caplog.records if r.name == "repro.service"]
    assert len(records) == 2
    for record in records:
        assert record.levelno == logging.ERROR
        assert record.exc_info is not None and record.exc_info[0] is RuntimeError
        assert record.getMessage() == (
            "500 on POST /sessions/demo/decide: builtins.RuntimeError"
        )


def test_request_timeout_is_504(sleepy_engine):
    with make_service(request_timeout=0.2) as svc:
        client = ServiceClient(svc.base_url)
        client.create_session("demo", "patients")
        with pytest.raises(ServiceError) as err:
            client.decide("demo", "consistency", engine=sleepy_engine)
        assert err.value.status == 504
        assert client.metrics()["timeouts"] == 1


def test_shutdown_after_a_timeout_waits_for_the_work_and_leaves_no_task(
    sleepy_engine, caplog
):
    caplog.set_level(logging.ERROR, logger="asyncio")
    svc = make_service(request_timeout=0.2).start()
    try:
        client = ServiceClient(svc.base_url)
        client.create_session("demo", "patients")
        with pytest.raises(ServiceError) as err:
            client.decide("demo", "consistency", engine=sleepy_engine)
        assert err.value.status == 504
        state = svc.service.pool.session("demo")
        assert state.lock.readers == 1  # the sleepy work still runs
    finally:
        svc.stop()
    loop = svc._loop
    assert loop is not None and loop.is_closed()
    # The work's done-callback gave the read side back before the loop
    # closed, and no task was left pending for the closed loop to destroy.
    assert state.lock.readers == 0
    assert not asyncio.all_tasks(loop)
    gc.collect()
    assert not [r for r in caplog.records if r.name == "asyncio"]


def test_graceful_shutdown_drains_inflight_requests(sleepy_engine):
    svc = make_service(drain_timeout=10.0).start()
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
# persistent connections
# ---------------------------------------------------------------------------
def raw_connection(svc: ServiceThread) -> socket.socket:
    url = urlsplit(svc.base_url)
    return socket.create_connection((url.hostname, url.port), timeout=5.0)


def read_response(stream) -> tuple[int, dict[str, str], bytes]:
    """One response off a socket file: status, lower-cased headers and the
    ``Content-Length`` body (empty for a chunked stream)."""
    status_line = stream.readline()
    assert status_line, "the server closed the connection without a response"
    headers = {}
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _colon, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers.get("content-length", 0)))
    return int(status_line.split()[1]), headers, body


def test_sequential_requests_share_one_connection():
    requests = [
        ("GET", "/healthz", None),
        ("POST", "/sessions", {"name": "demo", "workload": "patients"}),
        ("POST", "/sessions/demo/decide", {"problem": "consistency"}),
        ("POST", "/sessions/demo/decide", {"problem": "consistency"}),
        ("GET", "/sessions/absent", None),  # a 404 keeps the connection too
    ]
    sockets = set()
    with make_service() as svc:
        url = urlsplit(svc.base_url)
        connection = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
        try:
            for method, path, body in requests:
                connection.request(
                    method, path, body=None if body is None else json.dumps(body)
                )
                response = connection.getresponse()
                response.read()
                assert response.getheader("Connection") is None
                sockets.add(connection.sock)
            connection.request("GET", "/metrics")
            metrics = json.loads(connection.getresponse().read())["metrics"]
        finally:
            connection.close()
    assert len(sockets) == 1 and None not in sockets
    assert metrics["connections"] == 1
    assert metrics["requests"] == len(requests) + 1


@pytest.mark.parametrize(
    "raw",
    [
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        b"GET /healthz HTTP/1.0\r\n\r\n",
    ],
    ids=["connection-close", "http-1.0"],
)
def test_the_server_closes_when_the_client_asks(raw):
    with make_service() as svc, raw_connection(svc) as sock:
        sock.sendall(raw)
        stream = sock.makefile("rb")
        status, headers, body = read_response(stream)
        assert status == 200 and json.loads(body)["status"] == "ok"
        assert headers["connection"] == "close"
        assert stream.read() == b""  # EOF


@pytest.mark.parametrize(
    "raw, status",
    [
        (b"NONSENSE\r\n\r\n", 400),
        (b"POST /sessions HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n", 413),
    ],
    ids=["malformed", "body-too-large"],
)
def test_a_request_that_cannot_be_read_is_answered_and_closes(raw, status):
    with make_service() as svc, raw_connection(svc) as sock:
        sock.sendall(raw + b"GET /healthz HTTP/1.1\r\n\r\n")
        stream = sock.makefile("rb")
        answer, headers, _body = read_response(stream)
        assert (answer, headers["connection"]) == (status, "close")
        assert stream.read() == b""  # the request behind it is not read


def test_a_worlds_stream_is_the_last_response():
    with make_service() as svc:
        ServiceClient(svc.base_url).create_session(
            "big", "wide", params={"rows": 3, "values_per_key": 4}
        )
        with raw_connection(svc) as sock:
            sock.sendall(b"GET /sessions/big/worlds?limit=2 HTTP/1.1\r\n\r\n")
            stream = sock.makefile("rb")
            status, headers, _body = read_response(stream)
            assert (status, headers["connection"]) == (200, "close")
            assert headers["transfer-encoding"] == "chunked"
            rest = stream.read()  # up to EOF
            assert b'"kind": "summary"' in rest and rest.endswith(b"0\r\n\r\n")


def test_pipelined_requests_are_answered_in_order():
    with make_service() as svc, raw_connection(svc) as sock:
        sock.sendall(
            b"GET /healthz HTTP/1.1\r\n\r\n"
            b"GET /sessions HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        stream = sock.makefile("rb")
        first = read_response(stream)
        second = read_response(stream)
        assert (first[0], json.loads(first[2])) == (200, {"ok": True, "status": "ok"})
        assert "connection" not in first[1]
        assert (second[0], json.loads(second[2])) == (200, {"ok": True, "sessions": []})
        assert second[1]["connection"] == "close"
        assert stream.read() == b""


def test_a_request_read_while_draining_is_refused_and_closes(sleepy_engine):
    svc = make_service(drain_timeout=10.0).start()
    with ServiceClient(svc.base_url) as client:
        client.create_session("demo", "patients")
    stopper = threading.Thread(target=svc.stop)
    with raw_connection(svc) as slow, raw_connection(svc) as fresh:
        try:
            body = json.dumps({"problem": "consistency", "engine": sleepy_engine})
            slow.sendall(
                b"POST /sessions/demo/decide HTTP/1.1\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n{body}".encode()
            )
            # Both connections have their handlers, and the decide is in flight.
            assert wait_for(
                lambda: svc.service.metrics.connections == 3
                and svc.service.inflight == 1
            )
            stopper.start()
            assert wait_for(lambda: svc.service.closing)
            fresh.sendall(b"GET /sessions HTTP/1.1\r\n\r\n")
            stream = fresh.makefile("rb")
            status, headers, answer = read_response(stream)
            assert (status, headers["connection"]) == (503, "close")
            assert json.loads(answer)["error"] == "service is draining"
            assert stream.read() == b""
            # The decide in flight drains, and its answer is its connection's last.
            stream = slow.makefile("rb")
            status, headers, answer = read_response(stream)
            assert (status, headers["connection"]) == (200, "close")
            assert json.loads(answer)["result"]["holds"] is True
            assert stream.read() == b""
        finally:
            svc.stop()  # idempotent: returns once the stop begun above is done
            if stopper.ident is not None:
                stopper.join(timeout=15.0)
    assert not stopper.is_alive()


def test_stop_closes_an_idle_connection_at_once():
    svc = make_service().start()
    try:
        sock = raw_connection(svc)
        sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
        stream = sock.makefile("rb")
        status, headers, _body = read_response(stream)
        assert status == 200 and "connection" not in headers
    finally:
        started = time.monotonic()
        svc.stop()
        stopped_in = time.monotonic() - started
    with sock:
        assert stopped_in < 0.5  # far from wait_closed()'s 1 s bound
        assert stream.read() == b""  # the server closed the idle connection


def test_service_client_reuses_one_connection_beside_its_streams():
    with make_service() as svc:
        with ServiceClient(svc.base_url) as client:
            client.create_session("big", "wide", params={"rows": 3, "values_per_key": 4})
            for _ in range(3):
                client.decide("big", "consistency")
            with client.stream_worlds("big", limit=2) as stream:
                assert len(list(stream)) == 2
            client.decide("big", "count")
            metrics = client.metrics()
            assert metrics["connections"] == 2  # the calls' one and the stream's own
            assert metrics["requests"] == 7
            client.close()  # a later call opens a new connection
            assert client.metrics()["connections"] == 3


def test_service_client_threads_run_on_separate_connections(sleepy_engine):
    with make_service() as svc, ServiceClient(svc.base_url) as client:
        client.create_session("demo", "patients")
        bodies = (
            {"problem": "consistency"},
            {"problem": "consistency", "witness": False},
            {"problem": "count"},
        )
        barrier = threading.Barrier(len(bodies))
        envelopes = []

        def fire(body: dict) -> None:
            barrier.wait()
            envelopes.append(
                client.request(
                    "POST", "/sessions/demo/decide", {**body, "engine": sleepy_engine}
                )
            )

        threads = [threading.Thread(target=fire, args=(body,)) for body in bodies]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert len(envelopes) == 3 and all(e["ok"] for e in envelopes)
        # The three decides overlapped: the first connection plus two more.
        assert client.metrics()["connections"] == 3


def test_threads_sharing_a_service_client_never_share_a_connection():
    """More threads than cores on one client, switching often: a connection
    handed to two calls at once would cross their answers or break
    ``http.client``'s request-response order."""
    names = [f"s{i}" for i in range(8)]
    failures = []

    def ask(name: str) -> None:
        try:
            for _ in range(40):
                assert client.session(name)["name"] == name
        except Exception as err:  # noqa: BLE001 - reported below
            failures.append(err)

    with make_service() as svc, ServiceClient(svc.base_url) as client:
        for name in names:
            client.create_session(name, "patients")
        threads = [threading.Thread(target=ask, args=(name,)) for name in names]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert client.metrics()["connections"] <= len(names)


def test_service_client_drops_a_connection_the_server_closed():
    first = make_service().start()
    client = ServiceClient(first.base_url)
    try:
        assert client.healthz()["status"] == "ok"  # leaves its connection idle
    finally:
        first.stop()  # which closes it from the server's side
    with make_service(port=urlsplit(first.base_url).port) as second, client:
        assert client.healthz()["status"] == "ok"
        assert client.metrics()["connections"] == 1
        assert second.service.metrics.requests == 2
