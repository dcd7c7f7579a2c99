"""Tests of the benchmark's own logic (run: python3 -m pytest perfbench/tests)."""

from __future__ import annotations

import asyncio
import http.client
import http.server
import socket
import threading
from pathlib import Path

import pytest

from perfbench import run, trace
from perfbench.measure import OpLog, PercentileRefused, percentile
from perfbench.workloads import DECIDE_BODIES, Fig1Cold, Fig1Service, ServiceFailure


@pytest.mark.parametrize(
    ("quantile", "enough", "too_few"),
    [(0.50, 20, 19), (0.90, 92, 91), (0.99, 902, 901)],
)
def test_percentile_needs_ten_samples_beyond(quantile: float, enough: int, too_few: int) -> None:
    percentile([float(i) for i in range(enough)], quantile)
    with pytest.raises(PercentileRefused):
        percentile([float(i) for i in range(too_few)], quantile)


def test_percentile_interpolates_between_ranks() -> None:
    samples = [float(i) for i in range(101)]
    assert percentile(samples, 0.5) == 50.0
    assert percentile(samples, 0.9) == pytest.approx(90.0)


def test_failed_ops_count_as_attempted() -> None:
    log = OpLog()
    log.run(lambda: None)
    log.run(lambda: (_ for _ in ()).throw(ServiceFailure("HTTP 503")))
    log.run(lambda: (_ for _ in ()).throw(socket.timeout("timed out")))
    assert (log.attempted, log.failed, len(log.latencies)) == (3, 2, 1)


def test_scaling_uses_the_median_of_the_nearest_probes() -> None:
    probes = [3.0, 3.0, 3.0, 9.0, 3.0, 3.0, 0.75]
    log = OpLog(latencies=[0.010, 0.020], probes=probes, probe_of=[2, 4], units=[(0, 2)])
    # Op 0 ran right before the slow probe 3, op 1 right after it: the
    # median outvotes that probe for both.
    assert log.scaled() == pytest.approx([0.010 * 1.5 / 3.0, 0.020 * 1.5 / 3.0])
    assert log.unit_rates() == pytest.approx([2 / sum(log.scaled())])
    assert log.unit_rates(scaled=False) == pytest.approx([2 / 0.030])


class _Refusing(http.server.BaseHTTPRequestHandler):
    def do_POST(self) -> None:  # noqa: N802 - the stdlib handler hook
        self.rfile.read(int(self.headers["Content-Length"]))
        body = b'{"ok": false, "error": "rate limit exceeded"}'
        self.send_response(429)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args: object) -> None:
        del args


def test_refused_request_counts_as_attempted_and_failed(tmp_path: Path) -> None:
    server = http.server.HTTPServer(("127.0.0.1", 0), _Refusing)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        workload = Fig1Service(1, tmp_path, run.ROOT)
        workload.conn = http.client.HTTPConnection("127.0.0.1", server.server_port, timeout=10)
        log = OpLog()
        body, answer = DECIDE_BODIES[0]
        workload._decide(log, body, answer)
        workload.conn.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert (log.attempted, log.failed, log.latencies) == (1, 1, [])
    assert "429" in log.failures[0]


def test_wrong_expected_verdict_fails_the_run(tmp_path: Path) -> None:
    workload = Fig1Cold(1, tmp_path, verdicts={("Q1", "viable"): False})
    result, _host, _details = run.timed_run(workload, seed=1, seconds=0.0, start_probe=1.5)
    assert result["correct"] is False
    assert result["metrics"] == {}


def test_self_time_subtracts_child_spans() -> None:
    rows = [
        (1, 0, 7, "api.count", 0.0, 10.0, None),
        (2, 1, 7, "sat.count", 2.0, 6.0, None),
        (3, 2, 7, "dpll.solve", 3.0, 5.0, {"decisions": 4.0}),
    ]
    totals = trace.totals(rows)
    assert totals.self_ms("api.count") == pytest.approx(6000.0)
    assert totals.self_ms("sat.count") == pytest.approx(2000.0)
    assert totals.self_ms("dpll.solve") == pytest.approx(2000.0)
    assert totals.total("decisions", "dpll.solve") == 4.0


def test_recorder_links_parents_and_op_ids_across_sync_and_async() -> None:
    recorder = trace.SpanRecorder()

    def inner() -> int:
        return 1

    async def handler() -> int:
        return wrapped_inner() + 1

    wrapped_inner = recorder.wrap("inner", inner)
    wrapped_handler = recorder.wrap("handler", handler)
    recorder.op.set(5)
    with recorder.span("op"):
        assert asyncio.run(wrapped_handler()) == 2
    spans = {name: (span, parent, op) for span, parent, op, name, *_ in recorder.rows()}
    assert spans["handler"][1] == spans["op"][0]
    assert spans["inner"][1] == spans["handler"][0]
    assert {op for _span, _parent, op in spans.values()} == {5}


def test_uninstall_restores_the_original_functions() -> None:
    class Target:
        def method(self) -> str:
            return "original"

    original = Target.method
    recorder = trace.SpanRecorder()
    uninstall = trace.install(recorder, [trace.Seam(Target, "method", "target.method")])
    assert Target().method() == "original"
    assert Target.method is not original
    uninstall()
    assert Target.method is original
    assert [name for _s, _p, _o, name, *_ in recorder.rows()] == ["target.method"]
