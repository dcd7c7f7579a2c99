"""The three workloads: their set-up, op schedule, answer checks and metrics.

Every workload runs whole *units* of ops (a round of the verdict table, a
block of SAT steps, a cycle of service requests) so the op mix of a run is
always exact, and the seed only orders the ops inside a unit.  Each op is
checked against committed answers; a wrong answer raises
:class:`~perfbench.measure.WrongAnswer` and aborts the run.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import selectors
import signal
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable, ContextManager

from perfbench.measure import (
    PROBE_EVERY_S,
    OpLog,
    WrongAnswer,
    expect,
    median,
    metric,
    percentile,
    process_tree,
    self_peak_rss_mb,
    tree_peak_rss_mb,
)
from perfbench.trace import OP_HEADER, SpanRecorder, search_info


#: One op: runs itself against the op log (timing, counting, checking).
Op = Callable[[OpLog], None]


class Workload:
    """Shared run logic; subclasses provide set-up, units and metrics."""

    name = ""
    #: Completed ops a timed window needs so every percentile it reports has
    #: ten samples beyond it (p90 needs 92, p99 902; rounded up to units).
    min_ops = 0
    #: The tail percentile that op count supports; reported as ``op_tail_ms``.
    tail = 0.90

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.rng = random.Random(seed)
        self.out_dir = out_dir
        self.recorder: SpanRecorder | None = None
        #: The current op's sequence number (0 during set-up); traced spans
        #: and service requests carry it as their op id.
        self.op_seq = 0

    # -- hooks ---------------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def unit(self) -> list[Op]:
        raise NotImplementedError

    def end_to_end(self, log: OpLog) -> dict[str, dict[str, Any]]:
        """Every end-to-end metric except ``setup_s`` (the runner adds it).

        Times are scaled to the reference speed (see :mod:`perfbench.measure`).
        ``ops_per_s`` is the median over whole units of completed ops ÷ their
        summed op time.
        """
        scaled = log.scaled()
        return {
            "ops_per_s": metric(median(log.unit_rates()), "1/s"),
            "op_p50_ms": metric(1000.0 * percentile(scaled, 0.50), "ms"),
            "op_tail_ms": metric(1000.0 * percentile(scaled, self.tail), "ms"),
            "peak_rss_mb": metric(self.peak_rss_mb(), "MB"),
        }

    def details(self, log: OpLog) -> dict[str, Any]:
        """Sample counts, raw (unscaled) figures and the reference probes."""
        details: dict[str, Any] = {
            "ops": len(log.latencies),
            "tail": f"p{self.tail * 100:g}",
            "raw_ops_per_s": median(log.unit_rates(scaled=False)),
            "raw_op_p50_ms": 1000.0 * percentile(log.latencies, 0.50),
            "raw_op_tail_ms": 1000.0 * percentile(log.latencies, self.tail),
            "reference_ms": [min(log.probes), median(log.probes), max(log.probes)],
        }
        updates = log.extra.get("update")
        if updates:
            details["updates"] = len(updates)
            details["raw_update_p50_ms"] = 1000.0 * percentile(updates, 0.50)
        return details

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def teardown(self) -> None:
        """Release what set-up acquired (processes, sockets)."""

    @property
    def executor_workers(self) -> int | None:
        return None

    # -- driving -------------------------------------------------------------
    def op_context(self) -> ContextManager[Any]:
        """The span (and engine collector) around one op when traced."""
        self.op_seq += 1
        if self.recorder is None:
            return nullcontext()
        self.recorder.op.set(self.op_seq)
        return TracedOp(self.recorder, "op")

    def run_units(self, log: OpLog, *, seconds: float, units: int | None = None) -> float:
        """Run whole units for ``seconds`` (and ``min_ops``), or ``units`` units.

        Returns the wall time of the window.  A wall-clock cap keeps a run
        whose ops all fail from looping past the benchmark's exit deadline.
        """
        start = time.perf_counter()
        log.probe()
        done = 0
        while True:
            first = len(log.latencies)
            for op in self.unit():
                log.probe(every=PROBE_EVERY_S)
                with self.op_context():
                    op(log)
            log.units.append((first, len(log.latencies)))
            done += 1
            wall = time.perf_counter() - start
            if (
                (units is not None and done >= units)
                or (units is None and wall >= seconds and len(log.latencies) >= self.min_ops)
                or wall > 150.0
            ):
                log.probe()
                return wall


class TracedOp:
    """A root span that also gathers the engines the op creates."""

    def __init__(self, recorder: SpanRecorder, name: str) -> None:
        from repro.search.registry import collect_searches

        self._span = recorder.span(name)
        self._sink: list[Any] = []
        self._collect = collect_searches(self._sink)

    def __enter__(self) -> "TracedOp":
        self._span.__enter__()
        self._collect.__enter__()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._collect.__exit__(*exc_info)
        self._span.info.update(search_info(self._sink))
        self._span.__exit__(*exc_info)


# ---------------------------------------------------------------------------
# fig1-cold: the Figure 1 verdict table on fresh facades
# ---------------------------------------------------------------------------
#: The seven verdicts the paper states for the Figure 1 c-instance
#: (Examples 2.2 and 2.3), keyed by (query, completeness model).
PAPER_VERDICTS = {
    ("Q1", "strong"): True,
    ("Q1", "weak"): True,
    ("Q1", "viable"): True,
    ("Q4", "strong"): False,
    ("Q4", "weak"): True,
    ("Q4", "viable"): True,
    ("Q3", "viable"): False,
}

#: The rest of the verdict table, committed from the default engine.
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

CERTAIN_ANSWERS = {
    "Q1": frozenset({("John",)}),
    "Q2_present": frozenset(),
    "Q2_absent": frozenset(),
    "Q3": frozenset(),
    "Q4": frozenset({("John",)}),
}

#: Distinct possible worlds of the Figure 1 c-instance over its Adom.
FIGURE1_WORLDS = 290

QUERY_NAMES = ("Q1", "Q2_present", "Q2_absent", "Q3", "Q4")
MODELS = ("strong", "weak", "viable")


class Fig1Cold(Workload):
    """Each op builds a fresh ``Database`` and makes one call of the table."""

    name = "fig1-cold"
    min_ops = 100

    def __init__(self, seed: int, out_dir: Path, verdicts: dict[tuple[str, str], bool] | None = None) -> None:
        super().__init__(seed, out_dir)
        self.verdicts = {**TABLE_VERDICTS, **PAPER_VERDICTS, **(verdicts or {})}

    def setup(self) -> None:
        from repro import Database
        from repro.completeness.models import CompletenessModel
        from repro.workloads.patients import build_patient_scenario

        scenario = build_patient_scenario()
        queries = scenario.queries()

        def fresh() -> Any:
            return Database(scenario.figure1, scenario.master, scenario.constraints)

        ops: list[Op] = []
        for query_name in QUERY_NAMES:
            for model in MODELS:
                ops.append(self._complete_op(fresh, queries[query_name], query_name, CompletenessModel(model)))
        ops.append(lambda log: log.run(lambda: self._witnessed(fresh().is_consistent())))
        ops.append(lambda log: log.run(lambda: expect(
            bool(fresh().is_consistent(witness=False)), True, "is_consistent(witness=False)")))
        ops.append(lambda log: log.run(lambda: expect(
            fresh().count().value, FIGURE1_WORLDS, "count().value")))
        for query_name in QUERY_NAMES:
            ops.append(self._certain_op(fresh, queries[query_name], query_name))
        for query_name in ("Q1", "Q4"):
            ops.append(self._verdict_op(
                f"minp({query_name})", lambda q=queries[query_name]: fresh().minp(q), False))
        ops.append(self._verdict_op("rcqp(Q1)", lambda: fresh().rcqp(queries["Q1"]), True))
        self.ops = ops
        log = OpLog()
        for op in self.ops:  # the warm-up pass, checked like any other
            op(log)
        if log.failed:
            raise RuntimeError(f"{self.name} warm-up failed: {log.failures}")

    def _complete_op(self, fresh: Callable[[], Any], query: Any, query_name: str, model: Any) -> Op:
        expected = self.verdicts[(query_name, model.value)]
        return self._verdict_op(
            f"complete({query_name}, {model.value})",
            lambda: fresh().complete(query, model),
            expected,
        )

    @staticmethod
    def _verdict_op(what: str, call: Callable[[], Any], expected: bool) -> Op:
        return lambda log: log.run(lambda: expect(bool(call()), expected, what))

    @staticmethod
    def _certain_op(fresh: Callable[[], Any], query: Any, query_name: str) -> Op:
        what = f"certain_answers({query_name})"
        return lambda log: log.run(
            lambda: expect(fresh().certain_answers(query), CERTAIN_ANSWERS[query_name], what))

    @staticmethod
    def _witnessed(decision: Any) -> None:
        expect(bool(decision), True, "is_consistent()")
        if decision.witness is None:
            raise WrongAnswer("is_consistent(): positive decision without a witness world")

    def unit(self) -> list[Op]:
        ops = list(self.ops)
        self.rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# fig1-sat: a live SAT facade following row replacements
# ---------------------------------------------------------------------------
BOB_2000 = ("915-15-336", "Bob", "EDI", 2000)
BOB_2001 = ("915-15-336", "Bob", "EDI", 2001)
JOHN_2000 = ("915-15-335", "John", "EDI", 2000)

#: Distinct worlds with Bob's ground row born in 2000 / 2001.
WORLDS_WITH = {BOB_2000: 17, BOB_2001: 18}

#: Steps per block; one step of each block also asks for a witness world.
BLOCK_STEPS = 8


class Fig1Sat(Workload):
    """One ``engine="sat"`` facade; each op is an update + consistency + count."""

    name = "fig1-sat"
    min_ops = 100

    def setup(self) -> None:
        from repro import Database
        from repro.workloads.patients import build_patient_scenario

        scenario = build_patient_scenario()
        self.db = Database(scenario.figure1, scenario.master, scenario.constraints, engine="sat")
        self.db.update(add_rows={"MVisit": [BOB_2000]})
        self.present = BOB_2000
        # The first encode, then one replacement each way (the second with a
        # witness): both Bob rows are now known to the encoder, so timed
        # updates are re-adds, and both step kinds have run once.
        expect(bool(self.db.is_consistent(witness=False)), True, "is_consistent(witness=False)")
        log = OpLog()
        self._step(log, witness=False)
        self._step(log, witness=True)
        if log.failed:
            raise RuntimeError(f"{self.name} warm-up failed: {log.failures}")

    def _step(self, log: OpLog, *, witness: bool) -> None:
        def step() -> None:
            new = BOB_2001 if self.present == BOB_2000 else BOB_2000
            start = time.perf_counter()
            self.db.update(add_rows={"MVisit": [new]}, drop_rows={"MVisit": [self.present]})
            log.add("update", time.perf_counter() - start)
            self.present = new
            consistent = self.db.is_consistent(witness=False)
            worlds = self.db.count().value
            expect(bool(consistent), True, "is_consistent(witness=False)")
            expect(worlds, WORLDS_WITH[new], f"count().value with {new}")
            if witness:
                decision = self.db.is_consistent()
                expect(bool(decision), True, "is_consistent()")
                rows = decision.witness.relation("MVisit").rows if decision.witness else ()
                if new not in rows or JOHN_2000 not in rows:
                    raise WrongAnswer(f"witness world {sorted(rows, key=repr)} lacks {new} or John's row")

        log.run(step)

    def unit(self) -> list[Op]:
        # Steps alternate 2000→2001 and back, starting from 2000, so the odd
        # steps end on 2000 (17 worlds); the witness rides on one of those.
        witness_at = self.rng.choice(range(1, BLOCK_STEPS, 2))
        return [
            lambda log, w=index == witness_at: self._step(log, witness=w)
            for index in range(BLOCK_STEPS)
        ]


# ---------------------------------------------------------------------------
# service: one closed-loop HTTP client against python -m repro.service
# ---------------------------------------------------------------------------
#: The six decide bodies and their committed answers: (field, value) pairs
#: read from the envelope's ``result``.
DECIDE_BODIES: tuple[tuple[dict[str, Any], tuple[str, Any]], ...] = (
    ({"problem": "consistency", "witness": False}, ("holds", True)),
    ({"problem": "count"}, ("value", FIGURE1_WORLDS)),
    ({"problem": "certain", "query": "q1"}, ("answers", [["John"]])),
    ({"problem": "rcdp", "query": "q1", "model": "viable"}, ("holds", True)),
    ({"problem": "rcdp", "query": "q2_present", "model": "strong"}, ("holds", False)),
    ({"problem": "rcdp", "query": "q4", "model": "viable"}, ("holds", True)),
)

#: The row the updates add and drop in turn: John's 2001 twin.  Its presence
#: changes no answer above (every world just gains the tuple), which keeps
#: the committed answers right while the process executor computes misses on
#: replicas built from the session's original spec (see NOTES.md).
JOHN_2001 = ["915-15-335", "John", "EDI", 2001]

#: Requests per cycle: one update, then decides.
CYCLE = 50


class ServiceFailure(RuntimeError):
    """A non-2xx response."""


class Fig1Service(Workload):
    """``python -m repro.service`` in its own process, default config."""

    name = "service"
    min_ops = 1000
    tail = 0.99

    def __init__(self, seed: int, out_dir: Path, root: Path, spans_path: Path | None = None) -> None:
        super().__init__(seed, out_dir)
        self.root = root
        self.spans_path = spans_path
        self.server: subprocess.Popen[str] | None = None
        self.conn: http.client.HTTPConnection | None = None
        self.twin_present = False
        self.stderr: Any = None
        self.workers: set[int] = set()

    # -- server lifecycle ----------------------------------------------------
    def setup(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        if self.spans_path is None:
            command = [sys.executable, "-m", "repro.service", "--port", "0"]
        else:
            command = [sys.executable, str(self.root / "perfbench" / "serve_traced.py"),
                       "--spans", str(self.spans_path), "--port", "0"]
        self.stderr = open(self.out_dir / f"{self.name}-server.err", "w", encoding="utf-8")
        self.server = subprocess.Popen(
            command, cwd=self.root, env=env, stdout=subprocess.PIPE,
            stderr=self.stderr, text=True,
        )
        line = self._read_line(timeout=60.0)
        if "listening on http://" not in line:
            raise RuntimeError(f"service did not start: {line!r}")
        port = int(line.rsplit(":", 1)[1])
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
        status, payload = self._request("POST", "/sessions", {"name": "fig1", "workload": "patients"})
        if status != 201:
            raise RuntimeError(f"session creation failed: {status} {payload}")
        # The warm-up pass: misses (forking the executor workers), hits, and
        # an update each way with the misses it causes.
        log = OpLog()
        for _ in range(2):
            for body, answer in DECIDE_BODIES:
                self._decide(log, body, answer)
        for _ in range(2):
            self._update(log)
            for body, answer in DECIDE_BODIES:
                self._decide(log, body, answer)
        if log.failed:
            raise RuntimeError(f"{self.name} warm-up failed: {log.failures}")

    def _read_line(self, timeout: float) -> str:
        assert self.server is not None and self.server.stdout is not None
        with selectors.DefaultSelector() as selector:
            selector.register(self.server.stdout, selectors.EVENT_READ)
            if not selector.select(timeout):
                return ""
        return self.server.stdout.readline()

    def teardown(self) -> None:
        if self.conn is not None:
            self.conn.close()
        if self.stderr is not None:
            self.stderr.close()
        server, self.server = self.server, None
        if server is None:
            return
        tree = process_tree(server.pid)
        self.workers = set(tree[1:])
        if server.poll() is None:
            server.send_signal(signal.SIGTERM)
            try:
                server.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait(timeout=30.0)
        if server.stdout is not None:
            server.stdout.close()
        # Executor workers exit with the pool; make sure none outlives it.
        deadline = time.monotonic() + 10.0
        for pid in tree[1:]:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)

    @property
    def executor_workers(self) -> int | None:
        return len(self.workers) or None

    # -- requests ------------------------------------------------------------
    def _request(self, method: str, path: str, body: Any) -> tuple[int, Any]:
        """One request on the reused connection; returns status and payload.

        The server answers ``Connection: close``, so the connection usually
        reconnects; the connect is its own span for the HTTP layer.
        """
        assert self.conn is not None
        if self.conn.sock is None:
            with self._span("http.connect"):
                self.conn.connect()
        data = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {OP_HEADER: str(self.op_seq)}
        if data is not None:
            headers["Content-Type"] = "application/json"
        try:
            self.conn.request(method, path, body=data, headers=headers)
            response = self.conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            raise
        return response.status, json.loads(raw) if raw else None

    def _span(self, name: str) -> ContextManager[Any]:
        return self.recorder.span(name) if self.recorder is not None else nullcontext()

    def _decide(self, log: OpLog, body: dict[str, Any], answer: tuple[str, Any]) -> None:
        def decide() -> None:
            with self._span("http.request") as span:
                start = time.perf_counter()
                status, payload = self._request("POST", "/sessions/fig1/decide", body)
                round_trip_ms = 1000.0 * (time.perf_counter() - start)
                if status // 100 != 2:
                    raise ServiceFailure(f"decide {body}: HTTP {status} {payload}")
                field_name, expected = answer
                expect(payload["result"].get(field_name), expected, f"decide {body} {field_name}")
                if span is not None:
                    elapsed = float(payload["elapsed_ms"])
                    span.info.update({
                        "elapsed_ms": elapsed,
                        "cache_hit": float(payload["cache_hit"]),
                        "miss_elapsed_ms": 0.0 if payload["cache_hit"] else elapsed,
                        "overhead_ms": round_trip_ms - elapsed,
                    })

        log.run(decide)

    def _update(self, log: OpLog) -> None:
        rows = {"MVisit": [JOHN_2001]}
        body = {"drop_rows": rows} if self.twin_present else {"add_rows": rows}

        def update() -> None:
            start = time.perf_counter()
            status, payload = self._request("POST", "/sessions/fig1/update", body)
            log.add("update", time.perf_counter() - start)
            if status // 100 != 2:
                raise ServiceFailure(f"update {body}: HTTP {status} {payload}")
            change = payload["update"]
            expect(change["touched"], ["MVisit"], "update touched")
            expect((change["added"], change["dropped"]),
                   (0, 1) if self.twin_present else (1, 0), "update added/dropped")
            self.twin_present = not self.twin_present

        log.run(update)

    def unit(self) -> list[Op]:
        bodies = [entry for entry in DECIDE_BODIES for _ in range((CYCLE - 1) // len(DECIDE_BODIES))]
        bodies += self.rng.sample(DECIDE_BODIES, (CYCLE - 1) - len(bodies))
        self.rng.shuffle(bodies)
        ops: list[Op] = [self._update]
        ops += [lambda log, b=body, a=answer: self._decide(log, b, a) for body, answer in bodies]
        return ops

    def metrics_snapshot(self) -> dict[str, Any]:
        status, payload = self._request("GET", "/metrics", None)
        if status != 200:
            raise ServiceFailure(f"GET /metrics: HTTP {status}")
        return payload["metrics"]

    def peak_rss_mb(self) -> float:
        """The server process tree: the service plus its executor workers."""
        assert self.server is not None
        return tree_peak_rss_mb(self.server.pid)


def _alive(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie awaiting its reaper does not)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


WORKLOADS = ("fig1-cold", "fig1-sat", "service")


def make(name: str, seed: int, out_dir: Path, root: Path, spans_path: Path | None = None) -> Workload:
    if name == "fig1-cold":
        return Fig1Cold(seed, out_dir)
    if name == "fig1-sat":
        return Fig1Sat(seed, out_dir)
    if name == "service":
        return Fig1Service(seed, out_dir, root, spans_path)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
