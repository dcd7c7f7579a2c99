"""Run one benchmark workload and print its metrics as a final JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig1-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs equal
amounts of work untraced and traced, and reports the per-layer metrics and
the tracing overhead.  The program is imported from ``src/`` next to this
directory; without it the run exits non-zero before printing a result.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the set-up clock starts before any import
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per run; ``setup_s`` is their median (the run's own plus repeats
#: in fresh processes).
SETUP_SAMPLES = 3

#: Units of ops a traced run executes untraced and again traced: two
#: verdict-table rounds, two blocks of SAT steps, ten service cycles.
TRACE_UNITS = {"fig1-cold": 2, "fig1-sat": 2, "service": 10}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="time one set-up in this process and print it (used for repeats)",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    from perfbench.measure import reference_ms

    start_probe = reference_ms()
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_once(args.workload, args.seed, out_dir, start_probe)}))
        return 0
    if args.trace:
        result, host, details = traced_run(args.workload, args.seed, out_dir)
    else:
        from perfbench.workloads import make

        workload = make(args.workload, args.seed, out_dir, ROOT)
        result, host, details = timed_run(workload, args.seed, args.seconds, start_probe)
    print("host " + json.dumps(host, sort_keys=True))
    print("details " + json.dumps(details, sort_keys=True))
    for name, entry in result["metrics"].items():
        print(f"{args.workload:10s} {name:28s} {entry['value']:14.4f} {entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def scaled_setup(start_probe: float) -> float:
    """Seconds since process start, scaled to the reference speed."""
    from perfbench.measure import REFERENCE_MS, reference_ms

    elapsed = time.perf_counter() - PROCESS_START
    return elapsed * REFERENCE_MS / ((start_probe + reference_ms()) / 2.0)


def setup_once(name: str, seed: int, out_dir: Path, start_probe: float) -> float:
    """One set-up from process start; the workload is torn down again."""
    from perfbench.workloads import make

    workload = make(name, seed, out_dir, ROOT)
    try:
        workload.setup()
        return scaled_setup(start_probe)
    finally:
        workload.teardown()


def setup_repeats(name: str, seed: int) -> list[float]:
    """Set-up times of fresh processes, measured the same way as our own."""
    times = []
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up repeat failed: {done.stderr.strip()[-2000:]}")
        times.append(float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]))
    return times


def _result(correct: bool, logs: list[Any], metrics: dict[str, Any]) -> dict[str, Any]:
    return {
        "correct": correct,
        "attempted": sum(log.attempted for log in logs),
        "failed": sum(log.failed for log in logs),
        "metrics": metrics,
    }


def _report_failures(logs: list[Any]) -> None:
    for log in logs:
        for failure in log.failures:
            print(f"perfbench: failed op: {failure}", file=sys.stderr)


Outcome = tuple[dict[str, Any], dict[str, Any], dict[str, Any]]


def timed_run(workload: Any, seed: int, seconds: float, start_probe: float) -> Outcome:
    """The untraced run: set-up, a timed window, then set-up repeats."""
    from perfbench.measure import OpLog, WrongAnswer, host_fingerprint, median, metric

    log = OpLog()
    try:
        workload.setup()
        own_setup = scaled_setup(start_probe)
        wall = workload.run_units(log, seconds=seconds)
        metrics = workload.end_to_end(log)
        details = workload.details(log)
    except WrongAnswer as err:
        print(f"perfbench: wrong answer: {err}", file=sys.stderr)
        return _result(False, [log], {}), host_fingerprint(workload.executor_workers), {}
    finally:
        workload.teardown()
    _report_failures([log])
    host = host_fingerprint(workload.executor_workers)
    setups = [own_setup] + setup_repeats(workload.name, seed)
    metrics["setup_s"] = metric(median(setups), "s")
    details["setup_samples_s"] = setups
    details["window_s"] = wall
    details["units"] = len(log.units)
    return _result(True, [log], metrics), host, details


def traced_run(name: str, seed: int, out_dir: Path) -> Outcome:
    """Per-layer metrics, and the tracing overhead on the same ops.

    In-process workloads set up once with the seams installed, then
    alternate untraced and traced units, so both see the same host phases.
    The service runs a plain server and then a traced one for equal work.
    """
    from perfbench import trace
    from perfbench.measure import OpLog, WrongAnswer, host_fingerprint, median, metric
    from perfbench.workloads import make

    units = TRACE_UNITS[name]
    plain, traced = OpLog(), OpLog()
    spans_path = out_dir / f"spans-{name}-seed{seed}.tsv"
    server_spans = out_dir / f"spans-{name}-seed{seed}-server.tsv"
    recorder = trace.SpanRecorder()
    layers: dict[str, float] = {}
    executor_workers = None
    try:
        if name == "service":
            engine_runs, executor_workers = _trace_service(
                seed, out_dir, recorder, plain, traced, server_spans
            )
            layers["pool.engine_runs"] = engine_runs
        else:
            _trace_in_process(make(name, seed, out_dir, ROOT), recorder, plain, traced, units)
    except WrongAnswer as err:
        print(f"perfbench: wrong answer: {err}", file=sys.stderr)
        return _result(False, [plain, traced], {}), host_fingerprint(None), {}
    _report_failures([plain, traced])
    recorder.write(str(spans_path))
    server = trace.totals(trace.read_spans(str(server_spans))) if name == "service" else None
    layers = {**trace.layer_metrics(trace.totals(recorder.rows()), server), **layers}
    rates = median(plain.unit_rates()), median(traced.unit_rates())
    layers["trace.untraced_ops_per_s"] = rates[0]
    layers["trace.ops_per_s"] = rates[1]
    layers["trace.overhead"] = rates[0] / rates[1] - 1.0
    metrics = {key: metric(value, _unit(key)) for key, value in layers.items()}
    details = {"spans": str(spans_path.relative_to(ROOT)), "traced_ops": len(traced.latencies)}
    return _result(True, [plain, traced], metrics), host_fingerprint(executor_workers), details


def _trace_in_process(workload: Any, recorder: Any, plain: Any, traced: Any, units: int) -> None:
    from perfbench import trace
    from perfbench.workloads import TracedOp

    seams = trace.engine_seams()
    try:
        uninstall = trace.install(recorder, seams)
        try:
            with TracedOp(recorder, "setup"):
                workload.setup()
        finally:
            uninstall()
        for _ in range(units):
            workload.recorder = None
            workload.run_units(plain, seconds=0.0, units=1)
            workload.recorder = recorder
            uninstall = trace.install(recorder, seams)
            try:
                workload.run_units(traced, seconds=0.0, units=1)
            finally:
                uninstall()
    finally:
        workload.teardown()


def _trace_service(
    seed: int, out_dir: Path, recorder: Any, plain: Any, traced: Any, server_spans: Path,
) -> tuple[float, int | None]:
    """A plain server, then a traced one; returns engine runs and workers."""
    from perfbench.workloads import TracedOp, make

    units = TRACE_UNITS["service"]
    engine_runs = 0.0
    workload = None
    for log, spans in ((plain, None), (traced, server_spans)):
        workload = make("service", seed, out_dir, ROOT, spans)
        try:
            if spans is None:
                workload.setup()
                workload.run_units(log, seconds=0.0, units=units)
                continue
            workload.recorder = recorder
            with TracedOp(recorder, "setup"):
                workload.setup()
            before = workload.metrics_snapshot()
            workload.run_units(log, seconds=0.0, units=units)
            engine_runs = float(workload.metrics_snapshot()["engine_runs"] - before["engine_runs"])
        finally:
            workload.teardown()
    return engine_runs, workload.executor_workers if workload is not None else None


def _unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("ratio") or name == "trace.overhead":
        return "ratio"
    if name.endswith("ops_per_s"):
        return "1/s"
    return "count"


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, then one summary."""
    from perfbench.workloads import WORKLOADS

    combined: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900, check=False,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            status = 1
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = entry
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
