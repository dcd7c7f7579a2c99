#!/usr/bin/env python3
"""Wire-level perf gates for the ``repro.service`` decision service.

Measures, over real sockets against a :class:`ServiceThread`:

* **warm-cache speedup** — the same decision request repeated against a
  warm facade cache must be ≥ 10x faster than its cold run (the engine
  search amortises across requests; the repeat pays HTTP + a cache probe,
  and is timed after a few untimed hits have warmed the hit path);
* **single-flight throughput** — N identical concurrent requests must
  trigger exactly **one** engine search (``metrics.engine_runs``), and the
  whole burst must complete in well under N cold runs;
* **streaming first-world latency** — the NDJSON ``/worlds`` endpoint must
  yield its first world in a fraction of the full-enumeration drain time
  (the stream is incremental, not a materialise-then-send);
* **vs per-request cold construction** — the pre-service deployment shape
  (build a fresh ``Database`` per request, decide, throw it away) as the
  baseline the session-cache architecture must beat on repeat traffic.

Run::

    PYTHONPATH=src python benchmarks/bench_service.py --smoke
    PYTHONPATH=src python benchmarks/bench_service.py --smoke --json BENCH_SERVICE.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import Database  # noqa: E402
from repro.service import ServiceClient, ServiceConfig, ServiceThread  # noqa: E402
from repro.workloads.generator import wide_pool_workload  # noqa: E402

REQUIRED_WARM_SPEEDUP = 10.0
REQUIRED_FIRST_WORLD_FRACTION = 0.5
REQUIRED_VS_REBUILD_SPEEDUP = 2.0
SINGLEFLIGHT_CLIENTS = 8

# Heavy enough that one model count is a real engine search (the wide-pool
# distinctness constraints leave P(5,4) = 120 worlds on the smoke shape,
# P(6,5) = 720 on the full one), small enough for CI.
SMOKE_SHAPE = {"rows": 4, "values_per_key": 5}
FULL_SHAPE = {"rows": 5, "values_per_key": 6}
#: Cache hits run before the warm repeats are timed: the first few run
#: slower until the interpreter has warmed the hit path.
WARM_UP_HITS = 5


def _percentile_ms(seconds: float) -> float:
    return round(seconds * 1000.0, 3)


def bench_warm_cache(client: ServiceClient, repeats: int) -> dict:
    started = time.perf_counter()
    cold = client.decide("pool", "count")
    cold_seconds = time.perf_counter() - started
    assert cold["cache_hit"] is False, "cold run unexpectedly hit the cache"

    warm_samples = []
    for repeat in range(WARM_UP_HITS + repeats):
        started = time.perf_counter()
        warm = client.decide("pool", "count")
        if repeat >= WARM_UP_HITS:
            warm_samples.append(time.perf_counter() - started)
        assert warm["cache_hit"] is True, "repeat request missed the cache"
        assert warm["result"]["value"] == cold["result"]["value"]
    warm_seconds = statistics.median(warm_samples)
    return {
        "label": "model-count warm repeat",
        "cold_ms": _percentile_ms(cold_seconds),
        "warm_ms": _percentile_ms(warm_seconds),
        "speedup": round(cold_seconds / warm_seconds, 2) if warm_seconds else None,
        "worlds": cold["result"]["value"],
    }


def bench_single_flight(client: ServiceClient, base_url: str) -> dict:
    runs_before = client.metrics()["engine_runs"]
    barrier = threading.Barrier(SINGLEFLIGHT_CLIENTS)
    envelopes: list[dict] = []
    lock = threading.Lock()

    def fire() -> None:
        with ServiceClient(base_url) as own:
            barrier.wait()
            envelope = own.decide("flight", "count")
        with lock:
            envelopes.append(envelope)

    threads = [
        threading.Thread(target=fire) for _ in range(SINGLEFLIGHT_CLIENTS)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
    burst_seconds = time.perf_counter() - started
    engine_runs = client.metrics()["engine_runs"] - runs_before
    deduplicated = sum(1 for e in envelopes if e["deduplicated"])
    cached = sum(1 for e in envelopes if e["cache_hit"])
    values = {e["result"]["value"] for e in envelopes}
    assert len(envelopes) == SINGLEFLIGHT_CLIENTS
    assert len(values) == 1, f"divergent single-flight results: {values}"
    return {
        "label": f"{SINGLEFLIGHT_CLIENTS} identical concurrent model counts",
        "clients": SINGLEFLIGHT_CLIENTS,
        "engine_runs": engine_runs,
        "deduplicated": deduplicated,
        "cache_hits": cached,
        "burst_ms": _percentile_ms(burst_seconds),
    }


def bench_streaming(client: ServiceClient) -> dict:
    started = time.perf_counter()
    first_world_seconds = None
    worlds = 0
    with client.stream_worlds("pool") as stream:
        for _world in stream:
            if first_world_seconds is None:
                first_world_seconds = time.perf_counter() - started
            worlds += 1
    total_seconds = time.perf_counter() - started
    assert first_world_seconds is not None, "stream produced no worlds"
    return {
        "label": "NDJSON world stream",
        "worlds": worlds,
        "first_world_ms": _percentile_ms(first_world_seconds),
        "total_ms": _percentile_ms(total_seconds),
        "first_world_fraction": round(first_world_seconds / total_seconds, 3)
        if total_seconds
        else None,
    }


def bench_vs_rebuild(client: ServiceClient, shape: dict, repeats: int) -> dict:
    """Warm service requests vs building a fresh Database per request."""
    started = time.perf_counter()
    for _ in range(repeats):
        envelope = client.decide("pool", "count")
        assert envelope["cache_hit"] is True
    service_seconds = (time.perf_counter() - started) / repeats

    workload = wide_pool_workload(**shape)
    started = time.perf_counter()
    for _ in range(repeats):
        db = Database(
            workload.cinstance,
            workload.master,
            workload.constraints,
        )
        db.count()
    rebuild_seconds = (time.perf_counter() - started) / repeats
    return {
        "label": "warm service request vs per-request cold Database",
        "service_ms": _percentile_ms(service_seconds),
        "rebuild_ms": _percentile_ms(rebuild_seconds),
        "speedup": round(rebuild_seconds / service_seconds, 2)
        if service_seconds
        else None,
    }


def evaluate_gates(results: dict) -> tuple[dict, int]:
    warm = results["warm_cache"]["speedup"]
    runs = results["single_flight"]["engine_runs"]
    collapsed = (
        results["single_flight"]["deduplicated"]
        + results["single_flight"]["cache_hits"]
    )
    fraction = results["streaming"]["first_world_fraction"]
    rebuild = results["vs_rebuild"]["speedup"]
    summary = {
        "warm_cache_speedup": warm,
        "required_warm_cache_speedup": REQUIRED_WARM_SPEEDUP,
        "single_flight_engine_runs": runs,
        "single_flight_collapsed": collapsed,
        "first_world_fraction": fraction,
        "required_first_world_fraction": REQUIRED_FIRST_WORLD_FRACTION,
        "vs_rebuild_speedup": rebuild,
        "required_vs_rebuild_speedup": REQUIRED_VS_REBUILD_SPEEDUP,
    }

    print()
    print(
        f"Warm-cache repeat speedup: {warm:.1f}x "
        f"(required >= {REQUIRED_WARM_SPEEDUP:.0f}x)"
    )
    if warm is None or warm < REQUIRED_WARM_SPEEDUP:
        print("FAILED: warm-cache repeat not fast enough over its cold run")
        return summary, 1

    print(
        f"Single-flight: {results['single_flight']['clients']} identical "
        f"concurrent requests ran {runs} engine search(es), "
        f"{collapsed} collapsed (required: exactly 1 search)"
    )
    if runs != 1:
        print("FAILED: identical concurrent requests did not collapse")
        return summary, 1

    print(
        f"Streaming: first world after {fraction:.1%} of the full drain "
        f"(required < {REQUIRED_FIRST_WORLD_FRACTION:.0%})"
    )
    if fraction is None or fraction >= REQUIRED_FIRST_WORLD_FRACTION:
        print("FAILED: the stream does not yield before enumeration completes")
        return summary, 1

    print(
        f"Warm service vs per-request cold Database: {rebuild:.1f}x "
        f"(required >= {REQUIRED_VS_REBUILD_SPEEDUP:.0f}x)"
    )
    if rebuild is None or rebuild < REQUIRED_VS_REBUILD_SPEEDUP:
        print("FAILED: the session cache does not beat per-request rebuilds")
        return summary, 1

    print("All service perf gates passed.")
    return summary, 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small shapes and few repeats (the CI configuration)",
    )
    parser.add_argument("--json", help="write machine-readable results here")
    args = parser.parse_args()

    shape = SMOKE_SHAPE if args.smoke else FULL_SHAPE
    repeats = 5 if args.smoke else 20

    config = ServiceConfig(port=0, request_timeout=None)
    with ServiceThread(config) as svc, ServiceClient(svc.base_url) as client:
        client.create_session("pool", "wide", params=shape)
        client.create_session("flight", "wide", params=shape)
        results = {
            "warm_cache": bench_warm_cache(client, repeats),
            "single_flight": bench_single_flight(client, svc.base_url),
            "streaming": bench_streaming(client),
            "vs_rebuild": bench_vs_rebuild(client, shape, repeats),
        }
        metrics = client.metrics()

    for result in results.values():
        print(f"{result['label']}: " + json.dumps(result))
    summary, status = evaluate_gates(results)

    if args.json:
        payload = {
            "benchmark": "bench_service",
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "smoke": args.smoke,
            "status": "passed" if status == 0 else "failed",
            "shape": shape,
            "cases": results,
            "service_metrics": metrics,
            "gates": summary,
        }
        Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=False) + "\n"
        )
        print(f"Wrote machine-readable results to {args.json}")
    return status


if __name__ == "__main__":
    sys.exit(main())
