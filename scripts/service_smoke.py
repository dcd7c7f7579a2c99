#!/usr/bin/env python3
"""Smoke the real ``python -m repro.service`` subprocess lifecycle.

The e2e tests drive the service through :class:`ServiceThread` inside one
process; this script is the missing deployment-shaped check, used by
``scripts/check.sh`` and CI.  It spawns the actual CLI entrypoint on an
ephemeral port, parses the "listening on" line, and asserts over the wire:

* connections persist: the client's first two requests share one
  (``metrics.connections``),
* a repeated decision is a cache hit (``cache_hit`` flips false → true),
* N identical concurrent requests from threads sharing one client run
  exactly one engine search (``metrics.engine_runs`` advances by 1; the
  rest are deduplicated or cache hits),
* the NDJSON ``/worlds`` stream yields worlds and a summary,
* an update invalidates the scoped cache entries (consistency recomputes),
* SIGTERM produces a graceful drain while the client still holds idle
  connections: within 5 s the process prints "stopped cleanly" and
  exits 0.

Run directly::

    python scripts/service_smoke.py
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.service import ServiceClient  # noqa: E402

#: How long the service may take to exit after SIGTERM.
STOP_SECONDS = 5.0


def start_service() -> tuple[subprocess.Popen[str], str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{REPO_ROOT / 'src'}:{env.get('PYTHONPATH', '')}"
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    assert process.stdout is not None
    line = process.stdout.readline()
    prefix = "repro.service listening on "
    if not line.startswith(prefix):
        process.kill()
        raise SystemExit(f"unexpected first line from the service: {line!r}")
    return process, line[len(prefix) :].strip()


def check_keep_alive(client: ServiceClient) -> None:
    assert client.healthz()["status"] == "ok"
    metrics = client.metrics()
    assert (metrics["requests"], metrics["connections"]) == (2, 1), (
        f"two requests from a fresh client used {metrics['connections']} "
        "connections, expected 1"
    )


def check_cache_and_singleflight(client: ServiceClient) -> None:
    client.create_session("demo", "patients")
    cold = client.decide("demo", "consistency")
    assert cold["result"]["holds"] is True, cold
    assert cold["cache_hit"] is False, cold
    warm = client.decide("demo", "consistency")
    assert warm["cache_hit"] is True, warm

    runs_before = client.metrics()["engine_runs"]
    barrier = threading.Barrier(6)
    envelopes: list[dict] = []

    def fire() -> None:
        barrier.wait()
        envelopes.append(
            client.decide("demo", "complete", query="q1", model="strong")
        )

    threads = [threading.Thread(target=fire) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert len(envelopes) == 6
    runs_after = client.metrics()["engine_runs"]
    assert runs_after - runs_before == 1, (
        f"single-flight failed: {runs_after - runs_before} engine runs "
        "for 6 identical concurrent requests"
    )


def check_streaming(client: ServiceClient) -> None:
    client.create_session("big", "wide", params={"rows": 3, "values_per_key": 4})
    with client.stream_worlds("big", limit=5) as stream:
        worlds = list(stream)
    assert len(worlds) == 5, f"expected 5 worlds, got {len(worlds)}"
    assert stream.summary is not None and stream.summary["kind"] == "summary"


def check_update_invalidation(client: ServiceClient) -> None:
    client.update(
        "demo", add_rows={"MVisit": [["915-15-400", "Ann", "EDI", 2001]]}
    )
    after = client.decide("demo", "consistency")
    assert after["cache_hit"] is False, "update did not invalidate consistency"
    assert after["result"]["holds"] is True, after


def main() -> int:
    process, base_url = start_service()
    try:
        client = ServiceClient(base_url)
        check_keep_alive(client)
        check_cache_and_singleflight(client)
        check_streaming(client)
        check_update_invalidation(client)
    except BaseException:
        process.kill()
        process.wait(timeout=30)
        raise
    # The client's connections stay open and idle: the drain must close
    # them itself rather than wait for the client.
    started = time.monotonic()
    process.send_signal(signal.SIGTERM)
    try:
        output, _ = process.communicate(timeout=STOP_SECONDS)
    except subprocess.TimeoutExpired:
        process.kill()
        output, _ = process.communicate(timeout=30)
        print(output)
        print(f"service did not exit within {STOP_SECONDS:.0f}s of SIGTERM "
              "with idle connections open")
        return 1
    finally:
        client.close()
    stopped_in = time.monotonic() - started
    if process.returncode != 0:
        print(output)
        print(f"service exited {process.returncode}, expected 0")
        return 1
    if "stopped cleanly" not in output:
        print(output)
        print("service did not report a clean drain-then-stop")
        return 1
    print("service_smoke: keep-alive, cache hit, single-flight collapse, "
          "streaming, update invalidation and SIGTERM drain "
          f"({stopped_in:.2f}s, idle connections open) all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
