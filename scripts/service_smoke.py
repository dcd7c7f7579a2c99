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

A second service starts from a config file with ``"auth_token"`` and
``"rate_limit": 2``: ``/healthz`` stays open, a request without the token
answers 401, requests with a bearer token and with ``x-repro-token``
answer 200, and the third of three back-to-back decides answers 429.  A
config that still holds the pre-7.0 ``"auth"`` plugin object must make
the process exit 2 with "unknown service config keys".

Run directly::

    python scripts/service_smoke.py
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from urllib.parse import urlsplit

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.exceptions import ServiceError  # noqa: E402
from repro.service import ServiceClient  # noqa: E402

#: How long the service may take to exit after SIGTERM.
STOP_SECONDS = 5.0

#: The token of the second, gated service.
TOKEN = "smoke-token"


def spawn(*args: str) -> subprocess.Popen[str]:
    """``python -m repro.service --port 0 ARGS`` with ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{REPO_ROOT / 'src'}:{env.get('PYTHONPATH', '')}"
    return subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", "0", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )


def start_service(*args: str) -> tuple[subprocess.Popen[str], str]:
    process = spawn(*args)
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


def status_of(base_url: str, path: str, headers: dict[str, str]) -> int:
    """The status of one GET on a fresh connection."""
    url = urlsplit(base_url)
    connection = http.client.HTTPConnection(url.hostname, url.port, timeout=30)
    try:
        connection.request("GET", path, headers=headers)
        response = connection.getresponse()
        response.read()
        return response.status
    finally:
        connection.close()


def check_auth_and_rate_limit(config_dir: Path) -> None:
    """A gated service: token auth on every route but /healthz, and a rate
    limit of two decides per session per second."""
    config = config_dir / "gated.json"
    config.write_text(
        json.dumps(
            {
                "auth_token": TOKEN,
                "rate_limit": 2,
                "sessions": {"demo": {"workload": "patients"}},
            }
        )
    )
    process, base_url = start_service("--config", str(config))
    try:
        bearer = {"Authorization": f"Bearer {TOKEN}"}
        statuses = {
            "healthz": status_of(base_url, "/healthz", {}),
            "no token": status_of(base_url, "/sessions", {}),
            "bearer": status_of(base_url, "/sessions", bearer),
            "x-repro-token": status_of(base_url, "/sessions", {"x-repro-token": TOKEN}),
        }
        expected = {"healthz": 200, "no token": 401, "bearer": 200, "x-repro-token": 200}
        assert statuses == expected, f"auth statuses {statuses}, expected {expected}"
        decides = []
        with ServiceClient(base_url, token=TOKEN) as client:
            for _ in range(3):
                try:
                    client.decide("demo", "consistency")
                    decides.append(200)
                except ServiceError as err:
                    decides.append(err.status)
        assert decides == [200, 200, 429], f"three decides answered {decides}"
    finally:
        output = stop(process)
    assert process.returncode == 0 and "stopped cleanly" in output, output


def check_plugin_config_rejected(config_dir: Path) -> None:
    """A pre-7.0 config with an ``auth`` plugin object exits 2."""
    config = config_dir / "plugins.json"
    config.write_text(json.dumps({"auth": {"name": "token", "options": {"token": TOKEN}}}))
    process = spawn("--config", str(config))
    try:
        output, _ = process.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        stop(process)  # the service started: the key was accepted
        raise
    assert process.returncode == 2, f"exit {process.returncode}: {output!r}"
    assert "unknown service config keys" in output, output


def stop(process: subprocess.Popen[str]) -> str:
    """SIGTERM ``process`` and return its output; kill it if it hangs."""
    process.send_signal(signal.SIGTERM)
    try:
        output, _ = process.communicate(timeout=STOP_SECONDS)
    except subprocess.TimeoutExpired:
        process.kill()
        output, _ = process.communicate(timeout=30)
    return output


def main() -> int:
    with tempfile.TemporaryDirectory() as config_dir:
        check_auth_and_rate_limit(Path(config_dir))
        check_plugin_config_rejected(Path(config_dir))
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
          f"({stopped_in:.2f}s, idle connections open), token auth, the rate "
          "limit and the rejected plugin config all ok "
          f"(Python {sys.version.split()[0]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
