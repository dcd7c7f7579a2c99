"""``python -m repro.service`` — run the decision service.

Loads an optional JSON config file, applies command-line overrides, serves
until SIGTERM/SIGINT, then drains in-flight requests and exits::

    python -m repro.service --config service.json
    python -m repro.service --host 0.0.0.0 --port 9000 --workers 4
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys
from dataclasses import replace

from repro.exceptions import ServiceError
from repro.service.config import ServiceConfig
from repro.service.server import DecisionService


def build_config(argv: list[str] | None = None) -> ServiceConfig:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve the relative-information-completeness decision "
        "surface over HTTP/JSON.",
    )
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--host", help="bind address (default from config)")
    parser.add_argument("--port", type=int, help="bind port (0 = ephemeral)")
    parser.add_argument(
        "--workers", type=int, help="worker thread count (default: automatic)"
    )
    args = parser.parse_args(argv)
    config = (
        ServiceConfig.from_file(args.config)
        if args.config is not None
        else ServiceConfig()
    )
    overrides: dict[str, object] = {}
    if args.host is not None:
        overrides["host"] = args.host
    if args.port is not None:
        overrides["port"] = args.port
    if args.workers is not None:
        overrides["executor_workers"] = args.workers
    if overrides:
        config = replace(config, **overrides)  # type: ignore[arg-type]
    return config


async def run(config: ServiceConfig) -> None:
    service = DecisionService(config)
    await service.start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(signum, stop.set)
    print(f"repro.service listening on {service.base_url}", flush=True)
    serving = asyncio.ensure_future(service.serve_forever())
    try:
        await stop.wait()
    finally:
        print("draining...", flush=True)
        # Shut down before reaping serve_forever(): once cancelled, it waits
        # without a bound for every open connection on Python >= 3.12.1,
        # and only the shutdown closes the idle kept-alive ones.
        await service.shutdown(drain=True)
        serving.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await serving
        print("stopped cleanly", flush=True)


def main(argv: list[str] | None = None) -> int:
    try:
        config = build_config(argv)
        asyncio.run(run(config))
    except ServiceError as err:
        print(f"repro.service: {err}", file=sys.stderr, flush=True)
        return 2
    except KeyboardInterrupt:
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
