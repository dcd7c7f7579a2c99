"""Launch ``python -m repro.service`` with the benchmark's span seams installed.

Usage::

    python3 perfbench/serve_traced.py --spans SPANS.tsv [service options...]

The engine and server seams of :mod:`perfbench.trace` wrap the server's main
process; forked executor workers stop recording at fork, so engine layers
inside them are not traced here (the in-process workloads measure those).
When the service exits (SIGTERM drains it), the spans are written to
``SPANS.tsv``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: serve_traced.py --spans PATH [service options...]", file=sys.stderr)
        return 2
    spans_path, service_argv = argv[1], argv[2:]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import trace
    from repro.service.__main__ import main as service_main

    recorder = trace.SpanRecorder()
    trace.install(recorder, trace.engine_seams() + trace.server_seams(recorder))
    os.register_at_fork(after_in_child=recorder.disable)
    try:
        return service_main(service_argv)
    finally:
        recorder.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
