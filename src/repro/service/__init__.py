"""``repro.service`` — the async decision service over named sessions.

An asyncio HTTP/JSON server (stdlib only) exposing the full decision
surface of :class:`repro.api.Database` — consistency, world enumeration,
model counting, RCDP/MINP/RCQP, certain answers, incremental updates —
with cross-request memoisation, single-flight deduplication of concurrent
identical requests, and streaming NDJSON world enumeration with
client-disconnect cancellation.

Run it::

    python -m repro.service --config service.json

or embed it::

    from repro.service import ServiceClient, ServiceConfig, ServiceThread

    config = ServiceConfig(port=0)
    with ServiceThread(config) as svc:
        client = ServiceClient(svc.base_url)
        client.create_session("demo", "patients")
        print(client.decide("demo", "consistency"))

See ``docs/service.md`` for the endpoint reference and semantics.
"""

from repro.service.config import ServiceConfig, SessionConfig
from repro.service.client import ServiceClient, WorldStream
from repro.service.metrics import ServiceMetrics
from repro.service.plugins import (
    SessionSpec,
    get_workload,
    register_workload,
    workload_names,
)
from repro.service.pool import DatabasePool, SessionState
from repro.service.server import DecisionService, ServiceThread

__all__ = [
    "DatabasePool",
    "DecisionService",
    "ServiceClient",
    "ServiceConfig",
    "ServiceMetrics",
    "ServiceThread",
    "SessionConfig",
    "SessionSpec",
    "SessionState",
    "WorldStream",
    "get_workload",
    "register_workload",
    "workload_names",
]
