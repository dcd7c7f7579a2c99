"""Service-wide counters, exposed at ``GET /metrics``.

The counters are the observable half of the service's gates: the
single-flight test asserts ``engine_runs`` stayed at 1 across N identical
concurrent requests, the invalidation test watches ``cache_hits``, the
disconnect test waits for ``streams_cancelled``, and ``requests`` ÷
``connections`` is how many requests a kept-alive connection carried.  All mutation happens on
the event-loop thread (or under its executor callbacks marshalled back to
it), so plain ints suffice.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

__all__ = ["ServiceMetrics"]


@dataclass
class ServiceMetrics:
    """Monotonic counters describing one service process's lifetime."""

    requests: int = 0
    connections: int = 0
    decisions: int = 0
    cache_hits: int = 0
    engine_runs: int = 0
    singleflight_followers: int = 0
    updates: int = 0
    cache_evictions: int = 0
    streams_started: int = 0
    streams_completed: int = 0
    streams_cancelled: int = 0
    worlds_streamed: int = 0
    timeouts: int = 0
    rejected: int = 0
    errors: int = 0

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)
