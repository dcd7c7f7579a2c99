"""Service configuration: defaults, dict validation, JSON config files.

``python -m repro.service --config service.json`` loads a config like::

    {
      "host": "127.0.0.1",
      "port": 8347,
      "executor_workers": 4,
      "request_timeout": 30.0,
      "stream_buffer": 8,
      "auth_token": "s3cret",
      "rate_limit": 200,
      "sessions": {
        "demo": {"workload": "registry",
                 "params": {"master_size": 4, "variable_count": 2},
                 "engine": "propagating"}
      }
    }

Every key has a default; unknown keys raise (a typo must not silently
deploy a default).  Sessions name factories in the workload registry
(:mod:`repro.service.plugins`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.exceptions import ServiceError

__all__ = ["ServiceConfig", "SessionConfig"]


@dataclass(frozen=True)
class SessionConfig:
    """One preconfigured session: workload name + params + default engine."""

    workload: str
    params: Mapping[str, Any] = field(default_factory=dict)
    engine: str | None = None

    @classmethod
    def from_raw(cls, raw: Any, what: str) -> "SessionConfig":
        if not isinstance(raw, Mapping):
            raise ServiceError(f"{what} must be an object")
        unknown = set(raw) - {"workload", "params", "engine"}
        if unknown:
            raise ServiceError(f"{what}: unknown keys {sorted(unknown)}")
        workload = raw.get("workload")
        if not isinstance(workload, str):
            raise ServiceError(f"{what}: \"workload\" must be a workload name")
        params = raw.get("params", {})
        if not isinstance(params, Mapping):
            raise ServiceError(f"{what}: \"params\" must be an object")
        engine = raw.get("engine")
        if engine is not None and not isinstance(engine, str):
            raise ServiceError(f"{what}: \"engine\" must be an engine name or null")
        return cls(workload, dict(params), engine)


_CONFIG_KEYS = {
    "host",
    "port",
    "executor_workers",
    "request_timeout",
    "stream_buffer",
    "drain_timeout",
    "auth_token",
    "rate_limit",
    "sessions",
}


@dataclass(frozen=True)
class ServiceConfig:
    """The complete service configuration (all fields defaulted).

    ``port`` is 0–65535 (0: ephemeral).  ``executor_workers`` sizes the
    thread pool that runs engine work off the event loop (``null``: the
    :class:`~concurrent.futures.ThreadPoolExecutor` default).
    ``request_timeout`` bounds one decision request in seconds, finite and
    above 0 (``null`` disables); ``stream_buffer`` is the world-stream
    backpressure queue depth; ``drain_timeout`` bounds the graceful-shutdown
    wait for in-flight requests, finite and at least 0.  ``auth_token`` is
    the token every route but ``/healthz`` requires (``null``: open);
    ``rate_limit`` is the number of decide and ``/worlds`` requests one
    session admits in any sliding second (``null``: unlimited).
    """

    host: str = "127.0.0.1"
    port: int = 8347
    executor_workers: int | None = None
    request_timeout: float | None = 30.0
    stream_buffer: int = 8
    drain_timeout: float = 5.0
    auth_token: str | None = None
    rate_limit: int | None = None
    sessions: Mapping[str, SessionConfig] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ServiceError("port must be in 0-65535")
        if self.request_timeout is not None and not 0 < self.request_timeout < math.inf:
            raise ServiceError("request_timeout must be finite and > 0, or null")
        if not 0 <= self.drain_timeout < math.inf:
            raise ServiceError("drain_timeout must be finite and >= 0")
        if self.executor_workers is not None and self.executor_workers < 1:
            raise ServiceError("executor_workers must be >= 1")
        if self.stream_buffer < 1:
            raise ServiceError("stream_buffer must be >= 1")
        if self.auth_token == "":
            raise ServiceError("auth_token must be a non-empty string or null")
        if self.rate_limit is not None and self.rate_limit < 1:
            raise ServiceError("rate_limit must be >= 1 or null")

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "ServiceConfig":
        """Validate and build a config from parsed JSON."""
        if not isinstance(raw, Mapping):
            raise ServiceError("service config must be a JSON object")
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise ServiceError(f"unknown service config keys {sorted(unknown)}")
        kwargs: dict[str, Any] = {}
        if "host" in raw:
            if not isinstance(raw["host"], str):
                raise ServiceError("config 'host' must be a string")
            kwargs["host"] = raw["host"]
        for key in ("port", "stream_buffer"):
            if key in raw:
                value = raw[key]
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ServiceError(f"config {key!r} must be an integer")
                kwargs[key] = value
        for key in ("executor_workers", "rate_limit"):
            if key in raw:
                value = raw[key]
                if value is not None and (
                    not isinstance(value, int) or isinstance(value, bool)
                ):
                    raise ServiceError(f"config {key!r} must be int or null")
                kwargs[key] = value
        if "auth_token" in raw:
            token = raw["auth_token"]
            if token is not None and not isinstance(token, str):
                raise ServiceError("config 'auth_token' must be a string or null")
            kwargs["auth_token"] = token
        for key in ("request_timeout", "drain_timeout"):
            if key in raw:
                value = raw[key]
                if key == "request_timeout" and value is None:
                    kwargs[key] = None
                    continue
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise ServiceError(f"config {key!r} must be a number")
                kwargs[key] = float(value)
        if "sessions" in raw:
            sessions_raw = raw["sessions"]
            if not isinstance(sessions_raw, Mapping):
                raise ServiceError("config 'sessions' must be an object")
            kwargs["sessions"] = {
                name: SessionConfig.from_raw(entry, f"session {name!r}")
                for name, entry in sessions_raw.items()
            }
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str | Path) -> "ServiceConfig":
        """Load and validate a JSON config file."""
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as err:
            raise ServiceError(f"cannot read config file {path}: {err}") from err
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as err:
            raise ServiceError(f"config file {path} is not valid JSON: {err}") from err
        return cls.from_dict(raw)
