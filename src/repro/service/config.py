"""Service configuration: defaults, dict validation, JSON config files.

``python -m repro.service --config service.json`` loads a config like::

    {
      "host": "127.0.0.1",
      "port": 8347,
      "executor_workers": 4,
      "request_timeout": 30.0,
      "stream_buffer": 8,
      "auth": {"name": "token", "options": {"token": "s3cret"}},
      "rate_limit": {"name": "window",
                     "options": {"max_requests": 200, "window_seconds": 1.0}},
      "result_backend": {"name": "memory", "options": {"capacity": 128}},
      "sessions": {
        "demo": {"workload": "registry",
                 "params": {"master_size": 4, "variable_count": 2},
                 "engine": "propagating"}
      }
    }

Every key has a default; unknown keys raise (a typo must not silently
deploy a default).  Plugin selections name factories in the service-plugin
registry (:mod:`repro.service.plugins`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.exceptions import ServiceError

__all__ = ["PluginSelection", "ServiceConfig", "SessionConfig"]


@dataclass(frozen=True)
class PluginSelection:
    """One configured plugin: registry name + factory options."""

    name: str
    options: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def from_raw(cls, raw: Any, what: str) -> "PluginSelection":
        if isinstance(raw, str):
            return cls(raw)
        if isinstance(raw, Mapping):
            unknown = set(raw) - {"name", "options"}
            if unknown:
                raise ServiceError(f"{what}: unknown keys {sorted(unknown)}")
            name = raw.get("name")
            if not isinstance(name, str):
                raise ServiceError(f"{what}: plugin \"name\" must be a string")
            options = raw.get("options", {})
            if not isinstance(options, Mapping):
                raise ServiceError(f"{what}: plugin \"options\" must be an object")
            return cls(name, dict(options))
        raise ServiceError(f"{what} must be a plugin name or {{name, options}}")


@dataclass(frozen=True)
class SessionConfig:
    """One preconfigured session: workload plugin + params + default engine."""

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
            raise ServiceError(f"{what}: \"workload\" must be a plugin name")
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
    "auth",
    "rate_limit",
    "result_backend",
    "sessions",
}


@dataclass(frozen=True)
class ServiceConfig:
    """The complete service configuration (all fields defaulted).

    ``executor_workers`` sizes the thread pool that runs engine work off the
    event loop (``null``: the :class:`~concurrent.futures.ThreadPoolExecutor`
    default).  ``request_timeout`` bounds one decision request in seconds
    (``null`` disables); ``stream_buffer`` is the world-stream backpressure
    queue depth; ``drain_timeout`` bounds the graceful-shutdown wait for
    in-flight requests.
    """

    host: str = "127.0.0.1"
    port: int = 8347
    executor_workers: int | None = None
    request_timeout: float | None = 30.0
    stream_buffer: int = 8
    drain_timeout: float = 5.0
    auth: PluginSelection = field(default_factory=lambda: PluginSelection("none"))
    rate_limit: PluginSelection = field(
        default_factory=lambda: PluginSelection("none")
    )
    result_backend: PluginSelection = field(
        default_factory=lambda: PluginSelection("memory")
    )
    sessions: Mapping[str, SessionConfig] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.executor_workers is not None and self.executor_workers < 1:
            raise ServiceError("executor_workers must be >= 1")
        if self.stream_buffer < 1:
            raise ServiceError("stream_buffer must be >= 1")

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
        if "executor_workers" in raw:
            value = raw["executor_workers"]
            if value is not None and (
                not isinstance(value, int) or isinstance(value, bool)
            ):
                raise ServiceError("config 'executor_workers' must be int or null")
            kwargs["executor_workers"] = value
        for key in ("request_timeout", "drain_timeout"):
            if key in raw:
                value = raw[key]
                if key == "request_timeout" and value is None:
                    kwargs[key] = None
                    continue
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise ServiceError(f"config {key!r} must be a number")
                kwargs[key] = float(value)
        for key in ("auth", "rate_limit", "result_backend"):
            if key in raw:
                kwargs[key] = PluginSelection.from_raw(raw[key], f"config {key!r}")
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
