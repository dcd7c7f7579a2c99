"""Service configuration parsing: defaults, validation, config files."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ServiceError
from repro.service.__main__ import main
from repro.service.config import ServiceConfig, SessionConfig


def test_defaults():
    config = ServiceConfig()
    assert config.host == "127.0.0.1"
    assert config.executor_workers is None
    assert config.request_timeout == 30.0
    assert config.stream_buffer == 8
    assert config.auth_token is None
    assert config.rate_limit is None
    assert config.sessions == {}


def test_from_dict_full():
    config = ServiceConfig.from_dict(
        {
            "host": "0.0.0.0",
            "port": 9000,
            "executor_workers": 4,
            "request_timeout": None,
            "stream_buffer": 2,
            "drain_timeout": 1.5,
            "auth_token": "s3cret",
            "rate_limit": 200,
            "sessions": {
                "demo": {
                    "workload": "patients",
                    "engine": "sat",
                },
                "synthetic": {
                    "workload": "registry",
                    "params": {"master_size": 3},
                },
            },
        }
    )
    assert config.port == 9000
    assert config.executor_workers == 4
    assert config.request_timeout is None
    assert config.auth_token == "s3cret"
    assert config.rate_limit == 200
    assert config.sessions["demo"] == SessionConfig("patients", {}, "sat")
    assert config.sessions["synthetic"].params == {"master_size": 3}


def test_unknown_keys_rejected():
    with pytest.raises(ServiceError, match="unknown service config keys"):
        ServiceConfig.from_dict({"prot": 1234})
    with pytest.raises(ServiceError, match="unknown keys"):
        ServiceConfig.from_dict(
            {"sessions": {"s": {"workload": "patients", "engin": "sat"}}}
        )


def test_bad_values_rejected():
    with pytest.raises(ServiceError, match="executor_workers"):
        ServiceConfig.from_dict({"executor_workers": "many"})
    with pytest.raises(ServiceError, match="executor_workers must be >= 1"):
        ServiceConfig.from_dict({"executor_workers": 0})
    with pytest.raises(ServiceError, match="stream_buffer"):
        ServiceConfig.from_dict({"stream_buffer": 0})
    with pytest.raises(ServiceError, match="must be an integer"):
        ServiceConfig.from_dict({"port": "8080"})
    with pytest.raises(ServiceError, match="must be an integer"):
        ServiceConfig.from_dict({"port": True})
    with pytest.raises(ServiceError, match="must be a number"):
        ServiceConfig.from_dict({"drain_timeout": "fast"})
    with pytest.raises(ServiceError, match="'auth_token' must be a string or null"):
        ServiceConfig.from_dict({"auth_token": 1234})
    with pytest.raises(ServiceError, match="auth_token must be a non-empty string"):
        ServiceConfig.from_dict({"auth_token": ""})
    with pytest.raises(ServiceError, match="'rate_limit' must be int or null"):
        ServiceConfig.from_dict({"rate_limit": 2.5})
    with pytest.raises(ServiceError, match="rate_limit must be >= 1"):
        ServiceConfig.from_dict({"rate_limit": 0})
    for port in (-1, 65536, 70000):
        with pytest.raises(ServiceError, match="port must be in 0-65535"):
            ServiceConfig.from_dict({"port": port})
    # json.loads accepts NaN and Infinity, so a config file can carry them.
    for value in (-2, 0, 0.0, "NaN", "Infinity", "-Infinity"):
        raw = json.loads(f'{{"request_timeout": {value}}}')
        with pytest.raises(ServiceError, match="request_timeout must be finite and > 0"):
            ServiceConfig.from_dict(raw)
    for value in (-1, -0.5, "NaN", "Infinity"):
        raw = json.loads(f'{{"drain_timeout": {value}}}')
        with pytest.raises(ServiceError, match="drain_timeout must be finite and >= 0"):
            ServiceConfig.from_dict(raw)


def test_boundary_values_accepted():
    config = ServiceConfig.from_dict(
        {"port": 65535, "request_timeout": 0.001, "drain_timeout": 0}
    )
    assert (config.port, config.request_timeout, config.drain_timeout) == (
        65535, 0.001, 0.0,
    )


def test_cli_rejects_an_out_of_range_port(capsys):
    # Before validation, the bind raised an uncaught OverflowError (exit 1).
    assert main(["--port", "70000"]) == 2
    err = capsys.readouterr().err
    assert err == "repro.service: port must be in 0-65535\n"


def test_open_and_unlimited_by_null():
    config = ServiceConfig.from_dict({"auth_token": None, "rate_limit": None})
    assert (config.auth_token, config.rate_limit) == (None, None)


def test_from_file_round_trip(tmp_path):
    path = tmp_path / "service.json"
    path.write_text(
        json.dumps({"port": 0, "executor_workers": 2, "request_timeout": 5})
    )
    config = ServiceConfig.from_file(path)
    assert config.port == 0
    assert config.executor_workers == 2
    assert config.request_timeout == 5.0


def test_from_file_errors(tmp_path):
    with pytest.raises(ServiceError, match="cannot read"):
        ServiceConfig.from_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ServiceError, match="not valid JSON"):
        ServiceConfig.from_file(bad)
