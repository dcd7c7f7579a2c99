"""The workload registry and the built-in workloads."""

from __future__ import annotations

import pytest

from repro.exceptions import ServiceError
from repro.service import plugins
from repro.service.plugins import (
    SessionSpec,
    get_workload,
    register_workload,
    workload_names,
)


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------
def test_builtins_are_registered():
    assert set(workload_names()) >= {"registry", "wide", "patients"}


def test_duplicate_registration_requires_replace(monkeypatch):
    monkeypatch.setattr(plugins, "_WORKLOADS", dict(plugins._WORKLOADS))
    factory = get_workload("patients")
    register_workload("test-dup", factory)
    with pytest.raises(ServiceError, match="already registered"):
        register_workload("test-dup", factory)
    register_workload("test-dup", factory, replace=True)
    assert get_workload("test-dup") is factory


def test_unknown_workload_names_the_known_ones():
    with pytest.raises(ServiceError, match="unknown workload 'no-such'") as err:
        get_workload("no-such")
    assert err.value.status == 400
    assert "patients" in str(err.value)


# ---------------------------------------------------------------------------
# workload factories
# ---------------------------------------------------------------------------
def test_registry_workload_builds_session_spec():
    spec = get_workload("registry")(master_size=3, variable_count=1)
    assert isinstance(spec, SessionSpec)
    assert set(spec.queries) == {"point", "full", "union"}
    assert spec.constraints


def test_patients_workload_builds_session_spec():
    spec = get_workload("patients")()
    assert isinstance(spec, SessionSpec)
    assert {"q1", "q2_present", "q2_absent", "q3", "q4"} <= set(spec.queries)


def test_bad_workload_params_are_service_errors():
    with pytest.raises(ServiceError, match="params"):
        get_workload("registry")(no_such_parameter=7)
