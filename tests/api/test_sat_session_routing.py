"""The facade's live SAT session serves the built-in SAT factory only.

:class:`repro.api.Database` answers ``is_consistent`` and ``count`` on plain
``engine="sat"`` from a long-lived
:class:`~repro.search.sat_engine.IncrementalSATSession`, the twin of the
engine :func:`repro.search.registry.sat_factory` builds.  An engine built by
any other factory must be asked through that factory, even when it declares
the SAT engine's capabilities: ``"sat"`` registered again over another
factory, and a drop-in under another name.  Neither may build a session.
"""

from __future__ import annotations

import pytest

from repro.api import Database
from repro.search.registry import (
    EngineSpec,
    get_engine,
    register_engine,
    unregister_engine,
)
from repro.workloads.patients import build_patient_scenario


def _database() -> Database:
    scenario = build_patient_scenario()
    return Database(scenario.figure1, scenario.master, scenario.constraints)


def _counted(spec: EngineSpec, calls: list[str]):
    """``spec``'s factory behind a wrapper that logs each call."""

    def factory(*args, **kwargs):
        calls.append(spec.name)
        return spec.factory(*args, **kwargs)

    return factory


def _assert_asked_through_factory(db: Database, engine: str, calls: list[str]) -> None:
    for call in (
        lambda: db.count(engine=engine),
        lambda: db.is_consistent(engine=engine),
        lambda: db.is_consistent(engine=engine, witness=False),
    ):
        before = len(calls)
        decision = call()
        assert decision and decision.engine_used == engine
        assert len(calls) > before, "the engine's factory was not called"
    assert db.count(engine=engine).value == 290
    assert db._sat_session is None


def test_sat_registered_again_is_asked_through_its_factory():
    builtin = get_engine("sat")
    calls: list[str] = []
    register_engine(
        "sat",
        _counted(get_engine("propagating"), calls),
        builtin.capabilities,
        replace=True,
    )
    try:
        _assert_asked_through_factory(_database(), "sat", calls)
        assert set(calls) == {"propagating"}
    finally:
        register_engine("sat", builtin.factory, builtin.capabilities, replace=True)
    db = _database()
    assert db.count(engine="sat").value == 290
    assert db._sat_session is not None, "the built-in SAT engine lost its session"


@pytest.mark.parametrize("wrapped", ["sat", "propagating"])
def test_drop_in_never_builds_a_session(wrapped):
    calls: list[str] = []
    register_engine(
        "sat-drop-in",
        _counted(get_engine(wrapped), calls),
        get_engine("sat").capabilities,
    )
    try:
        _assert_asked_through_factory(_database(), "sat-drop-in", calls)
    finally:
        unregister_engine("sat-drop-in")
