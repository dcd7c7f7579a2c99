"""Shared builder for the public-API surface snapshot.

Used by ``tests/api/test_public_surface.py`` (comparison) and
``scripts/update_api_snapshot.py`` (regeneration), so both sides always
describe the surface the same way.
"""

from __future__ import annotations

import dataclasses
import inspect


def build_surface() -> dict:
    """Describe the public surface a release promises to keep stable.

    Covers the top-level export list, every :class:`repro.api.Database`
    method signature, the :class:`~repro.search.registry.EngineConfig` and
    :class:`~repro.decision.Decision` field lists, and the built-in engine
    registrations — exactly the things an accidental refactor is most likely
    to break silently.
    """
    import repro
    from repro.api import Database
    from repro.decision import Decision, DecisionStats
    from repro.search.registry import EngineCapabilities, EngineConfig

    def signatures(cls) -> dict[str, str]:
        members = {}
        for name, member in inspect.getmembers(cls):
            if name.startswith("_"):
                continue
            if inspect.isfunction(member):
                members[name] = str(inspect.signature(member))
            elif isinstance(inspect.getattr_static(cls, name), property):
                members[name] = "<property>"
        return members

    def field_names(cls) -> list[str]:
        return [field.name for field in dataclasses.fields(cls)]

    return {
        "repro_all": sorted(repro.__all__),
        "database_methods": signatures(Database),
        "database_init": str(inspect.signature(Database.__init__)),
        "decision_fields": field_names(Decision),
        "decision_stats_fields": field_names(DecisionStats),
        "engine_config_fields": field_names(EngineConfig),
        "engine_capabilities_fields": field_names(EngineCapabilities),
        "builtin_engines": ["propagating", "sat", "naive"],
    }
