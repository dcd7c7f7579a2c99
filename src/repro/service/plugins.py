"""The workload registry: the named session specifications a service serves.

Clients cannot ship c-instances over JSON, so a session is created from a
registered *workload*: a factory that takes JSON parameters and returns a
:class:`SessionSpec` (the c-instance, master data, constraints and named
queries).  Decision requests then reference the session's queries by name.
Registration mirrors the engine registry
(:func:`repro.search.registry.register_engine`).

Built-ins: ``"registry"`` (the synthetic Record/Registry family),
``"wide"`` (many worlds, for streaming and counting) and ``"patients"``
(the paper's Figure 1 scenario).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.constraints.containment import ContainmentConstraint
from repro.ctables.cinstance import CInstance
from repro.exceptions import ServiceError
from repro.queries.evaluation import Query
from repro.relational.master import MasterData

__all__ = ["SessionSpec", "get_workload", "register_workload", "workload_names"]

WorkloadFactory = Callable[..., "SessionSpec"]

_WORKLOADS: dict[str, WorkloadFactory] = {}


def register_workload(
    name: str, factory: WorkloadFactory, *, replace: bool = False
) -> None:
    """Register a workload factory under ``name``.

    ``factory`` is called with a session's JSON ``params`` as keyword
    arguments.  Re-registering an existing name raises unless
    ``replace=True``, exactly like :func:`repro.search.registry.register_engine`.
    """
    if name in _WORKLOADS and not replace:
        raise ServiceError(
            f"workload {name!r} is already registered (pass replace=True to override)"
        )
    _WORKLOADS[name] = factory


def get_workload(name: str) -> WorkloadFactory:
    """The registered factory for ``name``; a 400-level error if absent."""
    factory = _WORKLOADS.get(name)
    if factory is None:
        known = ", ".join(sorted(_WORKLOADS)) or "none registered"
        raise ServiceError(f"unknown workload {name!r} (known: {known})")
    return factory


def workload_names() -> tuple[str, ...]:
    """The registered workload names, sorted."""
    return tuple(sorted(_WORKLOADS))


# ---------------------------------------------------------------------------
# session specifications and the built-in workloads
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SessionSpec:
    """Everything a service session is built from.

    ``queries`` maps wire-level query names (what decision requests carry in
    their ``"query"`` field) to evaluated-as-is query objects.
    """

    cinstance: CInstance
    master: MasterData
    constraints: tuple[ContainmentConstraint, ...]
    queries: Mapping[str, Query] = field(default_factory=dict)
    description: str = ""


def _registry_workload(**params: Any) -> SessionSpec:
    from repro.workloads.generator import registry_workload

    try:
        workload = registry_workload(**params)
    except TypeError as err:
        raise ServiceError(f"bad registry workload params: {err}") from err
    return SessionSpec(
        cinstance=workload.cinstance,
        master=workload.master,
        constraints=tuple(workload.constraints),
        queries={
            "point": workload.point_query,
            "full": workload.full_query,
            "union": workload.union_query,
        },
        description=(
            f"registry workload (master_size={workload.master_size}, "
            f"variables={workload.variable_count})"
        ),
    )


def _wide_workload(**params: Any) -> SessionSpec:
    from repro.workloads.generator import wide_pool_workload

    params.setdefault("rows", 3)
    params.setdefault("values_per_key", 4)
    try:
        workload = wide_pool_workload(**params)
    except TypeError as err:
        raise ServiceError(f"bad wide workload params: {err}") from err
    return SessionSpec(
        cinstance=workload.cinstance,
        master=workload.master,
        constraints=tuple(workload.constraints),
        queries={},
        description=(
            f"wide-pool workload (rows={workload.rows}, "
            f"values_per_key={workload.values_per_key}) — many worlds, "
            "for streaming/counting"
        ),
    )


def _patients_workload(**params: Any) -> SessionSpec:
    from repro.workloads.patients import build_patient_scenario

    try:
        scenario = build_patient_scenario(**params)
    except TypeError as err:
        raise ServiceError(f"bad patients workload params: {err}") from err
    return SessionSpec(
        cinstance=scenario.figure1,
        master=scenario.master,
        constraints=tuple(scenario.constraints),
        queries={
            "q1": scenario.q1,
            "q2_present": scenario.q2_present,
            "q2_absent": scenario.q2_absent,
            "q3": scenario.q3,
            "q4": scenario.q4,
        },
        description="paper Figure 1 patient scenario",
    )


register_workload("registry", _registry_workload)
register_workload("wide", _wide_workload)
register_workload("patients", _patients_workload)
