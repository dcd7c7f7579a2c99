"""The consistency and extensibility problems (Proposition 3.3).

Two basic analyses underpin the relative-completeness machinery:

* the **consistency problem**: given ``(T, D_m, V)``, is ``Mod(T, D_m, V)``
  non-empty? (Is there any partially closed database represented by ``T``?)
* the **extensibility problem**: given a ground instance ``I`` and
  ``(D_m, V)``, is ``Ext(I, D_m, V)`` non-empty? (Can ``I`` be extended at
  all without violating ``V``?)

Both are Σᵖ₂-complete (Proposition 3.3).  The procedures below are the
paper's upper-bound algorithms: guess an Adom valuation (respectively a
single Adom tuple) and check the CCs.
"""

from __future__ import annotations

from typing import Sequence

from repro.completeness.extensions import (
    has_partially_closed_extension,
    single_tuple_extensions,
)
from repro.constraints.containment import (
    ContainmentConstraint,
    constraint_set_constants,
    constraint_set_variables,
    satisfies_all,
)
from repro.ctables.adom import ActiveDomain, build_active_domain
from repro.ctables.cinstance import CInstance
from repro.ctables.possible_worlds import default_active_domain, has_model, models
from repro.decision import Decision, DecisionRecorder
from repro.relational.instance import GroundInstance
from repro.relational.master import MasterData
from repro.search.registry import EngineConfig


def is_consistent(
    cinstance: CInstance,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain | None = None,
    engine: EngineConfig | str | None = None,
    *,
    witness: bool = False,
) -> Decision:
    """Whether ``Mod(T, D_m, V)`` is non-empty (the consistency problem).

    Following Proposition 3.3, only valuations over ``Adom`` are considered;
    this is without loss of generality.

    Returns a :class:`~repro.decision.Decision` (truthy iff consistent).
    With ``witness=True`` a positive decision carries a concrete world of
    ``Mod_Adom(T, D_m, V)`` in ``.witness``; the default existence-only
    check is cheaper because engines may apply fresh-value symmetry breaking
    and early cancellation, neither of which preserves the first world.
    """
    rec = DecisionRecorder("consistency", engine)
    with rec:
        if adom is None:
            adom = default_active_domain(cinstance, master, constraints)
        world: GroundInstance | None = None
        if witness:
            world = next(
                iter(
                    models(
                        cinstance, master, constraints, adom,
                        engine=engine,
                    )
                ),
                None,
            )
            holds = world is not None
        else:
            holds = has_model(
                cinstance, master, constraints, adom, engine=engine
            )
    return rec.decision(holds, witness=world)


def consistent_world(
    cinstance: CInstance,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain | None = None,
    engine: EngineConfig | str | None = None,
) -> GroundInstance | None:
    """A witness world in ``Mod_Adom(T, D_m, V)``, or ``None`` if inconsistent."""
    if adom is None:
        adom = default_active_domain(cinstance, master, constraints)
    for world in models(cinstance, master, constraints, adom, engine=engine):
        return world
    return None


def extensibility_active_domain(
    instance: GroundInstance,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
) -> ActiveDomain:
    """The ``Adom`` used by the extensibility check of Proposition 3.3."""
    return build_active_domain(
        cinstance=None,
        master=master,
        constraint_constants=constraint_set_constants(constraints),
        extra_constants=instance.constants(),
        extra_variables=constraint_set_variables(constraints),
        schema=instance.schema,
    )


def is_extensible(
    instance: GroundInstance,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain | None = None,
    limit: int | None = None,
    *,
    witness: bool = False,
    engine: EngineConfig | str | None = None,
) -> Decision:
    """Whether ``Ext(I, D_m, V)`` is non-empty (the extensibility problem).

    Because the CCs are defined by monotone CQ queries, an extension exists
    iff a *single* tuple with values from ``Adom`` can be added without
    violating ``V`` (the argument in the proof of Proposition 3.3).  The
    single-tuple search is engine-routed
    (:func:`~repro.completeness.extensions.single_tuple_extensions`), so
    ``engine`` selects the world-search engine exactly as for the
    consistency problem.

    Returns a :class:`~repro.decision.Decision`; with ``witness=True`` a
    positive decision carries a single-tuple partially closed extension of
    ``I`` in ``.witness``.
    """
    rec = DecisionRecorder("extensibility", engine)
    with rec:
        if adom is None:
            adom = extensibility_active_domain(instance, master, constraints)
        extended: GroundInstance | None = None
        if witness:
            extended = extension_witness(
                instance, master, constraints, adom, limit=limit,
                engine=engine,
            )
            holds = extended is not None
        else:
            holds = has_partially_closed_extension(
                instance, master, constraints, adom, limit=limit,
                engine=engine,
            )
    return rec.decision(holds, witness=extended)


def extension_witness(
    instance: GroundInstance,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain | None = None,
    limit: int | None = None,
    engine: EngineConfig | str | None = None,
) -> GroundInstance | None:
    """A single-tuple partially closed extension of ``I``, or ``None``."""
    if adom is None:
        adom = extensibility_active_domain(instance, master, constraints)
    for extended in single_tuple_extensions(
        instance, master, constraints, adom, limit=limit,
        engine=engine,
    ):
        return extended
    return None


# reprolint: disable=R004 -- world-level predicate over one ground instance,
# not a decider entry point; callers wrap it in Decision where needed.
def is_partially_closed_world(
    instance: GroundInstance,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
) -> bool:
    """Whether a ground instance is partially closed relative to ``(D_m, V)``."""
    return satisfies_all(instance, master, constraints)
