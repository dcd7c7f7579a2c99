"""Viable relative completeness (Section 6).

A partially closed c-instance ``T`` is *viably complete* for ``Q`` relative
to ``(D_m, V)`` iff there exists a possible world ``I ∈ Mod(T)`` that is a
relatively complete ground instance — the missing values *can* be filled in
so that the database has complete information for ``Q``.

Deciders:

* :func:`is_viably_complete` — exact for CQ, UCQ and ∃FO⁺ (Σᵖ₃-complete,
  Theorem 6.1): search ``Mod_Adom(T)`` for a world passing the ground
  completeness test.
* :func:`is_viably_complete_bounded` — bounded variant for FO and FP (the
  exact problems are undecidable).  Note the asymmetry with the other
  models: because viability is an *existential* statement, the bounded check
  can only confirm that a world has no counterexample *within the bound*; a
  ``True`` answer is therefore heuristic while a ``False`` answer ("no world
  survives even the bounded test") is also not conclusive.  The result is
  best interpreted as "a candidate world was / was not found".
"""

from __future__ import annotations

from typing import Sequence

from repro.completeness.ground import GroundCompletenessCheck, is_ground_complete_bounded
from repro.completeness.models import CompletenessModel
from repro.constraints.containment import ContainmentConstraint
from repro.ctables.adom import ActiveDomain
from repro.ctables.cinstance import CInstance
from repro.ctables.possible_worlds import default_active_domain, models, representative_worlds
from repro.decision import Decision, DecisionRecorder
from repro.exceptions import InconsistentCInstanceError
from repro.queries.evaluation import Query
from repro.relational.instance import GroundInstance
from repro.relational.master import MasterData
from repro.search.registry import EngineConfig


def find_viable_witness(
    cinstance: CInstance,
    query: Query,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain | None = None,
    limit: int | None = None,
    require_consistent: bool = True,
    engine: EngineConfig | str | None = None,
) -> GroundInstance | None:
    """A possible world of ``T`` that is relatively complete for ``Q``, if any.

    Exact for the positive languages (CQ, UCQ, ∃FO⁺).  An empty
    ``Mod(T, D_m, V)`` raises unless ``require_consistent=False`` is passed
    (no world exists, so no witness exists either).
    """
    if adom is None:
        adom = default_active_domain(cinstance, master, constraints, query)
    check = GroundCompletenessCheck(
        query, cinstance.schema, master, constraints, adom,
        limit=limit, engine=engine,
    )
    saw_world = False
    for world in representative_worlds(cinstance, master, constraints, adom, query, engine=engine):
        saw_world = True
        if check.witness(world) is None:
            return world
    if not saw_world and require_consistent:
        raise InconsistentCInstanceError(
            "Mod(T, Dm, V) is empty; viable completeness is only defined for "
            "partially closed (consistent) c-instances"
        )
    return None


def is_viably_complete(
    cinstance: CInstance,
    query: Query,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain | None = None,
    limit: int | None = None,
    require_consistent: bool = True,
    engine: EngineConfig | str | None = None,
) -> Decision:
    """Whether ``T`` is viably complete for ``Q`` relative to ``(D_m, V)``.

    Exact for CQ, UCQ and ∃FO⁺ (RCDPᵛ, Theorem 6.1).  A positive
    :class:`~repro.decision.Decision` carries the relatively complete world
    in ``.witness``.
    """
    rec = DecisionRecorder("rcdp", engine, model=CompletenessModel.VIABLE)
    with rec:
        witness = find_viable_witness(
            cinstance,
            query,
            master,
            constraints,
            adom=adom,
            limit=limit,
            require_consistent=require_consistent,
            engine=engine,
        )
    return rec.decision(witness is not None, witness=witness)


def is_viably_complete_bounded(
    cinstance: CInstance,
    query: Query,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    max_new_tuples: int = 1,
    adom: ActiveDomain | None = None,
    limit: int | None = None,
    require_consistent: bool = True,
    engine: EngineConfig | str | None = None,
) -> Decision:
    """Bounded viable-completeness check for arbitrary query languages.

    Searches ``Mod_Adom(T)`` for a world with no answer-changing extension of
    at most ``max_new_tuples`` Adom tuples.  See the module docstring for how
    to interpret the verdict (the decision is marked ``exact=False``); a
    positive decision carries the candidate world in ``.witness``.  An empty
    ``Mod(T, D_m, V)`` raises unless ``require_consistent=False`` is passed
    (no world exists, hence no candidate world either).
    """
    rec = DecisionRecorder(
        "rcdp", engine, model=CompletenessModel.VIABLE, exact=False
    )
    with rec:
        if adom is None:
            adom = default_active_domain(cinstance, master, constraints, query)
        saw_world = False
        witness: GroundInstance | None = None
        for world in models(
            cinstance, master, constraints, adom, engine=engine
        ):
            saw_world = True
            if is_ground_complete_bounded(
                world,
                query,
                master,
                constraints,
                max_new_tuples=max_new_tuples,
                adom=adom,
                limit=limit,
                engine=engine,
            ):
                witness = world
                break
        if not saw_world and require_consistent:
            raise InconsistentCInstanceError(
                "Mod(T, Dm, V) is empty; viable completeness is only defined for "
                "partially closed (consistent) c-instances"
            )
    return rec.decision(witness is not None, witness=witness)
