"""Strong relative completeness (Section 4).

A partially closed c-instance ``T`` is *strongly complete* for ``Q`` relative
to ``(D_m, V)`` iff every possible world ``I ∈ Mod(T)`` is a relatively
complete ground instance — no matter how the missing values are filled in,
adding tuples cannot change the query answer.

Deciders:

* :func:`is_strongly_complete` — exact for CQ, UCQ and ∃FO⁺ (Πᵖ₂-complete,
  Theorem 4.1), via the characterisation of Lemma 4.2/4.3: check every world
  in ``Mod_Adom(T)`` with the ground-instance completeness test.
* :func:`is_strongly_complete_bounded` — sound-but-incomplete variant for FO
  and FP, for which the problem is undecidable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.completeness.ground import (
    GroundCompletenessCheck,
    IncompletenessWitness,
    is_ground_complete_bounded,
)
from repro.completeness.models import CompletenessModel
from repro.constraints.containment import ContainmentConstraint
from repro.ctables.adom import ActiveDomain
from repro.ctables.cinstance import CInstance
from repro.ctables.possible_worlds import default_active_domain, models
from repro.decision import Decision, DecisionRecorder
from repro.exceptions import InconsistentCInstanceError
from repro.queries.evaluation import Query
from repro.relational.instance import GroundInstance
from repro.relational.master import MasterData
from repro.search.registry import EngineConfig


@dataclass(frozen=True)
class StrongIncompletenessWitness:
    """A counterexample to strong completeness.

    ``world`` is a possible world of the c-instance that is not relatively
    complete; ``ground_witness`` records the extension changing the answer.
    """

    world: GroundInstance
    ground_witness: IncompletenessWitness


def find_strong_incompleteness_witness(
    cinstance: CInstance,
    query: Query,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain | None = None,
    limit: int | None = None,
    require_consistent: bool = True,
    engine: EngineConfig | str | None = None,
) -> StrongIncompletenessWitness | None:
    """Search for a world of ``T`` that is not relatively complete for ``Q``.

    Returns ``None`` when ``T`` is strongly complete.  Exact for the positive
    languages (CQ, UCQ, ∃FO⁺).

    Raises
    ------
    InconsistentCInstanceError
        If ``Mod(T, D_m, V)`` is empty and ``require_consistent`` is set (the
        paper restricts attention to consistent c-instances; with
        ``require_consistent=False`` an inconsistent c-instance is vacuously
        strongly complete).
    """
    if adom is None:
        adom = default_active_domain(cinstance, master, constraints, query)
    check = GroundCompletenessCheck(
        query, cinstance.schema, master, constraints, adom,
        limit=limit, engine=engine,
    )
    saw_world = False
    for world in models(cinstance, master, constraints, adom, engine=engine):
        saw_world = True
        witness = check.witness(world)
        if witness is not None:
            return StrongIncompletenessWitness(world=world, ground_witness=witness)
    if not saw_world and require_consistent:
        raise InconsistentCInstanceError(
            "Mod(T, Dm, V) is empty; strong completeness is only defined for "
            "partially closed (consistent) c-instances"
        )
    return None


def is_strongly_complete(
    cinstance: CInstance,
    query: Query,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain | None = None,
    limit: int | None = None,
    require_consistent: bool = True,
    engine: EngineConfig | str | None = None,
) -> Decision:
    """Whether ``T`` is strongly complete for ``Q`` relative to ``(D_m, V)``.

    Exact for CQ, UCQ and ∃FO⁺ (RCDPˢ, Theorem 4.1).  Returns a
    :class:`~repro.decision.Decision` whose ``.witness`` carries the
    :class:`StrongIncompletenessWitness` counterexample (an incomplete world
    plus the answer-changing extension) when the verdict is negative.
    """
    rec = DecisionRecorder("rcdp", engine, model=CompletenessModel.STRONG)
    with rec:
        witness = find_strong_incompleteness_witness(
            cinstance,
            query,
            master,
            constraints,
            adom=adom,
            limit=limit,
            require_consistent=require_consistent,
            engine=engine,
        )
    return rec.decision(witness is None, witness=witness)


def is_strongly_complete_bounded(
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
    """Bounded strong-completeness check for arbitrary query languages.

    RCDPˢ is undecidable for FO and FP (Theorem 4.1); this check explores,
    for every world in ``Mod_Adom(T)``, extensions by at most
    ``max_new_tuples`` Adom tuples.  Negative decisions are definitive (the
    witness is the counterexample); positive decisions are only "no
    counterexample within the bound" and are marked ``exact=False``.

    As with the exact decider, an empty ``Mod(T, D_m, V)`` raises unless
    ``require_consistent=False`` is passed, in which case the inconsistent
    c-instance is vacuously strongly complete.
    """
    rec = DecisionRecorder(
        "rcdp", engine, model=CompletenessModel.STRONG, exact=False
    )
    with rec:
        if adom is None:
            adom = default_active_domain(cinstance, master, constraints, query)
        saw_world = False
        witness: StrongIncompletenessWitness | None = None
        for world in models(
            cinstance, master, constraints, adom, engine=engine
        ):
            saw_world = True
            ground = is_ground_complete_bounded(
                world,
                query,
                master,
                constraints,
                max_new_tuples=max_new_tuples,
                adom=adom,
                limit=limit,
                engine=engine,
            )
            if not ground:
                witness = StrongIncompletenessWitness(
                    world=world, ground_witness=ground.witness
                )
                break
        if not saw_world and require_consistent:
            raise InconsistentCInstanceError(
                "Mod(T, Dm, V) is empty; strong completeness is only defined for "
                "partially closed (consistent) c-instances"
            )
    # A found counterexample is definitive; only the positive "no
    # counterexample within the bound" verdict is heuristic.
    rec.exact = witness is not None
    return rec.decision(witness is None, witness=witness)
