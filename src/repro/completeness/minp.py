"""MINP — the minimality problem.

``MINP(L_Q)``: given ``Q``, ``D_m``, ``V`` and a partially closed
c-instance ``T``, is ``T`` a *minimal* database complete for ``Q`` relative
to ``(D_m, V)``?  (Section 2.3.)

The notion of minimality depends on the model (Section 2.2):

* **ground instances** — ``I`` is minimal iff it is complete and no proper
  subinstance is complete; by Lemma 4.7 it suffices to drop one tuple at a
  time.
* **strong model** — ``T`` is a minimal strongly complete c-instance iff
  *every* world of ``Mod(T)`` is a minimal complete ground instance.
* **viable model** — iff *some* world of ``Mod(T)`` is a minimal complete
  ground instance.
* **weak model** — iff ``T`` is weakly complete and no strict sub-c-instance
  ``T' ⊊ T`` is weakly complete.  Lemma 4.7 fails here (Example 5.5):
  single-row removals are not enough, so all subsets of rows are examined.
  For CQ the drastic simplification of Lemma 5.7 applies and is exposed as
  :func:`is_minimal_weakly_complete_cq`.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.completeness.ground import (
    GroundCompletenessCheck,
    IncompletenessWitness,
    find_ground_incompleteness_witness,
)
from repro.completeness.models import CompletenessModel
from repro.completeness.weak import is_weakly_complete
from repro.constraints.containment import ContainmentConstraint
from repro.ctables.adom import ActiveDomain
from repro.ctables.cinstance import CInstance
from repro.ctables.possible_worlds import default_active_domain, has_model, representative_worlds
from repro.decision import Decision, DecisionRecorder
from repro.exceptions import InconsistentCInstanceError, QueryError
from repro.queries.classify import QueryLanguage, classify, supports_exact_strong_check
from repro.queries.evaluation import Query
from repro.relational.instance import GroundInstance
from repro.relational.master import MasterData
from repro.search.registry import EngineConfig


# ---------------------------------------------------------------------------
# ground instances (strong/viable notion, Lemma 4.7)
# ---------------------------------------------------------------------------
def _minimality(
    instance: GroundInstance,
    witness_of: Callable[[GroundInstance], IncompletenessWitness | None],
) -> tuple[bool, object]:
    """Lemma 4.7 with ``witness_of`` as the completeness test.

    Returns the verdict and the refuting evidence: the incompleteness
    witness of ``instance`` itself, or the smaller complete subinstance.
    """
    witness = witness_of(instance)
    if witness is not None:
        return False, witness
    for smaller in instance.proper_subinstances():
        if witness_of(smaller) is None:
            return False, smaller
    return True, None


def is_minimal_ground_complete(
    instance: GroundInstance,
    query: Query,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain | None = None,
    limit: int | None = None,
    engine: EngineConfig | str | None = None,
) -> Decision:
    """Whether ``I`` is a minimal ground instance complete for ``Q``.

    By Lemma 4.7, ``I`` is minimal iff it is complete and for every tuple
    ``t ∈ I`` the instance ``I \\ {t}`` is not complete.  (Every subinstance
    of a partially closed instance is partially closed, Lemma 4.7(a).)

    A negative :class:`~repro.decision.Decision` carries the refuting
    evidence in ``.witness``: the incompleteness witness of ``I`` itself, or
    the smaller complete subinstance.
    """
    rec = DecisionRecorder("minp", engine)
    with rec:
        if adom is not None:
            witness_of = GroundCompletenessCheck(
                query, instance.schema, master, constraints, adom,
                limit=limit, engine=engine,
            ).witness
        else:
            # Without an Adom each instance is tested over its own.
            def witness_of(candidate: GroundInstance) -> IncompletenessWitness | None:
                return find_ground_incompleteness_witness(
                    candidate, query, master, constraints, limit=limit,
                    engine=engine,
                )

        holds, return_witness = _minimality(instance, witness_of)
    return rec.decision(holds, witness=return_witness)


# ---------------------------------------------------------------------------
# strong and viable models for c-instances
# ---------------------------------------------------------------------------
def is_minimal_strongly_complete(
    cinstance: CInstance,
    query: Query,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain | None = None,
    limit: int | None = None,
    engine: EngineConfig | str | None = None,
) -> Decision:
    """MINPˢ: every world of ``Mod_Adom(T)`` is a minimal complete instance.

    Exact for CQ, UCQ and ∃FO⁺ (Πᵖ₃-complete for c-instances, Theorem 4.8).
    A negative :class:`~repro.decision.Decision` carries the offending world
    in ``.witness``.
    """
    rec = DecisionRecorder("minp", engine, model=CompletenessModel.STRONG)
    with rec:
        if not supports_exact_strong_check(query):
            raise QueryError(
                f"MINP^s is undecidable for {classify(query).value} (Theorem 4.8)"
            )
        if adom is None:
            adom = default_active_domain(cinstance, master, constraints, query)
        check = GroundCompletenessCheck(
            query, cinstance.schema, master, constraints, adom,
            limit=limit, engine=engine,
        )
        saw_world = False
        witness: GroundInstance | None = None
        for world in representative_worlds(
            cinstance, master, constraints, adom, query, engine=engine
        ):
            saw_world = True
            if not _minimality(world, check.witness)[0]:
                witness = world
                break
        if not saw_world:
            raise InconsistentCInstanceError(
                "Mod(T, Dm, V) is empty; minimality is only defined for partially "
                "closed (consistent) c-instances"
            )
    return rec.decision(witness is None, witness=witness)


def is_minimal_viably_complete(
    cinstance: CInstance,
    query: Query,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain | None = None,
    limit: int | None = None,
    engine: EngineConfig | str | None = None,
) -> Decision:
    """MINPᵛ: some world of ``Mod_Adom(T)`` is a minimal complete instance.

    Exact for CQ, UCQ and ∃FO⁺ (Σᵖ₃-complete for c-instances, Corollary 6.3).
    A positive :class:`~repro.decision.Decision` carries the minimal complete
    world in ``.witness``.
    """
    rec = DecisionRecorder("minp", engine, model=CompletenessModel.VIABLE)
    with rec:
        if not supports_exact_strong_check(query):
            raise QueryError(
                f"MINP^v is undecidable for {classify(query).value} (Corollary 6.3)"
            )
        if adom is None:
            adom = default_active_domain(cinstance, master, constraints, query)
        check = GroundCompletenessCheck(
            query, cinstance.schema, master, constraints, adom,
            limit=limit, engine=engine,
        )
        saw_world = False
        witness: GroundInstance | None = None
        for world in representative_worlds(
            cinstance, master, constraints, adom, query, engine=engine
        ):
            saw_world = True
            if _minimality(world, check.witness)[0]:
                witness = world
                break
        if not saw_world:
            raise InconsistentCInstanceError(
                "Mod(T, Dm, V) is empty; minimality is only defined for partially "
                "closed (consistent) c-instances"
            )
    return rec.decision(witness is not None, witness=witness)


# ---------------------------------------------------------------------------
# weak model
# ---------------------------------------------------------------------------
def is_minimal_weakly_complete(
    cinstance: CInstance,
    query: Query,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain | None = None,
    limit: int | None = None,
    engine: EngineConfig | str | None = None,
) -> Decision:
    """MINPʷ: ``T`` is weakly complete and no strict sub-c-instance is.

    Exact for the monotone languages (CQ, UCQ, ∃FO⁺, FP); the enumeration of
    sub-c-instances is exponential in ``|T|``, matching the Πᵖ₄ / coNEXPTIME
    upper bounds of Theorem 5.6.  Note that Lemma 4.7 does *not* apply in the
    weak model (Example 5.5), hence all subsets of rows are inspected.  A
    negative :class:`~repro.decision.Decision` carries the refuting evidence
    in ``.witness``: ``None`` when ``T`` itself is not weakly complete, else
    the smaller weakly complete sub-c-instance.
    """
    rec = DecisionRecorder("minp", engine, model=CompletenessModel.WEAK)
    with rec:
        if not is_weakly_complete(
            cinstance, query, master, constraints, adom=adom, limit=limit,
            engine=engine,
        ):
            holds = False
            witness: CInstance | None = None
        else:
            holds = True
            witness = None
            for smaller in cinstance.strict_subinstances():
                if is_weakly_complete(
                    smaller, query, master, constraints, limit=limit,
                    engine=engine,
                ):
                    holds = False
                    witness = smaller
                    break
    return rec.decision(holds, witness=witness)


def is_minimal_weakly_complete_cq(
    cinstance: CInstance,
    query: Query,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    limit: int | None = None,
    engine: EngineConfig | str | None = None,
) -> Decision:
    """MINPʷ for CQ via the characterisation of Lemma 5.7 (coDP upper bound).

    ``T`` is a minimal weakly complete instance iff either the empty
    c-instance is weakly complete and ``T`` is empty, or the empty c-instance
    is not weakly complete, ``|T| = 1`` and ``Mod(T, D_m, V) ≠ ∅``.
    """
    rec = DecisionRecorder("minp", engine, model=CompletenessModel.WEAK)
    with rec:
        if classify(query) is not QueryLanguage.CQ:
            raise QueryError("the Lemma 5.7 characterisation applies to CQ only")
        empty = CInstance(cinstance.schema)
        empty_is_weakly_complete = is_weakly_complete(
            empty, query, master, constraints, limit=limit,
            engine=engine,
        )
        if empty_is_weakly_complete:
            holds = cinstance.is_empty()
        elif cinstance.size != 1:
            holds = False
        else:
            holds = has_model(
                cinstance, master, constraints, engine=engine
            )
    return rec.decision(holds)


# ---------------------------------------------------------------------------
# unified front-end
# ---------------------------------------------------------------------------
def is_minimal_complete(
    database: CInstance | GroundInstance,
    query: Query,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    model: CompletenessModel = CompletenessModel.STRONG,
    adom: ActiveDomain | None = None,
    limit: int | None = None,
    engine: EngineConfig | str | None = None,
) -> Decision:
    """Decide MINP for the given completeness model (exact cells only)."""
    if isinstance(database, GroundInstance):
        cinstance = CInstance.from_ground_instance(database)
    else:
        cinstance = database
    if model is CompletenessModel.STRONG:
        return is_minimal_strongly_complete(
            cinstance, query, master, constraints, adom=adom, limit=limit, engine=engine
        )
    if model is CompletenessModel.WEAK:
        return is_minimal_weakly_complete(
            cinstance, query, master, constraints, adom=adom, limit=limit, engine=engine
        )
    if model is CompletenessModel.VIABLE:
        return is_minimal_viably_complete(
            cinstance, query, master, constraints, adom=adom, limit=limit, engine=engine
        )
    raise QueryError(f"unknown completeness model {model!r}")


def minp(
    database: CInstance | GroundInstance,
    query: Query,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    model: CompletenessModel = CompletenessModel.STRONG,
    **kwargs: Any,
) -> Decision:
    """Alias of :func:`is_minimal_complete` using the paper's problem name."""
    return is_minimal_complete(database, query, master, constraints, model, **kwargs)
