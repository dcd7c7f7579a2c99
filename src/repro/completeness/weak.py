"""Weak relative completeness (Section 5).

A partially closed c-instance ``T`` is *weakly complete* for ``Q`` relative
to ``(D_m, V)`` iff

    ``⋂_{I ∈ Mod(T)} Q(I)  =  ⋂_{I ∈ Mod(T), I' ∈ Ext(I)} Q(I')``

or ``Ext(I) = ∅`` for every ``I ∈ Mod(T)``.  Intuitively the certain answer
over all partially closed extensions can already be found in ``T``.

Deciders:

* :func:`is_weakly_complete` — exact for the monotone languages CQ, UCQ,
  ∃FO⁺ (Πᵖ₃-complete, Theorem 5.1) and FP (coNEXPTIME-complete), using the
  Adom restriction of Lemma 5.2 and the single-tuple-extension argument.
* :func:`is_weakly_complete_bounded` — bounded variant for FO / native
  queries (RCDPʷ is undecidable for FO).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.completeness.certain import (
    ExtensionCertainAnswer,
    certain_answer_over_extensions,
    certain_answer_over_models,
)
from repro.completeness.extensions import bounded_extensions
from repro.completeness.models import CompletenessModel
from repro.constraints.containment import ContainmentConstraint
from repro.ctables.adom import ActiveDomain
from repro.ctables.cinstance import CInstance
from repro.ctables.possible_worlds import default_active_domain, models
from repro.decision import Decision, DecisionRecorder
from repro.exceptions import InconsistentCInstanceError, QueryError
from repro.queries.evaluation import Query, evaluate, is_monotone
from repro.relational.instance import Row
from repro.relational.master import MasterData
from repro.search.registry import EngineConfig


@dataclass(frozen=True)
class WeakCompletenessReport:
    """Both sides of the weak-completeness equation, for inspection.

    The payload carried in ``Decision.details`` by the weak-model
    deciders.
    """

    certain_over_models: frozenset[Row]
    certain_over_extensions: frozenset[Row]
    no_world_has_extensions: bool
    is_weakly_complete: bool


def weak_completeness_report(
    cinstance: CInstance,
    query: Query,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain | None = None,
    limit: int | None = None,
    require_consistent: bool = True,
    engine: EngineConfig | str | None = None,
) -> Decision:
    """Compute both certain answers and the weak-completeness verdict.

    Exact for monotone queries (CQ, UCQ, ∃FO⁺, FP).  An empty
    ``Mod(T, D_m, V)`` raises :class:`InconsistentCInstanceError` unless
    ``require_consistent=False`` is passed, in which case the c-instance is
    reported as vacuously weakly complete (both intersections range over an
    empty family of worlds).

    Returns a :class:`~repro.decision.Decision` whose ``.details`` is the
    full :class:`WeakCompletenessReport` (both certain answers plus the
    empty-extension-family flag).
    """
    rec = DecisionRecorder("rcdp", engine, model=CompletenessModel.WEAK)
    with rec:
        if not is_monotone(query):
            raise QueryError(
                "exact weak-completeness analysis requires a monotone query "
                "(CQ/UCQ/∃FO+/FP); use is_weakly_complete_bounded for FO"
            )
        if adom is None:
            adom = default_active_domain(cinstance, master, constraints, query)
        report: WeakCompletenessReport
        try:
            over_models = certain_answer_over_models(
                cinstance, query, master, constraints, adom=adom,
                engine=engine,
            )
        except InconsistentCInstanceError:
            if require_consistent:
                raise
            report = WeakCompletenessReport(
                certain_over_models=frozenset(),
                certain_over_extensions=frozenset(),
                no_world_has_extensions=True,
                is_weakly_complete=True,
            )
        else:
            over_extensions: ExtensionCertainAnswer = certain_answer_over_extensions(
                cinstance, query, master, constraints, adom=adom, limit=limit,
                engine=engine,
            )
            if over_extensions.family_is_empty:
                verdict = True
            else:
                verdict = over_models == over_extensions.answers
            report = WeakCompletenessReport(
                certain_over_models=over_models,
                certain_over_extensions=over_extensions.answers,
                no_world_has_extensions=over_extensions.family_is_empty,
                is_weakly_complete=verdict,
            )
    return rec.decision(report.is_weakly_complete, details=report)


def is_weakly_complete(
    cinstance: CInstance,
    query: Query,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain | None = None,
    limit: int | None = None,
    require_consistent: bool = True,
    engine: EngineConfig | str | None = None,
) -> Decision:
    """Whether ``T`` is weakly complete for ``Q`` relative to ``(D_m, V)``.

    Exact for CQ, UCQ, ∃FO⁺ and FP (RCDPʷ, Theorem 5.1).  The returned
    :class:`~repro.decision.Decision` carries the full
    :class:`WeakCompletenessReport` in ``.details``.
    """
    return weak_completeness_report(
        cinstance,
        query,
        master,
        constraints,
        adom=adom,
        limit=limit,
        require_consistent=require_consistent,
        engine=engine,
    )


def is_weakly_complete_bounded(
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
    """Bounded weak-completeness check usable for any query language.

    The certain answer over extensions is approximated by extensions adding
    at most ``max_new_tuples`` Adom tuples.  For non-monotone queries this
    intersection may be *larger* than the true certain answer, so the verdict
    is a heuristic in both directions (the decision is marked
    ``exact=False``); the exact problem is undecidable for FO (Theorem 5.1).
    An empty ``Mod(T, D_m, V)`` raises unless ``require_consistent=False`` is
    passed (vacuously weakly complete, as in
    :func:`weak_completeness_report`).
    """
    rec = DecisionRecorder(
        "rcdp", engine, model=CompletenessModel.WEAK, exact=False
    )
    with rec:
        if adom is None:
            adom = default_active_domain(cinstance, master, constraints, query)
        over_models: frozenset[Row] | None = None
        over_extensions: frozenset[Row] | None = None
        any_extension = False
        saw_world = False
        for world in models(
            cinstance, master, constraints, adom, engine=engine
        ):
            saw_world = True
            world_answer = evaluate(query, world)
            over_models = (
                world_answer if over_models is None else over_models & world_answer
            )
            for extended in bounded_extensions(
                world, master, constraints, adom,
                max_new_tuples=max_new_tuples, limit=limit,
                engine=engine,
            ):
                any_extension = True
                extended_answer = evaluate(query, extended)
                over_extensions = (
                    extended_answer
                    if over_extensions is None
                    else over_extensions & extended_answer
                )
        if not saw_world:
            if require_consistent:
                raise InconsistentCInstanceError(
                    "Mod(T, Dm, V) is empty; weak completeness is only defined "
                    "for partially closed (consistent) c-instances"
                )
            holds = True
        elif not any_extension:
            holds = True
        else:
            holds = over_models == over_extensions
        details = WeakCompletenessReport(
            certain_over_models=over_models or frozenset(),
            certain_over_extensions=over_extensions or frozenset(),
            # Vacuously true when there are no worlds at all, matching the
            # exact path's report for the inconsistent-but-tolerated case.
            no_world_has_extensions=not any_extension,
            is_weakly_complete=holds,
        )
    return rec.decision(holds, details=details)
