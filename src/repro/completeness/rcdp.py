"""RCDP — the relatively complete database problem (unified front-end).

``RCDP(L_Q)``: given a query ``Q`` in ``L_Q``, master data ``D_m``, a set
``V`` of CCs and a partially closed c-instance ``T``, is ``T`` complete for
``Q`` relative to ``(D_m, V)``?  (Section 2.3.)

The problem is parameterised by the completeness model (strong / weak /
viable); this module dispatches to the per-model deciders and deals with the
ground-instance special case (a ground instance is a c-instance without
variables, for which the strong and viable models coincide with the ground
notion of Section 2.1).

Decidability matrix implemented here (Table I):

====================  =========  ========  ==========
language              strong     weak      viable
====================  =========  ========  ==========
CQ / UCQ / ∃FO⁺       exact      exact     exact
FP                    bounded    exact     bounded
FO / native           bounded    bounded   bounded
====================  =========  ========  ==========

"exact" deciders refuse to run on languages outside their scope unless
``allow_bounded=True`` is passed, in which case the bounded variant is used
and the caller accepts heuristic answers for the undecidable cells.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.completeness.models import CompletenessModel
from repro.completeness.strong import is_strongly_complete, is_strongly_complete_bounded
from repro.completeness.viable import is_viably_complete, is_viably_complete_bounded
from repro.completeness.weak import is_weakly_complete, is_weakly_complete_bounded
from repro.constraints.containment import ContainmentConstraint
from repro.ctables.adom import ActiveDomain
from repro.ctables.cinstance import CInstance
from repro.decision import Decision
from repro.exceptions import QueryError
from repro.queries.classify import (
    classify,
    supports_exact_strong_check,
    supports_exact_weak_check,
)
from repro.queries.evaluation import Query
from repro.relational.instance import GroundInstance
from repro.relational.master import MasterData
from repro.search.registry import EngineConfig


def as_cinstance(database: CInstance | GroundInstance) -> CInstance:
    """Coerce a ground instance into the c-instance it trivially is."""
    if isinstance(database, GroundInstance):
        return CInstance.from_ground_instance(database)
    return database


def is_relatively_complete(
    database: CInstance | GroundInstance,
    query: Query,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    model: CompletenessModel = CompletenessModel.STRONG,
    allow_bounded: bool = False,
    max_new_tuples: int = 1,
    adom: ActiveDomain | None = None,
    limit: int | None = None,
    require_consistent: bool = True,
    engine: EngineConfig | str | None = None,
) -> Decision:
    """Decide RCDP for the given completeness model.

    Returns the per-model decider's :class:`~repro.decision.Decision`
    (truthy iff complete): the strong model attaches a
    :class:`~repro.completeness.strong.StrongIncompletenessWitness`
    counterexample to negative verdicts, the viable model attaches the
    relatively complete witness world to positive ones, and the weak model
    attaches its :class:`~repro.completeness.weak.WeakCompletenessReport`
    as ``.details``.

    Parameters
    ----------
    database:
        A c-instance or a ground instance (coerced to a variable-free
        c-instance).
    model:
        The completeness model — strong, weak or viable.
    allow_bounded:
        The exact deciders only cover the decidable cells of Table I.  With
        ``allow_bounded=True`` the undecidable cells (FO everywhere, FP in
        the strong/viable models) fall back to the bounded checks, whose
        positive answers are heuristic.
    max_new_tuples:
        Extension budget for the bounded checks.
    require_consistent:
        With the default ``True``, an empty ``Mod(T, D_m, V)`` raises
        :class:`~repro.exceptions.InconsistentCInstanceError`; with ``False``
        the vacuous verdict of the selected model is returned instead.
    engine:
        World-search engine selection (see
        :mod:`repro.ctables.possible_worlds`).
    """
    cinstance = as_cinstance(database)
    if model is CompletenessModel.STRONG:
        if supports_exact_strong_check(query):
            return is_strongly_complete(
                cinstance,
                query,
                master,
                constraints,
                adom=adom,
                limit=limit,
                require_consistent=require_consistent,
                engine=engine,
            )
        if allow_bounded:
            return is_strongly_complete_bounded(
                cinstance,
                query,
                master,
                constraints,
                max_new_tuples=max_new_tuples,
                adom=adom,
                limit=limit,
                require_consistent=require_consistent,
                engine=engine,
            )
        raise QueryError(
            f"RCDP^s is undecidable for {classify(query).value} (Theorem 4.1); "
            "pass allow_bounded=True for the heuristic check"
        )
    if model is CompletenessModel.WEAK:
        if supports_exact_weak_check(query):
            return is_weakly_complete(
                cinstance,
                query,
                master,
                constraints,
                adom=adom,
                limit=limit,
                require_consistent=require_consistent,
                engine=engine,
            )
        if allow_bounded:
            return is_weakly_complete_bounded(
                cinstance,
                query,
                master,
                constraints,
                max_new_tuples=max_new_tuples,
                adom=adom,
                limit=limit,
                require_consistent=require_consistent,
                engine=engine,
            )
        raise QueryError(
            f"RCDP^w is undecidable for {classify(query).value} (Theorem 5.1); "
            "pass allow_bounded=True for the heuristic check"
        )
    if model is CompletenessModel.VIABLE:
        if supports_exact_strong_check(query):
            return is_viably_complete(
                cinstance,
                query,
                master,
                constraints,
                adom=adom,
                limit=limit,
                require_consistent=require_consistent,
                engine=engine,
            )
        if allow_bounded:
            return is_viably_complete_bounded(
                cinstance,
                query,
                master,
                constraints,
                max_new_tuples=max_new_tuples,
                adom=adom,
                limit=limit,
                require_consistent=require_consistent,
                engine=engine,
            )
        raise QueryError(
            f"RCDP^v is undecidable for {classify(query).value} (Theorem 6.1); "
            "pass allow_bounded=True for the heuristic check"
        )
    raise QueryError(f"unknown completeness model {model!r}")


def rcdp(
    database: CInstance | GroundInstance,
    query: Query,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    model: CompletenessModel = CompletenessModel.STRONG,
    **kwargs: Any,
) -> Decision:
    """Alias of :func:`is_relatively_complete` using the paper's problem name."""
    return is_relatively_complete(database, query, master, constraints, model, **kwargs)
