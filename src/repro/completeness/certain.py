"""Certain answers over possible worlds and over their partially closed extensions.

The weak completeness model (Section 5) is phrased in terms of two certain
answers:

* ``⋂_{I ∈ Mod(T)} Q(I)`` — the certain answer over the possible worlds of
  the c-instance, and
* ``⋂_{I ∈ Mod(T), I' ∈ Ext(I)} Q(I')`` — the certain answer over all
  partially closed extensions of all possible worlds.

For monotone queries (CQ, UCQ, ∃FO⁺, FP) the second intersection may be
computed over *single-tuple* extensions with values from ``Adom`` (Lemma 5.2
and the monotonicity/small-extension argument of Theorem 5.4); both
intersections are exact under that restriction.

Both intersections visit one world per renaming of the fresh Adom values
that nothing in the input mentions
(:func:`~repro.ctables.possible_worlds.representative_worlds`).  The
queries are generic, so a renaming ``π`` maps ``Q(I)`` to ``Q(π(I))`` and
the extensions of ``I`` to those of ``π(I)``: the intersection over a
world's class is the :func:`~repro.ctables.possible_worlds.renaming_closure`
of that world's answer, or of its extension contribution.  A native query
is not generic and intersects over every world.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro.constraints.containment import ContainmentConstraint
from repro.ctables.adom import ActiveDomain
from repro.ctables.cinstance import CInstance
from repro.ctables.possible_worlds import (
    default_active_domain,
    models,
    renaming_closure,
    representative_worlds,
)
from repro.exceptions import InconsistentCInstanceError, QueryError
from repro.queries.evaluation import Query, evaluate, is_monotone
from repro.queries.fo import NativeQuery
from repro.relational.instance import GroundInstance, Row
from repro.relational.master import MasterData
from repro.search.registry import EngineConfig

if TYPE_CHECKING:  # pragma: no cover - typing only (repro.completeness.extensions
    # imports back into this package through repro.reductions)
    from repro.completeness.extensions import SingleTupleExtensions


@dataclass(frozen=True)
class ExtensionCertainAnswer:
    """The certain answer over partially closed extensions.

    ``family_is_empty`` is ``True`` when no possible world has any partially
    closed extension; in that case the intersection ranges over an empty
    family and the weak-completeness definition falls back to its second
    disjunct ("or ``Ext(I) = ∅`` for all ``I ∈ Mod(T)``").
    """

    answers: frozenset[Row]
    family_is_empty: bool


def _worlds_per_class(
    cinstance: CInstance,
    query: Query,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain,
    engine: EngineConfig | str | None,
) -> tuple[Iterator[GroundInstance], Callable[[frozenset[Row]], frozenset[Row]]]:
    """The worlds to intersect over, and the map each one's answer goes
    through: one world per renaming class and the renaming closure, or
    every world, unchanged, for a native query."""
    if isinstance(query, NativeQuery):
        return models(cinstance, master, constraints, adom, engine=engine), _unchanged
    return (
        representative_worlds(cinstance, master, constraints, adom, query, engine=engine),
        renaming_closure(cinstance, master, constraints, adom, query),
    )


def _unchanged(answer: frozenset[Row]) -> frozenset[Row]:
    return answer


def certain_answer_over_models(
    cinstance: CInstance,
    query: Query,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain | None = None,
    engine: EngineConfig | str | None = None,
) -> frozenset[Row]:
    """``⋂_{I ∈ Mod_Adom(T, D_m, V)} Q(I)``.

    Raises
    ------
    InconsistentCInstanceError
        If ``Mod(T, D_m, V)`` is empty (the paper only considers partially
        closed c-instances, i.e. consistent ones).
    """
    if adom is None:
        adom = default_active_domain(cinstance, master, constraints, query)
    worlds, close = _worlds_per_class(cinstance, query, master, constraints, adom, engine)
    answer: frozenset[Row] | None = None
    for world in worlds:
        world_answer = close(evaluate(query, world))
        answer = world_answer if answer is None else answer & world_answer
        if not answer:
            # The intersection can only shrink; stop early once empty.
            break
    if answer is None:
        raise InconsistentCInstanceError(
            "Mod(T, Dm, V) is empty; the certain answer over models is undefined"
        )
    return answer


def _world_contribution(
    world: GroundInstance,
    query: Query,
    extensions: SingleTupleExtensions,
) -> frozenset[Row] | None:
    """``⋂_{I' ∈ Ext(I)} Q(I')`` for one possible world ``I`` (monotone ``Q``).

    ``None`` when ``I`` has no extension.  Monotonicity gives two exact
    short-circuits that avoid enumerating the full (exponential) set of
    single-tuple extensions:

    * every term of the intersection contains ``Q(I)``, so once the running
      intersection shrinks to ``Q(I)`` it cannot shrink further; and
    * if some valid extension leaves the answer unchanged ("unhelpful"
      extension), the intersection is exactly ``Q(I)``.

    ``extensions`` is the caller's fresh-first
    :class:`~repro.completeness.extensions.SingleTupleExtensions`: an
    all-fresh tuple is very often such an unhelpful valid extension, and
    the sweep shares the engine-routed (and engine-selectable) extension
    search instead of a private candidate scan.  The short-circuits make the
    result order-independent, so any engine yields the same contribution.
    """
    base = evaluate(query, world)
    contribution: frozenset[Row] | None = None
    for extended in extensions.over(world):
        extended_answer = evaluate(query, extended)
        if extended_answer == base:
            return base
        contribution = (
            extended_answer
            if contribution is None
            else contribution & extended_answer
        )
        if contribution == base:
            return base
    return contribution


def certain_answer_over_extensions(
    cinstance: CInstance,
    query: Query,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain | None = None,
    limit: int | None = None,
    engine: EngineConfig | str | None = None,
) -> ExtensionCertainAnswer:
    """``⋂_{I ∈ Mod(T), I' ∈ Ext(I)} Q(I')`` for monotone queries.

    By monotonicity (Lemma 5.2 / Theorem 5.4) the intersection over all
    partially closed extensions equals the intersection over *single-tuple*
    extensions with values from ``Adom``, which is what is enumerated here
    (with the per-world short-circuits of :func:`_world_contribution`).

    Raises
    ------
    QueryError
        If the query is not monotone (the single-tuple-extension argument
        does not apply; weak-model problems for FO are undecidable).
    InconsistentCInstanceError
        If ``Mod(T, D_m, V)`` is empty.
    """
    if not is_monotone(query):
        raise QueryError(
            "the certain answer over extensions is only computed for monotone "
            "queries (CQ, UCQ, ∃FO+, FP); weak-model analysis of FO is undecidable"
        )
    from repro.completeness.extensions import SingleTupleExtensions

    if adom is None:
        adom = default_active_domain(cinstance, master, constraints, query)
    extensions = SingleTupleExtensions(
        cinstance.schema, master, constraints, adom, limit=limit,
        engine=engine, fresh_first=True,
    )
    worlds, close = _worlds_per_class(cinstance, query, master, constraints, adom, engine)
    answer: frozenset[Row] | None = None
    saw_world = False
    for world in worlds:
        saw_world = True
        contribution = _world_contribution(world, query, extensions)
        if contribution is None:
            continue
        contribution = close(contribution)
        answer = contribution if answer is None else answer & contribution
        if not answer:
            return ExtensionCertainAnswer(frozenset(), family_is_empty=False)
    if not saw_world:
        raise InconsistentCInstanceError(
            "Mod(T, Dm, V) is empty; the certain answer over extensions is undefined"
        )
    if answer is None:
        return ExtensionCertainAnswer(frozenset(), family_is_empty=True)
    return ExtensionCertainAnswer(answer, family_is_empty=False)
