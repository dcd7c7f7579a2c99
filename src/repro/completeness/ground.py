"""Relative completeness of ground instances.

This module implements the notion the paper inherits from Fan & Geerts
[2009, 2010b] (Section 2.1): a partially closed ground instance ``I`` is
*complete for a query Q relative to (D_m, V)* iff ``Q(I) = Q(I')`` for every
partially closed extension ``I'`` of ``I``.

For the positive languages (CQ, UCQ, ∃FO⁺) the problem is decidable (Πᵖ₂ by
Theorem 4.1); the decision procedure is the characterisation of Lemma 4.2 /
4.3: ``I`` is complete iff adding any Adom-valuation of any disjunct's query
tableau either violates ``V`` or leaves the query answer unchanged.

For FO and FP the problem is undecidable; :func:`is_ground_complete_bounded`
offers the sound-but-incomplete check that explores extensions by at most
``max_new_tuples`` Adom tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.completeness.extensions import TableauExtensions, bounded_extensions
from repro.constraints.containment import (
    ContainmentConstraint,
    constraint_set_constants,
    constraint_set_variables,
    satisfies_all,
)
from repro.ctables.adom import ActiveDomain, build_active_domain
from repro.decision import Decision, DecisionRecorder
from repro.exceptions import CompletenessError, QueryError
from repro.queries.classify import as_union_of_cqs, classify, supports_exact_strong_check
from repro.queries.evaluation import (
    Query,
    evaluate,
    query_constants,
    query_variables,
)
from repro.relational.instance import GroundInstance, Row
from repro.relational.master import MasterData
from repro.relational.schema import DatabaseSchema

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle
    # through repro.reductions.implication, which consumes this module)
    from repro.search.registry import EngineConfig


@dataclass(frozen=True)
class IncompletenessWitness:
    """A counterexample to relative completeness of a ground instance.

    ``extension`` is a partially closed extension of the instance on which
    the query produces ``new_answers`` beyond the answers on the instance
    itself.
    """

    instance: GroundInstance
    extension: GroundInstance
    new_answers: frozenset[Row]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IncompletenessWitness(+{self.extension.size - self.instance.size} tuples, "
            f"{len(self.new_answers)} new answers)"
        )


def ground_active_domain(
    instance: GroundInstance,
    query: Query | None,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
) -> ActiveDomain:
    """The ``Adom`` for a ground-instance completeness check.

    Constants come from the instance, the master data, the CCs and the query;
    fresh values are added for the variables of the CCs and of the query
    (the instance itself has no variables).
    """
    query_consts = query_constants(query) if query is not None else frozenset()
    query_vars = set(query_variables(query)) if query is not None else set()
    return build_active_domain(
        cinstance=None,
        master=master,
        constraint_constants=constraint_set_constants(constraints),
        query_constants=query_consts,
        extra_constants=instance.constants(),
        extra_variables=constraint_set_variables(constraints) | query_vars,
        schema=instance.schema,
    )


class GroundCompletenessCheck:
    """The Lemma 4.2/4.3 test of ground instances for one query over one Adom.

    The strong, viable and MINP deciders test the worlds of
    ``Mod_Adom(T)`` (and MINP their subinstances) against the same query
    tableaux over the same Adom, so they build one check per call: one
    :class:`~repro.completeness.extensions.TableauExtensions` per disjunct,
    rooted at each instance by :meth:`witness`.  Partial closure of the
    instance is checked on the checker the searches share: the ambient one
    of :func:`~repro.search.registry.use_checker`, else one built here.

    Raises
    ------
    QueryError
        If the query is not in a positive language (CQ, UCQ, ∃FO⁺); use
        :func:`is_ground_complete_bounded` for FO/FP.
    """

    def __init__(
        self,
        query: Query,
        schema: DatabaseSchema,
        master: MasterData,
        constraints: Sequence[ContainmentConstraint],
        adom: ActiveDomain,
        limit: int | None = None,
        engine: EngineConfig | str | None = None,
    ) -> None:
        from repro.search.propagation import ConstraintChecker
        from repro.search.registry import ambient_checker

        if not supports_exact_strong_check(query):
            raise QueryError(
                "exact ground completeness requires CQ/UCQ/∃FO+; got "
                f"{classify(query).value} — use is_ground_complete_bounded instead"
            )
        self._query = query
        self._checker = ambient_checker() or ConstraintChecker(master, constraints)
        self._extensions = [
            TableauExtensions(
                disjunct, schema, master, constraints, adom, limit=limit,
                engine=engine, checker=self._checker,
            )
            for disjunct in as_union_of_cqs(query).disjuncts
        ]

    def witness(self, instance: GroundInstance) -> IncompletenessWitness | None:
        """An extension of ``instance`` changing the answer; ``None`` when
        the instance is complete.

        Raises :class:`CompletenessError` when the instance is not
        partially closed.
        """
        if not self._checker.satisfied_by(instance):
            raise CompletenessError(
                "the instance is not partially closed relative to (Dm, V)"
            )
        query = self._query
        base_answer = evaluate(query, instance)
        for extensions in self._extensions:
            for _valuation, extended in extensions.over(instance):
                extended_answer = evaluate(query, extended)
                if extended_answer != base_answer:
                    return IncompletenessWitness(
                        instance=instance,
                        extension=extended,
                        new_answers=frozenset(extended_answer - base_answer),
                    )
        return None


def find_ground_incompleteness_witness(
    instance: GroundInstance,
    query: Query,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain | None = None,
    limit: int | None = None,
    engine: EngineConfig | str | None = None,
) -> IncompletenessWitness | None:
    """Search for a partially closed extension changing the query answer.

    Implements the characterisation of Lemma 4.2/4.3: only extensions of the
    form ``I ∪ ν(T_Qi)`` for Adom-valuations ``ν`` of a disjunct's tableau
    need to be considered.  Returns ``None`` when the instance is complete.
    The tableau-extension search is engine-routed
    (:func:`~repro.completeness.extensions.tableau_extensions`);
    ``engine`` selects the world-search engine.  Callers testing
    many instances over one Adom build one :class:`GroundCompletenessCheck`.

    Raises
    ------
    QueryError
        If the query is not in a positive language (CQ, UCQ, ∃FO⁺); use
        :func:`is_ground_complete_bounded` for FO/FP.
    CompletenessError
        If the instance is not partially closed to begin with.
    """
    if adom is None:
        adom = ground_active_domain(instance, query, master, constraints)
    return GroundCompletenessCheck(
        query, instance.schema, master, constraints, adom,
        limit=limit, engine=engine,
    ).witness(instance)


def is_ground_complete(
    instance: GroundInstance,
    query: Query,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain | None = None,
    limit: int | None = None,
    engine: EngineConfig | str | None = None,
) -> Decision:
    """Whether a partially closed ground instance is complete for the query.

    Exact for CQ, UCQ and ∃FO⁺ (Theorem 4.1 machinery).  Returns a
    :class:`~repro.decision.Decision` whose ``.witness`` is the
    :class:`IncompletenessWitness` counterexample when the verdict is
    negative.
    """
    rec = DecisionRecorder("ground-completeness", engine)
    with rec:
        witness = find_ground_incompleteness_witness(
            instance, query, master, constraints, adom=adom, limit=limit,
            engine=engine,
        )
    return rec.decision(witness is None, witness=witness)


def is_ground_complete_bounded(
    instance: GroundInstance,
    query: Query,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    max_new_tuples: int = 1,
    adom: ActiveDomain | None = None,
    limit: int | None = None,
    engine: EngineConfig | str | None = None,
) -> Decision:
    """Bounded completeness check usable for any query language.

    Explores partially closed extensions obtained by adding at most
    ``max_new_tuples`` Adom tuples and reports whether any of them changes the
    query answer.  A negative decision is always correct (a genuine
    counterexample was found, attached as the witness); a positive decision
    only means no counterexample exists *within the bound* — for FO and FP no
    terminating exact procedure exists (Theorem 4.1), so this is the best a
    sound checker can do.  The decision is marked ``exact=False``.
    """
    rec = DecisionRecorder("ground-completeness", engine, exact=False)
    with rec:
        if not satisfies_all(instance, master, constraints):
            raise CompletenessError(
                "the instance is not partially closed relative to (Dm, V)"
            )
        if adom is None:
            adom = ground_active_domain(instance, query, master, constraints)
        base_answer = evaluate(query, instance)
        witness: IncompletenessWitness | None = None
        for extended in bounded_extensions(
            instance, master, constraints, adom,
            max_new_tuples=max_new_tuples, limit=limit,
            engine=engine,
        ):
            extended_answer = evaluate(query, extended)
            if extended_answer != base_answer:
                witness = IncompletenessWitness(
                    instance=instance,
                    extension=extended,
                    new_answers=frozenset(extended_answer - base_answer),
                )
                break
    # A found counterexample is definitive; only the positive "no
    # counterexample within the bound" verdict is heuristic.
    rec.exact = witness is not None
    return rec.decision(witness is None, witness=witness)
