"""RCQP — the relatively complete query problem.

``RCQP(L_Q)``: given a query ``Q``, master data ``D_m`` and a set ``V`` of
CCs, does there exist *any* database complete for ``Q`` relative to
``(D_m, V)``?  (Section 2.3.)

The landscape (Table I):

* **weak model** — trivially decidable in O(1) for CQ, UCQ, ∃FO⁺ and FP
  (Theorem 5.4): a weakly complete database always exists.  The constructive
  proof in the appendix builds a witness ``I₀`` — a maximal Adom-bounded
  instance satisfying ``V`` — which :func:`construct_weakly_complete_witness`
  reproduces.
* **strong / viable models** — by Lemma 4.4 (and its viable-model analogue),
  a complete c-instance exists iff a complete *ground* instance exists, so
  the problem reduces to the ground RCQP of Fan & Geerts.  It is
  NEXPTIME-complete in general; :func:`rcqp_bounded_search` performs the
  witness search up to a configurable size.  When every CC is IND-shaped the
  PTIME boundedness test of Corollary 7.2 applies
  (:func:`is_query_bounded` / :func:`strong_rcqp_with_ind_ccs`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence

from repro.completeness.extensions import candidate_rows, tableau_valuations
from repro.completeness.ground import ground_active_domain, is_ground_complete
from repro.constraints.containment import (
    ContainmentConstraint,
    constraint_set_constants,
    constraint_set_variables,
    satisfies_all,
)
from repro.ctables.adom import ActiveDomain, build_active_domain
from repro.ctables.cinstance import CInstance
from repro.ctables.ctable import CTable, CTableRow
from repro.decision import Decision, DecisionRecorder
from repro.exceptions import QueryError
from repro.search.engine import WorldKey, world_key
from repro.search.propagation import ConstraintChecker
from repro.search.registry import (
    EngineConfig,
    EngineSpec,
    ambient_checker,
    use_checker,
)
from repro.queries.classify import (
    QueryLanguage,
    as_union_of_cqs,
    classify,
    supports_exact_weak_check,
)
from repro.queries.cq import ConjunctiveQuery
from repro.queries.evaluation import Query, evaluate_cq, query_constants
from repro.queries.tableau import freeze
from repro.queries.terms import Variable, is_variable
from repro.relational.instance import GroundInstance, empty_instance
from repro.relational.master import MasterData
from repro.relational.schema import DatabaseSchema


# ---------------------------------------------------------------------------
# weak model: O(1) plus constructive witness (Theorem 5.4)
# ---------------------------------------------------------------------------
def weak_rcqp(query: Query) -> Decision:
    """RCQPʷ: does a weakly complete database exist?

    Constant-time ``True`` for CQ, UCQ, ∃FO⁺ and FP (Theorem 5.4).  For FO
    the problem is undecidable for ground instances and open for c-instances
    (Example 5.3), so the function refuses to answer.
    """
    from repro.completeness.models import CompletenessModel

    if supports_exact_weak_check(query):
        rec = DecisionRecorder("rcqp", model=CompletenessModel.WEAK)
        with rec:
            pass
        return rec.decision(True)
    raise QueryError(
        f"RCQP^w for {classify(query).value} is undecidable/open (Theorem 5.4); "
        "no exact answer is available"
    )


def construct_weakly_complete_witness(
    schema: DatabaseSchema,
    query: Query,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    max_tuples_per_relation: int | None = None,
) -> GroundInstance:
    """Build the witness instance ``I₀`` of the Theorem 5.4 appendix proof.

    ``I₀`` is a maximal subset of the set ``L`` of Adom tuples such that
    ``(I₀, D_m) |= V``: tuples are added greedily in a deterministic order and
    kept whenever the CCs still hold; by monotonicity of the CC queries a
    skipped tuple can never become addable later, so the greedy result is
    maximal.  The resulting instance is weakly complete for every monotone
    query.

    ``max_tuples_per_relation`` caps the number of candidate tuples inspected
    per relation (the full ``L`` is exponential in the arity).
    """
    adom = build_active_domain(
        cinstance=None,
        master=master,
        constraint_constants=constraint_set_constants(constraints),
        query_constants=query_constants(query),
        extra_variables=constraint_set_variables(constraints),
        schema=schema,
    )
    witness = empty_instance(schema)
    for relation in schema:
        added = 0
        for row in candidate_rows(relation, adom):
            if max_tuples_per_relation is not None and added >= max_tuples_per_relation:
                break
            added += 1
            candidate = witness.with_tuple(relation.name, row)
            if satisfies_all(candidate, master, constraints):
                witness = candidate
    return witness


# ---------------------------------------------------------------------------
# strong / viable models: boundedness test (IND-shaped CCs, Corollary 7.2)
# ---------------------------------------------------------------------------
def _ind_bounded_positions(
    constraints: Sequence[ContainmentConstraint],
) -> set[tuple[str, int]]:
    """Positions ``(relation, index)`` bounded by an IND-shaped CC.

    An IND-shaped CC ``π_{A,...}(R) ⊆ p(R_m)`` bounds the projected positions
    of ``R``: any value occurring there in a partially closed database must
    occur in the (fixed, finite) master projection.
    """
    positions: set[tuple[str, int]] = set()
    for constraint in constraints:
        if not constraint.is_inclusion_dependency():
            continue
        atom = constraint.query.atoms[0]
        for head_term in constraint.query.head:
            for index, term in enumerate(atom.terms):
                if term == head_term:
                    positions.add((atom.relation, index))
    return positions


# reprolint: disable=R004 -- static query-shape classification (Lemma 4.4
# boundedness), no search involved; not a decision procedure.
def is_query_bounded(
    query: ConjunctiveQuery,
    schema: DatabaseSchema,
    constraints: Sequence[ContainmentConstraint],
) -> bool:
    """Whether a CQ is *bounded* by ``(D_m, V)`` in the sense of Fan & Geerts.

    Every head variable must either range over a finite attribute domain or
    occur, in the query tableau, in a position bounded by an IND-shaped CC.
    Bounded queries can only ever return values from a fixed finite set, which
    is what makes a relatively complete database constructible (Corollary 7.2).
    """
    bounded_positions = _ind_bounded_positions(constraints)
    for head_term in query.head:
        if not is_variable(head_term):
            continue
        variable_is_bounded = False
        for atom in query.atoms:
            if atom.relation not in schema:
                continue
            rel_schema = schema[atom.relation]
            for index, term in enumerate(atom.terms):
                if term != head_term:
                    continue
                if rel_schema.attributes[index].domain.is_finite:
                    variable_is_bounded = True
                if (atom.relation, index) in bounded_positions:
                    variable_is_bounded = True
        if not variable_is_bounded:
            return False
    return True


def _query_satisfiable_under_constraints(
    query: ConjunctiveQuery,
    schema: DatabaseSchema,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain,
) -> bool:
    """Whether some Adom valuation of the query tableau is partially closed.

    This is the "valid valuation" test of the Fan & Geerts characterisation:
    if no valuation ``ν`` of ``T_Q`` satisfies the comparisons and keeps
    ``(ν(T_Q), D_m) |= V``, then the query can never acquire an answer in any
    partially closed database and the empty instance is complete for it.
    """
    for valuation in tableau_valuations(query, adom):
        world = GroundInstance(schema, freeze(query.atoms, valuation))
        if satisfies_all(world, master, constraints):
            if evaluate_cq(query, world):
                return True
    return False


def strong_rcqp_with_ind_ccs(
    query: Query,
    schema: DatabaseSchema,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
) -> Decision:
    """RCQPˢ (= RCQPᵛ) for CQ/UCQ/∃FO⁺ when every CC is IND-shaped.

    Implements the PTIME characterisation behind Corollary 7.2: a relatively
    complete database exists iff every disjunct of the query is bounded by
    ``(D_m, V)``, or no disjunct has a valid partially closed valuation.

    Raises
    ------
    QueryError
        If some CC is not IND-shaped (the characterisation does not apply) or
        the query is not positive.
    """
    from repro.completeness.models import CompletenessModel

    rec = DecisionRecorder("rcqp", model=CompletenessModel.STRONG)
    with rec:
        if not all(c.is_inclusion_dependency() for c in constraints):
            raise QueryError(
                "strong_rcqp_with_ind_ccs requires every CC to be IND-shaped; "
                "use rcqp_bounded_search for general CCs"
            )
        unfolded = as_union_of_cqs(query)
        if all(is_query_bounded(d, schema, constraints) for d in unfolded.disjuncts):
            holds = True
        else:
            adom = build_active_domain(
                cinstance=None,
                master=master,
                constraint_constants=constraint_set_constants(constraints),
                query_constants=query_constants(query),
                extra_variables=(
                    set(unfolded.variables()) | constraint_set_variables(constraints)
                ),
                schema=schema,
            )
            holds = not any(
                _query_satisfiable_under_constraints(
                    d, schema, master, constraints, adom
                )
                for d in unfolded.disjuncts
            )
    return rec.decision(holds)


# ---------------------------------------------------------------------------
# strong / viable models: bounded witness search (general CCs)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RCQPWitness:
    """Outcome of a bounded RCQP witness search.

    The payload carried in ``Decision.details`` by
    :func:`rcqp_bounded_search`.
    """

    found: bool
    witness: GroundInstance | None
    instances_examined: int


def _size_compositions(total: int, names: Sequence[str]) -> Iterator[dict[str, int]]:
    """All distributions of ``total`` tuples over the named relations."""
    if not names:
        if total == 0:
            yield {}
        return
    first, rest = names[0], names[1:]
    for count in range(total + 1):
        for tail in _size_compositions(total - count, rest):
            yield {first: count, **tail}


def _all_variable_cinstance(
    schema: DatabaseSchema, counts: "dict[str, int]"
) -> CInstance:
    """A c-instance with ``counts[R]`` rows of pairwise-distinct variables per relation.

    Its possible worlds are exactly the partially closed Adom instances with
    at most ``counts[R]`` tuples in each relation (rows may collapse), which
    is the candidate space of the Lemma 4.4 witness search.
    """
    tables: dict[str, CTable] = {}
    for relation in schema:
        rows = []
        for index in range(counts.get(relation.name, 0)):
            terms = tuple(
                Variable(f"rcqp_{relation.name}_{index}_{position}")
                for position in range(relation.arity)
            )
            rows.append(CTableRow(terms))
        tables[relation.name] = CTable(relation, rows)
    return CInstance(schema, tables)


def _rcqp_engine_search(
    query: Query,
    schema: DatabaseSchema,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    max_size: int,
    max_instances: int | None,
    spec: EngineSpec,
    options: Mapping[str, Any] | None = None,
) -> RCQPWitness:
    """Witness search routed through a registered world-search engine.

    For every total size ``s ≤ max_size`` and every distribution of ``s``
    rows over the relations, the worlds of the corresponding all-variable
    c-instance are enumerated by the engine the registry resolved.  The
    propagating engine prunes tuple combinations that already violate a
    constraint before they are materialised (unlike the naive combination
    scan, which inspects and rejects them one by one); the SAT engine
    compiles each composition to CNF so the DPLL solver enumerates only the
    partially closed candidates.  Any engine registered through
    :func:`repro.search.registry.register_engine` slots in the same way.
    """
    base = empty_instance(schema)
    adom = ground_active_domain(base, query, master, constraints)
    names = list(schema.relation_names)
    # Reuse a caller-installed checker (e.g. the Database facade's prebuilt
    # one — it is keyed on exactly this (master, constraints) pair) instead
    # of re-evaluating the constraint right-hand sides per call.
    checker = ambient_checker() or ConstraintChecker(master, constraints)
    examined = 0
    seen: set[WorldKey] = set()
    with use_checker(checker):
        for size in range(0, max_size + 1):
            for counts in _size_compositions(size, names):
                shape = _all_variable_cinstance(schema, counts)
                search = spec.create(
                    shape, master, constraints, adom,
                    options=options,
                )
                # The global `seen` set already deduplicates by world_key
                # across compositions, so the per-search dedup pass is
                # skipped.
                for _valuation, candidate in search.search():
                    key = world_key(candidate)
                    if key in seen:
                        continue
                    seen.add(key)
                    examined += 1
                    if max_instances is not None and examined > max_instances:
                        return RCQPWitness(
                            found=False, witness=None,
                            instances_examined=examined - 1,
                        )
                    # NOTE: the completeness check builds its own active
                    # domain — the search Adom must not be reused, because a
                    # candidate built from fresh values needs further fresh
                    # values of its own to act as the "anything else"
                    # witnesses of Lemma 4.2.
                    if is_ground_complete(
                        candidate, query, master, constraints,
                        engine=spec.name,
                    ):
                        return RCQPWitness(
                            found=True, witness=candidate,
                            instances_examined=examined,
                        )
    return RCQPWitness(found=False, witness=None, instances_examined=examined)


def rcqp_bounded_search(
    query: Query,
    schema: DatabaseSchema,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    max_size: int = 2,
    max_instances: int | None = 200_000,
    engine: EngineConfig | str | None = None,
) -> Decision:
    """Search for a ground instance complete for ``Q`` with at most ``max_size`` tuples.

    By Lemma 4.4 a complete c-instance of size ≤ K exists iff a complete
    ground instance of size ≤ K does, so the search ranges over ground
    instances built from Adom tuples.  The general problem is
    NEXPTIME-complete, so the search is exponential; callers bound it with
    ``max_size`` and ``max_instances``.  A negative decision only means "no
    witness within the budget" (it is marked ``exact=False``); a positive
    decision carries the complete ground instance in ``.witness``.

    All engines explore the same candidate space.
    ``.stats.candidates_examined`` counts candidate instances inspected by
    the naive scan but partially closed candidates actually tested for
    completeness by the other engines (violating combinations are pruned
    before being counted).
    """
    rec = DecisionRecorder("rcqp", engine, exact=False)
    with rec:
        config = EngineConfig.coerce(engine)
        spec = config.spec()
        if spec.name != "naive":
            outcome = _rcqp_engine_search(
                query, schema, master, constraints, max_size, max_instances,
                spec=spec, options=config.options,
            )
        else:
            outcome = _rcqp_naive_search(
                query, schema, master, constraints, max_size, max_instances
            )
    # A found witness is definitive (the instance *is* complete); only the
    # negative "no witness within the budget" verdict is heuristic.
    rec.exact = outcome.found
    return rec.decision(
        outcome.found,
        witness=outcome.witness,
        details=outcome,
        candidates_examined=outcome.instances_examined,
    )


def _rcqp_naive_search(
    query: Query,
    schema: DatabaseSchema,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    max_size: int,
    max_instances: int | None,
) -> RCQPWitness:
    """The original combination scan over all Adom tuples (reference path)."""
    base = empty_instance(schema)
    adom = ground_active_domain(base, query, master, constraints)
    per_relation_rows = {
        relation.name: list(candidate_rows(relation, adom)) for relation in schema
    }
    all_rows = [
        (name, row) for name, rows in per_relation_rows.items() for row in rows
    ]
    examined = 0
    for size in range(0, max_size + 1):
        for combo in itertools.combinations(all_rows, size):
            examined += 1
            if max_instances is not None and examined > max_instances:
                return RCQPWitness(found=False, witness=None, instances_examined=examined - 1)
            grouped: dict[str, list[Row]] = {}
            for name, row in combo:
                grouped.setdefault(name, []).append(row)
            candidate = GroundInstance(schema, grouped)
            if not satisfies_all(candidate, master, constraints):
                continue
            # NOTE: the completeness check builds its own active domain — the
            # search Adom must not be reused, because a candidate built from
            # fresh values needs further fresh values of its own to act as the
            # "anything else" witnesses of Lemma 4.2.
            if is_ground_complete(
                candidate, query, master, constraints, engine="naive"
            ):
                return RCQPWitness(found=True, witness=candidate, instances_examined=examined)
    return RCQPWitness(found=False, witness=None, instances_examined=examined)


def rcqp(
    query: Query,
    schema: DatabaseSchema,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    model: "str | None" = None,
    max_size: int = 2,
    engine: EngineConfig | str | None = None,
) -> Decision:
    """Convenience front-end for RCQP.

    * weak model — the O(1) answer of Theorem 5.4;
    * strong / viable models — the IND-shaped PTIME characterisation when it
      applies, otherwise the bounded witness search (a positive decision is
      definitive and carries the witness instance, a negative one means "no
      witness within the budget" and is marked ``exact=False``).
    """
    from repro.completeness.models import CompletenessModel

    resolved = CompletenessModel(model) if model is not None else CompletenessModel.STRONG
    if resolved is CompletenessModel.WEAK:
        return weak_rcqp(query)
    if classify(query) in (QueryLanguage.FO, QueryLanguage.FP, QueryLanguage.NATIVE):
        raise QueryError(
            f"RCQP^{resolved.symbol} is undecidable for {classify(query).value} "
            "(Theorem 4.5); no exact answer is available"
        )
    if constraints and all(c.is_inclusion_dependency() for c in constraints):
        return strong_rcqp_with_ind_ccs(
            query, schema, master, constraints
        ).with_(model=resolved)
    return rcqp_bounded_search(
        query, schema, master, constraints, max_size=max_size, engine=engine,
    ).with_(model=resolved)
