"""Exact query evaluation over ground instances.

This module evaluates all five query languages of the paper over
:class:`~repro.relational.instance.GroundInstance` objects:

* CQ and UCQ — by backtracking homomorphism enumeration over the body atoms,
* ∃FO⁺ and FO — by recursive formula satisfaction under active-domain
  semantics (quantifiers and free variables range over the constants of the
  instance plus the constants of the query),
* FP — by bottom-up inflational fixpoint iteration, and
* :class:`~repro.queries.fo.NativeQuery` — by calling the supplied function.

The evaluators favour clarity over speed: the decision procedures of the
paper only ever evaluate queries over the small ``Adom``-bounded instances
they enumerate, so a naive exact evaluator is the right tool.
"""

from __future__ import annotations

import itertools
from typing import (
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Protocol,
    Union,
    runtime_checkable,
)

from repro.exceptions import ArityError, EvaluationError, QueryError
from repro.queries.atoms import Comparison, ComparisonOp, RelationAtom
from repro.queries.cq import ConjunctiveQuery
from repro.queries.efo import ExistentialPositiveQuery
from repro.queries.fo import FirstOrderQuery, NativeQuery
from repro.queries.formulas import (
    And,
    Atom,
    Compare,
    Exists,
    ForAll,
    Formula,
    Not,
    Or,
)
from repro.queries.fp import FixpointQuery
from repro.queries.terms import Term, Variable, is_variable
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.relational.domains import Constant
from repro.relational.instance import GroundInstance, Row

#: Union type of every query representation understood by :func:`evaluate`.
Query = Union[
    ConjunctiveQuery,
    UnionOfConjunctiveQueries,
    ExistentialPositiveQuery,
    FirstOrderQuery,
    FixpointQuery,
    NativeQuery,
]


@runtime_checkable
class QueryProtocol(Protocol):
    """The structural contract every query representation satisfies.

    All six built-in representations implement this protocol, and code that
    accepts a :data:`Query` relies on exactly these members — in particular
    ``variables()`` is an explicit part of the contract (the Adom
    constructions provision fresh values for it), not an optional attribute
    to be probed with ``hasattr``.  ``variables()`` returns the variables the
    query exposes to the active domain: for CQ/UCQ/FP all rule variables, for
    ∃FO⁺/FO the free variables of the formula plus the head variables
    (quantifier-bound variables range over the active domain at evaluation
    time), and for native queries the empty set (they carry no syntax).
    """

    @property
    def arity(self) -> int: ...

    def variables(self) -> "set[Variable] | frozenset[Variable]": ...

#: Internal fact-store representation: relation name → set of rows.
FactStore = Mapping[str, frozenset[Row]]


# ---------------------------------------------------------------------------
# helpers shared by the evaluators
# ---------------------------------------------------------------------------
def fact_store(instance: GroundInstance) -> dict[str, frozenset[Row]]:
    """Extract a relation-name → rows mapping from a ground instance."""
    return {name: rel.rows for name, rel in instance.relations().items()}


def query_constants(query: Query) -> frozenset[Constant]:
    """All constants syntactically occurring in a query.

    Native queries carry no syntax, so they contribute no constants; callers
    that need constants for a native query must supply them explicitly.
    """
    if isinstance(query, NativeQuery):
        return frozenset()
    return frozenset(query.constants())


def query_variables(query: Query) -> frozenset[Variable]:
    """The variables of a query, per the :class:`QueryProtocol` contract.

    These are the variables for which the ``Adom`` constructions of
    Proposition 3.3 / Theorem 4.1 provision fresh values.  Every query type
    implements ``variables()`` directly; this helper only normalises the
    result to a frozen set.
    """
    return frozenset(query.variables())


def query_arity(query: Query) -> int:
    """Arity of the query result."""
    return query.arity


def query_relation_names(query: Query) -> frozenset[str]:
    """Relation names referenced by the query (empty for native queries)."""
    if isinstance(query, NativeQuery):
        return frozenset()
    return frozenset(query.relation_names())


def is_monotone(query: Query) -> bool:
    """Whether the query is guaranteed monotone in the database.

    CQ, UCQ, ∃FO⁺ and FP are monotone; FO is not in general; native queries
    declare monotonicity explicitly.
    """
    if isinstance(
        query,
        (
            ConjunctiveQuery,
            UnionOfConjunctiveQueries,
            ExistentialPositiveQuery,
            FixpointQuery,
        ),
    ):
        return True
    if isinstance(query, NativeQuery):
        return query.monotone
    return False


def active_domain(
    instance: GroundInstance, query: Query | None = None
) -> frozenset[Constant]:
    """Constants of the instance plus (if given) the constants of the query."""
    constants = set(instance.constants())
    if query is not None:
        constants |= set(query_constants(query))
    return frozenset(constants)


# ---------------------------------------------------------------------------
# conjunctive-body matching (shared by CQ, UCQ and FP rule bodies)
# ---------------------------------------------------------------------------
def match_atom(
    atom: RelationAtom,
    row: Row,
    assignment: dict[Variable, Constant],
) -> dict[Variable, Constant] | None:
    """Try to extend ``assignment`` so that ``atom`` maps onto ``row``.

    Public companion of :func:`match_conjunction`: callers that seed a
    conjunctive match from a known (atom, row) pair — e.g. the CNF encoder
    of :mod:`repro.search.cnf_encoding` — share the one unification rule set
    instead of re-implementing it.
    """
    if len(row) != atom.arity:
        raise ArityError(
            f"atom {atom!r} has arity {atom.arity} but relation row {row!r} "
            f"has arity {len(row)}"
        )
    extended = dict(assignment)
    for term, value in zip(atom.terms, row):
        if is_variable(term):
            bound = extended.get(term)
            if bound is None:
                extended[term] = value
            elif bound != value:
                return None
        elif term != value:
            return None
    return extended


def _propagate_equalities(
    comparisons: Iterable[Comparison],
    assignment: dict[Variable, Constant],
) -> dict[Variable, Constant] | None:
    """Extend ``assignment`` using equality atoms; return ``None`` on conflict."""
    result = dict(assignment)
    changed = True
    while changed:
        changed = False
        for comp in comparisons:
            if comp.op is not ComparisonOp.EQ:
                continue
            left = result.get(comp.left, comp.left) if is_variable(comp.left) else comp.left
            right = (
                result.get(comp.right, comp.right) if is_variable(comp.right) else comp.right
            )
            left_is_var = is_variable(left)
            right_is_var = is_variable(right)
            if not left_is_var and not right_is_var:
                if left != right:
                    return None
            elif left_is_var and not right_is_var:
                result[left] = right
                changed = True
            elif right_is_var and not left_is_var:
                result[right] = left
                changed = True
    return result


def _comparisons_hold(
    comparisons: Iterable[Comparison], assignment: Mapping[Variable, Constant]
) -> bool:
    """Whether all comparisons hold under a (total enough) assignment."""
    for comp in comparisons:
        grounded = comp.substitute(assignment)
        if grounded.variables():
            raise EvaluationError(
                f"comparison {comp!r} has unbound variables at evaluation time"
            )
        if not grounded.evaluate_ground():
            return False
    return True


def finalize_assignment(
    comparisons: Iterable[Comparison],
    assignment: dict[Variable, Constant],
) -> dict[Variable, Constant] | None:
    """Complete a fully atom-matched assignment against the comparisons.

    Public companion of :func:`match_conjunction` for callers that enumerate
    atom matches themselves (e.g. the CNF encoder of
    :mod:`repro.search.cnf_encoding`): propagates equality atoms into the
    assignment, then checks every comparison.  Returns the completed
    assignment, or ``None`` if an equality conflicts or a comparison fails —
    exactly the acceptance rule :func:`match_conjunction` applies at its
    leaves.
    """
    completed = _propagate_equalities(comparisons, assignment)
    if completed is None:
        return None
    if not _comparisons_hold(comparisons, completed):
        return None
    return completed


def match_conjunction(
    atoms: Iterable[RelationAtom],
    comparisons: Iterable[Comparison],
    facts: FactStore,
    initial: Mapping[Variable, Constant] | None = None,
) -> Iterator[dict[Variable, Constant]]:
    """Enumerate all assignments satisfying a conjunctive body over ``facts``.

    The generator yields assignments of *all* variables of the body (including
    variables bound only through equality atoms).  Missing relations are
    treated as empty.
    """
    atoms = list(atoms)
    comparisons = list(comparisons)

    def backtrack(
        index: int, assignment: dict[Variable, Constant]
    ) -> Iterator[dict[Variable, Constant]]:
        if index == len(atoms):
            completed = finalize_assignment(comparisons, assignment)
            if completed is not None:
                yield completed
            return
        atom = atoms[index]
        rows = facts.get(atom.relation, frozenset())
        for row in rows:
            extended = _match_atom(atom, row, assignment)
            if extended is not None:
                yield from backtrack(index + 1, extended)

    yield from backtrack(0, dict(initial or {}))


def instantiate_head(
    head: tuple[Term, ...], assignment: Mapping[Variable, Constant]
) -> Row:
    """Instantiate a query head under an assignment.

    Public companion of :func:`match_conjunction`: callers that enumerate
    body matches themselves (e.g. the CNF encoder of
    :mod:`repro.search.cnf_encoding`) use it to build the corresponding
    answer rows.
    """
    row: list[Constant] = []
    for term in head:
        if is_variable(term):
            if term not in assignment:
                raise EvaluationError(
                    f"head variable {term!r} is unbound; the query is unsafe"
                )
            row.append(assignment[term])
        else:
            row.append(term)
    return tuple(row)


#: Internal aliases kept for the evaluators below.
_head_row = instantiate_head
_match_atom = match_atom


# ---------------------------------------------------------------------------
# CQ / UCQ
# ---------------------------------------------------------------------------
def evaluate_cq(query: ConjunctiveQuery, instance: GroundInstance) -> frozenset[Row]:
    """Evaluate a conjunctive query over a ground instance."""
    return evaluate_cq_on_facts(query, fact_store(instance))


def evaluate_cq_on_facts(query: ConjunctiveQuery, facts: FactStore) -> frozenset[Row]:
    """Evaluate a conjunctive query over a raw fact store."""
    results: set[Row] = set()
    for assignment in match_conjunction(query.atoms, query.comparisons, facts):
        results.add(_head_row(query.head, assignment))
    return frozenset(results)


def evaluate_ucq(
    query: UnionOfConjunctiveQueries, instance: GroundInstance
) -> frozenset[Row]:
    """Evaluate a union of conjunctive queries over a ground instance."""
    facts = fact_store(instance)
    results: set[Row] = set()
    for disjunct in query.disjuncts:
        results |= evaluate_cq_on_facts(disjunct, facts)
    return frozenset(results)


# ---------------------------------------------------------------------------
# ∃FO⁺ / FO (active-domain semantics)
# ---------------------------------------------------------------------------
def _satisfies(
    formula: Formula,
    facts: FactStore,
    domain: frozenset[Constant],
    env: dict[Variable, Constant],
) -> bool:
    """Recursive formula satisfaction under active-domain semantics."""
    if isinstance(formula, Atom):
        atom = formula.atom
        row: list[Constant] = []
        for term in atom.terms:
            if is_variable(term):
                if term not in env:
                    raise EvaluationError(
                        f"free variable {term!r} of atom {atom!r} is unbound"
                    )
                row.append(env[term])
            else:
                row.append(term)
        return tuple(row) in facts.get(atom.relation, frozenset())
    if isinstance(formula, Compare):
        comp = formula.comparison
        grounded = comp.substitute(env)
        if grounded.variables():
            raise EvaluationError(
                f"free variable in comparison {comp!r} is unbound"
            )
        return grounded.evaluate_ground()
    if isinstance(formula, And):
        return all(_satisfies(c, facts, domain, env) for c in formula.children)
    if isinstance(formula, Or):
        return any(_satisfies(c, facts, domain, env) for c in formula.children)
    if isinstance(formula, Not):
        return not _satisfies(formula.child, facts, domain, env)
    if isinstance(formula, Exists):
        return _quantify(formula.variables, formula.child, facts, domain, env, any)
    if isinstance(formula, ForAll):
        return _quantify(formula.variables, formula.child, facts, domain, env, all)
    raise QueryError(f"unexpected formula node {type(formula).__name__}")


def _quantify(
    variables: tuple[Variable, ...],
    child: Formula,
    facts: FactStore,
    domain: frozenset[Constant],
    env: dict[Variable, Constant],
    combine: Callable[[Iterable[bool]], bool],
) -> bool:
    """Evaluate a block of quantified variables over the active domain."""
    ordered_domain = sorted(domain, key=repr)

    def gen() -> Iterator[bool]:
        for values in itertools.product(ordered_domain, repeat=len(variables)):
            extended = dict(env)
            extended.update(zip(variables, values))
            yield _satisfies(child, facts, domain, extended)

    return combine(gen())


def _evaluate_formula_query(
    head: tuple[Term, ...],
    formula: Formula,
    instance: GroundInstance,
    extra_constants: Iterable[Constant],
) -> frozenset[Row]:
    """Evaluate a head/formula query under active-domain semantics.

    Free variables of the formula that do not occur in the head are treated
    as implicitly existentially quantified, matching the rule-style notation
    used for CQs.
    """
    facts = fact_store(instance)
    domain = frozenset(instance.constants()) | frozenset(extra_constants)
    head_vars = sorted({t for t in head if is_variable(t)}, key=lambda v: v.name)
    implicit = sorted(
        formula.free_variables() - set(head_vars), key=lambda v: v.name
    )
    if implicit:
        formula = Exists(tuple(implicit), formula)
    results: set[Row] = set()
    ordered_domain = sorted(domain, key=repr)
    if head_vars:
        candidate_envs = (
            dict(zip(head_vars, values))
            for values in itertools.product(ordered_domain, repeat=len(head_vars))
        )
    else:
        candidate_envs = iter([{}])
    for env in candidate_envs:
        if _satisfies(formula, facts, domain, env):
            results.add(_head_row(head, env))
    return frozenset(results)


def evaluate_efo(
    query: ExistentialPositiveQuery, instance: GroundInstance
) -> frozenset[Row]:
    """Evaluate an ∃FO⁺ query over a ground instance."""
    return _evaluate_formula_query(
        query.head, query.formula, instance, query.constants()
    )


def evaluate_fo(query: FirstOrderQuery, instance: GroundInstance) -> frozenset[Row]:
    """Evaluate a first-order query over a ground instance (active domain)."""
    return _evaluate_formula_query(
        query.head, query.formula, instance, query.constants()
    )


# ---------------------------------------------------------------------------
# FP (inflational fixpoint)
# ---------------------------------------------------------------------------
def evaluate_fp(
    query: FixpointQuery,
    instance: GroundInstance,
    max_rounds: int | None = None,
) -> frozenset[Row]:
    """Evaluate an FP query bottom-up until the inflational fixpoint.

    Parameters
    ----------
    max_rounds:
        Optional safety bound on the number of iterations; the fixpoint over a
        finite instance always terminates, so this is only a guard against
        programming errors in callers that build programs dynamically.
    """
    facts: dict[str, frozenset[Row]] = dict(fact_store(instance))
    for predicate in query.idb_predicates():
        facts.setdefault(predicate, frozenset())

    rounds = 0
    changed = True
    while changed:
        changed = False
        rounds += 1
        if max_rounds is not None and rounds > max_rounds:
            raise EvaluationError(
                f"FP evaluation exceeded {max_rounds} rounds without converging"
            )
        for r in query.rules:
            derived: set[Row] = set()
            for assignment in match_conjunction(
                r.body_atoms(), r.body_comparisons(), facts
            ):
                derived.add(_head_row(r.head.terms, assignment))
            if not derived <= facts[r.head.relation]:
                facts[r.head.relation] = facts[r.head.relation] | frozenset(derived)
                changed = True
    return facts[query.output]


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------
def evaluate(query: Query, instance: GroundInstance) -> frozenset[Row]:
    """Evaluate any supported query over a ground instance."""
    if isinstance(query, ConjunctiveQuery):
        return evaluate_cq(query, instance)
    if isinstance(query, UnionOfConjunctiveQueries):
        return evaluate_ucq(query, instance)
    if isinstance(query, ExistentialPositiveQuery):
        return evaluate_efo(query, instance)
    if isinstance(query, FirstOrderQuery):
        return evaluate_fo(query, instance)
    if isinstance(query, FixpointQuery):
        return evaluate_fp(query, instance)
    if isinstance(query, NativeQuery):
        return query.evaluate(instance)
    raise QueryError(f"unsupported query type {type(query).__name__}")


def boolean_answer(query: Query, instance: GroundInstance) -> bool:
    """Evaluate a Boolean query and return its truth value."""
    result = evaluate(query, instance)
    if query_arity(query) != 0:
        raise QueryError(f"query {getattr(query, 'name', query)!r} is not Boolean")
    return bool(result)
