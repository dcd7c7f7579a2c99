"""Tests for the DPLL solver and its wiring into ``CNFFormula``.

The solver is cross-validated against an independent exhaustive check on
hypothesis-generated random 3CNFs (satisfiability, model validity and model
counts under enumeration) and exercised on structured instances — implication
chains, pigeonhole formulas — that require real propagation, learning and
restarts.  The contract the world-search engines rest on has its own
suites: a decision set whose models complete with ``False``, enumeration
that resumes after every blocking clause, clauses added against the level-0
trail, retired activation literals, and a call whose assumptions the
clauses refute ending at its first conflict without learning.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from dpll_oracles import brute_force_satisfiable, enumerate_models, solve_cnf
from repro.exceptions import ReductionError
from repro.reductions.dpll import DPLLSolver
from repro.reductions.sat import CNFFormula, random_3cnf

import random


# ---------------------------------------------------------------------------
# strategy: random CNF clause lists over a small variable range
# ---------------------------------------------------------------------------
_LITERALS = st.integers(min_value=1, max_value=8).flatmap(
    lambda v: st.sampled_from([v, -v])
)
_CLAUSES = st.lists(
    st.lists(_LITERALS, min_size=1, max_size=3).map(tuple),
    min_size=1,
    max_size=24,
)


def _satisfies(clauses, model) -> bool:
    return all(
        any(model[abs(lit)] == (lit > 0) for lit in clause) for clause in clauses
    )


@given(_CLAUSES)
@settings(max_examples=150, deadline=None)
def test_dpll_agrees_with_brute_force(clauses):
    model = solve_cnf(clauses)
    expected = brute_force_satisfiable(clauses)
    assert (model is not None) == expected
    if model is not None:
        assert _satisfies(clauses, model)


@given(_CLAUSES)
@settings(max_examples=60, deadline=None)
def test_enumeration_matches_brute_force_model_count(clauses):
    import itertools

    variables = sorted({abs(lit) for clause in clauses for lit in clause})
    expected = 0
    for values in itertools.product((False, True), repeat=len(variables)):
        if _satisfies(clauses, dict(zip(variables, values))):
            expected += 1
    seen = set()
    for model in enumerate_models(DPLLSolver(clauses)):
        key = tuple(sorted(model.items()))
        assert key not in seen, "enumeration yielded a duplicate model"
        seen.add(key)
        assert _satisfies(clauses, model)
    assert len(seen) == expected


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=30))
@settings(max_examples=60, deadline=None)
def test_cnf_formula_dpll_agrees_with_brute_force(variable_count, clause_count):
    rng = random.Random(variable_count * 1000 + clause_count)
    formula = random_3cnf(list(range(1, variable_count + 1)), clause_count, rng)
    assert formula.is_satisfiable() == formula.is_satisfiable_brute_force()


# ---------------------------------------------------------------------------
# assumption soundness: one solver, interleaved clause adds and assumption
# flips, in lockstep with an exhaustive oracle.  This is the contract the
# incremental SAT session rests on — clauses learned (first-UIP) under one
# set of assumptions must stay sound under every later set.
# ---------------------------------------------------------------------------
_ASSUMPTIONS = st.lists(_LITERALS, min_size=0, max_size=3).map(
    lambda lits: tuple({abs(lit): lit for lit in lits}.values())
)
_BATCHES = st.lists(
    st.tuples(st.lists(st.lists(_LITERALS, min_size=1, max_size=3), max_size=6), _ASSUMPTIONS),
    min_size=1,
    max_size=4,
)


@given(_BATCHES)
@settings(max_examples=120, deadline=None)
def test_assumption_soundness_across_interleaved_adds(batches):
    solver = DPLLSolver()
    accumulated: list[list[int]] = []
    for clauses, assumptions in batches:
        for clause in clauses:
            solver.add_clause(clause)
            accumulated.append(list(clause))
        model = solver.solve(assumptions)
        expected = brute_force_satisfiable(
            accumulated + [[lit] for lit in assumptions]
        )
        assert (model is not None) == expected
        if model is not None:
            assert _satisfies(accumulated, model)
            assert all(model[abs(lit)] == (lit > 0) for lit in assumptions)


# ---------------------------------------------------------------------------
# first-UIP learning: every learned clause is entailed by the clause database
# alone, whatever assumptions the conflict arose under.
# ---------------------------------------------------------------------------
_DENSE_CLAUSES = st.lists(
    st.lists(
        st.integers(min_value=1, max_value=6).flatmap(lambda v: st.sampled_from([v, -v])),
        min_size=2,
        max_size=3,
    ),
    min_size=8,
    max_size=30,
)


def _solve_and_collect_learned(clauses, assumptions=()):
    """Solve once; return the solver and the clauses it learned."""
    solver = DPLLSolver(clauses)
    attached, units = len(solver._clauses), len(solver._units)
    solver.solve(assumptions)
    learned = [list(clause) for clause in solver._clauses[attached:]]
    learned += [[lit] for lit in solver._units[units:]]
    return solver, learned


def _entailed(clauses, clause) -> bool:
    return not brute_force_satisfiable(list(clauses) + [[-lit] for lit in clause])


@given(_DENSE_CLAUSES, _ASSUMPTIONS)
@settings(max_examples=150, deadline=None)
def test_learned_clauses_are_entailed_under_assumptions(clauses, assumptions):
    solver, learned = _solve_and_collect_learned(clauses, assumptions)
    assert len(learned) == solver.stats.learned_clauses
    for clause in learned:
        assert _entailed(clauses, clause), clause


def test_pigeonhole_learned_clauses_are_entailed():
    clauses = _pigeonhole(4, 3)
    solver, learned = _solve_and_collect_learned(clauses)
    assert solver.stats.conflicts > 0
    assert learned
    for clause in learned:
        assert _entailed(clauses, clause), clause


# ---------------------------------------------------------------------------
# a conflict with only assumptions on the trail ends the call unlearned
# ---------------------------------------------------------------------------
def test_assumptions_refuted_by_propagation_return_none_without_learning():
    # Assuming 1 propagates 2 and 3, and (¬2 ∨ ¬3) conflicts at the
    # assumption's own level.
    solver = DPLLSolver([[-1, 2], [-1, 3], [-2, -3]])
    assert solver.solve([1]) is None
    assert solver.stats.conflicts == 1
    assert solver.stats.learned_clauses == 0
    assert solver._clauses[3:] == [] and solver._units == []
    assert solver._trail == []  # back at level 0, with nothing fixed there
    assert solver.solve([1]) is None
    assert solver.stats.conflicts == 2
    model = solver.solve([-1, 2])
    assert model is not None and model[1] is False and model[2] is True
    assert solver.stats.learned_clauses == 0


def test_a_blocking_clause_the_assumptions_falsify_ends_the_enumeration_unlearned():
    # The assumption 3 propagates 1, so the model's blocking clause
    # (¬1 ∨ ¬3) is falsified at the assumption's level: no model is left
    # under 3, and the solver has nothing to learn.
    solver = DPLLSolver([[-3, 1]], decisions=[1, 2])
    model = solver.solve([3])
    assert model is not None and model[1] is True
    solver.add_clause([-1, -3])
    assert solver.solve([3]) is None
    assert solver.stats.conflicts == 1
    assert solver.stats.learned_clauses == 0
    assert solver.solve([-3]) is not None


def test_a_conflict_below_a_heuristic_decision_still_learns():
    # 4 is assumed and occurs in no clause; the first heuristic decision ¬1
    # (lowest variable, saved phase False) conflicts on (1 ∨ 2), (1 ∨ ¬2).
    solver = DPLLSolver([[1, 2], [1, -2], [-1, 3]])
    model = solver.solve([4])
    assert model is not None and model[1] is True and model[3] is True
    assert solver.stats.conflicts == 1
    assert solver.stats.learned_clauses == 1
    assert solver._units == [1]


@given(_CLAUSES, _LITERALS)
@settings(max_examples=100, deadline=None)
def test_a_refuted_assumption_leaves_the_solver_as_sound_as_before(clauses, assumption):
    # However a call under one assumption ends, the next calls under the
    # opposite assumption and none agree with brute force.
    solver = DPLLSolver(clauses)
    for assumed in ([assumption], [-assumption], []):
        model = solver.solve(assumed)
        expected = brute_force_satisfiable(clauses + [[lit] for lit in assumed])
        assert (model is not None) == expected
        if model is not None:
            assert _satisfies(clauses, model)
            assert all(model[abs(lit)] is (lit > 0) for lit in assumed)


@given(_CLAUSES, st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_projected_enumeration_tolerates_unseen_variables(clauses, projection):
    # Projected variables the solver never assigned (absent from every clause)
    # are don't-cares: they contribute no blocking literal, so a projection
    # full of unseen selectors must not crash (the pre-fix code KeyErrored)
    # and each distinct restriction to the *seen* projected variables appears
    # exactly once.
    import itertools

    variables = sorted({abs(lit) for clause in clauses for lit in clause})
    seen_projection = [var for var in projection if var in variables]
    expected_restrictions = set()
    for values in itertools.product((False, True), repeat=len(variables)):
        full = dict(zip(variables, values))
        if _satisfies(clauses, full):
            expected_restrictions.add(
                tuple((var, full[var]) for var in sorted(set(seen_projection)))
            )
    models = list(enumerate_models(DPLLSolver(clauses), projection))
    restrictions = set()
    for model in models:
        assert _satisfies(clauses, model)
        key = tuple(
            (var, model[var]) for var in sorted(set(seen_projection))
        )
        assert key not in restrictions, "projection yielded twice"
        restrictions.add(key)
    assert restrictions == expected_restrictions


# ---------------------------------------------------------------------------
# the world-search contract.  Variables 1-4 form the decision set; 5-8 are
# defined by producer clauses ``¬a ∨ ¬b ∨ p`` over decision literals and
# occur only negatively elsewhere, the shape of the encoding's presence
# literals (repro.search.cnf_encoding).
# ---------------------------------------------------------------------------
DECIDED = [1, 2, 3, 4]
_DECISION_LITERALS = st.integers(min_value=1, max_value=4).flatmap(
    lambda v: st.sampled_from([v, -v])
)
_DECISION_ASSUMPTIONS = st.lists(_DECISION_LITERALS, max_size=2).map(
    lambda lits: tuple({abs(lit): lit for lit in lits}.values())
)


@st.composite
def _projected_cnfs(draw):
    clauses = []
    for p in range(5, 9):
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            a, b = draw(_DECISION_LITERALS), draw(_DECISION_LITERALS)
            clauses.append((-a, -b, p))
    other = st.lists(
        st.one_of(_DECISION_LITERALS, st.integers(min_value=5, max_value=8).map(lambda p: -p)),
        min_size=1,
        max_size=3,
    ).map(tuple)
    return clauses + draw(st.lists(other, min_size=1, max_size=12))


def _projections(clauses, assumptions=()):
    """Brute force: the decision-set restrictions of the total models."""
    import itertools

    variables = sorted({abs(lit) for clause in clauses for lit in clause} | set(DECIDED))
    found = set()
    for values in itertools.product((False, True), repeat=len(variables)):
        full = dict(zip(variables, values))
        if _satisfies(clauses, full) and all(
            full[abs(lit)] == (lit > 0) for lit in assumptions
        ):
            found.add(tuple(full[var] for var in DECIDED))
    return found


def _completed(model):
    return {var: model.get(var, False) for var in range(1, 9)}


def _blocking(model, extra=()):
    return [-var if model[var] else var for var in DECIDED] + list(extra)


@given(_projected_cnfs())
@settings(max_examples=150, deadline=None)
def test_decision_set_models_complete_with_false(clauses):
    solver = DPLLSolver(clauses, decisions=DECIDED)
    seen = set()
    for model in enumerate_models(solver, DECIDED):
        assert all(var in model for var in DECIDED)
        assert _satisfies(clauses, _completed(model))
        key = tuple(model[var] for var in DECIDED)
        assert key not in seen, "enumeration yielded a projection twice"
        seen.add(key)
    assert seen == _projections(clauses)


@given(_projected_cnfs(), _DECISION_ASSUMPTIONS)
@settings(max_examples=150, deadline=None)
def test_resumed_enumeration_yields_each_projection_once(clauses, assumptions):
    solver = DPLLSolver(clauses, decisions=DECIDED)
    seen = []
    while (model := solver.solve(assumptions)) is not None:
        assert _satisfies(clauses, _completed(model))
        assert all(model[abs(lit)] == (lit > 0) for lit in assumptions)
        seen.append(tuple(model[var] for var in DECIDED))
        solver.add_clause(_blocking(model))
    assert len(set(seen)) == len(seen)
    assert set(seen) == _projections(clauses, assumptions)
    # One solve() per model, plus the one that finds none.
    assert solver.stats.solve_calls == len(seen) + 1


@given(_projected_cnfs(), _ASSUMPTIONS, _ASSUMPTIONS)
@settings(max_examples=150, deadline=None)
def test_blocking_clause_under_new_assumptions_starts_over(clauses, first, second):
    # The model on the trail was found under ``first``; a blocking clause it
    # falsifies must not be resumed from once the assumptions change.
    solver = DPLLSolver(clauses, decisions=DECIDED)
    model = solver.solve(first)
    everything = [list(clause) for clause in clauses]
    if model is not None:
        everything.append(_blocking(model))
        solver.add_clause(everything[-1])
    model = solver.solve(second)
    expected = brute_force_satisfiable(everything + [[lit] for lit in second])
    assert (model is not None) == expected
    if model is not None:
        assert _satisfies(everything, _completed(model))
        assert all(model[abs(lit)] == (lit > 0) for lit in second)


@given(_CLAUSES, st.data())
@settings(max_examples=200, deadline=None)
def test_level0_adds_behave_like_a_fresh_solver(clauses, data):
    # Unit clauses put facts on the level-0 trail; the added clause is
    # satisfied, unit or empty under them.  Adding it after a solve (the
    # model still held) or before any must answer like a fresh solver.
    units = data.draw(st.lists(_LITERALS, min_size=1, max_size=3, unique_by=abs))
    shape = data.draw(st.sampled_from(["satisfied", "unit", "empty"]))
    extra = data.draw(
        st.integers(min_value=1, max_value=10)
        .filter(lambda v: v not in {abs(u) for u in units})
        .flatmap(lambda v: st.sampled_from([v, -v]))
    )
    base = [list(clause) for clause in clauses] + [[unit] for unit in units]
    negated = [-unit for unit in units]
    added = {
        "satisfied": [units[0], *negated[1:], extra],
        "unit": [*negated, extra],
        "empty": negated,
    }[shape]
    solver = DPLLSolver(base)
    if data.draw(st.booleans()):
        solver.solve()
    solver.add_clause(added)
    model = solver.solve()
    everything = base + [added]
    fresh = DPLLSolver(everything).solve()
    assert (model is None) == (fresh is None) == (not brute_force_satisfiable(everything))
    if model is not None:
        assert _satisfies(everything, model)
        assert solver.solve() == model  # nothing added since: the model holds


@given(_projected_cnfs(), st.integers(min_value=2, max_value=3))
@settings(max_examples=100, deadline=None)
def test_retired_activation_leaves_no_clause_behind(clauses, rounds):
    activation = 9
    solver = DPLLSolver(clauses, decisions=DECIDED)
    expected = _projections(clauses)
    for _ in range(rounds):
        seen = set()
        while (model := solver.solve([activation])) is not None:
            seen.add(tuple(model[var] for var in DECIDED))
            solver.add_clause(_blocking(model, [-activation]))
        solver.retire(activation)
        assert seen == expected
        assert not any(-activation in clause for clause in solver._clauses)
        assert -activation not in solver._units
        assert activation not in solver._assign
    assert (solver.solve() is None) == (not expected)


def test_retiring_undoes_a_level0_activation_fact():
    # The decision set is fixed at level 0, so the blocking clause
    # (¬1 ∨ ¬a) propagates ¬a at level 0.  Left there, it would make every
    # later enumeration under a empty.
    activation = 2
    solver = DPLLSolver([[1]], decisions=[1])
    for _ in range(3):
        models = []
        while (model := solver.solve([activation])) is not None:
            models.append(model[1])
            solver.add_clause([-1, -activation])
        assert models == [True]
        solver.retire(activation)
        assert activation not in solver._assign


# ---------------------------------------------------------------------------
# structured instances
# ---------------------------------------------------------------------------
class TestSolverBasics:
    def test_empty_clause_is_unsat(self):
        solver = DPLLSolver()
        solver.add_clause([])
        assert solver.solve() is None

    def test_unit_conflict(self):
        assert solve_cnf([[1], [-1]]) is None

    def test_tautology_registers_variables(self):
        solver = DPLLSolver([[1, -1]])
        model = solver.solve()
        assert model is not None and set(model) == {1}

    def test_duplicate_literals_merged(self):
        assert solve_cnf([[1, 1, 1]]) == {1: True}

    def test_implication_chain_propagates(self):
        # x1 ∧ (x1→x2) ∧ ... ∧ (x_{n-1}→x_n): solved by propagation alone.
        n = 200
        clauses = [[1]] + [[-i, i + 1] for i in range(1, n)]
        solver = DPLLSolver(clauses)
        model = solver.solve()
        assert model == {i: True for i in range(1, n + 1)}
        assert solver.stats.decisions == 0

    def test_chain_with_contradiction_is_unsat_without_decisions(self):
        n = 50
        clauses = [[1]] + [[-i, i + 1] for i in range(1, n)] + [[-n]]
        solver = DPLLSolver(clauses)
        assert solver.solve() is None
        assert solver.stats.decisions == 0

    def test_zero_literal_rejected(self):
        with pytest.raises(ReductionError):
            DPLLSolver([[0]])

    def test_incremental_blocking(self):
        solver = DPLLSolver([[1, 2]])
        models = set()
        while True:
            model = solver.solve()
            if model is None:
                break
            key = (model[1], model[2])
            assert key not in models
            models.add(key)
            solver.add_clause([-1 if model[1] else 1, -2 if model[2] else 2])
        assert models == {(True, True), (True, False), (False, True)}

    def test_projected_enumeration(self):
        # x2 is forced; projecting onto x1 yields exactly two models.
        solver = DPLLSolver([[2], [1, -1]])
        models = list(enumerate_models(solver, [1]))
        assert sorted(model[1] for model in models) == [False, True]


def _pigeonhole(pigeons: int, holes: int) -> list[list[int]]:
    def var(pigeon: int, hole: int) -> int:
        return pigeon * holes + hole + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


class TestSolverSearch:
    def test_pigeonhole_unsat(self):
        solver = DPLLSolver(_pigeonhole(6, 5))
        assert solver.solve() is None
        assert solver.stats.conflicts > 0
        assert solver.stats.learned_clauses > 0

    def test_pigeonhole_sat(self):
        solver = DPLLSolver(_pigeonhole(5, 5))
        model = solver.solve()
        assert model is not None
        assert _satisfies(_pigeonhole(5, 5), model)

    def test_restarts_fire_on_hard_instances(self):
        solver = DPLLSolver(_pigeonhole(7, 6))
        assert solver.solve() is None
        assert solver.stats.restarts > 0

    def test_brute_force_refuses_large_instances(self):
        clauses = [[v] for v in range(1, 40)]
        with pytest.raises(ReductionError):
            brute_force_satisfiable(clauses)

    def test_cnf_formula_brute_force_bound(self):
        formula = CNFFormula([[v] for v in range(1, 14)])
        with pytest.raises(ReductionError):
            formula.is_satisfiable_brute_force()
        assert formula.is_satisfiable()

