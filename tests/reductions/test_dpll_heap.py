"""The activity heap picks exactly the variable the linear scan would pick.

:class:`DPLLSolver` takes its branch variable from a heap of
``(-activity, var)`` entries with lazy deletion.  The reference here is the
obvious picker it replaced: scan every variable and take the unassigned one
of highest activity, lowest identifier on ties.  :class:`LinearScanSolver`
overrides only ``_pick_branch_variable``, so both solvers share propagation,
learning, restarts and phase saving, and any divergence in models,
enumeration order or :class:`SolverStats` can only come from the branching
order.  The suites run both in lockstep on random CNFs: solving under
assumptions with clauses added between calls, projected enumeration, and a
rescale threshold low enough that activity rescaling (which rebuilds the
heap) fires constantly.  The heap side also checks the heap's invariant
before every pick (:class:`CheckedHeapSolver`), since a broken heap can
still pick the right variable for a while.
"""

from __future__ import annotations

import random

import pytest

from repro.reductions import dpll
from repro.reductions.dpll import DPLLSolver


class LinearScanSolver(DPLLSolver):
    """A :class:`DPLLSolver` whose branching scans every variable."""

    def _pick_branch_variable(self) -> int | None:
        best: int | None = None
        best_activity = -1.0
        for var in self._vars:
            if var in self._assign:
                continue
            activity = self._activity.get(var, 0.0)
            if activity > best_activity or (
                activity == best_activity and (best is None or var < best)
            ):
                best = var
                best_activity = activity
        return best


class CheckedHeapSolver(DPLLSolver):
    """The library solver, asserting its heap invariant before each pick."""

    def _pick_branch_variable(self) -> int | None:
        order = self._order
        assert all(order[(i - 1) // 2] <= order[i] for i in range(1, len(order)))
        entries = set(order)
        for var in self._vars:
            if var not in self._assign:
                activity = self._activity.get(var, 0.0)
                assert self._queued.get(var) == activity
                assert (-activity, var) in entries
        return super()._pick_branch_variable()


def _random_cnf(rng: random.Random, variables: int, ratio: float) -> list[list[int]]:
    """Random 3-CNF (some shorter clauses) around the given clause ratio."""
    clauses = []
    for _ in range(int(variables * ratio)):
        width = rng.choice((2, 3, 3, 3))
        picked = rng.sample(range(1, variables + 1), width)
        clauses.append([v if rng.random() < 0.5 else -v for v in picked])
    return clauses


def _pair(clauses):
    return CheckedHeapSolver(clauses), LinearScanSolver(clauses)


def _assert_lockstep(rng: random.Random, variables: int, ratio: float) -> None:
    """Solve both solvers through one random call script, step by step."""
    clauses = _random_cnf(rng, variables, ratio)
    heap, scan = _pair(clauses)
    for _call in range(4):
        assumptions = [
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, variables + 3), rng.randint(0, 3))
        ]
        assert heap.solve(assumptions) == scan.solve(assumptions)
        assert heap.stats == scan.stats
        for clause in _random_cnf(rng, variables + 2, 0.3):
            heap.add_clause(clause)
            scan.add_clause(clause)
    project = sorted(rng.sample(range(1, variables + 1), min(5, variables)))
    heap_models = list(heap.enumerate_models(project_onto=project))
    scan_models = list(scan.enumerate_models(project_onto=project))
    assert heap_models == scan_models
    assert heap.stats == scan.stats


@pytest.mark.parametrize("seed", range(6))
def test_heap_matches_scan_under_assumptions_and_enumeration(seed):
    rng = random.Random(seed)
    for _ in range(25):
        _assert_lockstep(rng, rng.randint(6, 24), rng.uniform(2.5, 5.0))


@pytest.mark.parametrize("seed", range(3))
def test_heap_matches_scan_across_activity_rescales(monkeypatch, seed):
    monkeypatch.setattr(dpll, "_ACTIVITY_RESCALE", 2.0)
    rng = random.Random(100 + seed)
    for _ in range(20):
        _assert_lockstep(rng, rng.randint(10, 30), rng.uniform(3.8, 4.6))


def test_hard_instance_exercises_rescales_in_lockstep(monkeypatch):
    # A pigeonhole refutation needs many conflicts; with a low threshold the
    # heap is rebuilt mid-search many times.
    monkeypatch.setattr(dpll, "_ACTIVITY_RESCALE", 2.0)
    pigeons, holes = 6, 5

    def var(pigeon: int, hole: int) -> int:
        return pigeon * holes + hole + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    heap, scan = _pair(clauses)
    assert heap.solve() is None and scan.solve() is None
    assert heap.stats == scan.stats
    assert heap.stats.conflicts > 50
