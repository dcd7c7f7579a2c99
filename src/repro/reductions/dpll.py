"""A DPLL satisfiability solver with watched-literal propagation.

The lower-bound reductions (:mod:`repro.reductions.sat`) and the SAT-backed
world-search engine (:mod:`repro.search.sat_engine`) both need a propositional
solver that scales past the handful of variables the brute-force
``itertools.product`` scan can enumerate.  :class:`DPLLSolver` is a classic
trail-based DPLL procedure hardened with the standard machinery of modern
solvers:

* **unit propagation via two watched literals** — each clause of length ≥ 2
  watches two of its literals and is only inspected when one of them is
  falsified, so propagation cost is proportional to the clauses that can
  actually become unit, not to the clause database size;
* **first-UIP conflict-driven clause learning** — every propagation records
  its reason clause, so a conflict is analysed on the implication graph:
  resolving backwards over the current decision level until one literal of
  that level remains (the first unique implication point) yields an
  asserting clause, which is shrunk further by recursive self-subsumption
  minimisation and installed with a non-chronological backjump to its
  asserting level;
* **conflict-driven restarts** — after a geometrically growing number of
  conflicts the trail is reset to level zero; the learned clauses (and the
  saved phases and variable activities) carry the progress across the
  restart, so restarts redirect the search without losing completeness;
* **dynamic variable activities with phase saving** — variables involved in
  recent conflicts are branched on first, and unassigned variables remember
  the polarity they last held.

Literals follow the DIMACS convention used by :mod:`repro.reductions.sat`:
a literal is a non-zero integer, ``+v`` for variable ``v`` and ``-v`` for its
negation.  Variable identifiers may be arbitrary (sparse) positive integers.

The solver is incremental in the way the world-search engine needs: clauses
may be added between ``solve()`` calls (e.g. blocking clauses during model
enumeration) and each ``solve()`` restarts the search while keeping the
learned clauses, activities and phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from repro.exceptions import ReductionError

#: Activity decay applied after every conflict (MiniSat-style bumping).
_ACTIVITY_INC_FACTOR = 1.0 / 0.95
#: Rescale threshold preventing float overflow of activities.
_ACTIVITY_RESCALE = 1e100
#: First restart after this many conflicts; grows geometrically afterwards.
_RESTART_BASE = 64
_RESTART_FACTOR = 1.5


@dataclass
class SolverStats:
    """Counters describing the work done across all ``solve()`` calls."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned_clauses: int = 0
    solve_calls: int = 0


class DPLLSolver:
    """Trail-based DPLL with watched literals, learning and restarts."""

    def __init__(
        self,
        clauses: Iterable[Sequence[int]] = (),
        *,
        stats: SolverStats | None = None,
    ) -> None:
        self._clauses: list[list[int]] = []
        self._watches: dict[int, list[int]] = {}
        self._units: list[int] = []
        self._vars: set[int] = set()
        self._unsat = False

        self._assign: dict[int, bool] = {}
        self._level: dict[int, int] = {}
        self._reason: dict[int, list[int] | None] = {}
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0

        self._phase: dict[int, bool] = {}
        self._activity: dict[int, float] = {}
        self._activity_inc = 1.0

        # A caller-supplied ``stats`` lets several solver instances fold
        # their counters into one ledger (the world-search engines build a
        # fresh solver per enumeration but report one set of totals).
        self.stats = SolverStats() if stats is None else stats
        for clause in clauses:
            self.add_clause(clause)

    # ------------------------------------------------------------------
    # clause database
    # ------------------------------------------------------------------
    def add_clause(self, literals: Sequence[int]) -> None:
        """Add a clause; duplicates are merged and tautologies dropped.

        Clauses may be added between ``solve()`` calls (the next call picks
        them up); adding the empty clause marks the instance unsatisfiable.
        """
        seen: set[int] = set()
        unique: list[int] = []
        tautology = False
        for lit in literals:
            if lit == 0:
                raise ReductionError("literal 0 is not allowed (DIMACS convention)")
            self._vars.add(abs(lit))
            if lit in seen:
                continue
            if -lit in seen:
                tautology = True  # always satisfied; still register its variables
                continue
            seen.add(lit)
            unique.append(lit)
        if tautology:
            return
        if not unique:
            self._unsat = True
            return
        if len(unique) == 1:
            self._units.append(unique[0])
            return
        self._attach(unique)

    def _attach(self, clause: list[int]) -> int:
        """Store a (length ≥ 2) clause and watch its first two literals."""
        index = len(self._clauses)
        self._clauses.append(clause)
        self._watches.setdefault(clause[0], []).append(index)
        self._watches.setdefault(clause[1], []).append(index)
        return index

    @property
    def variables(self) -> frozenset[int]:
        """All variable identifiers mentioned by the clause database."""
        return frozenset(self._vars)

    # ------------------------------------------------------------------
    # assignment trail
    # ------------------------------------------------------------------
    def _value(self, lit: int) -> bool | None:
        value = self._assign.get(abs(lit))
        if value is None:
            return None
        return value if lit > 0 else not value

    def _enqueue(self, lit: int, reason: list[int] | None = None) -> bool:
        """Assert a literal at the current level; ``False`` on conflict.

        ``reason`` is the clause that forced the literal (``None`` for
        decisions and assumption installs); first-UIP analysis resolves over
        these antecedents to walk the implication graph.
        """
        current = self._value(lit)
        if current is not None:
            return current
        var = abs(lit)
        self._assign[var] = lit > 0
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _backtrack(self, target_level: int) -> None:
        """Undo all assignments above ``target_level``, saving phases."""
        if len(self._trail_lim) <= target_level:
            return
        cut = self._trail_lim[target_level]
        for lit in reversed(self._trail[cut:]):
            var = abs(lit)
            self._phase[var] = self._assign.pop(var)
            del self._level[var]
            self._reason.pop(var, None)
        del self._trail[cut:]
        del self._trail_lim[target_level:]
        self._qhead = min(self._qhead, len(self._trail))

    # ------------------------------------------------------------------
    # propagation (two watched literals)
    # ------------------------------------------------------------------
    def _propagate(self) -> list[int] | None:
        """Exhaust unit propagation; return a conflicting clause or ``None``."""
        while self._qhead < len(self._trail):
            lit = self._trail[self._qhead]
            self._qhead += 1
            false_lit = -lit
            watchers = self._watches.get(false_lit)
            if not watchers:
                continue
            kept: list[int] = []
            conflict: list[int] | None = None
            for cursor, index in enumerate(watchers):
                clause = self._clauses[index]
                # Normalise: the falsified watch sits at position 1.
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                other = clause[0]
                if self._value(other) is True:
                    kept.append(index)
                    continue
                for position in range(2, len(clause)):
                    if self._value(clause[position]) is not False:
                        clause[1], clause[position] = clause[position], clause[1]
                        self._watches.setdefault(clause[1], []).append(index)
                        break
                else:
                    kept.append(index)
                    if self._value(other) is False:
                        kept.extend(watchers[cursor + 1 :])
                        conflict = clause
                        break
                    self.stats.propagations += 1
                    self._enqueue(other, clause)
            self._watches[false_lit] = kept
            if conflict is not None:
                return conflict
        return None

    # ------------------------------------------------------------------
    # heuristics
    # ------------------------------------------------------------------
    def _bump(self, variables: Iterable[int]) -> None:
        for var in variables:
            bumped = self._activity.get(var, 0.0) + self._activity_inc
            self._activity[var] = bumped
            if bumped > _ACTIVITY_RESCALE:
                for key in self._activity:
                    self._activity[key] *= 1.0 / _ACTIVITY_RESCALE
                self._activity_inc *= 1.0 / _ACTIVITY_RESCALE
        self._activity_inc *= _ACTIVITY_INC_FACTOR

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

    # ------------------------------------------------------------------
    # conflict handling (first-UIP learning + backjumping)
    # ------------------------------------------------------------------
    def _resolve_conflict(self, conflict: list[int]) -> bool:
        """Learn from a conflict by first-UIP analysis; ``False`` when refuted.

        Starting from the conflicting clause, repeatedly resolve out the
        most recently assigned current-level literal against its reason
        clause until exactly one current-level literal remains — the first
        unique implication point.  The resulting clause is resolution-derived
        from the clause database alone, so it is globally entailed even when
        the conflict arose under assumptions.
        """
        self.stats.conflicts += 1
        if not self._trail_lim:
            return False  # conflict with no decisions: refuted at level 0
        current_level = len(self._trail_lim)
        seen: set[int] = set()
        others: list[int] = []  # learned literals below the current level
        to_bump: list[int] = []
        path = 0  # current-level literals still awaiting resolution
        uip = 0
        p = 0  # the trail literal just resolved out (skip it in its reason)
        reason = conflict
        index = len(self._trail) - 1
        while True:
            # Reason clauses alias the (watch-swapped, mutable) clause-DB
            # lists, so the resolved literal is skipped by value, never by
            # position.
            for lit in reason:
                if lit == p:
                    continue
                var = abs(lit)
                if var in seen:
                    continue
                level = self._level.get(var, 0)
                if level == 0:
                    continue  # falsified at level 0: resolved away for free
                seen.add(var)
                to_bump.append(var)
                if level >= current_level:
                    path += 1
                else:
                    others.append(lit)
            while abs(self._trail[index]) not in seen:
                index -= 1
            uip = self._trail[index]
            index -= 1
            seen.discard(abs(uip))
            path -= 1
            if path <= 0:
                break
            antecedent = self._reason.get(abs(uip))
            if antecedent is None:  # pragma: no cover - decisions end the walk
                raise ReductionError(
                    "conflict analysis reached a decision before the UIP"
                )
            reason = antecedent
            p = uip
        self._bump(to_bump)
        # ``seen`` now holds exactly the variables of ``others``; use it to
        # drop literals whose negations are implied by the rest of the clause.
        if others:
            cache: dict[int, bool] = {}
            others = [
                lit
                for lit in others
                if not self._literal_redundant(lit, seen, cache)
            ]
        asserting = -uip
        learned = [asserting, *others]
        self.stats.learned_clauses += 1
        if len(learned) == 1:
            self._units.append(asserting)
            self._backtrack(0)
            return self._enqueue(asserting)
        # Backjump to the asserting level: the deepest level among the other
        # literals.  Put one literal of that level at position 1 so the two
        # watches sit on the two deepest literals of the clause.
        jump = 0
        deepest = 1
        for position in range(1, len(learned)):
            level = self._level[abs(learned[position])]
            if level > jump:
                jump = level
                deepest = position
        learned[1], learned[deepest] = learned[deepest], learned[1]
        self._backtrack(jump)
        self._attach(learned)
        return self._enqueue(asserting, learned)

    def _literal_redundant(
        self, lit: int, clause_vars: set[int], cache: dict[int, bool]
    ) -> bool:
        """Recursive learned-clause minimisation (iterative implementation).

        A learned literal is redundant when every antecedent of its variable
        is, transitively, either fixed at level 0 or another variable of the
        learned clause — then the literal is self-subsumed by the rest of
        the clause.  Implemented with an explicit stack: antecedent chains
        can exceed Python's recursion limit on deep implication graphs.
        """

        def antecedent_vars(var: int) -> list[int] | None:
            reason = self._reason.get(var)
            if reason is None:
                return None  # a decision (or assumption): not derivable
            return [
                abs(q)
                for q in reason
                if abs(q) != var and self._level.get(abs(q), 0) > 0
            ]

        root = abs(lit)
        first = antecedent_vars(root)
        if first is None:
            return False
        work: list[tuple[int, list[int], int]] = [(root, first, 0)]
        while work:
            var, ants, pos = work.pop()
            descended = False
            while pos < len(ants):
                ant = ants[pos]
                pos += 1
                if ant in clause_vars or cache.get(ant) is True:
                    continue
                if cache.get(ant) is False:
                    for frame_var, _ants, _pos in work:
                        cache[frame_var] = False
                    cache[var] = False
                    return False
                child = antecedent_vars(ant)
                if child is None:
                    # Bottoms out in a decision: everything on the stack
                    # (including the root) fails.
                    cache[ant] = False
                    for frame_var, _ants, _pos in work:
                        cache[frame_var] = False
                    cache[var] = False
                    return False
                work.append((var, ants, pos))
                work.append((ant, child, 0))
                descended = True
                break
            if descended:
                continue
            cache[var] = True
        return True

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def solve(self, assumptions: Sequence[int] = ()) -> dict[int, bool] | None:
        """A satisfying assignment of every variable, or ``None`` (UNSAT).

        Each call restarts the search from level 0 (clauses added since the
        previous call are picked up) while keeping learned clauses, variable
        activities and saved phases.

        ``assumptions`` are literals the search must satisfy for *this call
        only*: they are installed as the first decisions (in order), so a
        ``None`` result means "unsatisfiable under the assumptions", not
        necessarily globally.  Clauses learned under assumptions remain
        globally sound: first-UIP clauses are resolution-derived from the
        clause database alone (assumptions enter only as decisions, never as
        resolvents), so they persist safely into later calls with different
        assumptions — this is what lets one solver outlive a stream of
        incremental updates (:mod:`repro.search.sat_engine`'s guarded
        re-encoding).
        """
        self.stats.solve_calls += 1
        for lit in assumptions:
            if lit == 0:
                raise ReductionError("literal 0 is not allowed (DIMACS convention)")
            self._vars.add(abs(lit))
        self._backtrack(0)
        # Reset level-0 state: re-assert all unit clauses from scratch so
        # clauses added between solve() calls take effect.
        for var in [abs(lit) for lit in self._trail]:
            self._phase[var] = self._assign.pop(var)
            self._level.pop(var, None)
        self._trail.clear()
        self._reason.clear()
        self._qhead = 0
        if self._unsat:
            return None
        for lit in self._units:
            if not self._enqueue(lit):
                return None

        conflicts_until_restart = _RESTART_BASE
        while True:
            conflict = self._propagate()
            if conflict is not None:
                if not self._resolve_conflict(conflict):
                    return None
                conflicts_until_restart -= 1
                if conflicts_until_restart <= 0:
                    self.stats.restarts += 1
                    self._backtrack(0)
                    conflicts_until_restart = int(
                        _RESTART_BASE
                        * _RESTART_FACTOR ** (self.stats.restarts)
                    )
                continue
            # Assumptions first: install each pending assumption as its own
            # decision level before any heuristic branching.  A falsified
            # assumption (by propagation or a learned clause) means UNSAT
            # under the assumptions.
            pending: int | None = None
            for lit in assumptions:
                value = self._value(lit)
                if value is False:
                    return None
                if value is None:
                    pending = lit
                    break
            if pending is not None:
                self.stats.decisions += 1
                self._trail_lim.append(len(self._trail))
                self._enqueue(pending)
                continue
            variable = self._pick_branch_variable()
            if variable is None:
                return dict(self._assign)
            self.stats.decisions += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(variable if self._phase.get(variable, False) else -variable)

    def enumerate_models(
        self, project_onto: Sequence[int] | None = None
    ) -> Iterator[dict[int, bool]]:
        """Enumerate satisfying assignments via blocking clauses.

        With ``project_onto`` given, models are enumerated up to their
        restriction to those variables (each projection appears exactly once);
        otherwise full models are blocked one by one.  Projected variables
        the clause database has never seen are don't-care: they contribute no
        blocking literal (and do not appear in the yielded models), so an
        unconstrained selector cannot crash the enumeration.  The blocking
        clauses stay in the solver, so interleaving with :meth:`add_clause`
        is safe.
        """
        while True:
            model = self.solve()
            if model is None:
                return
            yield model
            scope = project_onto if project_onto is not None else sorted(model)
            blocking = [
                -var if model[var] else var for var in scope if var in model
            ]
            if not blocking:
                return  # nothing to block: the projection admits one model
            self.add_clause(blocking)


def solve_cnf(clauses: Iterable[Sequence[int]]) -> dict[int, bool] | None:
    """One-shot convenience wrapper: solve a clause list with a fresh solver."""
    return DPLLSolver(clauses).solve()


def brute_force_satisfiable(
    clauses: Sequence[Sequence[int]], assignment_limit: int = 1 << 22
) -> bool:
    """Exhaustive satisfiability check, used to cross-validate the solver.

    Kept deliberately independent of :class:`DPLLSolver` (and of
    :class:`repro.reductions.sat.CNFFormula`) so the two implementations share
    no code paths; refuses instances whose assignment space exceeds
    ``assignment_limit``.
    """
    import itertools

    variables = sorted({abs(lit) for clause in clauses for lit in clause})
    if 2 ** len(variables) > assignment_limit:
        raise ReductionError(
            f"brute-force check over {len(variables)} variables exceeds the "
            "assignment limit; use DPLLSolver instead"
        )
    for values in itertools.product((False, True), repeat=len(variables)):
        assignment: Mapping[int, bool] = dict(zip(variables, values))
        if all(
            any(
                assignment[abs(lit)] == (lit > 0)
                for lit in clause
            )
            for clause in clauses
        ):
            return True
    return False
