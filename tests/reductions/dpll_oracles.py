"""Reference helpers the DPLL solver suites check it against.

* :func:`solve_cnf` solves a clause list with a fresh
  :class:`repro.reductions.dpll.DPLLSolver` (the default decision set, so
  the model is total);
* :func:`brute_force_satisfiable` decides satisfiability by trying every
  assignment.  It shares no code with the solver (nor with
  :class:`repro.reductions.sat.CNFFormula`), so the two cannot agree by
  sharing a bug;
* :func:`enumerate_models` drives a solver through the solve → block →
  resume loop the SAT engines run, with the plain full-polarity blocking
  clause.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from repro.exceptions import ReductionError
from repro.reductions.dpll import DPLLSolver


def solve_cnf(clauses: Iterable[Sequence[int]]) -> dict[int, bool] | None:
    """Solve a clause list with a fresh solver."""
    return DPLLSolver(clauses).solve()


def brute_force_satisfiable(
    clauses: Sequence[Sequence[int]], assignment_limit: int = 1 << 22
) -> bool:
    """Exhaustive satisfiability check; refuses more than ``assignment_limit``
    assignments."""
    variables = sorted({abs(lit) for clause in clauses for lit in clause})
    if 2 ** len(variables) > assignment_limit:
        raise ReductionError(
            f"brute-force check over {len(variables)} variables exceeds the "
            "assignment limit; use DPLLSolver instead"
        )
    for values in itertools.product((False, True), repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if all(
            any(assignment[abs(lit)] == (lit > 0) for lit in clause)
            for clause in clauses
        ):
            return True
    return False


def enumerate_models(
    solver: DPLLSolver, project_onto: Sequence[int] | None = None
) -> Iterator[dict[int, bool]]:
    """Every model, each blocked before the solver resumes.

    A model is blocked on its values of ``project_onto`` (default: every
    variable it assigns); projected variables it leaves unassigned are
    don't-cares and add no literal.
    """
    while (model := solver.solve()) is not None:
        yield model
        scope = sorted(model) if project_onto is None else project_onto
        blocking = [-var if model[var] else var for var in scope if var in model]
        if not blocking:
            return  # nothing to block: the projection admits one model
        solver.add_clause(blocking)
