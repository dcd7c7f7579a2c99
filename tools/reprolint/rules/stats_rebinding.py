"""R006 — stats ledgers must accumulate, never be rebound to another object's.

The engines publish observability counters through long-lived stats ledgers
(:class:`repro.reductions.dpll.SolverStats`,
:class:`repro.search.engine.SearchStats`, ...).  Callers hold a
reference to the ledger and read it *after* the work ran, so a ledger slot
must be written once and then mutated in place.  Rebinding a slot to some
*other* object's ``.stats`` attribute — the historical
``SATWorldSearch._solver`` bug, where every call did
``self.stats.solver = solver.stats`` with a freshly built solver — silently
discards everything accumulated so far and leaves earlier readers holding a
stale ledger.

The rule therefore flags any assignment whose target is a stats slot (an
attribute path with a ``stats`` component, e.g. ``self.stats.solver``) and
whose value aliases another object's ledger (an expression ending in
``.stats``), outside ``__init__`` / ``__post_init__`` where the initial
wiring legitimately lives.  The sanctioned alternatives are to create the
ledger once (lazily is fine: ``if self.stats.solver is None: ... =
SolverStats()``) and hand the *shared* ledger to each worker
(``DPLLSolver(clauses, stats=self.stats.solver)``) so counts accumulate.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.reprolint.core import Rule, Violation, register_rule

#: Methods where wiring a ledger from a collaborator is legitimate one-time
#: initialisation rather than a mid-flight rebinding.
_INIT_METHODS = frozenset({"__init__", "__post_init__"})


def _attribute_path(node: ast.expr) -> list[str]:
    """Dotted component names of an attribute chain (``[]`` if not one)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return []


def _is_stats_slot(target: ast.expr) -> bool:
    """Whether ``target`` is an attribute path with a ``stats`` component."""
    path = _attribute_path(target)
    return len(path) >= 2 and any("stats" in part.lower() for part in path)


def _aliases_foreign_stats(value: ast.expr) -> bool:
    """Whether ``value`` reads some object's ``.stats`` attribute."""
    return isinstance(value, ast.Attribute) and value.attr == "stats"


@register_rule
class StatsRebindingRule(Rule):
    code = "R006"
    name = "stats-ledger-rebinding"
    rationale = (
        "stats ledgers are read by callers after the fact; rebinding a slot "
        "to another object's .stats discards accumulated counts and strands "
        "earlier readers on a stale ledger — share one ledger instead"
    )
    fixture_path = "src/repro/search/example.py"

    must_flag = (
        # The historical SATWorldSearch._solver bug: every call throws away
        # the counts of every previous solver.
        "def _solver(self):\n"
        "    solver = DPLLSolver(self._encoding.clauses)\n"
        "    self.stats.solver = solver.stats\n"
        "    return solver\n",
        # Same shape through a local alias of the ledger owner.
        "def refresh(search, session):\n"
        "    search.stats.solver = session.solver.stats\n",
    )
    must_pass = (
        # One-time wiring in __init__ is the sanctioned place to alias.
        "class Search:\n"
        "    def __init__(self, solver):\n"
        "        self.stats.solver = solver.stats\n",
        # The fixed shape: create the ledger once, share it with workers.
        "def _solver(self):\n"
        "    if self.stats.solver is None:\n"
        "        self.stats.solver = SolverStats()\n"
        "    return DPLLSolver(self._clauses, stats=self.stats.solver)\n",
        # Non-ledger targets reading .stats are somebody else's business.
        "def snapshot(registry, solver):\n"
        "    registry.latest = solver.stats\n",
    )

    def applies_to(self, path: str) -> bool:
        return "src/repro/" in path

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        yield from self._visit(tree.body, path, in_init=False)

    def _visit(
        self, body: list[ast.stmt], path: str, in_init: bool
    ) -> Iterator[Violation]:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._visit(
                    stmt.body, path, in_init=stmt.name in _INIT_METHODS
                )
                continue
            if isinstance(stmt, ast.ClassDef):
                yield from self._visit(stmt.body, path, in_init=False)
                continue
            if not in_init:
                yield from self._check_stmt(stmt, path)
            for field in ("body", "orelse", "finalbody"):
                value = getattr(stmt, field, None)
                if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
                    yield from self._visit(value, path, in_init)
            for handler in getattr(stmt, "handlers", []):
                yield from self._visit(handler.body, path, in_init)

    def _check_stmt(self, stmt: ast.stmt, path: str) -> Iterator[Violation]:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            return
        if not _aliases_foreign_stats(value):
            return
        for target in targets:
            if _is_stats_slot(target):
                yield self.violation(
                    stmt,
                    path,
                    "stats slot rebound to another object's .stats ledger; "
                    "accumulated counts are discarded — create the ledger "
                    "once and pass it to workers (stats=...) instead",
                )
