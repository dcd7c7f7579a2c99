"""R004 — deciders return ``Decision`` and never swallow cancellation.

PR 4 rebuilt the public decision surface around
:class:`repro.decision.Decision`: a truthy/falsy verdict carrying stats,
witnesses and engine attribution.  A decider that returns a bare ``bool``
silently drops all of that, and callers (the :class:`repro.api.Database`
facade, benchmarks reading ``Decision.stats``) break in ways no test of the
*verdict* notices.  Similarly, ``SearchCancelledError`` is the engines'
cancellation signal (the ``stop_check`` hook) — an ``except`` that eats it
turns "the caller cancelled" into "the decider answered", an unsound
verdict.

Inside ``src/repro/completeness/`` the rule flags:

* a module-level function that drives a
  :class:`~repro.decision.DecisionRecorder` but is not annotated
  ``-> Decision``;
* a *public* module-level function annotated ``-> bool`` (predicates that
  are genuinely world-level helpers carry a waiver saying so);
* an ``except`` handler that can catch ``SearchCancelledError`` (named
  directly, via ``Exception``/``BaseException``, or bare) without
  re-raising.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.reprolint.core import Rule, Violation, register_rule

_SWALLOWING_TYPES = frozenset({"SearchCancelledError", "Exception", "BaseException"})


def _handler_catches_cancellation(handler: ast.ExceptHandler) -> str | None:
    """The offending exception name if the handler can catch cancellation."""
    if handler.type is None:
        return "bare except"
    candidates: list[ast.expr]
    if isinstance(handler.type, ast.Tuple):
        candidates = list(handler.type.elts)
    else:
        candidates = [handler.type]
    for candidate in candidates:
        name: str | None = None
        if isinstance(candidate, ast.Name):
            name = candidate.id
        elif isinstance(candidate, ast.Attribute):
            name = candidate.attr
        if name in _SWALLOWING_TYPES:
            return name
    return None


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(node, ast.Raise) for node in ast.walk(handler))


@register_rule
class DecisionDisciplineRule(Rule):
    code = "R004"
    name = "decider-decision-discipline"
    rationale = (
        "public decider entry points must return Decision (stats, witness "
        "and engine attribution travel with the verdict) and must let "
        "SearchCancelledError propagate"
    )
    fixture_path = "src/repro/completeness/example.py"

    must_flag = (
        # drives a recorder but is annotated -> bool
        "from repro.decision import DecisionRecorder\n"
        "def is_thing(cinstance) -> bool:\n"
        "    rec = DecisionRecorder('thing', None)\n"
        "    with rec:\n"
        "        holds = bool(cinstance)\n"
        "    return holds\n",
        # public entry point returning a bare bool\n
        "def is_complete(cinstance) -> bool:\n"
        "    return bool(cinstance)\n",
        # swallows cancellation
        "def sweep(worlds):\n"
        "    try:\n"
        "        return sum(1 for _ in worlds)\n"
        "    except SearchCancelledError:\n"
        "        return 0\n",
        # a broad except swallows cancellation too
        "def sweep(worlds):\n"
        "    try:\n"
        "        return sum(1 for _ in worlds)\n"
        "    except Exception:\n"
        "        return 0\n",
    )
    must_pass = (
        # the canonical recorder shape
        "from repro.decision import Decision, DecisionRecorder\n"
        "def is_thing(cinstance) -> Decision:\n"
        "    rec = DecisionRecorder('thing', None)\n"
        "    with rec:\n"
        "        holds = bool(cinstance)\n"
        "    return rec.decision(holds)\n",
        # private helpers may return bool
        "def _prune(row) -> bool:\n"
        "    return bool(row)\n",
        # specific non-cancellation exceptions are fine
        "def sweep(worlds):\n"
        "    try:\n"
        "        return sum(1 for _ in worlds)\n"
        "    except BoundExceededError:\n"
        "        return 0\n",
        # re-raising keeps cancellation flowing
        "def sweep(worlds, log):\n"
        "    try:\n"
        "        return sum(1 for _ in worlds)\n"
        "    except SearchCancelledError:\n"
        "        log.append('cancelled')\n"
        "        raise\n",
    )

    def applies_to(self, path: str) -> bool:
        return "src/repro/completeness/" in path

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(stmt, path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler):
                caught = _handler_catches_cancellation(node)
                if caught is not None and not _reraises(node):
                    yield self.violation(
                        node,
                        path,
                        f"except handler ({caught}) swallows "
                        "SearchCancelledError; cancellation must propagate "
                        "(catch something narrower or re-raise)",
                    )

    def _check_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef, path: str
    ) -> Iterator[Violation]:
        returns = node.returns
        returns_decision = (
            isinstance(returns, ast.Name) and returns.id == "Decision"
        ) or (
            isinstance(returns, ast.Constant) and returns.value == "Decision"
        )
        uses_recorder = any(
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "DecisionRecorder"
            for sub in ast.walk(node)
        )
        if uses_recorder and not returns_decision:
            yield self.violation(
                node,
                path,
                f"{node.name}() drives a DecisionRecorder but is not "
                "annotated -> Decision; deciders return rich Decision "
                "results, not bare values",
            )
            return
        is_public = not node.name.startswith("_")
        returns_bool = isinstance(returns, ast.Name) and returns.id == "bool"
        if is_public and returns_bool:
            yield self.violation(
                node,
                path,
                f"public completeness entry point {node.name}() returns a "
                "bare bool; return a Decision (or waive for genuine "
                "world-level predicates)",
            )
