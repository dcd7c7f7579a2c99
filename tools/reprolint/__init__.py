"""reprolint — repo-specific AST invariant lints for the repro codebase.

Run as ``python -m tools.reprolint src tests benchmarks``; see
:mod:`tools.reprolint.core` for the framework and the waiver syntax, and
``tools/reprolint/rules/`` for the individual rules (R001–R004 and R006).
"""

from tools.reprolint.core import (
    Rule,
    Violation,
    all_rules,
    get_rule,
    lint_paths,
    lint_source,
    parse_waivers,
    register_rule,
)

__all__ = [
    "Rule",
    "Violation",
    "all_rules",
    "get_rule",
    "lint_paths",
    "lint_source",
    "parse_waivers",
    "register_rule",
]
