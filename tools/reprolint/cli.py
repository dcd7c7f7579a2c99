"""Command-line front-end: ``python -m tools.reprolint [paths...]``."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from tools.reprolint.core import Rule, all_rules, lint_paths


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description=(
            "AST lints for repro-specific invariants: determinism of "
            "world-enumeration order, CheckerSession push/pop balance, "
            "engine-registry routing, Decision discipline, stats-ledger "
            "accumulation."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests", "benchmarks"],
        help="files or directories to lint (default: src tests benchmarks)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        metavar="CODE",
        help="run only the given rule code(s); may be repeated",
    )
    parser.add_argument(
        "--no-waivers",
        action="store_true",
        help="report violations even where an inline waiver covers them",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    return parser


def _select_rules(codes: Sequence[str] | None) -> tuple[Rule, ...] | None:
    if not codes:
        return None
    by_code = {rule.code: rule for rule in all_rules()}
    unknown = [code for code in codes if code not in by_code]
    if unknown:
        raise SystemExit(
            f"reprolint: unknown rule code(s) {unknown}; "
            f"known: {sorted(by_code)}"
        )
    return tuple(by_code[code] for code in codes)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name}")
            print(f"      {rule.rationale}")
        return 0
    rules = _select_rules(args.rule)
    violations, files_checked = lint_paths(
        args.paths, rules, respect_waivers=not args.no_waivers
    )
    if args.format == "json":
        print(
            json.dumps(
                {
                    "files_checked": files_checked,
                    "violations": [v.to_json() for v in violations],
                    "rules": [
                        {"code": rule.code, "name": rule.name}
                        for rule in (rules or all_rules())
                    ],
                },
                indent=2,
            )
        )
    else:
        for violation in violations:
            print(violation.format())
        summary = (
            f"reprolint: {len(violations)} violation(s) "
            f"in {files_checked} file(s)"
        )
        print(summary if violations else f"reprolint: clean ({files_checked} files)")
    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
