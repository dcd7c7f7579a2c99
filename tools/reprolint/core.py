"""The ``reprolint`` framework: rules, registry, waivers, file runner.

``reprolint`` is an AST-based lint suite for invariants that are specific to
this repository and that no generic linter knows about — the guarantees the
Fan–Geerts deciders rest on:

* world enumeration is deterministic — the early-check and rooted-run
  tests pin exact ``(valuation, world)`` sequences — so world-enumeration
  paths must never iterate unordered sets (R001);
* ``CheckerSession`` push/pop stays balanced across exceptions (R002);
* deciders resolve engines through the registry, never by importing engine
  classes directly (R003);
* public decider entry points return :class:`repro.decision.Decision` and
  never swallow ``SearchCancelledError`` (R004);
* stats ledgers accumulate in place and are never rebound to another
  object's ``.stats`` outside ``__init__`` (R006).

A rule is a :class:`Rule` subclass registered with :func:`register_rule`.
Each rule carries its own *fixture snippets* (``must_flag`` / ``must_pass``)
which double as documentation and as the test corpus: the meta-test in
``tests/reprolint`` asserts every registered rule flags all of its
``must_flag`` snippets and none of its ``must_pass`` snippets.

Intentional violations are waived inline::

    for row in candidate_set:  # reprolint: disable=R001 -- membership order irrelevant here

A waiver comment covers its own line and the line directly below it (so a
standalone comment above the flagged statement also works).  Waivers naming
unknown rule codes are themselves reported (code ``R000``) so stale waivers
cannot rot silently.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, ClassVar, Iterable, Iterator, Sequence

#: ``# reprolint: disable=R001`` or ``disable=R001,R002`` (optionally followed
#: by ``-- justification`` free text, which the parser ignores).
WAIVER_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)")

#: Framework-level diagnostics (parse failures, malformed waivers).
FRAMEWORK_CODE = "R000"

#: Directory names never descended into when walking lint targets.
SKIP_DIRS = frozenset(
    {".git", "__pycache__", ".hypothesis", ".pytest_cache", ".venv", "build", "dist"}
)


@dataclass(frozen=True)
class Violation:
    """One lint finding, pointing at ``path:line:col``."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_json(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


class Rule:
    """Base class for reprolint rules.

    Subclasses set the class attributes below and implement :meth:`check`.
    ``fixture_path`` is a representative path for which :meth:`applies_to`
    returns ``True``; the fixture tests lint the ``must_flag`` /
    ``must_pass`` snippets *as if* they lived at that path.
    """

    code: ClassVar[str]
    name: ClassVar[str]
    rationale: ClassVar[str]
    fixture_path: ClassVar[str]
    must_flag: ClassVar[tuple[str, ...]] = ()
    must_pass: ClassVar[tuple[str, ...]] = ()

    def applies_to(self, path: str) -> bool:
        """Whether the rule checks files at ``path`` (posix-style)."""
        return True

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        """Yield the rule's violations for one parsed module."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for type purposes

    def violation(self, node: ast.AST, path: str, message: str) -> Violation:
        """A :class:`Violation` anchored at ``node``."""
        return Violation(
            rule=self.code,
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


_RULES: dict[str, Rule] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry (by ``code``)."""
    if cls.code in _RULES:
        raise ValueError(f"duplicate reprolint rule code {cls.code!r}")
    _RULES[cls.code] = cls()
    return cls


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, ordered by code."""
    _load_builtin_rules()
    return tuple(_RULES[code] for code in sorted(_RULES))


def get_rule(code: str) -> Rule:
    """Look up one registered rule by its code."""
    _load_builtin_rules()
    try:
        return _RULES[code]
    except KeyError:
        raise KeyError(
            f"unknown reprolint rule {code!r}; known rules: {sorted(_RULES)}"
        ) from None


def _load_builtin_rules() -> None:
    # Imported lazily so `import tools.reprolint.core` never cycles with the
    # rule modules (which import this module for the base class).
    from tools.reprolint import rules  # noqa: F401


# ---------------------------------------------------------------------------
# waivers
# ---------------------------------------------------------------------------
def parse_waivers(source: str) -> dict[int, set[str]]:
    """Map line number → rule codes waived on that line.

    A trailing waiver comment covers its own line (and the line below, for
    multi-line statements).  A standalone comment waiver covers every
    following comment line plus the first code line after the comment block,
    so multi-line justifications work::

        # reprolint: disable=R001 -- first line of the justification,
        # which may continue over more comment lines.
        for row in candidate_set:
            ...
    """
    lines = source.splitlines()
    waived: dict[int, set[str]] = {}
    for lineno, text in enumerate(lines, start=1):
        match = WAIVER_RE.search(text)
        if match is None:
            continue
        codes = {code.strip() for code in match.group(1).split(",") if code.strip()}
        covered = {lineno}
        if text.lstrip().startswith("#"):
            # Standalone comment: extend through the comment block to the
            # first code line below it.
            cursor = lineno + 1
            while cursor <= len(lines) and lines[cursor - 1].lstrip().startswith("#"):
                covered.add(cursor)
                cursor += 1
            covered.add(cursor)
        else:
            covered.add(lineno + 1)
        for line in covered:
            waived.setdefault(line, set()).update(codes)
    return waived


def _waiver_diagnostics(source: str, path: str) -> list[Violation]:
    """R000 findings for waivers naming rule codes that do not exist."""
    _load_builtin_rules()
    known = set(_RULES) | {"all"}
    findings: list[Violation] = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = WAIVER_RE.search(text)
        if match is None:
            continue
        for code in (c.strip() for c in match.group(1).split(",")):
            if code and code not in known:
                findings.append(
                    Violation(
                        rule=FRAMEWORK_CODE,
                        path=path,
                        line=lineno,
                        col=match.start() + 1,
                        message=f"waiver names unknown rule code {code!r}",
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------
def lint_source(
    source: str,
    path: str,
    rules: Sequence[Rule] | None = None,
    *,
    respect_waivers: bool = True,
) -> list[Violation]:
    """Lint one module's source text as if it lived at ``path``."""
    selected = all_rules() if rules is None else tuple(rules)
    posix = Path(path).as_posix()
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Violation(
                rule=FRAMEWORK_CODE,
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                message=f"could not parse file: {exc.msg}",
            )
        ]
    findings: list[Violation] = []
    for rule in selected:
        if rule.applies_to(posix):
            findings.extend(rule.check(tree, path))
    if respect_waivers:
        waived = parse_waivers(source)
        findings = [
            f
            for f in findings
            if not ({f.rule, "all"} & waived.get(f.line, set()))
        ]
        findings.extend(_waiver_diagnostics(source, path))
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))


def iter_target_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """The ``.py`` files under the given files/directories, sorted."""
    seen: set[Path] = set()
    collected: list[Path] = []
    for raw in paths:
        target = Path(raw)
        if target.is_dir():
            candidates = sorted(
                p
                for p in target.rglob("*.py")
                if not (set(p.parts) & SKIP_DIRS)
            )
        else:
            candidates = [target]
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                collected.append(candidate)
    return iter(collected)


def lint_paths(
    paths: Iterable[str | Path],
    rules: Sequence[Rule] | None = None,
    *,
    respect_waivers: bool = True,
) -> tuple[list[Violation], int]:
    """Lint files/directories; returns ``(violations, files_checked)``."""
    findings: list[Violation] = []
    checked = 0
    for target in iter_target_files(paths):
        checked += 1
        findings.extend(
            lint_source(
                target.read_text(encoding="utf-8"),
                str(target),
                rules,
                respect_waivers=respect_waivers,
            )
        )
    return findings, checked
