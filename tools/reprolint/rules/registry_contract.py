"""R003 — deciders resolve engines through the registry, never directly.

PR 4's registry (:mod:`repro.search.registry`) made engines pluggable: an
``engine=`` keyword accepts a name / :class:`EngineConfig` and everything
downstream resolves it via ``get_engine``.  That contract dies quietly the
first time a decider imports ``WorldSearch`` or ``SATWorldSearch``
directly — the capability flags, the ambient checker channel and the
``Decision`` stats collection are all bypassed, and third-party engines stop
being drop-ins for that code path.

The rule bans, inside ``src/repro/completeness/``, any import of the
concrete engine modules (``repro.search.engine`` / ``naive`` /
``sat_engine``) and any reference to the engine class names.
``repro.search.registry`` (and the checker in ``repro.search.propagation``)
remain fair game — that is the supported surface.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.reprolint.core import Rule, Violation, register_rule

# repro.search.engine is NOT module-banned: it hosts neutral helpers
# (world_key) next to the WorldSearch class; the class-name check below
# still catches the class being imported or used from anywhere.
_BANNED_MODULES = frozenset(
    {
        "repro.search.naive",
        "repro.search.sat_engine",
    }
)
_BANNED_NAMES = frozenset(
    {"WorldSearch", "NaiveWorldSearch", "SATWorldSearch"}
)


@register_rule
class RegistryContractRule(Rule):
    code = "R003"
    name = "direct-engine-import-in-decider"
    rationale = (
        "completeness deciders must resolve engines via "
        "repro.search.registry.get_engine / EngineConfig so capability "
        "routing, ambient channels and third-party engines keep working"
    )
    fixture_path = "src/repro/completeness/example.py"

    must_flag = (
        "from repro.search.naive import NaiveWorldSearch\n",
        "from repro.search.engine import WorldSearch\n"
        "def decide(cinstance, master, constraints):\n"
        "    return WorldSearch(cinstance, master, constraints).has_world()\n",
        "import repro.search.sat_engine\n",
    )
    must_pass = (
        "from repro.search.registry import EngineConfig, get_engine\n"
        "def decide(engine):\n"
        "    return get_engine(EngineConfig.coerce(engine).name or 'propagating')\n",
        "from repro.search.propagation import ConstraintChecker\n",
        "from repro.search.engine import world_key\n",
        "from repro.ctables.possible_worlds import has_model, models\n",
    )

    def applies_to(self, path: str) -> bool:
        return "src/repro/completeness/" in path

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module in _BANNED_MODULES:
                    yield self._flag(node, path, module)
                else:
                    for alias in node.names:
                        if alias.name in _BANNED_NAMES:
                            yield self._flag(node, path, alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in _BANNED_MODULES:
                        yield self._flag(node, path, alias.name)
            elif isinstance(node, ast.Name) and node.id in _BANNED_NAMES:
                if isinstance(node.ctx, ast.Load):
                    yield self._flag(node, path, node.id)

    def _flag(self, node: ast.AST, path: str, what: str) -> Violation:
        return self.violation(
            node,
            path,
            f"direct engine access ({what}) in a completeness decider; "
            "resolve engines via repro.search.registry.get_engine / "
            "EngineConfig instead",
        )
