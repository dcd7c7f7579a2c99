"""Every public module-level definition under ``src/repro`` has a caller.

A ``def`` or ``class`` that no ``src/`` code names and no ``__all__``
exports is reachable only from its own tests, so it is library code that
nothing uses.  The check reads all of ``src/`` at once, which a reprolint
rule (one module at a time) cannot, so it is a test.  A name counts as
referenced when any ``src/`` module uses it as an ``ast.Name``, an
``ast.Attribute`` or an import alias outside the definition's own body.
The match is by bare name, so it can miss an unused definition whose name
something else also carries, but it never flags a used one.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

#: Definitions that stay unreferenced on purpose, each with its reason.
ALLOWED = {
    "wide_constraint_workload": "benchmark-only workload family, due to move out of src/",
    "skewed_join_workload": "benchmark-only workload family, due to move out of src/",
    "disconnected_components_workload": (
        "benchmark-only workload family, due to move out of src/"
    ),
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _exports(node: ast.stmt) -> set[str]:
    """The names a module-level ``__all__ = [...]`` lists."""
    if not isinstance(node, ast.Assign) or not isinstance(node.value, (ast.List, ast.Tuple)):
        return set()
    if not any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
        return set()
    return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}


def _names(node: ast.AST) -> set[str]:
    """Every name ``node`` uses: names, attributes and imported names."""
    used: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            used.add(child.id)
        elif isinstance(child, ast.Attribute):
            used.add(child.attr)
        elif isinstance(child, ast.alias):
            used.add(child.name.rsplit(".", 1)[-1])
    return used


def unreferenced_definitions(root: Path) -> list[tuple[Path, int, str]]:
    """``(path, line, name)`` of each public module-level definition under
    ``root`` that no module under ``root`` names and no ``__all__`` lists."""
    definitions: list[tuple[Path, int, str]] = []
    referenced: set[str] = set()
    exported: set[str] = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            own = node.name if isinstance(node, _DEFINITIONS) else None
            if own is not None and not own.startswith("_"):
                definitions.append((path, node.lineno, own))
            exported |= _exports(node)
            referenced |= _names(node) - {own}
    return [
        (path, line, name)
        for path, line, name in definitions
        if name not in referenced and name not in exported
    ]


def test_every_public_definition_under_src_has_a_caller():
    found = unreferenced_definitions(REPO / "src" / "repro")
    flagged = [
        f"{path.relative_to(REPO)}:{line} {name}"
        for path, line, name in found
        if name not in ALLOWED
    ]
    assert not flagged, (
        "public definitions nothing in src/ references or exports (delete "
        "them, or move test-only helpers to tests/):\n" + "\n".join(flagged)
    )
    stale = sorted(set(ALLOWED) - {name for _path, _line, name in found})
    assert not stale, f"allowlisted names are referenced or gone now: {stale}"


def test_the_check_flags_only_unreferenced_unexported_definitions(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        'from pkg.core import exported\n__all__ = ["exported"]\n'
    )
    (package / "core.py").write_text(
        "def exported():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "class Attributed:\n    pass\n\n\n"
        "def orphan():\n    return orphan()\n\n\n"
        "class Lonely:\n    pass\n\n\n"
        "def _private():\n    return 0\n"
    )
    (package / "user.py").write_text(
        "import pkg.core\n\n\ndef use():\n    return pkg.core.Attributed\n"
    )
    found = unreferenced_definitions(package)
    assert [(path.name, line, name) for path, line, name in found] == [
        ("core.py", 13, "orphan"),
        ("core.py", 17, "Lonely"),
        ("user.py", 4, "use"),
    ]
