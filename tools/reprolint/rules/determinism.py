"""R001 — no unordered-set iteration on world-enumeration paths.

The world-search tests pin enumeration *order*, not just sets: a
propagating search whose early checks cut branches must yield the exact
``(valuation, world)`` sequence of the push-only reference
(``tests/search/test_early_checks.py``), and a run rooted at a ground
instance the exact sequence of a fresh engine over ``T ∪ I``
(``tests/search/test_rooted_search.py``).  That only holds while every
enumeration path is deterministic: iterating a bare ``set``/``frozenset``
hands the iteration order to the hash seed, which varies across processes
and runs.  Inside
``src/repro/search/`` and ``src/repro/ctables/possible_worlds.py``, iterate
sets only through ``sorted(...)`` (or another documented canonical order,
with a waiver).

Detection is flow-insensitive and scope-aware: a name counts as set-typed
when its parameter/variable annotation is set-like (``set``, ``frozenset``,
``AbstractSet``, ``MutableSet``) or when it is assigned a set literal, a set
comprehension, a ``set(...)``/``frozenset(...)`` call, a set-operator
expression (``|  & - ^``) over set-typed operands, or a set-algebra method
call (``.union`` etc.) on one.  Flagged contexts: ``for`` loops,
comprehension generators, and ``list()``/``tuple()``/``enumerate()``
conversions.  Membership tests and ``sorted(...)`` are fine.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.reprolint.core import Rule, Violation, register_rule

_SET_TYPE_NAMES = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
)
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)
_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
_ITERATING_CALLS = frozenset({"list", "tuple", "enumerate"})


def _annotation_is_set(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Name):
        return target.id in _SET_TYPE_NAMES
    if isinstance(target, ast.Attribute):  # e.g. ``typing.AbstractSet``
        return target.attr in _SET_TYPE_NAMES
    return False


class _Scope:
    """One lexical scope's set-typed names (inherits the enclosing scope's)."""

    def __init__(self, parent: "_Scope | None" = None) -> None:
        self._names: set[str] = set(parent._names) if parent is not None else set()

    def add(self, name: str) -> None:
        self._names.add(name)

    def is_set_expr(self, node: ast.expr) -> bool:
        """Whether ``node`` evaluates to an unordered set, as far as we infer."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self._names
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_METHODS
                and self.is_set_expr(func.value)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        if isinstance(node, ast.IfExp):
            return self.is_set_expr(node.body) or self.is_set_expr(node.orelse)
        return False


@register_rule
class DeterminismRule(Rule):
    code = "R001"
    name = "set-iteration-on-enumeration-path"
    rationale = (
        "world-enumeration order must be deterministic (the early-check and "
        "rooted-run order-identity tests pin it); iterate sets via sorted() or "
        "waive with a documented canonical order"
    )
    fixture_path = "src/repro/search/example.py"

    must_flag = (
        # set-annotated parameter iterated directly
        "def enumerate_worlds(pool: set[int]):\n"
        "    for value in pool:\n"
        "        yield value\n",
        # module-level set literal consumed by a comprehension
        "values = {1, 2, 3}\nresults = [v * 2 for v in values]\n",
        # set() call materialised through list()
        "def worlds(rows):\n"
        "    pending = set(rows)\n"
        "    return list(pending)\n",
        # set-operator expression iterated in a for loop
        "def merge(a: frozenset[str], b: frozenset[str]):\n"
        "    for name in a | b:\n"
        "        yield name\n",
    )
    must_pass = (
        # sorted() restores a canonical order
        "def enumerate_worlds(pool: set[int]):\n"
        "    for value in sorted(pool):\n"
        "        yield value\n",
        # sequences iterate deterministically
        "def worlds(rows: list[int]):\n"
        "    for row in rows:\n"
        "        yield row\n",
        # membership tests never observe iteration order
        "def seen_before(key: int, seen: set[int]) -> bool:\n"
        "    return key in seen\n",
    )

    def applies_to(self, path: str) -> bool:
        return "src/repro/search/" in path or path.endswith(
            "src/repro/ctables/possible_worlds.py"
        )

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        yield from self._check_scope(tree.body, _Scope(), path)

    # ------------------------------------------------------------------
    def _check_scope(
        self, body: list[ast.stmt], scope: _Scope, path: str
    ) -> Iterator[Violation]:
        self._collect_bindings(body, scope)
        for stmt in body:
            yield from self._check_stmt(stmt, scope, path)

    def _collect_bindings(self, body: list[ast.stmt], scope: _Scope) -> None:
        """Flow-insensitively record the scope's set-typed names."""
        for node in self._walk_scope(body):
            if isinstance(node, ast.Assign):
                if scope.is_set_expr(node.value):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            scope.add(target.id)
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name) and (
                    _annotation_is_set(node.annotation)
                    or (node.value is not None and scope.is_set_expr(node.value))
                ):
                    scope.add(node.target.id)
            elif isinstance(node, ast.AugAssign):
                if (
                    isinstance(node.target, ast.Name)
                    and isinstance(node.op, _SET_BINOPS)
                    and scope.is_set_expr(node.value)
                ):
                    scope.add(node.target.id)

    def _walk_scope(self, body: list[ast.stmt]) -> Iterator[ast.AST]:
        """Walk statements, yielding nested scopes without descending into them."""
        stack: list[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
            ):
                continue
            stack.extend(ast.iter_child_nodes(node))

    def _check_stmt(
        self, stmt: ast.stmt, scope: _Scope, path: str
    ) -> Iterator[Violation]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = _Scope(scope)
            args = stmt.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            for param in params:
                if _annotation_is_set(param.annotation):
                    inner.add(param.arg)
            yield from self._check_scope(stmt.body, inner, path)
            return
        if isinstance(stmt, ast.ClassDef):
            yield from self._check_scope(stmt.body, _Scope(scope), path)
            return
        for node in self._walk_scope([stmt]):
            yield from self._check_node(node, scope, path)

    def _check_node(
        self, node: ast.AST, scope: _Scope, path: str
    ) -> Iterator[Violation]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # A scope nested inside a compound statement (if/try/with body).
            yield from self._check_stmt(node, scope, path)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if scope.is_set_expr(node.iter):
                yield self._flag(node.iter, path)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            for generator in node.generators:
                if scope.is_set_expr(generator.iter):
                    yield self._flag(generator.iter, path)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in _ITERATING_CALLS
                and node.args
                and scope.is_set_expr(node.args[0])
            ):
                yield self._flag(node.args[0], path)

    def _flag(self, node: ast.expr, path: str) -> Violation:
        return self.violation(
            node,
            path,
            "iteration over an unordered set on a world-enumeration path; "
            "wrap in sorted() (or waive with a documented canonical order)",
        )
