"""Reachability: every public callable has a reader outside the tests.

A public function, class or method that no package code reads is surface
that only tests (or nothing) exercise; it costs maintenance and claims a
behaviour the system never uses.  The rule collects, per scan, every name
the package, the benchmark and the examples *read* — an ``ast.Name`` or
``ast.Attribute`` load, or the string naming the attribute of a
``getattr``, ``hasattr``, ``setattr`` or ``delattr`` call — and flags each
public module-level function, class and method of the package whose name
has no read outside its own definition.  The check is by name, so a method
read on any class keeps every same-named method alive (overrides,
protocols).

Neither import statements, ``__all__`` lists nor other strings equal to a
name read it: re-exporting is not using.  Entry points that need no reader:

* the names of the root ``__init__``'s ``__all__`` (the package facade);
* ``main`` of ``experiments/cli.py`` (the CLI);
* dunders and other ``_``-prefixed names (not public);
* ``visit_*`` methods, which ``ast.NodeVisitor`` dispatches by name;
* classes decorated with ``@register_rule``.

A callable that must stay without a reader (one that generated code or the
standard library calls, or one kept for a planned user) carries an inline
``# lint: ignore[reachability.unread]`` pragma with its reason; a pragma
whose callable gains a reader is stale, and therefore a finding.
"""

from __future__ import annotations

import ast
from collections import defaultdict

from repro.analysis.findings import Finding
from repro.analysis.rules import LintRule, RuleContext, register_rule

#: the module whose ``main`` is the command-line entry point
CLI_MODULE = "experiments/cli.py"

Definition = ast.ClassDef | ast.FunctionDef | ast.AsyncFunctionDef

#: builtins whose second argument names the attribute they reach
ATTRIBUTE_BUILTINS = frozenset({"getattr", "hasattr", "setattr", "delattr"})


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _is_registered_rule(node: Definition) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        isinstance(decorator, ast.Name) and decorator.id == "register_rule"
        for decorator in node.decorator_list
    )


def _all_entries(tree: ast.Module) -> set[str]:
    """Names a module's ``__all__`` lists."""
    names: set[str] = set()
    for node in tree.body:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            continue
        for constant in ast.walk(node):
            if isinstance(constant, ast.Constant) and isinstance(constant.value, str):
                names.add(constant.value)
    return names


def _reads(context: RuleContext) -> list[tuple[str, int]]:
    """``(name, line)`` of every read in one module."""
    reads: list[tuple[str, int]] = []
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            reads.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            reads.append((node.attr, node.lineno))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ATTRIBUTE_BUILTINS
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            reads.append((node.args[1].value, node.lineno))
    return reads


def _definitions(context: RuleContext) -> list[tuple[str, Definition]]:
    """``(symbol, node)`` of every public module-level callable and method."""
    found: list[tuple[str, Definition]] = []
    for node in context.tree.body:
        if not isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not _is_public(node.name):
            continue
        if not _is_registered_rule(node):
            found.append((node.name, node))
        if not isinstance(node, ast.ClassDef):
            continue
        for member in node.body:
            if (
                isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                and _is_public(member.name)
                and not member.name.startswith("visit_")
            ):
                found.append((f"{node.name}.{member.name}", member))
    return found


@register_rule
class UnreadCallableRule(LintRule):
    """Every public callable is read somewhere in the package."""

    name = "reachability.unread"
    description = (
        "a public function, class or method that no package code reads is "
        "test-only surface; delete it, or pragma a deliberate entry point "
        "with its reason"
    )
    project_wide = True
    read_outside = True

    def check_project(self, contexts: list[RuleContext]) -> list[Finding]:
        readers: dict[str, list[tuple[str, int]]] = defaultdict(list)
        for context in contexts:
            for name, line in _reads(context):
                readers[name].append((context.relpath, line))
        entry_points: set[str] = set()
        for context in contexts:
            if context.relpath == "__init__.py":
                entry_points = _all_entries(context.tree)

        findings: list[Finding] = []
        for context in contexts:
            if not context.linted:
                continue
            for symbol, node in _definitions(context):
                if "." not in symbol and symbol in entry_points:
                    continue
                if context.relpath == CLI_MODULE and symbol == "main":
                    continue
                span = range(node.lineno, (node.end_lineno or node.lineno) + 1)
                if any(
                    path != context.relpath or line not in span
                    for path, line in readers.get(node.name, ())
                ):
                    continue
                kind = "class" if isinstance(node, ast.ClassDef) else "callable"
                findings.append(
                    self.finding(
                        context,
                        node,
                        symbol,
                        f"public {kind} {symbol!r} has no reader in the "
                        "package outside its own definition; delete it with "
                        "the tests that only exercise it, or mark a "
                        "deliberate entry point with "
                        "# lint: ignore[reachability.unread] and a reason",
                    )
                )
        return findings
