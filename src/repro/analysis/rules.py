"""The AST-walking rule framework of the repo-specific static analyzer.

A rule is a class with a unique ``name`` that inspects parsed modules and
returns :class:`~repro.analysis.findings.Finding`s.  Two kinds exist:

* **per-module** rules implement :meth:`LintRule.check_module` and run once
  per file whose root-relative path passes :meth:`LintRule.applies_to`;
* **project-wide** rules (``project_wide = True``) implement
  :meth:`LintRule.check_project` and receive every scanned module at once —
  the work-accounting audit needs the engine's whole call graph, and the
  event-exhaustiveness rule needs the event and policy class populations.

Rules self-register via the :func:`register_rule` decorator into a global
registry keyed by rule name; :func:`default_rules` instantiates the full
set.  The same rule objects are reused by the compiled-codegen audit, which
feeds them *generated* ASTs instead of files on disk.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.findings import Finding


@dataclass
class RuleContext:
    """One parsed module handed to the rules.

    ``relpath`` is the posix-style path relative to the scan root — scope
    checks and findings use it.  ``source`` is kept so rules can quote the
    offending text.
    """

    relpath: str
    source: str
    tree: ast.Module

    @classmethod
    def from_source(cls, relpath: str, source: str) -> "RuleContext":
        return cls(relpath=relpath, source=source, tree=ast.parse(source))

    def top_directory(self) -> str:
        """First path segment (``engine`` for ``engine/state/hash_table.py``)."""
        head, _, _ = self.relpath.partition("/")
        return head if "/" in self.relpath else ""


class LintRule:
    """Base class: one named invariant checked over ASTs."""

    name: str = "rule"
    description: str = ""
    project_wide: bool = False
    #: top-level directories (relative to the scan root) the rule covers;
    #: ``None`` means every scanned file.
    scope_dirs: frozenset[str] | None = None

    def applies_to(self, context: RuleContext) -> bool:
        if self.scope_dirs is None:
            return True
        return context.top_directory() in self.scope_dirs

    def check_module(self, context: RuleContext) -> list[Finding]:
        """Per-module entry point (per-module rules override this)."""
        return []

    def check_project(self, contexts: list[RuleContext]) -> list[Finding]:
        """Project-wide entry point (project-wide rules override this)."""
        return []

    def finding(
        self, context: RuleContext, node: ast.AST, symbol: str, message: str
    ) -> Finding:
        return Finding(
            rule=self.name,
            path=context.relpath,
            line=getattr(node, "lineno", 0),
            symbol=symbol,
            message=message,
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


# Idempotent by construction: repopulated identically in every process by
# the rule-module imports in registered_rules().
_REGISTRY: dict[str, type[LintRule]] = {}  # lint: ignore[effects.global-mutable]


def register_rule(rule_class: type[LintRule]) -> type[LintRule]:
    """Class decorator adding ``rule_class`` to the global rule registry."""
    name = rule_class.name
    if name in _REGISTRY and _REGISTRY[name] is not rule_class:
        raise ValueError(f"duplicate rule name {name!r}")
    _REGISTRY[name] = rule_class
    return rule_class


def registered_rules() -> dict[str, type[LintRule]]:
    """Name → class for every registered rule (import side effects included)."""
    # Importing the rule modules is what populates the registry.
    from repro.analysis import (  # noqa: F401
        accounting,
        determinism,
        effects,
        exhaustiveness,
        reachability,
        sharding,
    )

    return dict(_REGISTRY)


def default_rules() -> list[LintRule]:
    """Fresh instances of every registered rule, in stable name order."""
    return [cls() for _, cls in sorted(registered_rules().items())]


class ScopeTracker(ast.NodeVisitor):
    """NodeVisitor that maintains the dotted enclosing-scope symbol.

    Subclasses read :attr:`symbol` inside their ``visit_*`` methods; it is
    ``<module>`` at module level and ``Class.method`` (or deeper) inside
    definitions.
    """

    def __init__(self) -> None:
        self._stack: list[str] = []

    @property
    def symbol(self) -> str:
        return ".".join(self._stack) if self._stack else "<module>"

    def _enter(self, name: str, node: ast.AST) -> None:
        self._stack.append(name)
        self.generic_visit(node)
        self._stack.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._enter(node.name, node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter(node.name, node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter(node.name, node)


@dataclass
class ImportMap:
    """What a module's names mean: tracked aliases of selected modules.

    ``modules`` maps local alias → imported module name (``import time as t``
    gives ``{"t": "time"}``); ``members`` maps local alias → ``(module,
    original_name)`` for ``from module import name [as alias]``.
    """

    modules: dict[str, str] = field(default_factory=dict)
    members: dict[str, tuple[str, str]] = field(default_factory=dict)

    @classmethod
    def collect(cls, tree: ast.Module, of_modules: frozenset[str]) -> "ImportMap":
        imports = cls()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    if item.name in of_modules:
                        imports.modules[item.asname or item.name] = item.name
            elif isinstance(node, ast.ImportFrom):
                if node.module in of_modules:
                    for item in node.names:
                        imports.members[item.asname or item.name] = (
                            node.module,
                            item.name,
                        )
        return imports
