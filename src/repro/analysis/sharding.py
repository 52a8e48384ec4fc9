"""Shard-safety rules: what a worker process may touch and receive.

A shard runs each session on a private clock and receives its state as one
pickled task.  Two rules check the package against the two literal tuples
of :mod:`repro.serving.channels`:

* ``sharding.clock-discipline`` — only the functions listed in
  ``CLOCK_WRITERS`` may reach :class:`~repro.engine.cost.SimulatedClock`
  mutators (``advance`` / ``wait_until`` / ``charge``); any
  other access — calls *or* aliasing loads like ``hop = self.clock.advance``
  — is a finding.  Sessions, policies and operators may only read ``now``,
  and a direct store to a time field (``clock.now += ...``) is a finding
  everywhere: the mutator *names* are all the rule could otherwise see.
* ``sharding.picklability`` — transitive field-type inference over every
  class in ``CROSS_PROCESS_TYPES``: lambdas,
  generator expressions, bound methods and fields annotated with
  unpicklable types (iterators, callables, open cursors, code objects)
  cannot cross a process boundary; and compiled pipelines built with
  ``exec`` must record ``__compiled_source__`` so they can be rebuilt from
  source + constants on the other side.

Both rules read their tuple *statically* from the scanned tree, so fixture
trees carry their own miniature registry and the analyzer never imports the
package it audits.  A registry entry that names no function or class of the
scanned tree is a finding at its line, and so is a tuple that is missing or
not a literal of strings; a scan without a registry module yields no shard
findings.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass

from repro.analysis.accounting import index_functions
from repro.analysis.findings import Finding
from repro.analysis.rules import LintRule, RuleContext, ScopeTracker, register_rule

#: where the registry lives, relative to the scan root
REGISTRY_RELPATH = "serving/channels.py"

#: type names that cannot cross a process boundary via pickle.  The second
#: block is the real-I/O fabric's resources: sockets, locks, threads, file
#: handles, live DB connections, and the transport/envelope objects that own
#: them — a field of one of these types on a cross-process class is a
#: finding (sockets don't pickle; each worker must rebuild its own envelopes
#: from picklable backend descriptions).
UNPICKLABLE_TYPE_NAMES = frozenset(
    {
        "AsyncGenerator",
        "BinaryIO",
        "Callable",
        "CodeType",
        "FrameType",
        "FunctionType",
        "Generator",
        "IO",
        "Iterator",
        "LambdaType",
        "ModuleType",
        "SourceCursor",
        "TextIO",
        "TracebackType",
        # real-I/O fabric resources (repro.io)
        "Condition",
        "Connection",
        "Event",
        "FixtureServer",
        "HTTPConnection",
        "HTTPResponse",
        "InjectedTransport",
        "Lock",
        "Queue",
        "RLock",
        "ResilientSource",
        "RowReader",
        "Semaphore",
        "Thread",
        "Transport",
        "socket",
    }
)


class RegistryError(ValueError):
    """The registry's tuple ``name`` is missing or not a literal of strings."""

    def __init__(self, name: str, line: int) -> None:
        super().__init__(
            f"{REGISTRY_RELPATH} must define {name} as a literal tuple of strings"
        )
        self.name = name
        self.line = line

    def finding(self, rule: str) -> Finding:
        """The error as ``rule``'s finding at the assignment (line 1 if none)."""
        return Finding(
            rule=rule,
            path=REGISTRY_RELPATH,
            line=self.line,
            symbol=self.name,
            message=str(self),
        )


def read_registry(contexts: list[RuleContext], name: str) -> list[tuple[str, int]] | None:
    """``(entry, line)`` for each string of the registry's tuple ``name``.

    ``None`` when the scan has no registry module (fixture trees without one
    are not audited).  The tuple must be a literal of strings; anything else
    is a :class:`RegistryError`, which each rule reports as its finding.
    """
    registry = next((c for c in contexts if c.relpath == REGISTRY_RELPATH), None)
    if registry is None:
        return None
    for node in registry.tree.body:
        value: ast.expr | None = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value = node.target, node.value
        if value is None or not (isinstance(target, ast.Name) and target.id == name):
            continue
        try:
            entries = ast.literal_eval(value)
        except ValueError:
            raise RegistryError(name, node.lineno) from None
        if isinstance(value, ast.Tuple) and all(isinstance(e, str) for e in entries):
            lines = [element.lineno for element in value.elts]
            return list(zip(entries, lines))
        raise RegistryError(name, node.lineno)
    raise RegistryError(name, 1)


def _stale_entry(rule: str, name: str, entry: str, line: int, kind: str) -> Finding:
    return Finding(
        rule=rule,
        path=REGISTRY_RELPATH,
        line=line,
        symbol=name,
        message=(
            f"{name} entry {entry!r} names no {kind} in the scanned tree; "
            "delete the entry with what it named"
        ),
    )


def _attr_chain(expr: ast.expr) -> set[str]:
    """All dotted names along an attribute receiver (``self.clock`` →
    ``{"self", "clock"}``)."""
    names: set[str] = set()
    node = expr
    while isinstance(node, ast.Attribute):
        names.add(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        names.add(node.id)
    return names


def _self_attribute(expr: ast.expr) -> str | None:
    """``X`` when ``expr`` is exactly ``self.X``."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return expr.attr
    return None


def _attr_chain_from_annotation(annotation: ast.expr) -> set[str]:
    """All identifier tokens in an annotation (string annotations included)."""
    tokens: set[str] = set()
    for child in ast.walk(annotation):
        if isinstance(child, ast.Name):
            tokens.add(child.id)
        elif isinstance(child, ast.Attribute):
            tokens.add(child.attr)
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            tokens.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", child.value))
    return tokens


#: the SimulatedClock methods that move time
CLOCK_MUTATORS = ("charge", "wait_until", "advance")

#: the names a clock travels under; a mutator reached through any other
#: receiver is not a clock's
CLOCK_RECEIVERS = frozenset({"clock", "_clock"})

#: the time fields a SimulatedClock's own mutators maintain (``engine/cost.py``
#: reaches them through ``self``, which is not a clock name); ``cpu_time`` is
#: derived from them when read
CLOCK_STATE_FIELDS = frozenset({"now", "wait_time", "_anchor", "_anchor_work", "_work"})


class _ClockAccessVisitor(ScopeTracker):
    """Collects every mutator access, and every direct store to a time
    field, on a clock-named receiver."""

    def __init__(self) -> None:
        super().__init__()
        self.accesses: list[tuple[int, str, str]] = []
        self.stores: list[tuple[int, str, str]] = []

    def visit_Attribute(self, node: ast.Attribute) -> None:
        found = None
        if node.attr in CLOCK_MUTATORS:
            found = self.accesses
        elif node.attr in CLOCK_STATE_FIELDS and isinstance(node.ctx, ast.Store):
            # Plain and augmented assignment targets both carry Store.
            found = self.stores
        if found is not None and _attr_chain(node.value) & CLOCK_RECEIVERS:
            found.append((node.lineno, self.symbol, node.attr))
        self.generic_visit(node)


@register_rule
class ClockDisciplineRule(LintRule):
    """Only the listed clock writers may touch SimulatedClock mutators."""

    name = "sharding.clock-discipline"
    description = (
        "SimulatedClock mutators (advance/wait_until/charge) "
        "may be reached only from the functions in serving/channels.py's "
        "CLOCK_WRITERS, each of which must exist; sessions, policies and "
        "operators may only read .now — "
        "aliasing a mutator (hop = clock.advance) counts as an access, and "
        "nobody, writers included, may store to .now/.wait_time or the anchor "
        "directly (clock.now += ...): the mutators are the only way to move time"
    )
    project_wide = True
    scope_dirs = None

    def check_project(self, contexts: list[RuleContext]) -> list[Finding]:
        try:
            entries = read_registry(contexts, "CLOCK_WRITERS")
        except RegistryError as error:
            return [error.finding(self.name)]
        if entries is None:
            return []
        writers = {writer for writer, _ in entries}

        findings: list[Finding] = []
        for ctx in contexts:
            if ctx.relpath == REGISTRY_RELPATH:
                continue
            visitor = _ClockAccessVisitor()
            visitor.visit(ctx.tree)
            for line, symbol, mutator in visitor.accesses:
                if f"{ctx.relpath}::{symbol}" in writers:
                    continue
                findings.append(
                    Finding(
                        rule=self.name,
                        path=ctx.relpath,
                        line=line,
                        symbol=symbol,
                        message=(
                            f"clock mutator .{mutator} accessed outside the "
                            "sanctioned drive loops; only CLOCK_WRITERS may "
                            "advance or charge a clock — everything else "
                            "reads .now"
                        ),
                    )
                )
            for line, symbol, state_field in visitor.stores:
                findings.append(
                    Finding(
                        rule=self.name,
                        path=ctx.relpath,
                        line=line,
                        symbol=symbol,
                        message=(
                            f"direct store to clock field .{state_field}; "
                            "time moves only through the clock's mutators "
                            f"({', '.join(CLOCK_MUTATORS)}), also inside "
                            "the sanctioned drive loops"
                        ),
                    )
                )
        functions = index_functions(contexts)
        findings.extend(
            _stale_entry(self.name, "CLOCK_WRITERS", writer, line, "function")
            for writer, line in entries
            if writer not in functions
        )
        return findings


@dataclass
class ClassRecord:
    """One class definition found during the scan."""

    relpath: str
    node: ast.ClassDef
    base_names: tuple[str, ...]


def _base_name(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def collect_classes(contexts: list[RuleContext]) -> dict[str, ClassRecord]:
    classes: dict[str, ClassRecord] = {}
    for context in contexts:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.ClassDef):
                bases = tuple(
                    name
                    for name in (_base_name(base) for base in node.bases)
                    if name is not None
                )
                classes[node.name] = ClassRecord(context.relpath, node, bases)
    return classes


def transitive_subclasses(
    classes: dict[str, ClassRecord], root: str
) -> dict[str, ClassRecord]:
    """Classes whose base chain reaches ``root`` (``root`` itself excluded)."""
    members: set[str] = {root}
    changed = True
    while changed:
        changed = False
        for name, record in classes.items():
            if name in members:
                continue
            if any(base in members for base in record.base_names):
                members.add(name)
                changed = True
    return {
        name: classes[name] for name in members if name != root and name in classes
    }


@register_rule
class PicklabilityRule(LintRule):
    """Every cross-process class must survive pickling, and compiled
    pipelines must be reconstructible from source."""

    name = "sharding.picklability"
    description = (
        "classes in serving/channels.py's CROSS_PROCESS_TYPES, each of which "
        "must exist, may not hold lambdas, generators, bound methods, or "
        "fields of unpicklable "
        "types (transitively); exec-built pipelines must record "
        "__compiled_source__ for reconstruction"
    )
    project_wide = True
    scope_dirs = None

    def check_project(self, contexts: list[RuleContext]) -> list[Finding]:
        try:
            entries = read_registry(contexts, "CROSS_PROCESS_TYPES")
        except RegistryError as error:
            return [error.finding(self.name)]
        if entries is None:
            return []
        classes = collect_classes(contexts)
        findings = [
            _stale_entry(self.name, "CROSS_PROCESS_TYPES", root, line, "class")
            for root, line in entries
            if root not in classes
        ]
        population: set[str] = set()
        for root, _ in entries:
            if root in classes:
                population.add(root)
            population.update(transitive_subclasses(classes, root))

        audited: set[str] = set()
        queue = sorted(population)
        while queue:
            class_name = queue.pop(0)
            if class_name in audited:
                continue
            audited.add(class_name)
            record = classes[class_name]
            referenced = self._audit_class(record, class_name, findings)
            for name in sorted(referenced):
                if name in classes and name not in audited:
                    queue.append(name)

        for ctx in contexts:
            if ctx.top_directory() == "engine":
                findings.extend(self._exec_findings(ctx))
        return findings

    def _audit_class(
        self, record: ClassRecord, class_name: str, findings: list[Finding]
    ) -> set[str]:
        """Audit one payload class; returns referenced class names to recurse."""
        node = record.node
        referenced: set[str] = set()
        method_names = {
            item.name
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }

        def flag(line: int, message: str) -> None:
            findings.append(
                Finding(
                    rule=self.name,
                    path=record.relpath,
                    line=line,
                    symbol=class_name,
                    message=message,
                )
            )

        def check_annotation(annotation: ast.expr, line: int, field: str) -> None:
            tokens = _attr_chain_from_annotation(annotation)
            for token in sorted(tokens & UNPICKLABLE_TYPE_NAMES):
                flag(
                    line,
                    f"cross-process payload field {field!r} is annotated "
                    f"with unpicklable type {token!r}; it cannot cross a "
                    "process boundary",
                )
            referenced.update(tokens - UNPICKLABLE_TYPE_NAMES)

        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                check_annotation(item.annotation, item.lineno, item.target.id)

        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for stmt in ast.walk(item):
                attr: str | None = None
                value: ast.expr | None = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    attr = _self_attribute(stmt.targets[0])
                    value = stmt.value
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    attr = _self_attribute(stmt.target)
                    value = stmt.value
                    if attr is not None:
                        check_annotation(stmt.annotation, stmt.lineno, attr)
                if attr is None or value is None:
                    continue
                if isinstance(value, ast.Lambda):
                    flag(
                        value.lineno,
                        f"cross-process payload field self.{attr} holds a "
                        "lambda; closures do not pickle",
                    )
                elif isinstance(value, ast.GeneratorExp):
                    flag(
                        value.lineno,
                        f"cross-process payload field self.{attr} holds a "
                        "generator; suspended generators do not pickle",
                    )
                elif (
                    _self_attribute(value) in method_names
                    and _self_attribute(value) is not None
                ):
                    flag(
                        value.lineno,
                        f"cross-process payload field self.{attr} holds "
                        f"bound method self.{_self_attribute(value)}; bound "
                        "methods do not pickle across processes",
                    )
        return referenced

    def _exec_findings(self, ctx: RuleContext) -> list[Finding]:
        """``exec`` without a ``__compiled_source__`` record in engine code."""
        findings: list[Finding] = []

        def stores_source(function: ast.AST) -> bool:
            for child in ast.walk(function):
                if isinstance(child, ast.Assign):
                    for target in child.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and target.attr == "__compiled_source__"
                        ):
                            return True
            return False

        def walk(node: ast.AST, stack: list[ast.FunctionDef]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    walk(child, stack + [child])
                    continue
                if (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == "exec"
                ):
                    if not any(stores_source(fn) for fn in stack):
                        symbol = (
                            ".".join(fn.name for fn in stack)
                            if stack
                            else "<module>"
                        )
                        findings.append(
                            Finding(
                                rule=self.name,
                                path=ctx.relpath,
                                line=child.lineno,
                                symbol=symbol,
                                message=(
                                    "exec-built pipeline never records "
                                    "__compiled_source__; compiled code "
                                    "objects do not pickle — ship source + "
                                    "constants and rebuild on the far side"
                                ),
                            )
                        )
                walk(child, stack)

        walk(ctx.tree, [])
        return findings
