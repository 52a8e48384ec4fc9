"""Shard-safety rules: certify the serving layer for multi-process sharding.

ROADMAP item 1 splits :class:`~repro.serving.server.QueryServer` into N
worker processes.  These rules machine-check the package against the
explicit sharing contract of :mod:`repro.serving.channels`:

* ``sharding.shared-channel`` — escape/aliasing analysis.  In every
  session-spawning serving class (one that constructs ``*Session`` objects),
  a mutable attribute passed into session-reachable calls must be a declared
  channel attribute; across ``serving/``, ``core/``, ``adaptivity/`` and
  ``engine/``, a channel object stored under an attribute name the registry
  does not declare is an undeclared alias.  Malformed declarations and
  channels whose attributes no longer correspond to any observed escape
  (stale, mirroring ``whitelist.stale-entry``) are findings too.
* ``sharding.session-isolation`` — call-graph closure (the by-bare-name
  machinery of :mod:`repro.analysis.accounting`) from every
  ``execute_incremental`` entry point: functions on the session tick path
  may mutate declared channels only from the channel's sanctioned writer
  symbols; everything else they touch must be session-owned.
* ``sharding.clock-discipline`` — only the declared drive-loop writers may
  reach :class:`~repro.engine.cost.SimulatedClock` mutators
  (``advance`` / ``wait_until`` / ``charge``); any
  other access — calls *or* aliasing loads like ``hop = self.clock.advance``
  — is a finding.  Sessions, policies and operators may only read ``now``,
  and a direct store to a time field (``clock.now += ...``) is a finding
  everywhere: the mutator *names* are all the rule could otherwise see.
* ``sharding.picklability`` — transitive field-type inference over every
  ``cross_process_safe`` channel type and hand-off payload: lambdas,
  generator expressions, bound methods and fields annotated with
  unpicklable types (iterators, callables, open cursors, code objects)
  cannot cross a process boundary; and compiled pipelines built with
  ``exec`` must record ``__compiled_source__`` so they can be rebuilt from
  source + constants on the other side.

The rules parse the channel registry *statically* from the scanned tree
(``serving/channels.py`` is literal-only by design), so fixture trees carry
their own miniature registry and the analyzer never imports the package it
audits.  A scan without a registry module yields no shard findings — the
audit is certified by :mod:`tests.test_analysis` asserting the real scan
both parses the registry and comes back clean.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass

from repro.analysis.accounting import FunctionInfo, index_functions
from repro.analysis.findings import Finding
from repro.analysis.rules import LintRule, RuleContext, ScopeTracker, register_rule

#: where the channel registry lives, relative to the scan root
CHANNELS_RELPATH = "serving/channels.py"

#: must agree with repro.serving.channels.DISCIPLINES (both are literals;
#: the registry parse is deliberately import-free)
DISCIPLINES = ("read_only", "single_writer", "cross_process_safe")

#: the tick-path entry point the isolation closure starts from
SESSION_ENTRY_POINT = "execute_incremental"

#: builtins whose calls never leak a reference into session-reachable
#: state (copies, reads, predicates); passing an attribute to anything
#: else counts as an escape
PURE_BUILTINS = frozenset(
    {
        "abs", "all", "any", "bool", "dict", "enumerate", "filter", "float",
        "format", "frozenset", "getattr", "hasattr", "id", "int",
        "isinstance", "iter", "len", "list", "map", "max", "min", "next",
        "print", "repr", "reversed", "round", "set", "sorted", "str", "sum",
        "tuple", "zip",
    }
)

#: annotation tokens denoting immutable values; an attribute whose value
#: comes from a parameter annotated purely with these never carries shared
#: mutable state
IMMUTABLE_ANNOTATION_TOKENS = frozenset(
    {"int", "float", "str", "bool", "bytes", "None", "Optional", ""}
)

#: type names that cannot cross a process boundary via pickle.  The second
#: block is the real-I/O fabric's resources: sockets, locks, threads, file
#: handles, live DB connections, and the transport/envelope objects that own
#: them — declaring any of these in a ``cross_process_safe`` channel's
#: payload family is a finding (sockets don't pickle; each worker must
#: rebuild its own envelopes from picklable backend descriptions).
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


@dataclass(frozen=True)
class ParsedChannel:
    """One channel declaration read statically from the registry module."""

    name: str
    type_name: str
    discipline: str
    rationale: str
    attributes: tuple[str, ...]
    mutators: tuple[str, ...]
    writers: tuple[str, ...]
    payload_types: tuple[str, ...]
    lineno: int
    malformed: bool = False


@dataclass
class ParsedRegistry:
    """The statically-parsed channel registry of one scanned tree."""

    relpath: str
    channels: list[ParsedChannel]
    #: (lineno, symbol, message) declaration problems
    problems: list[tuple[int, str, str]]

    def declared_attributes(self) -> dict[str, ParsedChannel]:
        """Attribute name → owning channel, over well-formed channels."""
        return {
            attr: channel
            for channel in self.channels
            if not channel.malformed
            for attr in channel.attributes
        }


def _literal_str(expr: ast.expr | None) -> str | None:
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    return None


def _literal_str_tuple(expr: ast.expr | None) -> tuple[str, ...] | None:
    if not isinstance(expr, (ast.Tuple, ast.List)):
        return None
    out: list[str] = []
    for element in expr.elts:
        value = _literal_str(element)
        if value is None:
            return None
        out.append(value)
    return tuple(out)


def parse_channel_registry(contexts: list[RuleContext]) -> ParsedRegistry | None:
    """Parse ``CHANNELS = (SharedChannel(...), ...)`` from the scanned tree.

    Returns ``None`` when no registry module is present (the shard rules
    then stay silent — fixture trees without one are not audited).
    Declarations must be literal keyword arguments; anything computed is a
    malformed-declaration problem.
    """
    registry_ctx = next(
        (ctx for ctx in contexts if ctx.relpath == CHANNELS_RELPATH), None
    )
    if registry_ctx is None:
        return None
    registry = ParsedRegistry(relpath=registry_ctx.relpath, channels=[], problems=[])

    channels_value: ast.expr | None = None
    for node in registry_ctx.tree.body:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if any(
            isinstance(target, ast.Name) and target.id == "CHANNELS"
            for target in targets
        ):
            channels_value = node.value if isinstance(node, ast.Assign) else node.value
            break
    if not isinstance(channels_value, (ast.Tuple, ast.List)):
        registry.problems.append(
            (1, "<module>", "registry module declares no literal CHANNELS tuple")
        )
        return registry

    seen: set[str] = set()
    for element in channels_value.elts:
        if not (
            isinstance(element, ast.Call)
            and isinstance(element.func, ast.Name)
            and element.func.id == "SharedChannel"
        ):
            registry.problems.append(
                (
                    element.lineno,
                    "CHANNELS",
                    "registry entry is not a literal SharedChannel(...) call",
                )
            )
            continue
        kwargs = {kw.arg: kw.value for kw in element.keywords if kw.arg}
        name = _literal_str(kwargs.get("name")) or "<unnamed>"
        symbol = f"CHANNELS.{name}"
        malformed = False

        def problem(message: str, line: int = element.lineno, sym: str = symbol) -> None:
            registry.problems.append((line, sym, message))

        strings: dict[str, str] = {}
        for field_name in ("name", "type_name", "discipline", "rationale"):
            value = _literal_str(kwargs.get(field_name))
            if value is None and field_name in kwargs:
                problem(f"channel field {field_name!r} is not a string literal")
                malformed = True
            strings[field_name] = value or ""
        tuples: dict[str, tuple[str, ...]] = {}
        for field_name in ("attributes", "mutators", "writers", "payload_types"):
            if field_name not in kwargs:
                tuples[field_name] = ()
                continue
            value = _literal_str_tuple(kwargs[field_name])
            if value is None:
                problem(
                    f"channel field {field_name!r} is not a literal tuple of strings"
                )
                malformed = True
                value = ()
            tuples[field_name] = value

        if strings["discipline"] not in DISCIPLINES:
            problem(
                f"unknown discipline {strings['discipline']!r}; expected one "
                f"of {', '.join(DISCIPLINES)}"
            )
            malformed = True
        if not strings["rationale"].strip():
            problem(
                "channel has no rationale; every shared channel must say why "
                "its discipline is safe"
            )
            malformed = True
        if strings["discipline"] == "read_only" and tuples["writers"]:
            problem(
                "read_only channel lists writer sites; a read-only channel "
                "has no sanctioned writers"
            )
            malformed = True
        if name in seen:
            problem(f"duplicate channel declaration {name!r}")
            malformed = True
        seen.add(name)

        registry.channels.append(
            ParsedChannel(
                name=name,
                type_name=strings["type_name"],
                discipline=strings["discipline"],
                rationale=strings["rationale"],
                attributes=tuples["attributes"],
                mutators=tuples["mutators"],
                writers=tuples["writers"],
                payload_types=tuples["payload_types"],
                lineno=element.lineno,
                malformed=malformed,
            )
        )
    return registry


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


def _annotation_is_immutable(annotation: ast.expr | None) -> bool:
    """Does the annotation denote a value with no shared mutable state?"""
    if annotation is None:
        return False
    text = ast.unparse(annotation)
    tokens = {
        token
        for token in "".join(
            ch if (ch.isalnum() or ch == "_") else " " for ch in text
        ).split()
    }
    return tokens <= IMMUTABLE_ANNOTATION_TOKENS


def _is_mutable_value(
    value: ast.expr, param_annotations: dict[str, ast.expr | None]
) -> bool:
    """Conservative: could the assigned value carry shared mutable state?"""
    if isinstance(value, ast.Constant):
        return False
    if isinstance(value, ast.Name):
        if value.id in param_annotations:
            return not _annotation_is_immutable(param_annotations[value.id])
        return True
    if isinstance(value, ast.Tuple):
        return any(_is_mutable_value(e, param_annotations) for e in value.elts)
    if isinstance(value, (ast.BoolOp,)):
        return any(_is_mutable_value(e, param_annotations) for e in value.values)
    if isinstance(value, ast.IfExp):
        return _is_mutable_value(value.body, param_annotations) or _is_mutable_value(
            value.orelse, param_annotations
        )
    return True


def _init_method(node: ast.ClassDef) -> ast.FunctionDef | None:
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            return item
    return None


def _param_annotations(function: ast.FunctionDef) -> dict[str, ast.expr | None]:
    args = function.args
    params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
    return {arg.arg: arg.annotation for arg in params if arg.arg != "self"}


def _self_attribute(expr: ast.expr) -> str | None:
    """``X`` when ``expr`` is exactly ``self.X``."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return expr.attr
    return None


def _init_attributes(node: ast.ClassDef) -> dict[str, tuple[int, bool]]:
    """``self.X`` attributes assigned in ``__init__`` → (line, mutable)."""
    init = _init_method(node)
    if init is None:
        return {}
    annotations = _param_annotations(init)
    attributes: dict[str, tuple[int, bool]] = {}
    for stmt in ast.walk(init):
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        for target in targets:
            attr = _self_attribute(target)
            if attr is None:
                continue
            mutable = _is_mutable_value(value, annotations)
            line, known = attributes.get(attr, (stmt.lineno, False))
            attributes[attr] = (line, known or mutable)
    return attributes


def _spawns_sessions(node: ast.ClassDef) -> bool:
    """Does the class construct ``*Session`` objects (i.e. serve N of them)?"""
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            func = child.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name and name.endswith("Session") and name != "Session":
                return True
    return False


def _loop_aliases(function: ast.FunctionDef) -> dict[str, str]:
    """Loop variable → iterated self-attribute (``for p in self.X``)."""
    aliases: dict[str, str] = {}
    for stmt in ast.walk(function):
        if isinstance(stmt, ast.For) and isinstance(stmt.target, ast.Name):
            attr = _self_attribute(stmt.iter)
            if attr is not None:
                aliases[stmt.target.id] = attr
    return aliases


@register_rule
class SharedChannelRule(LintRule):
    """Every cross-session object must be a declared channel; no undeclared
    escapes, no undeclared aliases, no stale or malformed declarations."""

    name = "sharding.shared-channel"
    description = (
        "mutable server state escaping into sessions must be declared in "
        "serving/channels.py with a discipline and rationale; channel "
        "objects may only be stored under declared attribute names; stale "
        "and malformed declarations are findings"
    )
    project_wide = True
    scope_dirs = frozenset({"serving", "core", "adaptivity", "engine", "io"})

    def check_project(self, contexts: list[RuleContext]) -> list[Finding]:
        registry = parse_channel_registry(contexts)
        if registry is None:
            return []
        findings: list[Finding] = [
            Finding(
                rule=self.name,
                path=registry.relpath,
                line=line,
                symbol=symbol,
                message=message,
            )
            for line, symbol, message in registry.problems
        ]
        declared = registry.declared_attributes()
        used_channels: set[str] = set()
        scoped = [ctx for ctx in contexts if self.applies_to(ctx)]

        for ctx in scoped:
            if ctx.relpath == registry.relpath:
                continue
            for node in ctx.tree.body:
                if not isinstance(node, ast.ClassDef):
                    continue
                if ctx.top_directory() == "serving" and _spawns_sessions(node):
                    findings.extend(
                        self._check_escapes(ctx, node, declared, used_channels)
                    )
                findings.extend(
                    self._check_aliases(ctx, node, registry, declared, used_channels)
                )

        for channel in registry.channels:
            if channel.malformed or not channel.attributes:
                continue
            if channel.name not in used_channels:
                findings.append(
                    Finding(
                        rule=self.name,
                        path=registry.relpath,
                        line=channel.lineno,
                        symbol=f"CHANNELS.{channel.name}",
                        message=(
                            f"stale channel {channel.name!r}: none of its "
                            "declared attributes "
                            f"({', '.join(channel.attributes)}) escapes into "
                            "sessions any more — delete or update the "
                            "declaration"
                        ),
                    )
                )
        return findings

    def _check_escapes(
        self,
        ctx: RuleContext,
        node: ast.ClassDef,
        declared: dict[str, ParsedChannel],
        used_channels: set[str],
    ) -> list[Finding]:
        """Flag mutable ``self.X`` escaping undeclared from a session spawner."""
        findings: list[Finding] = []
        attributes = _init_attributes(node)
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            loop_aliases = (
                _loop_aliases(method)
                if isinstance(method, ast.FunctionDef)
                else {}
            )
            symbol = f"{node.name}.{method.name}"
            for call in ast.walk(method):
                if not isinstance(call, ast.Call):
                    continue
                if (
                    isinstance(call.func, ast.Name)
                    and call.func.id in PURE_BUILTINS
                ):
                    continue
                args = [*call.args, *[kw.value for kw in call.keywords]]
                for arg in args:
                    attr = _self_attribute(arg)
                    if attr is None and isinstance(arg, ast.Name):
                        attr = loop_aliases.get(arg.id)
                    if attr is None or attr not in attributes:
                        continue
                    _, mutable = attributes[attr]
                    if not mutable:
                        continue
                    if attr in declared:
                        used_channels.add(declared[attr].name)
                        continue
                    findings.append(
                        Finding(
                            rule=self.name,
                            path=ctx.relpath,
                            line=arg.lineno,
                            symbol=symbol,
                            message=(
                                f"mutable server attribute self.{attr} "
                                "escapes into session-reachable state but is "
                                "not a declared shared channel; declare it "
                                f"in {CHANNELS_RELPATH} with a discipline "
                                "and rationale"
                            ),
                        )
                    )
        return findings

    def _check_aliases(
        self,
        ctx: RuleContext,
        node: ast.ClassDef,
        registry: ParsedRegistry,
        declared: dict[str, ParsedChannel],
        used_channels: set[str],
    ) -> list[Finding]:
        """Flag channel objects stored under undeclared attribute names."""
        findings: list[Finding] = []
        init = _init_method(node)
        if init is None:
            return findings
        annotations = _param_annotations(init)
        type_owner = {
            channel.type_name: channel
            for channel in registry.channels
            if channel.type_name and not channel.malformed
        }

        def param_channel(param: str) -> ParsedChannel | None:
            if param in declared:
                return declared[param]
            annotation = annotations.get(param)
            if annotation is not None:
                tokens = _attr_chain_from_annotation(annotation)
                for token in tokens:
                    if token in type_owner:
                        return type_owner[token]
            return None

        for stmt in ast.walk(init):
            if not isinstance(stmt, ast.Assign):
                continue
            if not isinstance(stmt.value, ast.Name):
                continue
            if stmt.value.id not in annotations:
                continue
            channel = param_channel(stmt.value.id)
            if channel is None:
                continue
            for target in stmt.targets:
                attr = _self_attribute(target)
                if attr is None:
                    continue
                if attr in channel.attributes:
                    used_channels.add(channel.name)
                else:
                    findings.append(
                        Finding(
                            rule=self.name,
                            path=ctx.relpath,
                            line=stmt.lineno,
                            symbol=f"{node.name}.__init__",
                            message=(
                                f"shared channel {channel.name!r} is aliased "
                                f"under undeclared attribute self.{attr}; "
                                "store it under a declared attribute name or "
                                f"add the alias to {CHANNELS_RELPATH}"
                            ),
                        )
                    )
        return findings


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


@register_rule
class SessionIsolationRule(LintRule):
    """The session tick path mutates only session-owned state or declared
    channels from their sanctioned writer symbols."""

    name = "sharding.session-isolation"
    description = (
        "functions reachable from execute_incremental may invoke a declared "
        "channel's mutators (or store through a channel attribute) only "
        "from the channel's sanctioned writers list"
    )
    project_wide = True
    scope_dirs = frozenset(
        {"serving", "core", "adaptivity", "engine", "optimizer", "sources", "io"}
    )

    def check_project(self, contexts: list[RuleContext]) -> list[Finding]:
        registry = parse_channel_registry(contexts)
        if registry is None:
            return []
        channels = [
            channel
            for channel in registry.channels
            if not channel.malformed and channel.mutators and channel.attributes
            # the clock has its own rule (stricter: loads count too)
            and "clock" not in channel.attributes
        ]
        if not channels:
            return []
        scoped = [ctx for ctx in contexts if self.applies_to(ctx)]
        functions = index_functions(scoped)

        by_name: dict[str, list[str]] = {}
        for key, info in functions.items():
            by_name.setdefault(info.name, []).append(key)
        closure = {
            key
            for key, info in functions.items()
            if info.name == SESSION_ENTRY_POINT
        }
        worklist = list(closure)
        while worklist:
            key = worklist.pop()
            for called in functions[key].calls:
                for target in by_name.get(called, ()):
                    if target not in closure:
                        closure.add(target)
                        worklist.append(target)

        mutator_channels: dict[str, list[ParsedChannel]] = {}
        for channel in channels:
            for mutator in channel.mutators:
                mutator_channels.setdefault(mutator, []).append(channel)

        findings: list[Finding] = []
        for key in sorted(closure):
            info = functions[key]
            if info.relpath == registry.relpath:
                continue
            for child in ast.walk(info.node):
                if isinstance(child, ast.Call) and isinstance(
                    child.func, ast.Attribute
                ):
                    for channel in mutator_channels.get(child.func.attr, ()):
                        chain = _attr_chain(child.func.value)
                        if not (chain & set(channel.attributes)):
                            continue
                        if key in channel.writers:
                            continue
                        findings.append(
                            Finding(
                                rule=self.name,
                                path=info.relpath,
                                line=child.lineno,
                                symbol=info.qualname,
                                message=(
                                    f"session tick path calls channel "
                                    f"{channel.name!r} mutator "
                                    f".{child.func.attr}() outside its "
                                    "sanctioned writers "
                                    f"({', '.join(channel.writers) or 'none'})"
                                ),
                            )
                        )
                elif isinstance(child, (ast.Assign, ast.AugAssign)):
                    targets = (
                        child.targets
                        if isinstance(child, ast.Assign)
                        else [child.target]
                    )
                    for target in targets:
                        findings.extend(
                            self._store_findings(info, key, target, channels)
                        )
        return findings

    def _store_findings(
        self,
        info: FunctionInfo,
        key: str,
        target: ast.expr,
        channels: list[ParsedChannel],
    ) -> list[Finding]:
        """Stores through a channel-attribute receiver outside its writers."""
        receiver: ast.expr | None = None
        if isinstance(target, ast.Attribute):
            receiver = target.value
        elif isinstance(target, ast.Subscript):
            receiver = target.value
        if receiver is None:
            return []
        # Bare-name receivers (a session-local dict that happens to share a
        # channel's attribute name) are out of scope; attribute receivers
        # (``self.cache.totals[...] = ...``) are in.
        if not isinstance(receiver, ast.Attribute):
            return []
        chain = _attr_chain(receiver)
        findings: list[Finding] = []
        for channel in channels:
            if not (chain & set(channel.attributes)):
                continue
            if key in channel.writers:
                continue
            findings.append(
                Finding(
                    rule=self.name,
                    path=info.relpath,
                    line=target.lineno,
                    symbol=info.qualname,
                    message=(
                        f"session tick path stores through channel "
                        f"{channel.name!r} state outside its sanctioned "
                        f"writers ({', '.join(channel.writers) or 'none'})"
                    ),
                )
            )
        return findings


#: the time fields a SimulatedClock's own mutators maintain (``engine/cost.py``
#: reaches them through ``self``, which is not a clock name); ``cpu_time`` is
#: derived from them when read
CLOCK_STATE_FIELDS = frozenset({"now", "wait_time", "_anchor", "_anchor_work", "_work"})


class _ClockAccessVisitor(ScopeTracker):
    """Collects every mutator access, and every direct store to a time
    field, on a clock-named receiver."""

    def __init__(self, mutators: frozenset[str], clock_names: frozenset[str]) -> None:
        super().__init__()
        self.mutators = mutators
        self.clock_names = clock_names
        self.accesses: list[tuple[int, str, str]] = []
        self.stores: list[tuple[int, str, str]] = []

    def visit_Attribute(self, node: ast.Attribute) -> None:
        found = None
        if node.attr in self.mutators:
            found = self.accesses
        elif node.attr in CLOCK_STATE_FIELDS and isinstance(node.ctx, ast.Store):
            # Plain and augmented assignment targets both carry Store.
            found = self.stores
        if found is not None and _attr_chain(node.value) & self.clock_names:
            found.append((node.lineno, self.symbol, node.attr))
        self.generic_visit(node)


@register_rule
class ClockDisciplineRule(LintRule):
    """Only the declared drive loops may touch SimulatedClock mutators."""

    name = "sharding.clock-discipline"
    description = (
        "SimulatedClock mutators (advance/wait_until/charge) "
        "may be reached only from the clock channel's sanctioned writer "
        "symbols; sessions, policies and operators may only read .now — "
        "aliasing a mutator (hop = clock.advance) counts as an access, and "
        "nobody, writers included, may store to .now/.wait_time or the anchor "
        "directly (clock.now += ...): the mutators are the only way to move time"
    )
    project_wide = True
    scope_dirs = None

    def check_project(self, contexts: list[RuleContext]) -> list[Finding]:
        registry = parse_channel_registry(contexts)
        if registry is None:
            return []
        clock = next(
            (
                channel
                for channel in registry.channels
                if not channel.malformed and "clock" in channel.attributes
            ),
            None,
        )
        if clock is None:
            return []
        mutators = frozenset(clock.mutators)
        clock_names = frozenset(clock.attributes)
        writers = set(clock.writers)

        findings: list[Finding] = []
        for ctx in contexts:
            if ctx.relpath == registry.relpath:
                continue
            visitor = _ClockAccessVisitor(mutators, clock_names)
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
                            "sanctioned drive loops; only the clock "
                            "channel's writers may advance or charge the "
                            "shared clock — everything else reads .now"
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
                            f"({', '.join(clock.mutators)}), also inside "
                            "the sanctioned drive loops"
                        ),
                    )
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
    """Everything declared cross_process_safe must survive pickling, and
    compiled pipelines must be reconstructible from source."""

    name = "sharding.picklability"
    description = (
        "cross_process_safe channel types and hand-off payloads may not "
        "hold lambdas, generators, bound methods, or fields of unpicklable "
        "types (transitively); exec-built pipelines must record "
        "__compiled_source__ for reconstruction"
    )
    project_wide = True
    scope_dirs = None

    def check_project(self, contexts: list[RuleContext]) -> list[Finding]:
        registry = parse_channel_registry(contexts)
        if registry is None:
            return []
        roots: set[str] = set()
        for channel in registry.channels:
            if channel.malformed or channel.discipline != "cross_process_safe":
                continue
            if channel.type_name:
                roots.add(channel.type_name)
            roots.update(channel.payload_types)

        classes = collect_classes(contexts)
        population: set[str] = set()
        for root in roots:
            if root in classes:
                population.add(root)
            population.update(transitive_subclasses(classes, root))

        findings: list[Finding] = []
        audited: set[str] = set()
        queue = sorted(population)
        while queue:
            class_name = queue.pop(0)
            if class_name in audited or class_name not in classes:
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
