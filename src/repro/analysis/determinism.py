"""Determinism lint: no nondeterminism may leak into engine answer paths.

Three rules encode the reproduction's central contract — that every engine
mode produces bit-identical answers and simulated timings under a simulated
clock (see ``engine/cost.py``):

* :class:`WallClockRule` — wall-clock reads (``time.time``,
  ``time.perf_counter``, ``datetime.now`` …) are forbidden everywhere in
  the package except ``src/repro/io/``, the real-I/O fabric whose
  ``wallclock`` module is the single sanctioned wall-clock surface.
  Callers that legitimately need wall seconds (the executors' reporting
  fields) import ``repro.io.wallclock.wall_now`` instead of ``time`` — a
  package-scope statement that replaced the old per-site whitelist entries.

* :class:`ModuleRandomRule` — drawing from the module-level ``random``
  generator (global, mutated by unrelated code) silently breaks per-seed
  reproducibility anywhere in the package; all randomness must flow through
  an explicitly seeded ``random.Random`` instance.  This generalizes the
  ad-hoc source scan the RNG audit tests used to carry.

* :class:`UnorderedIterationRule` — iterating a ``set``/``frozenset`` in a
  tuple-emit path makes tuple order (and with it float-fold order, monitor
  observations and batch boundaries) depend on hash seeding.  The rule
  tracks set provenance through local assignments and flags un-``sorted``
  iteration inside the engine's emit-path methods.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.rules import (
    ImportMap,
    LintRule,
    RuleContext,
    ScopeTracker,
    register_rule,
)

#: engine answer paths: directories where unordered iteration is forbidden
#: (experiments/, workloads/, stats/, relational/ hold no tuple-emit code but
#: are still covered by the wall-clock and module-random rules, whose scope
#: is the whole package)
ENGINE_SCOPE = frozenset(
    {
        "engine",
        "serving",
        "adaptivity",
        "optimizer",
        "sources",
        "core",
        "baselines",
        "integration",
        "io",
    }
)

#: the one package where wall-clock reads are legal: the real-I/O fabric,
#: whose ``wallclock`` module is the sanctioned surface everything else
#: imports (see :mod:`repro.io.wallclock`)
WALLCLOCK_PACKAGE = "io"

#: attribute reads of the ``time`` module that observe the wall clock
_TIME_CALLS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "thread_time",
        "thread_time_ns",
    }
)

#: constructors of ``datetime``/``date`` that read the current moment
_DATETIME_CALLS = frozenset({"now", "utcnow", "today"})

#: draw / state methods of the module-level ``random`` generator.  Anything
#: except ``random.Random(seed)`` construction (and the distribution class
#: constructors that take explicit generators) is a reproducibility hazard.
_RANDOM_DRAWS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "expovariate",
        "betavariate",
        "gammavariate",
        "lognormvariate",
        "paretovariate",
        "vonmisesvariate",
        "normalvariate",
        "weibullvariate",
        "binomialvariate",
        "seed",
        "getrandbits",
        "randbytes",
        "triangular",
        "getstate",
        "setstate",
    }
)


def _root_name(node: ast.expr) -> str | None:
    """The leftmost ``Name`` of an attribute chain (``a`` for ``a.b.c``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


@register_rule
class WallClockRule(LintRule):
    """Forbid wall-clock reads everywhere except the real-I/O package."""

    name = "determinism.wall-clock"
    description = (
        "only src/repro/io/ may read the wall clock; everything else "
        "derives timing from the SimulatedClock (or imports "
        "repro.io.wallclock for wall-seconds reporting) so answers and "
        "simulated seconds are machine-independent"
    )
    scope_dirs = None  # package-wide, minus the sanctioned io/ exemption

    def applies_to(self, context: RuleContext) -> bool:
        return context.top_directory() != WALLCLOCK_PACKAGE

    def check_module(self, context: RuleContext) -> list[Finding]:
        imports = ImportMap.collect(
            context.tree, frozenset({"time", "datetime"})
        )
        rule = self

        class Visitor(ScopeTracker):
            def __init__(self) -> None:
                super().__init__()
                self.findings: list[Finding] = []

            def visit_Call(self, node: ast.Call) -> None:
                func = node.func
                if isinstance(func, ast.Attribute):
                    root = _root_name(func.value)
                    module = imports.modules.get(root or "")
                    member = imports.members.get(root or "")
                    if module == "time" and func.attr in _TIME_CALLS:
                        self._flag(node, f"time.{func.attr}()")
                    elif func.attr in _DATETIME_CALLS and (
                        module == "datetime"
                        or (
                            member is not None
                            and member[0] == "datetime"
                            and member[1] in ("datetime", "date")
                        )
                    ):
                        self._flag(node, f"datetime {func.attr}()")
                elif isinstance(func, ast.Name):
                    member = imports.members.get(func.id)
                    if member is not None and member[0] == "time":
                        if member[1] in _TIME_CALLS:
                            self._flag(node, f"time.{member[1]}()")
                self.generic_visit(node)

            def _flag(self, node: ast.Call, what: str) -> None:
                self.findings.append(
                    rule.finding(
                        context,
                        node,
                        self.symbol,
                        f"{what} reads the wall clock outside src/repro/io/; "
                        "derive timing from the SimulatedClock, or import "
                        "repro.io.wallclock for a wall-seconds reporting "
                        "field",
                    )
                )

        visitor = Visitor()
        visitor.visit(context.tree)
        return visitor.findings


@register_rule
class ModuleRandomRule(LintRule):
    """Forbid draws from the module-level ``random`` generator anywhere."""

    name = "determinism.module-random"
    description = (
        "all randomness must flow through an explicitly seeded "
        "random.Random instance; the module-level generator's state is "
        "global and breaks per-seed reproducibility"
    )
    scope_dirs = None  # whole package

    def check_module(self, context: RuleContext) -> list[Finding]:
        imports = ImportMap.collect(context.tree, frozenset({"random"}))
        rule = self

        class Visitor(ScopeTracker):
            def __init__(self) -> None:
                super().__init__()
                self.findings: list[Finding] = []

            def visit_Call(self, node: ast.Call) -> None:
                func = node.func
                if isinstance(func, ast.Attribute) and isinstance(
                    func.value, ast.Name
                ):
                    if (
                        imports.modules.get(func.value.id) == "random"
                        and func.attr in _RANDOM_DRAWS
                    ):
                        self._flag(node, f"random.{func.attr}()")
                elif isinstance(func, ast.Name):
                    member = imports.members.get(func.id)
                    if (
                        member is not None
                        and member[0] == "random"
                        and member[1] in _RANDOM_DRAWS
                    ):
                        self._flag(node, f"random.{member[1]}()")
                self.generic_visit(node)

            def _flag(self, node: ast.Call, what: str) -> None:
                self.findings.append(
                    rule.finding(
                        context,
                        node,
                        self.symbol,
                        f"{what} draws from the shared module-level random "
                        "generator; route it through a seeded random.Random "
                        "instance",
                    )
                )

        visitor = Visitor()
        visitor.visit(context.tree)
        return visitor.findings


#: methods on the tuple-emit path: everything between a source read and the
#: final sink, where iteration order becomes tuple order (and therefore
#: float-fold order, batch boundaries and monitor observations)
EMIT_PATH_METHODS = frozenset(
    {
        "push",
        "push_batch",
        "emit",
        "process_batch",
        "step_batch",
        "_read_schedule",
        "_zero_quotas",
        "_interpreted_group",
        "run_chunk",
        "read_batch",
        "read_run",
        "insert",
        "insert_batch",
        "probe",
        "accumulate_batch",
        "results",
        "scan",
        "drain",
        "adapt",
        "adapt_many",
    }
)

_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)

_ITERATING_BUILTINS = frozenset({"list", "tuple", "iter", "enumerate", "reversed"})


@register_rule
class UnorderedIterationRule(LintRule):
    """Flag un-``sorted`` iteration over sets inside tuple-emit methods."""

    name = "determinism.unordered-iter"
    description = (
        "iterating a set/frozenset in a tuple-emit path makes tuple order "
        "depend on hash seeding; wrap the iteration in sorted(...) or use "
        "an insertion-ordered structure"
    )
    scope_dirs = ENGINE_SCOPE

    def check_module(self, context: RuleContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(context.tree):
            if isinstance(node, ast.ClassDef):
                class_name = node.name
                for item in node.body:
                    if (
                        isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and item.name in EMIT_PATH_METHODS
                    ):
                        findings.extend(
                            self._check_function(
                                context, item, f"{class_name}.{item.name}"
                            )
                        )
        return findings

    def _check_function(
        self,
        context: RuleContext,
        function: ast.FunctionDef | ast.AsyncFunctionDef,
        symbol: str,
    ) -> list[Finding]:
        findings: list[Finding] = []
        set_names: set[str] = set()

        def is_set_expr(expr: ast.expr) -> bool:
            if isinstance(expr, (ast.Set, ast.SetComp)):
                return True
            if isinstance(expr, ast.Name):
                return expr.id in set_names
            if isinstance(expr, ast.Call):
                func = expr.func
                if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                    return True
                if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
                    return is_set_expr(func.value)
                return False
            if isinstance(expr, ast.BinOp) and isinstance(
                expr.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
            ):
                return is_set_expr(expr.left) or is_set_expr(expr.right)
            if isinstance(expr, ast.Attribute):
                # Known set-typed attributes of this codebase's operators
                # (``relations`` itself is ambiguous: a tuple on SPJAQuery,
                # a frozenset on join nodes — too coarse to flag by name).
                return expr.attr in ("left_relations", "right_relations")
            return False

        def flag(node: ast.AST, what: str) -> None:
            findings.append(
                self.finding(
                    context,
                    node,
                    symbol,
                    f"{what} iterates an unordered set in a tuple-emit path; "
                    "wrap it in sorted(...) or keep an insertion-ordered "
                    "structure",
                )
            )

        # One linear pass: set provenance flows forward through assignments
        # (a function-local approximation; reassignments to non-set values
        # clear the mark).
        for node in ast.walk(function):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        if is_set_expr(node.value):
                            set_names.add(target.id)
                        else:
                            set_names.discard(target.id)
        for node in ast.walk(function):
            if isinstance(node, ast.For) and is_set_expr(node.iter):
                flag(node, "for-loop")
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
                for comp in node.generators:
                    if is_set_expr(comp.iter):
                        flag(node, "comprehension")
            elif isinstance(node, ast.DictComp):
                for comp in node.generators:
                    if is_set_expr(comp.iter):
                        flag(node, "comprehension")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _ITERATING_BUILTINS
                and node.args
                and is_set_expr(node.args[0])
            ):
                flag(node, f"{node.func.id}(...)")
        return findings
