"""Work-accounting audit: every operator mutation path must charge work.

The deferred-charging invariant documented in ``engine/cost.py`` says that
all engine work — tuple reads, hash inserts/probes, comparisons, predicate
evaluations, copies, aggregate folds, outputs — reaches the shared
:class:`~repro.engine.cost.ExecutionMetrics` counters, either per tuple
(``metrics.hash_inserts += n``) or per batch (``charge_batch``).  Uncharged
work would silently desynchronize the simulated clock between engine modes
and break the bit-identity contract the differential suites pin.

This rule checks the invariant statically over the ``engine/`` package:

1. It indexes every function, records which ones **charge directly**
   (an augmented assignment to a metrics counter, or a call to
   ``charge`` / ``charge_batch``), and propagates
   charging through the call graph (resolved by callee name — an
   over-approximation that is cheap and stable).

2. Every *operator mutation entry point* — the ``push`` / ``push_batch`` /
   ``process_batch`` / ``_emit`` / ``accumulate*`` methods through which
   tuples mutate operator state — must reach a charge.

3. Every call site of a **state-structure mutation** (``insert``,
   ``insert_batch``, ``add_count``) outside ``engine/state/`` must sit in a
   charging function: state structures deliberately do not self-charge
   (the interpreted and compiled kernels charge differently), so the
   operator that drives them must.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.findings import Finding
from repro.analysis.rules import LintRule, RuleContext, register_rule

#: the ExecutionMetrics counter fields (mirrors engine/cost.py)
COUNTER_FIELDS = frozenset(
    {
        "tuples_read",
        "hash_inserts",
        "hash_probes",
        "comparisons",
        "predicate_evals",
        "tuple_copies",
        "aggregate_updates",
        "tuples_output",
        "batches_read",
    }
)

#: call targets that apply charges
CHARGE_CALLS = frozenset({"charge", "charge_batch", "_charge"})

#: operator-level mutation entry points that must reach a charge
MUTATION_ENTRY_POINTS = frozenset(
    {
        "push",
        "push_batch",
        "process_batch",
        "accumulate_batch",
    }
)

#: state-structure mutators whose call sites must sit in charging functions
STATE_MUTATORS = frozenset({"insert", "insert_batch", "add_count"})


@dataclass
class FunctionInfo:
    """One indexed function of the audited package."""

    relpath: str
    qualname: str
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    charges_directly: bool = False
    calls: set[str] = field(default_factory=set)


def _is_metrics_expr(expr: ast.expr) -> bool:
    """Does ``expr`` denote a metrics object (``metrics``/``self.metrics``)?"""
    if isinstance(expr, ast.Name):
        return expr.id in ("metrics", "_metrics")
    if isinstance(expr, ast.Attribute):
        return expr.attr in ("metrics", "_metrics")
    return False


def _charges_directly(node: ast.AST) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.AugAssign):
            target = child.target
            if (
                isinstance(target, ast.Attribute)
                and target.attr in COUNTER_FIELDS
                and _is_metrics_expr(target.value)
            ):
                return True
        elif isinstance(child, ast.Call):
            func = child.func
            if isinstance(func, ast.Attribute) and func.attr in CHARGE_CALLS:
                return True
            if isinstance(func, ast.Name) and func.id in CHARGE_CALLS:
                return True
    return False


def _called_names(node: ast.AST) -> set[str]:
    names: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            func = child.func
            if isinstance(func, ast.Attribute):
                names.add(func.attr)
            elif isinstance(func, ast.Name):
                names.add(func.id)
    return names


def index_functions(contexts: list[RuleContext]) -> dict[str, FunctionInfo]:
    """Qualname → info for every function in ``contexts`` (nested included)."""
    functions: dict[str, FunctionInfo] = {}
    for context in contexts:
        stack: list[str] = []

        def visit(node: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    stack.append(child.name)
                    visit(child)
                    stack.pop()
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = ".".join(stack + [child.name])
                    info = FunctionInfo(
                        relpath=context.relpath,
                        qualname=qualname,
                        name=child.name,
                        node=child,
                        charges_directly=_charges_directly(child),
                        calls=_called_names(child),
                    )
                    functions[f"{context.relpath}::{qualname}"] = info
                    stack.append(child.name)
                    visit(child)
                    stack.pop()
                else:
                    visit(child)

        visit(context.tree)
    return functions


def charging_closure(functions: dict[str, FunctionInfo]) -> set[str]:
    """Keys of all functions that (transitively) reach a charge.

    Call edges resolve a called name to *every* function with that bare
    name — an over-approximation, acceptable because the engine's mutation
    methods have unambiguous names and the check errs toward silence only
    when an unrelated same-named function charges.
    """
    by_name: dict[str, list[str]] = {}
    for key, info in functions.items():
        by_name.setdefault(info.name, []).append(key)
    charging = {key for key, info in functions.items() if info.charges_directly}
    changed = True
    while changed:
        changed = False
        for key, info in functions.items():
            if key in charging:
                continue
            for called in info.calls:
                if any(target in charging for target in by_name.get(called, ())):
                    charging.add(key)
                    changed = True
                    break
    return charging


@register_rule
class WorkAccountingRule(LintRule):
    """Every operator state mutation path must reach an ExecutionMetrics charge."""

    name = "accounting.uncharged-mutation"
    description = (
        "operator mutation entry points (push/push_batch/process_batch/"
        "accumulate*) and state-mutator call sites must reach an "
        "ExecutionMetrics counter update or charge_batch call"
    )
    project_wide = True
    scope_dirs = frozenset({"engine"})

    #: passive state structures account at the operator level by design:
    #: engine/state/ holds the join-state structures, whose inserts the
    #: operator driving them charges
    exempt_path_prefixes: tuple[str, ...] = ("engine/state/",)

    def check_project(self, contexts: list[RuleContext]) -> list[Finding]:
        scoped = [ctx for ctx in contexts if self.applies_to(ctx)]
        functions = index_functions(scoped)
        charging = charging_closure(functions)
        findings: list[Finding] = []

        for key, info in sorted(functions.items()):
            if info.relpath.startswith(self.exempt_path_prefixes):
                continue
            if info.name in MUTATION_ENTRY_POINTS and key not in charging:
                findings.append(
                    Finding(
                        rule=self.name,
                        path=info.relpath,
                        line=info.node.lineno,
                        symbol=info.qualname,
                        message=(
                            f"mutation entry point {info.name}() never reaches "
                            "an ExecutionMetrics charge (counter update or "
                            "charge_batch); uncharged work desynchronizes the "
                            "simulated clock between engine modes"
                        ),
                    )
                )

        # State-mutator call sites outside engine/state/ must charge.
        by_context = {ctx.relpath: ctx for ctx in scoped}
        for key, info in sorted(functions.items()):
            if info.relpath.startswith(self.exempt_path_prefixes):
                continue
            if key in charging:
                continue
            for child in ast.walk(info.node):
                if (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr in STATE_MUTATORS
                ):
                    findings.append(
                        Finding(
                            rule=self.name,
                            path=info.relpath,
                            line=child.lineno,
                            symbol=info.qualname,
                            message=(
                                f"call to state mutator .{child.func.attr}() "
                                "in a function that never reaches an "
                                "ExecutionMetrics charge"
                            ),
                        )
                    )
        del by_context
        return findings
