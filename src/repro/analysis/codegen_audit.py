"""Compiled-codegen audit: lint the engine's *generated* source, not just files.

The compiled engine (:mod:`repro.engine.compiled`) builds fused per-leaf
batch chains with ``exec`` — source that exists only at runtime and that the
file-walking analyzer therefore never sees.  This module closes that gap: it
generates pipelines for a seeded corpus of plans (drawn from the same
population as the differential suites, via
:func:`repro.workloads.differential.generate_workload`), collects every
generated chain's ``__compiled_source__`` (and every generated group-by
fold's), and audits the generated ASTs:

* **accounting** — each chain must end in one *unconditional* top-level
  ``_charge(...)`` call carrying the full counter set (the deferred
  ``charge_batch`` of the interpreted group body), and each fold must charge
  ``aggregate_updates`` / bump ``tuples_consumed`` unconditionally;
* **determinism** — the determinism lint rules run over the generated
  module, and no generated line may reference wall-clock, random, or
  unordered-collection constructors at all (generated code touches only
  env-bound names and a tiny builtin allow-list);
* **purity** — every predicate the chain evaluates (selection and residual
  filters) must be a *pure expression*: comparisons, boolean algebra and
  constant-index subscripts over the row, with calls permitted only to
  env-bound predicate closures (``_f0`` / ``_p0`` names — the opaque
  degradation path of :func:`repro.engine.compiled.predicate_source`).

The stitch-up's generated *routes* (:mod:`repro.core.stitchup`: one nested
loop per seed entry, probing every hop and handing rows to the output in its
innermost body) are audited too, from two-phase runs of the same workloads:

* **accounting** — a route charges nothing itself; it returns per-level
  tallies, so every returned tally must be bumped on every path that reaches
  its level (right behind the level's guard, never under a condition), and a
  route that folds into the group-by must charge the fold unconditionally;
* **determinism** — the rules above;
* **late materialisation** — a route whose innermost body folds into the
  group-by must build no joined row: no ``+`` over row variables, and no
  tuple gathering row values other than the group key.

The corpus deliberately covers both predicate styles (inline comparison
trees and opaque closures), both join-node kinds (hash and forced-merge
chains) and both innermost route bodies; :class:`CodegenAuditReport` carries
the coverage counters so the test suite and the CI gate can assert breadth,
not just cleanliness.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field, replace

from repro.analysis.accounting import _charges_directly
from repro.analysis.determinism import ModuleRandomRule, WallClockRule
from repro.analysis.findings import Finding
from repro.analysis.rules import RuleContext
from repro.core.stitchup import StitchUpExecutor
from repro.engine.compiled import compile_plan_chains
from repro.engine.operators.aggregate import GroupAccumulator
from repro.engine.pipelined import PipelinedPlan, SourceCursor
from repro.engine.state.registry import StateRegistry
from repro.optimizer.ordering import JoinStrategy
from repro.optimizer.plans import JoinTree
from repro.relational.expressions import Predicate
from repro.workloads.differential import generate_workload

RULE_ACCOUNTING = "codegen.uncharged-chain"
RULE_DETERMINISM = "codegen.nondeterministic-source"
RULE_PURITY = "codegen.impure-predicate"
RULE_MATERIALISATION = "codegen.route-materialises"

#: the full counter set the fused chain's deferred charge must carry
CHARGE_KEYWORDS = frozenset(
    {
        "tuples_read",
        "predicate_evals",
        "hash_inserts",
        "hash_probes",
        "tuple_copies",
        "tuples_output",
    }
)

#: names generated code must never reference — anything on this list inside
#: a fused chain would smuggle nondeterminism past the file-level lint
BANNED_GENERATED_NAMES = frozenset(
    {"time", "random", "datetime", "set", "frozenset", "globals", "locals"}
)

#: env-bound callables of predicate_source: _f0 (scalar/binary closures),
#: _p0 (opaque predicate fallback); merge stages are _m0 but sit outside
#: predicate expressions
_PURE_CALL_NAME = re.compile(r"^_[fp]\d+$")
_ENV_NAME = re.compile(r"^_[a-z]+\d+$")
#: a route's row variables: the seed row and each hop's match
_ROW_NAME = re.compile(r"^(r0|m\d+)$")


@dataclass(frozen=True)
class OpaquePredicate(Predicate):
    """Wrapper denying the source emitter structural knowledge of ``inner``.

    ``predicate_source`` does not recognize the type, so it degrades to the
    opaque path: the compiled closure is bound into the env and the emitted
    expression is a ``_p<N>(row)`` call — semantically identical, opaque to
    inlining.  The audit corpus uses it to exercise that degradation on
    real workload predicates.
    """

    inner: Predicate

    def compile(self, schema):
        return self.inner.compile(schema)

    def attributes(self):
        return self.inner.attributes()

    def estimated_selectivity(self) -> float:
        return self.inner.estimated_selectivity()


@dataclass
class CodegenAuditReport:
    """Outcome and coverage of one generated-pipeline audit sweep."""

    pipelines_audited: int = 0
    chains_audited: int = 0
    folds_audited: int = 0
    routes_audited: int = 0
    folding_routes: int = 0
    materialising_routes: int = 0
    hash_pipelines: int = 0
    merge_pipelines: int = 0
    inline_predicate_chains: int = 0
    opaque_predicate_chains: int = 0
    findings: list[Finding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    def render(self) -> str:
        lines = [
            f"codegen-audit: {self.pipelines_audited} pipelines "
            f"({self.hash_pipelines} hash, {self.merge_pipelines} merge), "
            f"{self.chains_audited} chains "
            f"({self.inline_predicate_chains} inline-predicate, "
            f"{self.opaque_predicate_chains} opaque-predicate), "
            f"{self.folds_audited} folds, {self.routes_audited} routes "
            f"({self.folding_routes} folding, "
            f"{self.materialising_routes} materialising), "
            f"{len(self.findings)} finding(s)"
        ]
        lines.extend("  " + finding.render() for finding in self.findings)
        return "\n".join(lines)


def _pure_expression_violation(expr: ast.expr) -> str | None:
    """Why ``expr`` is not a pure predicate expression (``None`` if pure)."""
    if isinstance(expr, ast.BoolOp):
        for value in expr.values:
            reason = _pure_expression_violation(value)
            if reason:
                return reason
        return None
    if isinstance(expr, ast.UnaryOp):
        return _pure_expression_violation(expr.operand)
    if isinstance(expr, ast.BinOp):
        reason = _pure_expression_violation(expr.left)
        return reason or _pure_expression_violation(expr.right)
    if isinstance(expr, ast.Compare):
        for value in [expr.left, *expr.comparators]:
            reason = _pure_expression_violation(value)
            if reason:
                return reason
        return None
    if isinstance(expr, ast.Constant):
        return None
    if isinstance(expr, ast.Name):
        if expr.id == "row" or _ENV_NAME.match(expr.id):
            return None
        return f"free name {expr.id!r}"
    if isinstance(expr, ast.Subscript):
        if not isinstance(expr.value, ast.Name) or expr.value.id != "row":
            return f"subscript of non-row expression {ast.unparse(expr.value)!r}"
        if not (
            isinstance(expr.slice, ast.Constant)
            and isinstance(expr.slice.value, int)
        ):
            return f"non-constant row index {ast.unparse(expr.slice)!r}"
        return None
    if isinstance(expr, ast.Call):
        func = expr.func
        if not (isinstance(func, ast.Name) and _PURE_CALL_NAME.match(func.id)):
            return f"call to non-env-bound callable {ast.unparse(func)!r}"
        if expr.keywords:
            return f"keyword arguments in predicate call {func.id}"
        for arg in expr.args:
            reason = _pure_expression_violation(arg)
            if reason:
                return reason
        return None
    return f"disallowed expression node {type(expr).__name__}"


def _function_def(tree: ast.Module, name: str) -> ast.FunctionDef | None:
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _predicate_filters(function: ast.FunctionDef) -> list[ast.expr]:
    """The ``if`` conditions of the chain's selection/residual list-comps."""
    filters: list[ast.expr] = []
    for node in ast.walk(function):
        if isinstance(node, ast.ListComp):
            for generator in node.generators:
                filters.extend(generator.ifs)
    return filters


def audit_chain_source(src: str, label: str) -> list[Finding]:
    """Audit one fused chain's generated source; returns its findings."""
    findings: list[Finding] = []

    def flag(rule: str, line: int, message: str) -> None:
        findings.append(
            Finding(rule=rule, path=label, line=line, symbol="_chain", message=message)
        )

    tree = ast.parse(src)
    function = _function_def(tree, "_chain")
    if function is None:
        flag(RULE_ACCOUNTING, 1, "generated source defines no _chain function")
        return findings

    # -- accounting: one unconditional, final _charge call with full counters
    charge_calls = [
        stmt
        for stmt in function.body
        if isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Call)
        and isinstance(stmt.value.func, ast.Name)
        and stmt.value.func.id == "_charge"
    ]
    if len(charge_calls) != 1:
        flag(
            RULE_ACCOUNTING,
            function.lineno,
            f"expected exactly one top-level _charge(...) call, found "
            f"{len(charge_calls)}",
        )
    else:
        charge = charge_calls[0]
        if function.body[-1] is not charge:
            flag(
                RULE_ACCOUNTING,
                charge.lineno,
                "_charge(...) is not the chain's final statement; paths after "
                "it could do uncharged work",
            )
        assert isinstance(charge.value, ast.Call)
        keywords = {kw.arg for kw in charge.value.keywords if kw.arg}
        missing = CHARGE_KEYWORDS - keywords
        if missing:
            flag(
                RULE_ACCOUNTING,
                charge.lineno,
                f"_charge(...) omits counters: {', '.join(sorted(missing))}",
            )
    if not _charges_directly(function):
        flag(
            RULE_ACCOUNTING,
            function.lineno,
            "chain body never reaches an ExecutionMetrics charge",
        )

    _flag_nondeterminism(src, tree, function, "chain", flag)

    # -- purity: every evaluated predicate is a pure expression
    for condition in _predicate_filters(function):
        reason = _pure_expression_violation(condition)
        if reason:
            flag(
                RULE_PURITY,
                condition.lineno,
                f"impure predicate expression "
                f"{ast.unparse(condition)!r}: {reason}",
            )
    return findings


def audit_fold_source(src: str, label: str) -> list[Finding]:
    """Audit one generated group-by fold's source."""
    findings: list[Finding] = []

    def flag(rule: str, line: int, message: str) -> None:
        findings.append(
            Finding(rule=rule, path=label, line=line, symbol="_fold", message=message)
        )

    tree = ast.parse(src)
    function = _function_def(tree, "_fold")
    if function is None:
        flag(RULE_ACCOUNTING, 1, "generated source defines no _fold function")
        return findings

    _flag_uncharged_fold(function, "fold", flag)
    _flag_banned_names(function, "fold", flag)
    return findings


def _flag_banned_names(function: ast.FunctionDef, what: str, flag) -> None:
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and node.id in BANNED_GENERATED_NAMES:
            flag(
                RULE_DETERMINISM,
                node.lineno,
                f"generated {what} references banned name {node.id!r}",
            )


def _flag_nondeterminism(
    src: str, tree: ast.Module, function: ast.FunctionDef, what: str, flag
) -> None:
    """File-level determinism rules over the generated module, plus the
    stricter no-banned-names check (generated code binds everything it needs
    through the env, so these names have no business appearing)."""
    context = RuleContext(relpath="engine/<generated>.py", source=src, tree=tree)
    for rule in (WallClockRule(), ModuleRandomRule()):
        for finding in rule.check_module(context):
            flag(RULE_DETERMINISM, finding.line, finding.message)
    _flag_banned_names(function, what, flag)


def _flag_uncharged_fold(function: ast.FunctionDef, what: str, flag) -> None:
    """The group-by's two batch charges must be top-level statements."""
    for attr, message in (
        ("aggregate_updates", "charges metrics.aggregate_updates"),
        ("tuples_consumed", "bumps the accumulator's tuples_consumed"),
    ):
        if not any(
            isinstance(stmt, ast.AugAssign)
            and isinstance(stmt.target, ast.Attribute)
            and stmt.target.attr == attr
            for stmt in function.body
        ):
            flag(RULE_ACCOUNTING, function.lineno, f"{what} never unconditionally {message}")


def _is_skip(stmt: ast.stmt) -> bool:
    """``if <test>: continue`` — the guard a row leaves a level through."""
    return (
        isinstance(stmt, ast.If)
        and len(stmt.body) == 1
        and isinstance(stmt.body[0], ast.Continue)
        and not stmt.orelse
    )


def _bumped_tally(stmt: ast.stmt, by: str) -> str | None:
    """The name ``stmt`` adds ``by`` to, when it is such a statement."""
    if (
        isinstance(stmt, ast.AugAssign)
        and isinstance(stmt.op, ast.Add)
        and isinstance(stmt.target, ast.Name)
        and ast.unparse(stmt.value) == by
    ):
        return stmt.target.id
    return None


def _folds_in_place(route_src: str) -> bool:
    """Is the route's innermost body the group-by's fold (it binds the group
    dictionary), rather than building each output tuple for a list?"""
    return "_groups" in route_src


def audit_route_source(src: str, label: str) -> list[Finding]:
    """Audit one generated stitch-up route's source."""
    findings: list[Finding] = []

    def flag(rule: str, line: int, message: str) -> None:
        findings.append(
            Finding(rule=rule, path=label, line=line, symbol="_route", message=message)
        )

    tree = ast.parse(src)
    function = _function_def(tree, "_route")
    if function is None:
        flag(RULE_ACCOUNTING, 1, "generated source defines no _route function")
        return findings

    # -- accounting: the route charges through the tallies it returns, so each
    # must count every row that reaches its level.  A level is a loop over a
    # probed bucket: its candidates are tallied by len(bucket) right behind the
    # bucket's None guard, and where a residual guard opens the loop's body,
    # its survivors one by one right behind that.
    returned = function.body[-1]
    if not isinstance(returned, ast.Return):
        flag(RULE_ACCOUNTING, returned.lineno, "route does not end by returning its tallies")
        return findings
    tallies = {node.id for node in ast.walk(returned) if isinstance(node, ast.Name)}
    sanctioned: set[ast.stmt] = set()
    for owner in ast.walk(function):
        body = getattr(owner, "body", None)
        if not isinstance(body, list):
            continue
        for index, loop in enumerate(body):
            if not (
                isinstance(loop, ast.For)
                and isinstance(loop.iter, ast.Name)
                and loop.iter.id != "rows"
            ):
                continue
            bucket = loop.iter.id
            entry = body[max(index - 2, 0):index]
            if (
                len(entry) == 2
                and _is_skip(entry[0])
                and ast.unparse(entry[0].test) == f"{bucket} is None"  # type: ignore[attr-defined]
                and _bumped_tally(entry[1], f"len({bucket})") in tallies
            ):
                sanctioned.add(entry[1])
            else:
                flag(
                    RULE_ACCOUNTING,
                    loop.lineno,
                    f"no returned tally counts len({bucket}) right behind the "
                    f"`{bucket} is None` guard: rows reach this level untallied",
                )
            if _is_skip(loop.body[0]):
                if len(loop.body) > 1 and _bumped_tally(loop.body[1], "1") in tallies:
                    sanctioned.add(loop.body[1])
                else:
                    flag(
                        RULE_ACCOUNTING,
                        loop.body[0].lineno,
                        f"survivors of the residual guard on {bucket} are not "
                        "tallied right behind it",
                    )
    bumped: set[str] = set()
    for node in ast.walk(function):
        if (
            isinstance(node, ast.AugAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id in tallies
        ):
            bumped.add(node.target.id)
            if node not in sanctioned:
                flag(
                    RULE_ACCOUNTING,
                    node.lineno,
                    f"tally {node.target.id!r} is bumped away from its level's "
                    "guard, where some path to the level can miss it",
                )
    for name in sorted(tallies - bumped):
        flag(RULE_ACCOUNTING, returned.lineno, f"returned tally {name!r} is never bumped")

    _flag_nondeterminism(src, tree, function, "route", flag)

    # -- late materialisation: a route that folds in place builds no joined
    # row — that is what it exists for
    if _folds_in_place(src):
        _flag_uncharged_fold(function, "folding route", flag)
        group_keys = {
            stmt.value
            for stmt in ast.walk(function)
            if isinstance(stmt, ast.Assign)
            and [ast.unparse(target) for target in stmt.targets] == ["key"]
        }
        for node in ast.walk(function):
            if (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Add)
                and any(
                    isinstance(side, ast.Name) and _ROW_NAME.match(side.id)
                    for side in (node.left, node.right)
                )
            ):
                flag(
                    RULE_MATERIALISATION,
                    node.lineno,
                    f"folding route concatenates rows: {ast.unparse(node)!r}",
                )
            elif (
                isinstance(node, ast.Tuple)
                and node not in group_keys
                and any(
                    isinstance(elt, ast.Subscript)
                    and isinstance(elt.value, ast.Name)
                    and _ROW_NAME.match(elt.value.id)
                    for elt in node.elts
                )
            ):
                flag(
                    RULE_MATERIALISATION,
                    node.lineno,
                    "folding route gathers row values into a tuple that is not "
                    f"the group key: {ast.unparse(node)!r}",
                )
    return findings


def _compiled_plan(workload, tree, *, opaque: bool, merge: bool) -> PipelinedPlan:
    query = workload.query
    if opaque and query.selections:
        query = replace(
            query,
            selections={
                relation: OpaquePredicate(predicate)
                for relation, predicate in query.selections.items()
            },
        )
    strategies = None
    if merge:
        strategies = {
            node.relations(): JoinStrategy(algorithm="merge", direction=1)
            for node in tree.internal_nodes()
        }
    cursors = {
        name: SourceCursor(name, relation)
        for name, relation in workload.relations.items()
    }
    return PipelinedPlan(
        query,
        tree,
        cursors,
        output_sink=lambda row: None,
        batch_size=16,
        join_strategies=strategies,
        engine_mode="compiled",
    )


def _stitched_route_sources(workload) -> list[str]:
    """Generated text of the stitch-up routes of ``workload`` run as two
    phases of one plan: stitched into an answer list (every route builds its
    output tuples once) and, when the query aggregates, into its group-by
    (the routes fold in place)."""
    query = workload.query
    tree = JoinTree.left_deep(query.relations)
    cursors = {
        name: SourceCursor(name, relation)
        for name, relation in workload.relations.items()
    }
    half = max(1, sum(len(relation) for relation in workload.relations.values()) // 2)
    registry = StateRegistry()
    for phase, max_steps in enumerate((half, None)):
        plan = PipelinedPlan(query, tree, cursors, lambda row: None, phase_id=phase)
        plan.run(max_steps=max_steps)
        plan.register_state(registry)
    canonical = plan.output_schema
    outputs: list[GroupAccumulator | list[tuple]] = [[]]
    if query.aggregation is not None:
        outputs.append(
            GroupAccumulator(
                canonical,
                query.aggregation.group_attributes,
                query.aggregation.aggregates,
            )
        )
    sources: list[str] = []
    for output in outputs:
        stitchup = StitchUpExecutor(query, registry, 2, canonical, output)
        stitchup.run()
        sources.extend(
            route.loop.__compiled_source__  # type: ignore[attr-defined]
            for route in stitchup._routes.values()
        )
    return sources


DEFAULT_SEEDS = tuple(range(16))


def audit_generated_pipelines(seeds: tuple[int, ...] = DEFAULT_SEEDS) -> CodegenAuditReport:
    """Generate and audit compiled pipelines for the seeded plan corpus.

    Per seed, a hash pipeline is always audited and — when the plan has join
    nodes — a forced-merge pipeline too; odd seeds get their selection
    predicates wrapped opaque.  Aggregating workloads additionally
    contribute their generated group-by fold, and every workload the
    stitch-up routes of a two-phase run.
    """
    report = CodegenAuditReport()
    for seed in seeds:
        workload = generate_workload(seed)
        query = workload.query
        tree = JoinTree.left_deep(query.relations)
        opaque = bool(seed % 2)
        variants = [("hash", False)]
        if any(True for _ in tree.internal_nodes()):
            variants.append(("merge", True))
        for kind, merge in variants:
            plan = _compiled_plan(workload, tree, opaque=opaque, merge=merge)
            chains = compile_plan_chains(plan)
            report.pipelines_audited += 1
            if merge:
                report.merge_pipelines += 1
            else:
                report.hash_pipelines += 1
            for relation, chain in sorted(chains.items()):
                label = f"<compiled seed={seed} {kind} leaf={relation}>"
                src = chain.__compiled_source__
                report.chains_audited += 1
                has_selection = relation in plan.query.selections
                if has_selection and opaque:
                    report.opaque_predicate_chains += 1
                elif has_selection:
                    report.inline_predicate_chains += 1
                report.findings.extend(audit_chain_source(src, label))
            if not merge and query.aggregation is not None:
                accumulator = GroupAccumulator(
                    plan.output_schema,
                    query.aggregation.group_attributes,
                    query.aggregation.aggregates,
                )
                fold = accumulator.make_batch_fold()
                if fold is not None:
                    report.folds_audited += 1
                    report.findings.extend(
                        audit_fold_source(
                            fold.__compiled_source__,
                            f"<fold seed={seed}>",
                        )
                    )
        for index, src in enumerate(_stitched_route_sources(workload)):
            report.routes_audited += 1
            if _folds_in_place(src):
                report.folding_routes += 1
            else:
                report.materialising_routes += 1
            report.findings.extend(
                audit_route_source(src, f"<route seed={seed} #{index}>")
            )
    report.findings.sort()
    return report
