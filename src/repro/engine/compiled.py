"""Compiled fused batch pipelines for the pipelined engine.

The interpreted batched engine (PR 1) already propagates whole batches, but
every batch still walks generic operator code: one ``push_batch`` frame per
join node, predicate closures built from expression trees (three Python
calls per tuple for a single comparison), and per-node counter updates.
This module removes that interpretive overhead by *specializing the engine
to the plan at hand*: at plan-build time each leaf's entire leaf→root path —
selection predicate, hash-table inserts, join probes, residual predicates
and the final emit — is generated as **one Python function** (``exec``-
compiled source), with every attribute position inlined as a constant,
every per-row helper (bucket ``dict.get``, ``insert_batch``) hoisted into a
local via default arguments, and all work counters tallied in locals and
charged once per batch through :meth:`ExecutionMetrics.charge_batch` (the
deferred-accounting API).

Equivalence contract
--------------------

``PipelinedPlan.step_batch`` hands every scheduled group to its leaf's
*kernel*; a compiled chain is the kernel of compiled mode.  It performs, for
each batch group, *exactly* the operations the interpreted kernel
(``PlanOutput._interpreted_group``) performs, in the same order, with the
same early-exit structure:

* the produced join tuples (and therefore result multisets) are identical —
  the generated comprehensions mirror ``PipelinedJoinNode.push_batch``;
* every :class:`ExecutionMetrics` counter receives the same total per group,
  charged before the next group's clock synchronization, so the simulated
  clock — and with it corrective poll timing and phase counts — is
  bit-identical to the interpreted batched engine on local *and* remote
  sources;
* per-node ``output_count``, per-leaf ``tuples_read``/``tuples_passed`` and
  the shared hash-table state evolve identically (same insert order), so
  monitor observations, re-optimizer decisions, state registration and
  stitch-up all see the same world.

Merge-join nodes (the order-adaptive strategy of PR 3) are spliced into a
chain as a single stage that calls
:meth:`~repro.engine.pipelined_merge.PipelinedMergeJoinNode.process_batch`
— their per-row state machine cannot be fused, but everything below and
above them in the chain still is.

Chains are compiled per :class:`~repro.engine.pipelined.PipelinedPlan`,
i.e. **per corrective phase**: a plan switch or a hash↔merge strategy
switch builds a new plan and therefore recompiles, which keeps the closures
consistent with the phase's join network and state structures.
"""

from __future__ import annotations

from functools import partial
from types import CodeType
from typing import Any, Callable, Mapping

from repro.optimizer.plans import PlanError
from repro.relational.expressions import (
    AttributeRef,
    BinaryPredicate,
    Comparison,
    Conjunction,
    Constant,
    Disjunction,
    Negation,
    TruePredicate,
)
from repro.relational.schema import Schema

#: Kernels of the pipelined engine.  ``compiled`` is this module's fused,
#: plan-specialized chains, the default wherever they can run;
#: ``interpreted`` is the generic operator code they are held to, which
#: staged plans need.
ENGINE_MODES = ("interpreted", "compiled")


def validate_engine_mode(
    engine_mode: str | None, batch_size: int | None, staged: bool = False
) -> str:
    """Reject a batch size below 1 or an unknown mode; return the mode a
    plan runs.

    ``None`` lets the plan decide: a plan with pre-aggregation stages
    (``staged``), which the chains cannot run, runs the interpreted kernel,
    and any other the compiled chains.

    The one statement of the rule, checked by the two places that accept
    the pair: :class:`~repro.engine.pipelined.PipelinedPlan` and
    :class:`~repro.core.options.ProcessorOptions`.  :class:`PlanError` is a
    :class:`ValueError`.
    """
    if batch_size is not None and batch_size < 1:
        raise PlanError(f"batch_size must be positive, got {batch_size}")
    if engine_mode is None:
        return "interpreted" if staged else "compiled"
    if engine_mode not in ENGINE_MODES:
        raise PlanError(
            f"unknown engine_mode {engine_mode!r}; expected one of {ENGINE_MODES}"
        )
    return engine_mode


class _Env:
    """Collects runtime objects referenced by generated code, under fresh names."""

    def __init__(self) -> None:
        self.bindings: dict[str, object] = {}
        self._n = 0

    def add(self, value: object, prefix: str = "v") -> str:
        name = f"_{prefix}{self._n}"
        self._n += 1
        self.bindings[name] = value
        return name


# Comparison operators whose Python surface syntax matches the interpreted
# semantics (repro.relational.expressions._COMPARATORS uses the operator
# module, so inlining the native operator is exactly equivalent).
_OP_SOURCE = {
    "=": "==",
    "==": "==",
    "!=": "!=",
    "<>": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
}


def predicate_source(predicate, schema: Schema, env: _Env, var: str = "row") -> str:
    """Emit a Python expression evaluating ``predicate`` against ``var``.

    Attribute references become constant-index subscripts; constants and
    opaque callables are bound through ``env``.  Unknown predicate types
    degrade gracefully to a call of their own ``compile()`` closure, so the
    emitter accepts anything the interpreter accepts.  It recurses at module
    level: a closure calling itself would hold itself, and ``env``, in a cycle.
    """
    p = predicate
    if isinstance(p, TruePredicate):
        return "True"
    if isinstance(p, Comparison):
        left = _scalar_source(p.left, schema, env, var)
        return f"({left} {_OP_SOURCE[p.op]} {_scalar_source(p.right, schema, env, var)})"
    if isinstance(p, (Conjunction, Disjunction)):
        if not p.children:
            return "True" if isinstance(p, Conjunction) else "False"
        joiner = " and " if isinstance(p, Conjunction) else " or "
        return "(" + joiner.join(
            predicate_source(c, schema, env, var) for c in p.children
        ) + ")"
    if isinstance(p, Negation):
        return f"(not {predicate_source(p.child, schema, env, var)})"
    if isinstance(p, BinaryPredicate):
        fn = env.add(p.fn, "f")
        lpos = schema.position(p.left)
        rpos = schema.position(p.right)
        return f"{fn}({var}[{lpos}], {var}[{rpos}])"
    return f"{env.add(p.compile(schema), 'p')}({var})"


def _scalar_source(expr, schema: Schema, env: _Env, var: str) -> str:
    if isinstance(expr, AttributeRef):
        return f"{var}[{schema.position(expr.name)}]"
    if isinstance(expr, Constant):
        return env.add(expr.value, "c")
    return f"{env.add(expr.compile(schema), 'f')}({var})"


def compile_chain(plan, binding) -> Callable[[list], None]:
    """Generate the fused leaf→root batch function for one leaf binding.

    The returned callable is that leaf's batch kernel: it consumes one
    non-empty group of source rows, as cut by ``_read_schedule`` and
    dispatched by ``step_batch``, and performs selection, the full join
    chain, root emission, all per-node / per-leaf count updates and one
    deferred ``charge_batch`` call.  The counts are applied in a ``finally``,
    so a sink or predicate that raises leaves what the group did charged,
    as the interpreted kernel does.
    """
    from repro.engine.pipelined import PipelinedJoinNode

    env = _Env()
    env.bindings["_charge"] = plan.metrics.charge_batch
    env.bindings["_b"] = binding
    # Root emission binds the plan's PlanOutput, never the plan: its sink
    # directly (chains are compiled lazily, on the first batch step, by which
    # point executors have attached their sinks), bumping its count exactly
    # like emit_batch does.
    env.bindings["_sink"] = plan.output.sink_batch
    env.bindings["_po"] = plan.output

    lines: list[str] = []
    indent = 2

    def emit(line: str) -> None:
        lines.append("    " * indent + line)

    # Stages from the leaf's entry node up to the root.
    stages: list[tuple[object, str]] = []
    node, side = binding.node, binding.side
    while node is not None:
        stages.append((node, side))
        side = node.parent_side
        node = node.parent

    hash_out_vars: list[tuple[str, str]] = []  # (node env name, output count var)
    insert_counts: list[tuple[str, str]] = []  # (state env name, insert count var)

    # Selection (charged per read tuple, like the interpreted leaf body).
    selection = plan.query.selection_for(binding.relation)
    if isinstance(selection, TruePredicate):
        emit("_ps = _tr")
        cur = "rows"
    else:
        sel_src = predicate_source(
            selection, plan.cursors[binding.relation].schema, env
        )
        emit("_pe += _tr")
        emit(f"rows = [row for row in rows if {sel_src}]")
        emit("_ps = len(rows)")
        emit("if rows:")
        indent += 1
        cur = "rows"

    def emit_root(var: str, count_expr: str) -> None:
        emit(f"_n = {count_expr}")
        emit("_to += _n")
        emit("_po.count += _n")
        emit(f"_sink({var})")

    if not stages:
        # Single-relation query: selection survivors go straight to the sink.
        emit_root(cur, "_ps")
    else:
        for depth, (node, side) in enumerate(stages):
            count_var = "_ps" if depth == 0 else "_n"
            if isinstance(node, PipelinedJoinNode):
                if side == "left":
                    own_state, other_state = node.left_state, node.right_state
                    combine = "_ap(row + _other)"
                else:
                    own_state, other_state = node.right_state, node.left_state
                    combine = "_ap(_other + row)"
                own = env.add(own_state.bucket_map(), "ob")
                own_get = env.add(own_state.bucket_map().get, "og")
                other_get = env.add(other_state.bucket_map().get, "pg")
                key_pos = node.key_position(side)
                ins_var = f"_i{depth}"
                insert_counts.append((env.add(own_state, "st"), ins_var))
                # One fused pass: insert into the own-side bucket map and
                # probe the other side with a single key extraction per row.
                # Equivalent to insert_batch-then-probe because a batch only
                # carries one side's tuples and probes read the other side.
                out = f"t{depth}"
                emit(f"{ins_var} = {count_var}")
                emit(f"_hi += {ins_var}")
                emit(f"_hp += {ins_var}")
                emit(f"{out} = []")
                emit(f"_ap = {out}.append")
                emit(f"for row in {cur}:")
                emit(f"    _k = row[{key_pos}]")
                emit(f"    _bkt = {own_get}(_k)")
                emit("    if _bkt is None:")
                emit(f"        {own}[_k] = [row]")
                emit("    else:")
                emit("        _bkt.append(row)")
                emit(f"    _m = {other_get}(_k)")
                emit("    if _m is not None:")
                emit("        for _other in _m:")
                emit(f"            {combine}")
                emit(f"if {out}:")
                indent += 1
                emit(f"_n = len({out})")
                if node.residual_predicate is not None:
                    res_src = predicate_source(
                        node.residual_predicate, node.schema, env
                    )
                    emit("_pe += _n")
                    emit(f"{out} = [row for row in {out} if {res_src}]")
                    emit(f"_n = len({out})")
                    emit(f"if {out}:")
                    indent += 1
                emit("_tc += _n")
                out_var = env.add(node, "nd")
                local = f"_o{depth}"
                hash_out_vars.append((out_var, local))
                emit(f"{local} += _n")
                cur = out
            else:
                # Merge node: one opaque stage, charges handled inside.
                out = f"t{depth}"
                stage = env.add(partial(node.process_batch, side=side), "m")
                emit(f"{out} = {stage}({cur})")
                emit(f"if {out}:")
                indent += 1
                emit(f"_n = len({out})")
                cur = out
        emit_root(cur, f"len({cur})")

    # Footer: single exit, count/charge application in the ``finally``.
    indent = 1
    emit("finally:")
    indent = 2
    emit("_b.tuples_read += _tr")
    emit("_b.tuples_passed += _ps")
    for state_name, local in insert_counts:
        emit(f"if {local}:")
        emit(f"    {state_name}.add_count({local})")
    for node_name, local in hash_out_vars:
        emit(f"if {local}:")
        emit(f"    {node_name}.output_count += {local}")
    emit(
        "_charge(tuples_read=_tr, predicate_evals=_pe, hash_inserts=_hi, "
        "hash_probes=_hp, tuple_copies=_tc, tuples_output=_to)"
    )

    # Every tally the footer reads exists on every path, a raise included.
    zeroed = ["_pe", "_hi", "_hp", "_tc", "_to", "_ps"] + [
        local for _, local in hash_out_vars + insert_counts
    ]
    prologue = ["    " + " = ".join(zeroed) + " = 0", "    _tr = len(rows)", "    try:"]

    params = ", ".join(f"{name}={name}" for name in env.bindings)
    src = "\n".join(
        [f"def _chain(rows, {params}):"] + prologue + lines
    )
    return bind_generated(src, env.bindings)


def bind_generated(src: str, bindings: Mapping[str, object]) -> Callable[..., Any]:
    """Compile generated ``src`` against ``bindings``; return the function it defines.

    The one place generated code — compiled chains, group-by folds,
    stitch-up routes, CSV decoders — is compiled and run, with its source
    stamped on the function as ``__compiled_source__``.  It is also the
    rehydration primitive of cross-process execution: code *objects* never
    travel between processes — identical plan shapes generate identical
    source text, so a worker process rebuilds a parent's pipeline by
    regenerating (or receiving) the source and binding its own runtime
    objects (metrics sinks, hash states, bucket maps).
    """
    code = _code_for(src, bindings)
    namespace = dict(bindings)
    exec(code, namespace)
    # popped: a namespace holding the function it is the globals of is a cycle
    fn = namespace.pop(_function_code(code).co_name)
    fn.__compiled_source__ = src
    return fn


#: Every name generated code may read besides its bindings and the function
#: it defines: the builtins and attributes the generators emit.  Anything
#: else — ``set``, ``time``, ``random``, ``__import__``, ``globals`` — would
#: reach past the bound runtime objects, so ``_code_for`` refuses it.
GENERATED_NAMES = frozenset({
    "len", "int", "float", "append", "get", "add_count", "count", "output_count",
    "tuples_read", "tuples_passed", "aggregate_updates",
})

#: Source-text → code-object cache.  Identical plan shapes (same schemas,
#: predicates-by-position, join chain) generate identical source, so
#: repeated plan builds — corrective phases, serving sessions, benchmark
#: repetitions — skip the parse/compile step and the name check, and only
#: re-``exec`` against their own runtime bindings.  Bounded so a long-lived
#: server over an unbounded stream of distinct query shapes cannot grow it
#: without limit (eviction just costs the next build a recompile).
_code_cache: dict[str, CodeType] = {}  # lint: ignore[effects.global-mutable]
_CODE_CACHE_LIMIT = 512


def _function_code(code: CodeType) -> CodeType:
    (function,) = [const for const in code.co_consts if isinstance(const, CodeType)]
    return function


def _code_for(src: str, bindings: Mapping[str, object]) -> CodeType:
    code = _code_cache.get(src)
    if code is None:
        code = compile(src, "<generated>", "exec")
        allowed = GENERATED_NAMES | bindings.keys() | {_function_code(code).co_name}
        unknown: set[str] = set()
        pending = [code]
        while pending:
            current = pending.pop()
            unknown.update(name for name in current.co_names if name not in allowed)
            pending.extend(c for c in current.co_consts if isinstance(c, CodeType))
        if unknown:
            raise PlanError(f"generated code reads unknown names {sorted(unknown)}")
        if len(_code_cache) >= _CODE_CACHE_LIMIT:
            _code_cache.clear()
        _code_cache[src] = code
    return code


def compile_plan_chains(plan) -> dict[str, Callable[[list], None]]:
    """Compile the fused batch chain of every leaf of ``plan``."""
    return {
        relation: compile_chain(plan, binding)
        for relation, binding in plan.leaves.items()
    }


def fused_output_sink(accumulator, adapter=None):
    """Fused aggregation sink: adapter permutation composed into the fold.

    Returns a batch callable equivalent to ``adapt → accumulate_batch`` (the
    interpreted corrective output path) with the canonical-layout permutation
    folded into the generated group-by loop, so no adapted tuples are ever
    materialized.  Returns ``None`` when the accumulator or adapter cannot
    be specialized; callers keep the generic sink in that case.
    """
    position_map = None
    if adapter is not None and not adapter.is_identity:
        if adapter.has_missing:
            return None
        position_map = adapter._mapping  # type: ignore[attr-defined]
    return accumulator.make_batch_fold(position_map)
