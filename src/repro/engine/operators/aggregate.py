"""Grouping / aggregation operators.

Three flavours are relevant to the paper:

* :class:`HashAggregate` — conventional blocking hash aggregation, used for
  the final GROUP BY of every SPJA query.  It can consume either raw tuples
  or *partial aggregates* produced upstream by pre-aggregation, in which case
  it "coalesces pre-grouped information instead of operating on original
  tuples" (Section 2.2).
* :class:`Pseudogroup` — the trivial operator of Section 3.2 that converts
  each raw tuple into a schema-compatible singleton partial aggregate, so
  that plans with and without pre-aggregation produce identically shaped
  subexpressions.
* the adjustable-window pre-aggregation operator lives in
  :mod:`repro.core.preaggregation` because it is one of the paper's adaptive
  contributions.

There is also :class:`GroupAccumulator`, the push-style shared group-by state
that corrective query processing feeds from multiple phases and the stitch-up
plan (the "shared group-by operator" of Figure 1).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.engine.cost import ExecutionMetrics
from repro.engine.operators.base import Operator, OperatorError
from repro.relational.expressions import Aggregate
from repro.relational.schema import Attribute, Schema


def _tuple_display(items: Sequence[str]) -> str:
    """Source text of the tuple of ``items`` (generated code builds keys and rows with it)."""
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


def aggregate_output_schema(
    group_attributes: Sequence[str],
    aggregates: Sequence[Aggregate],
    input_schema: Schema,
) -> Schema:
    """Schema produced by grouping on ``group_attributes`` with ``aggregates``."""
    attrs = [input_schema.attribute(name).without_relation() for name in group_attributes]
    attrs.extend(Attribute(a.alias, "any", None) for a in aggregates)
    return Schema(tuple(attrs))


class GroupAccumulator:
    """Push-style hash-aggregation state shared across plans and phases.

    ``accumulate(row)`` folds one tuple (raw or partial, depending on
    ``input_is_partial``), ``results()`` finalizes and returns the grouped
    output.  Both the blocking :class:`HashAggregate` operator and the
    corrective query processor's shared group-by are built on this class.
    """

    def __init__(
        self,
        input_schema: Schema,
        group_attributes: Sequence[str],
        aggregates: Sequence[Aggregate],
        input_is_partial: bool = False,
        metrics: ExecutionMetrics | None = None,
    ) -> None:
        self.input_schema = input_schema
        self.group_attributes = tuple(group_attributes)
        self.aggregates = tuple(aggregates)
        self.input_is_partial = input_is_partial
        self.metrics = metrics if metrics is not None else ExecutionMetrics()
        self.output_schema = aggregate_output_schema(
            group_attributes, aggregates, input_schema
        )
        self._group_positions = input_schema.positions(self.group_attributes)
        if input_is_partial:
            self._value_positions = tuple(
                input_schema.position(a.alias) for a in self.aggregates
            )
        else:
            self._value_positions = tuple(
                input_schema.position(a.attribute) if a.attribute is not None else -1
                for a in self.aggregates
            )
        self._groups: dict[tuple, list] = {}
        self.tuples_consumed = 0

    def accumulate(self, row: tuple) -> None:
        """Fold one input tuple into the aggregate state."""
        self.tuples_consumed += 1
        key = tuple(row[p] for p in self._group_positions)
        states = self._groups.get(key)
        if states is None:
            states = [agg.initial_state() for agg in self.aggregates]
            self._groups[key] = states
        for idx, agg in enumerate(self.aggregates):
            pos = self._value_positions[idx]
            value = row[pos] if pos >= 0 else None
            self.metrics.aggregate_updates += 1
            if self.input_is_partial:
                states[idx] = agg.merge_partial(states[idx], value)
            else:
                states[idx] = agg.merge_value(states[idx], value)

    def accumulate_many(self, rows) -> None:
        for row in rows:
            self.accumulate(row)

    def accumulate_batch(self, rows: list[tuple]) -> None:
        """Fold a whole batch with one tight loop per aggregate term.

        Charges exactly the counters :meth:`accumulate` would charge, so
        batched and tuple-at-a-time executions report identical work.
        """
        groups = self._groups
        group_positions = self._group_positions
        aggregates = self.aggregates
        if self.input_is_partial:
            merges = [agg.merge_partial for agg in aggregates]
        else:
            merges = [agg.merge_value for agg in aggregates]
        count = 0
        if len(aggregates) == 1:
            # The common SPJA shape: a single aggregate term.
            agg = aggregates[0]
            merge = merges[0]
            pos = self._value_positions[0]
            for row in rows:
                count += 1
                key = tuple(row[p] for p in group_positions)
                states = groups.get(key)
                if states is None:
                    groups[key] = states = [agg.initial_state()]
                states[0] = merge(states[0], row[pos] if pos >= 0 else None)
        else:
            value_positions = self._value_positions
            for row in rows:
                count += 1
                key = tuple(row[p] for p in group_positions)
                states = groups.get(key)
                if states is None:
                    groups[key] = states = [agg.initial_state() for agg in aggregates]
                for idx, merge in enumerate(merges):
                    pos = value_positions[idx]
                    states[idx] = merge(states[idx], row[pos] if pos >= 0 else None)
        self.tuples_consumed += count
        self.metrics.aggregate_updates += count * len(aggregates)

    def _fold_lines(self, value_at) -> list[str] | None:
        """Source lines folding one raw tuple, the body of a generated loop.

        ``value_at(pos)`` is the expression that reads this accumulator's
        input position ``pos`` from the loop's variables, or ``None`` when
        they do not carry it.  The lines find the tuple's group through
        ``_groups`` / ``_get = _groups.get`` and update its states with the
        aggregate merges inlined, evolving the group dictionary exactly as
        :meth:`accumulate` does; ``tuples_consumed`` and ``aggregate_updates``
        are left for the caller to charge once per batch.  Returns ``None``
        when no specialization applies (partial-aggregate input, or an
        attribute the loop cannot reach).
        """
        if self.input_is_partial:
            return None
        keys = [value_at(pos) for pos in self._group_positions]
        values = [value_at(pos) if pos >= 0 else None for pos in self._value_positions]
        if None in keys or any(
            value is None and agg.function != "count"
            for value, agg in zip(values, self.aggregates)
        ):
            return None

        init_exprs: list[str] = []
        update_lines: list[str] = []
        for idx, (agg, value) in enumerate(zip(self.aggregates, values)):
            fn = agg.function
            if fn == "count":
                init_exprs.append("0")
                update_lines.append(f"st[{idx}] = st[{idx}] + 1")
            elif fn == "sum":
                init_exprs.append("0")
                update_lines.append(f"st[{idx}] = st[{idx}] + {value}")
            elif fn == "avg":
                init_exprs.append("(0.0, 0)")
                update_lines.append(f"_t, _c = st[{idx}]")
                update_lines.append(f"st[{idx}] = (_t + {value}, _c + 1)")
            else:  # min / max
                init_exprs.append("None")
                update_lines.append(f"_v = {value}")
                update_lines.append(f"_s = st[{idx}]")
                update_lines.append(
                    f"st[{idx}] = _v if _s is None or _v {'<' if fn == 'min' else '>'} _s else _s"
                )
        return [
            f"key = {_tuple_display(keys)}",
            "st = _get(key)",
            "if st is None:",
            f"    _groups[key] = st = [{', '.join(init_exprs)}]",
            *update_lines,
        ]

    def make_batch_fold(self, position_map: Sequence[int] | None = None):
        """Generate a specialized batch-fold equivalent to :meth:`accumulate_batch`.

        The returned callable folds a batch of rows into this accumulator's
        group state with the aggregate merges inlined (no per-row method
        dispatch), charging exactly the counters :meth:`accumulate_batch`
        charges and evolving the group dictionary through the identical
        sequence of states — including fold order, so floating-point sums are
        bit-identical.  ``position_map`` optionally maps this accumulator's
        input-schema positions to positions in the rows the fold will
        receive: the compiled engine composes a canonical-layout
        :class:`~repro.relational.tuples.TupleAdapter` into the fold this
        way instead of materializing adapted tuples.  Returns ``None`` when
        no specialization applies (partial-aggregate input, or an attribute
        the map cannot reach), in which case callers fall back to the
        generic path.
        """

        def value_at(pos: int) -> str | None:
            if position_map is not None:
                pos = position_map[pos]
            return f"row[{pos}]" if pos >= 0 else None

        fold_lines = self._fold_lines(value_at)
        if fold_lines is None:
            return None
        body = "\n".join(f"        {line}" for line in fold_lines)
        src = (
            "def _fold(rows, _groups=_groups, _get=_groups.get, _self=_self, "
            "_metrics=_metrics):\n"
            "    for row in rows:\n"
            f"{body}\n"
            "    n = len(rows)\n"
            "    _self.tuples_consumed += n\n"
            f"    _metrics.aggregate_updates += n * {len(self.aggregates)}\n"
        )
        from repro.engine.compiled import _code_for

        namespace = {
            "_groups": self._groups,
            "_self": self,
            "_metrics": self.metrics,
        }
        exec(_code_for(src), namespace)
        fold = namespace["_fold"]
        # Expose the generated source for the compiled-codegen audit, same
        # as compile_chain does for fused chains.
        fold.__compiled_source__ = src
        return fold

    @property
    def group_count(self) -> int:
        return len(self._groups)

    def results(self) -> list[tuple]:
        """Finalize and return one output tuple per group."""
        output = []
        for key, states in self._groups.items():
            finals = tuple(
                agg.finalize(state) for agg, state in zip(self.aggregates, states)
            )
            output.append(key + finals)
        return output


class HashAggregate(Operator):
    """Blocking hash-based GROUP BY over a pull-based child."""

    def __init__(
        self,
        child: Operator,
        group_attributes: Sequence[str],
        aggregates: Sequence[Aggregate],
        input_is_partial: bool = False,
        metrics: ExecutionMetrics | None = None,
    ) -> None:
        metrics = metrics if metrics is not None else child.metrics
        accumulator = GroupAccumulator(
            child.schema, group_attributes, aggregates, input_is_partial, metrics
        )
        super().__init__(accumulator.output_schema, metrics)
        self.child = child
        self.accumulator = accumulator

    def _produce(self) -> Iterator[tuple]:
        accumulate = self.accumulator.accumulate
        for row in self.child.execute():
            accumulate(row)
        yield from self.accumulator.results()


class Pseudogroup(Operator):
    """Converts raw tuples into schema-compatible singleton partial aggregates.

    For each input tuple it projects out the non-grouping attributes and
    manufactures partial-aggregate values from the current tuple alone, so
    its output schema equals that of a real pre-aggregation operator over the
    same input — "eliminating a source of incompatibility, but costing little
    more than a conventional projection" (Section 3.2).
    """

    def __init__(
        self,
        child: Operator,
        group_attributes: Sequence[str],
        aggregates: Sequence[Aggregate],
        metrics: ExecutionMetrics | None = None,
    ) -> None:
        metrics = metrics if metrics is not None else child.metrics
        schema = aggregate_output_schema(group_attributes, aggregates, child.schema)
        super().__init__(schema, metrics)
        self.child = child
        self.group_attributes = tuple(group_attributes)
        self.aggregates = tuple(aggregates)
        self._group_positions = child.schema.positions(self.group_attributes)
        self._value_positions = []
        for agg in self.aggregates:
            if agg.attribute is None:
                self._value_positions.append(-1)
            else:
                self._value_positions.append(child.schema.position(agg.attribute))

    def _produce(self) -> Iterator[tuple]:
        metrics = self.metrics
        for row in self.child.execute():
            metrics.tuple_copies += 1
            key = tuple(row[p] for p in self._group_positions)
            partials = tuple(
                agg.singleton_partial(row[pos] if pos >= 0 else None)
                for agg, pos in zip(self.aggregates, self._value_positions)
            )
            yield key + partials


class TraditionalPreAggregate(Operator):
    """Blocking pre-aggregation: group the whole input before the join.

    This is the conventional (non-adaptive) early-aggregation transformation
    the paper compares against in Figure 6 — it groups on the union of the
    final grouping attributes and the join attributes, producing partial
    aggregates, but only emits once its entire input has been consumed.
    """

    def __init__(
        self,
        child: Operator,
        group_attributes: Sequence[str],
        aggregates: Sequence[Aggregate],
        metrics: ExecutionMetrics | None = None,
    ) -> None:
        metrics = metrics if metrics is not None else child.metrics
        if not group_attributes:
            raise OperatorError("pre-aggregation requires at least one grouping attribute")
        accumulator = GroupAccumulator(
            child.schema, group_attributes, aggregates, False, metrics
        )
        super().__init__(accumulator.output_schema, metrics)
        self.child = child
        self.accumulator = accumulator

    def _produce(self) -> Iterator[tuple]:
        accumulate = self.accumulator.accumulate
        for row in self.child.execute():
            accumulate(row)
        yield from self.accumulator.results()
