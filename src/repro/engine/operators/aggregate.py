"""Grouping / aggregation.

:class:`GroupAccumulator` is the one hash GROUP BY every execution path folds
into: the final aggregation of a static pipelined run, the shared group-by
that corrective query processing feeds from multiple phases and the
stitch-up plan (the "shared group-by operator" of Figure 1), and each window
of adjustable-window pre-aggregation (:mod:`repro.core.preaggregation`).
With ``input_is_partial`` it consumes the *partial aggregates* a
pre-aggregation stage emits, "coalescing pre-grouped information instead of
operating on original tuples" (Section 2.2).  A window of one tuple is the
pseudogroup of Section 3.2: each raw tuple becomes a schema-compatible
singleton partial aggregate.
"""

from __future__ import annotations

from typing import Sequence

from repro.engine.cost import ExecutionMetrics
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

    ``accumulate_batch(rows)`` folds tuples (raw or partial, depending on
    ``input_is_partial``), ``results()`` finalizes and returns the grouped
    output.
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

    def accumulate_batch(self, rows: list[tuple]) -> None:
        """Fold a whole batch with one tight loop per aggregate term.

        Charges one ``aggregate_updates`` per row and aggregate term, so the
        work does not depend on how the output is batched.
        """
        groups = self._groups
        group_positions = self._group_positions
        aggregates = self.aggregates
        if self.input_is_partial:
            merges = [agg.merge_partial for agg in aggregates]
        else:
            merges = [agg.merge_value for agg in aggregates]
        if len(aggregates) == 1:
            # The common SPJA shape: a single aggregate term.
            agg = aggregates[0]
            merge = merges[0]
            pos = self._value_positions[0]
            for row in rows:
                key = tuple(row[p] for p in group_positions)
                states = groups.get(key)
                if states is None:
                    groups[key] = states = [agg.initial_state()]
                states[0] = merge(states[0], row[pos] if pos >= 0 else None)
        else:
            value_positions = self._value_positions
            for row in rows:
                key = tuple(row[p] for p in group_positions)
                states = groups.get(key)
                if states is None:
                    groups[key] = states = [agg.initial_state() for agg in aggregates]
                for idx, merge in enumerate(merges):
                    pos = value_positions[idx]
                    states[idx] = merge(states[idx], row[pos] if pos >= 0 else None)
        self.metrics.aggregate_updates += len(rows) * len(aggregates)

    def _fold_lines(self, value_at) -> list[str] | None:
        """Source lines folding one raw tuple, the body of a generated loop.

        ``value_at(pos)`` is the expression that reads this accumulator's
        input position ``pos`` from the loop's variables, or ``None`` when
        they do not carry it.  The lines find the tuple's group through
        ``_groups`` / ``_get = _groups.get`` and update its states with the
        aggregate merges inlined, evolving the group dictionary exactly as
        :meth:`accumulate_batch` does; ``aggregate_updates`` is left for the caller
        to charge once per batch.  Returns ``None`` when no specialization
        applies (partial-aggregate input, or an attribute the loop cannot
        reach).
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
            "def _fold(rows, _groups=_groups, _get=_groups.get, _metrics=_metrics):\n"
            "    for row in rows:\n"
            f"{body}\n"
            f"    _metrics.aggregate_updates += len(rows) * {len(self.aggregates)}\n"
        )
        from repro.engine.compiled import bind_generated

        return bind_generated(src, {"_groups": self._groups, "_metrics": self.metrics})

    def results(self) -> list[tuple]:
        """Finalize and return one output tuple per group.

        Only ``avg`` finalizes its state; without one, a group's states are
        its output values as they stand.
        """
        aggregates = self.aggregates
        if all(agg.function != "avg" for agg in aggregates):
            return [key + tuple(states) for key, states in self._groups.items()]
        return [
            key + tuple(agg.finalize(state) for agg, state in zip(aggregates, states))
            for key, states in self._groups.items()
        ]
