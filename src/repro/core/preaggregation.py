"""Adjustable-window pre-aggregation (Section 6).

The operator divides its input into successive *windows*, pre-aggregates each
window, and emits the partial aggregates downstream.  The window size adapts
to how effective pre-aggregation actually is: when a window coalesces well
(output much smaller than input) the next window grows; when it does not, the
window shrinks — down to a window of one tuple, at which point the operator
degenerates into the pseudogroup pass-through and "adds very little overhead
even in the worst case".  Because aggregation functions distribute over
union, emitting per-window partials is always correct; the final GROUP BY
coalesces them.

:class:`WindowedPreAggregator` is the operator, push-style (``feed`` /
``flush``).  Every pre-aggregation point of a plan runs it as a stage of the
pipelined engine (:mod:`repro.engine.pipelined`, which Figure 6 executes):
``"window"`` points with the default :class:`WindowPolicy`, traditional
blocking points with :meth:`WindowPolicy.unbounded` — one window over the
whole input, closed only by ``flush``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Sequence

from repro.engine.cost import ExecutionMetrics
from repro.engine.operators.aggregate import GroupAccumulator, aggregate_output_schema
from repro.optimizer.plans import PlanError
from repro.relational.expressions import Aggregate
from repro.relational.schema import Schema


@dataclass
class WindowDecision:
    """Record of one completed window: size, reduction achieved, next size."""

    window_size: int
    tuples_in: int
    tuples_out: int
    next_window_size: int

    @property
    def reduction_ratio(self) -> float:
        if self.tuples_in == 0:
            return 1.0
        return self.tuples_out / self.tuples_in


@dataclass
class WindowPolicy:
    """Growth/shrink policy for the adjustable window.

    A window is *effective* when its output/input ratio is at or below
    ``effectiveness_threshold``; effective windows multiply the size by
    ``grow_factor`` (up to ``max_window``), ineffective ones divide it by
    ``shrink_factor`` (down to ``min_window`` — a window of one tuple simply
    passes data through as pseudogroups).
    """

    initial_window: int = 64
    min_window: int = 1
    max_window: int = 65536
    grow_factor: int = 2
    shrink_factor: int = 2
    effectiveness_threshold: float = 0.75
    #: once the window has collapsed to one tuple (pure pass-through), probe
    #: again with a small window after this many pass-through tuples, so the
    #: operator can recover if a later region of the data aggregates well.
    reprobe_interval: int = 4096
    reprobe_window: int = 16

    def __post_init__(self) -> None:
        if self.min_window < 1:
            raise ValueError("min_window must be at least 1")
        if self.initial_window < self.min_window or self.initial_window > self.max_window:
            raise ValueError("initial_window must lie within [min_window, max_window]")
        if self.grow_factor < 2 or self.shrink_factor < 2:
            raise ValueError("grow_factor and shrink_factor must be at least 2")
        if not 0.0 < self.effectiveness_threshold <= 1.0:
            raise ValueError("effectiveness_threshold must be in (0, 1]")

    @classmethod
    def unbounded(cls) -> "WindowPolicy":
        """Traditional (blocking) pre-aggregation: a window no input fills,
        so the whole input is grouped once, when ``flush`` closes it."""
        return cls(initial_window=sys.maxsize, max_window=sys.maxsize)

    def next_size(self, current: int, reduction_ratio: float) -> int:
        if reduction_ratio <= self.effectiveness_threshold:
            return min(current * self.grow_factor, self.max_window)
        return max(current // self.shrink_factor, self.min_window)


class WindowedPreAggregator:
    """Push-style adjustable-window pre-aggregation.

    ``feed`` returns the partial-aggregate tuples that became ready (if the
    current window closed); ``flush`` closes the final window.  The caller is
    responsible for forwarding the returned tuples downstream.
    """

    def __init__(
        self,
        input_schema: Schema,
        group_attributes: Sequence[str],
        aggregates: Sequence[Aggregate],
        policy: WindowPolicy | None = None,
        metrics: ExecutionMetrics | None = None,
    ) -> None:
        if not group_attributes:
            raise PlanError("pre-aggregation requires at least one grouping attribute")
        self.input_schema = input_schema
        self.group_attributes = tuple(group_attributes)
        self.aggregates = tuple(aggregates)
        self.policy = policy or WindowPolicy()
        self.metrics = metrics if metrics is not None else ExecutionMetrics()
        self.output_schema = aggregate_output_schema(
            group_attributes, aggregates, input_schema
        )
        self.current_window_size = self.policy.initial_window
        self.window_decisions: list[WindowDecision] = []
        self.tuples_in = 0
        self.tuples_out = 0
        self._buffer: list[tuple] = []
        self._passthrough_count = 0
        self._group_positions = input_schema.positions(self.group_attributes)
        self._value_positions = tuple(
            input_schema.position(a.attribute) if a.attribute is not None else -1
            for a in self.aggregates
        )

    def feed(self, row: tuple) -> list[tuple]:
        """Add one tuple; returns the emitted partials when a window closes."""
        self.tuples_in += 1
        if self.current_window_size <= 1:
            return self._passthrough(row)
        self._buffer.append(row)
        if len(self._buffer) >= self.current_window_size:
            return self._close_window()
        return []

    def _passthrough(self, row: tuple) -> list[tuple]:
        """Window of one tuple: convert to a pseudogroup, almost for free.

        This is the operator's degenerate mode after repeated ineffective
        windows — "a window size of 1, which simply passes tuples through
        (with the appropriate creation of aggregate values over the singleton
        tuple)".  Periodically a small probe window is re-opened so the
        operator can recover if a later region of the data coalesces well.
        """
        self._passthrough_count += 1
        if (
            self.policy.reprobe_interval
            and self._passthrough_count % self.policy.reprobe_interval == 0
        ):
            self.current_window_size = min(self.policy.reprobe_window, self.policy.max_window)
        self.tuples_out += 1
        key = tuple(row[p] for p in self._group_positions)
        partials = tuple(
            agg.singleton_partial(row[pos] if pos >= 0 else None)
            for agg, pos in zip(self.aggregates, self._value_positions)
        )
        return [key + partials]

    def flush(self) -> list[tuple]:
        """Close any partially filled window at end of stream."""
        if not self._buffer:
            return []
        return self._close_window()

    def _close_window(self) -> list[tuple]:
        window = self._buffer
        self._buffer = []
        accumulator = GroupAccumulator(
            self.input_schema,
            self.group_attributes,
            self.aggregates,
            input_is_partial=False,
            metrics=self.metrics,
        )
        accumulator.accumulate_batch(window)
        output = accumulator.results()
        self.tuples_out += len(output)
        next_size = self.policy.next_size(
            self.current_window_size, len(output) / max(len(window), 1)
        )
        self.window_decisions.append(
            WindowDecision(
                window_size=self.current_window_size,
                tuples_in=len(window),
                tuples_out=len(output),
                next_window_size=next_size,
            )
        )
        self.current_window_size = next_size
        self.metrics.tuple_copies += len(output)
        return output

    @property
    def overall_reduction(self) -> float:
        if self.tuples_in == 0:
            return 1.0
        return self.tuples_out / self.tuples_in


