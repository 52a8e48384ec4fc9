"""Push-based streaming merge join for the pipelined network.

:class:`PipelinedMergeJoinNode` is a drop-in replacement for
:class:`~repro.engine.pipelined.PipelinedJoinNode` that the plan builder
instantiates when the order-adaptive strategy selector
(:func:`~repro.optimizer.ordering.plan_join_strategies`) decides both inputs
arrive (near-)sorted on the node's join keys.  Each input lives in a
:class:`~repro.engine.state.sorted_run.SortedRunState`: an **active** sorted
run that every arrival of the other side probes by binary search, plus an
**archive** of tuples evicted once the other side's watermark passed them
(the simulated spilled partition).

Correctness does not depend on the inputs actually being sorted: an arrival
whose key falls below the advertised eviction bound of the other side simply
probes the other side's archive as well, so the produced multiset is always
exactly the symmetric join — only the economics change.  The work accounting
reflects that: in-order arrivals charge two comparisons (ordered insert +
ordered probe) instead of a hash insert + probe, while *late* arrivals on
leaf inputs additionally pay the hash rates for their detour through the
archived partition.  All charges are functions of per-source arrival
sequences and match counts alone — never of cross-source interleaving or of
how a source's rows are cut into batches — so every batch size charges
identical work and the corrective poll clock stays batch-size-invariant,
exactly like the hash path.
"""

from __future__ import annotations

from typing import Callable

from repro.engine.cost import ExecutionMetrics
from repro.engine.state.sorted_run import SortedRunState
from repro.relational.schema import Schema


class PipelinedMergeJoinNode:
    """One streaming merge join inside the push network.

    Interface-compatible with ``PipelinedJoinNode`` (``push_batch``, wiring
    attributes, ``output_count``), so plans, monitors and the state registry
    treat both uniformly.
    """

    algorithm = "merge"

    def __init__(
        self,
        left_schema: Schema,
        right_schema: Schema,
        left_key: str,
        right_key: str,
        residual_fn: Callable[[tuple], bool] | None,
        metrics: ExecutionMetrics,
        direction: int = 1,
    ) -> None:
        self.schema = left_schema.concat(right_schema)
        self.left_schema = left_schema
        self.right_schema = right_schema
        self.left_key = left_key
        self.right_key = right_key
        self.direction = 1 if direction >= 0 else -1
        self.left_state = SortedRunState(left_schema, left_key)
        self.right_state = SortedRunState(right_schema, right_key)
        self._left_key_pos = left_schema.position(left_key)
        self._right_key_pos = right_schema.position(right_key)
        self._residual_fn = residual_fn
        self.metrics = metrics
        self.output_count = 0
        #: arrivals that took the late (archive-probing) fallback, per side
        self.late_arrivals = 0
        # Watermarks of the key stream per side: the running max for an
        # ascending node, the running min for a descending one.
        self._left_water: object = None
        self._right_water: object = None
        # Advertised eviction bounds: everything archived on a side has a key
        # strictly beyond this bound (below for ascending, above for
        # descending), so an arrival needs the archive only when its own key
        # crosses the other side's bound.
        self._left_bound: object = None
        self._right_bound: object = None
        # Wiring (set by PipelinedPlan): where this node's outputs go.
        self.parent = None
        self.parent_side: str | None = None
        self.sink_batch: Callable[[list[tuple]], None] | None = None
        # Relations covered by each input (for registry signatures / monitor).
        self.left_relations: frozenset[str] = frozenset()
        self.right_relations: frozenset[str] = frozenset()

    @property
    def relations(self) -> frozenset[str]:
        return self.left_relations | self.right_relations

    def key_position(self, side: str) -> int:
        """Join-key position inside the given side's input tuples."""
        return self._left_key_pos if side == "left" else self._right_key_pos

    # -- core arrival processing -------------------------------------------------

    def _ahead(self, a: object, b: object) -> bool:
        """True when ``a`` is strictly past ``b`` in stream direction."""
        return a > b if self.direction == 1 else a < b

    def _process(self, row: tuple, side: str) -> list[tuple]:
        """Insert ``row``, probe the other side, advance watermarks/eviction.

        Returns the combined candidate tuples (pre-residual).  Charges: two
        comparisons per arrival (ordered insert + ordered probe); a late
        arrival on a leaf input additionally pays one hash insert + probe for
        its archived-partition detour.  Eviction and archive bookkeeping are
        deliberately uncharged — the charge structure must depend only on
        per-source sequences so every batch size accounts identically (see
        the module docstring).
        """
        metrics = self.metrics
        metrics.comparisons += 2
        if side == "left":
            key = row[self._left_key_pos]
            own, other = self.left_state, self.right_state
            water = self._left_water
            other_bound = self._right_bound
            own_is_leaf = len(self.left_relations) == 1
        else:
            key = row[self._right_key_pos]
            own, other = self.right_state, self.left_state
            water = self._right_water
            other_bound = self._left_bound
            own_is_leaf = len(self.right_relations) == 1

        own.insert(row)
        late = water is not None and self._ahead(water, key)
        if late:
            self.late_arrivals += 1
            if own_is_leaf:
                metrics.hash_inserts += 1
                metrics.hash_probes += 1

        matches = other.probe_active(key)
        if other_bound is not None and self._ahead(other_bound, key):
            archived = other.probe_archive(key)
            if archived:
                matches = matches + archived

        if water is None or self._ahead(key, water):
            water = key
            # The other side can release everything strictly behind the new
            # watermark: future in-order arrivals on this side will have keys
            # at or past it, and any straggler below takes the archive path.
            if self.direction == 1:
                other.evict_below(water)
            else:
                other.evict_above(water)
            if side == "left":
                self._left_water = water
                self._right_bound = water
            else:
                self._right_water = water
                self._left_bound = water

        if not matches:
            return []
        if side == "left":
            return [row + other_row for other_row in matches]
        return [other_row + row for other_row in matches]

    # -- push interface ------------------------------------------------------------

    def process_batch(self, rows: list[tuple], side: str) -> list[tuple]:
        """Process a batch of arrivals and return the post-residual outputs.

        Factored out of :meth:`push_batch` so the compiled engine can splice
        a merge node into a fused leaf→root chain as one stage: the charges
        (per-row :meth:`_process` comparisons, batch-level residual /
        tuple-copy counters) and :attr:`output_count` updates are exactly
        those of the interpreted path; only the propagation of the returned
        batch differs between the callers.
        """
        combined: list[tuple] = []
        extend = combined.extend
        process = self._process
        for row in rows:
            extend(process(row, side))
        if not combined:
            return combined
        metrics = self.metrics
        residual_fn = self._residual_fn
        if residual_fn is not None:
            metrics.predicate_evals += len(combined)
            combined = [row for row in combined if residual_fn(row)]
            if not combined:
                return combined
        metrics.tuple_copies += len(combined)
        self.output_count += len(combined)
        return combined

    def push_batch(self, rows: list[tuple], side: str) -> None:
        """Batched arrivals: per-row processing, one upward batch.

        Rows are processed in order through :meth:`_process`, so state
        evolution and charges do not depend on the batch's length; only the
        propagation of the combined results is batched.
        """
        if not rows:
            return
        combined = self.process_batch(rows, side)
        if not combined:
            return
        metrics = self.metrics
        if self.parent is not None:
            self.parent.push_batch(combined, self.parent_side)
        else:
            metrics.tuples_output += len(combined)
            self.sink_batch(combined)

    # -- inspection ----------------------------------------------------------------

    def peak_state_tuples(self) -> int:
        """Peak simultaneously-resident (non-archived) tuples of both inputs."""
        return self.left_state.peak_active + self.right_state.peak_active
