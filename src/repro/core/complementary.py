"""Complementary join pairs: exploiting (partial) order in the sources (Section 5).

A complementary join pair speculates that both inputs of a join are (mostly)
sorted on their join keys.  It keeps four hash tables — one per relation per
component — and routes every arriving tuple either to a **merge component**
(if the tuple conforms to the ordering seen so far) or to a **pipelined hash
component** (if it does not).  Each component joins only the tuples routed to
it; once the inputs are exhausted, a *mini stitch-up* joins the merge-side
table of each relation with the hash-side table of the other.

Two routing strategies are reproduced:

* **naive** — a tuple is in-order if its key is >= the last in-order key on
  its side;
* **priority queue** — a bounded min-heap (1024 tuples in the paper) reorders
  recently received tuples before the order check, repairing local disorder.

The report breaks output tuples down by component (hash / merge / stitch-up),
which is exactly the paper's Table 3, and the total simulated time gives the
bars of Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.router import PriorityQueueReorderer
from repro.engine.cost import CostModel, ExecutionMetrics, SimulatedClock
from repro.engine.pipelined import SourceCursor
from repro.engine.state.hash_table import HashTableState
from repro.io.wallclock import wall_now
from repro.relational.schema import Schema


@dataclass
class ComplementaryJoinReport:
    """Outcome of one complementary-join (or baseline) execution."""

    strategy: str
    output_count: int
    outputs_by_component: dict[str, int]
    routed_by_component: dict[str, int]
    metrics: ExecutionMetrics
    simulated_seconds: float
    wall_seconds: float
    details: dict = field(default_factory=dict)

    def work(self, cost_model: CostModel | None = None) -> float:
        return self.metrics.work(cost_model)


class _JoinDriver:
    """Shared source-interleaving loop for the join strategies below."""

    def __init__(
        self,
        left,
        right,
        left_key: str,
        right_key: str,
        cost_model: CostModel | None = None,
        collect_outputs: bool = False,
    ) -> None:
        self.cost_model = cost_model or CostModel()
        self.metrics = ExecutionMetrics()
        self.clock = SimulatedClock(self.cost_model)
        self.left_cursor = SourceCursor(self._name(left, "left"), left)
        self.right_cursor = SourceCursor(self._name(right, "right"), right)
        self.left_schema: Schema = self.left_cursor.schema
        self.right_schema: Schema = self.right_cursor.schema
        self.left_key = left_key
        self.right_key = right_key
        self.left_key_pos = self.left_schema.position(left_key)
        self.right_key_pos = self.right_schema.position(right_key)
        self.collect_outputs = collect_outputs
        self.outputs: list[tuple] = []
        self.output_count = 0
        self._charged_work = 0.0

    @staticmethod
    def _name(source, default: str) -> str:
        return getattr(source, "name", default)

    def emit(self, combined: tuple) -> None:
        self.metrics.tuple_copies += 1
        self.metrics.tuples_output += 1
        self.output_count += 1
        if self.collect_outputs:
            self.outputs.append(combined)

    def next_side(self) -> str | None:
        """Which side to read next: earliest arrival, then least consumed."""
        left_arrival = self.left_cursor.peek_arrival()
        right_arrival = self.right_cursor.peek_arrival()
        if left_arrival is None and right_arrival is None:
            return None
        if right_arrival is None:
            return "left"
        if left_arrival is None:
            return "right"
        left_rank = (left_arrival, self.left_cursor.consumed)
        right_rank = (right_arrival, self.right_cursor.consumed)
        return "left" if left_rank <= right_rank else "right"

    def read(self, side: str) -> tuple | None:
        cursor = self.left_cursor if side == "left" else self.right_cursor
        item = cursor.read()
        if item is None:
            return None
        row, arrival = item
        if arrival > self.clock.now:
            self.sync_clock()
            self.clock.wait_until(arrival)
        self.metrics.tuples_read += 1
        return row

    def sync_clock(self) -> None:
        work = self.metrics.work(self.cost_model)
        if work > self._charged_work:
            self.clock.charge(work, self._charged_work)
            self._charged_work = work


class PipelinedHashJoinBaseline:
    """The comparison point of Figure 5: a single pipelined hash join."""

    def __init__(
        self,
        left,
        right,
        left_key: str,
        right_key: str,
        cost_model: CostModel | None = None,
        collect_outputs: bool = False,
    ) -> None:
        self.driver = _JoinDriver(left, right, left_key, right_key, cost_model, collect_outputs)

    def execute(self) -> ComplementaryJoinReport:
        driver = self.driver
        metrics = driver.metrics
        left_table = HashTableState(driver.left_schema, driver.left_key)
        right_table = HashTableState(driver.right_schema, driver.right_key)
        wall_start = wall_now()
        while True:
            side = driver.next_side()
            if side is None:
                break
            row = driver.read(side)
            if row is None:
                continue
            metrics.hash_inserts += 1
            metrics.hash_probes += 1
            if side == "left":
                left_table.insert(row)
                for other in right_table.probe(row[driver.left_key_pos]):
                    driver.emit(row + other)
            else:
                right_table.insert(row)
                for other in left_table.probe(row[driver.right_key_pos]):
                    driver.emit(other + row)
        driver.sync_clock()
        return ComplementaryJoinReport(
            strategy="pipelined_hash",
            output_count=driver.output_count,
            outputs_by_component={"hash": driver.output_count},
            routed_by_component={
                "hash_left": len(left_table),
                "hash_right": len(right_table),
            },
            metrics=metrics,
            simulated_seconds=driver.clock.now,
            wall_seconds=wall_now() - wall_start,
            details={"outputs": driver.outputs if driver.collect_outputs else None},
        )


class ComplementaryJoinPair:
    """Merge join + pipelined hash join over adaptively routed partitions."""

    #: work-unit charges for the merge component: an append to an already
    #: sorted run plus a pointer-advance style probe are cheaper than a hash
    #: insert + probe, which is the "slightly more efficient" advantage the
    #: paper attributes to the merge join.
    MERGE_INSERT_COMPARISONS = 2
    MERGE_PROBE_COMPARISONS = 2

    def __init__(
        self,
        left,
        right,
        left_key: str,
        right_key: str,
        use_priority_queue: bool = False,
        queue_capacity: int = 1024,
        cost_model: CostModel | None = None,
        collect_outputs: bool = False,
    ) -> None:
        self.driver = _JoinDriver(left, right, left_key, right_key, cost_model, collect_outputs)
        self.use_priority_queue = use_priority_queue
        self.queue_capacity = queue_capacity
        driver = self.driver
        # Four hash tables sharing the join-key attribute (Figure 4).
        self.merge_left = HashTableState(driver.left_schema, left_key)
        self.merge_right = HashTableState(driver.right_schema, right_key)
        self.hash_left = HashTableState(driver.left_schema, left_key)
        self.hash_right = HashTableState(driver.right_schema, right_key)
        self._last_merge_key = {"left": None, "right": None}
        self.outputs_by_component = {"hash": 0, "merge": 0, "stitch": 0}
        self.routed = {"merge_left": 0, "merge_right": 0, "hash_left": 0, "hash_right": 0}
        self._reorderers: dict[str, PriorityQueueReorderer] | None = None
        if use_priority_queue:
            self._reorderers = {
                "left": PriorityQueueReorderer(
                    driver.left_schema, left_key, queue_capacity, driver.metrics
                ),
                "right": PriorityQueueReorderer(
                    driver.right_schema, right_key, queue_capacity, driver.metrics
                ),
            }

    # -- per-tuple processing -----------------------------------------------------

    def _key_of(self, row: tuple, side: str) -> object:
        driver = self.driver
        return row[driver.left_key_pos if side == "left" else driver.right_key_pos]

    def _process(self, row: tuple, side: str) -> None:
        """Route one tuple to the merge or hash component and join it there."""
        metrics = self.driver.metrics
        key = self._key_of(row, side)
        metrics.comparisons += 1
        last = self._last_merge_key[side]
        if last is None or key >= last:
            self._last_merge_key[side] = key
            self._merge_join(row, side, key)
        else:
            self._hash_join(row, side, key)

    def _merge_join(self, row: tuple, side: str, key: object) -> None:
        metrics = self.driver.metrics
        metrics.comparisons += self.MERGE_INSERT_COMPARISONS
        metrics.comparisons += self.MERGE_PROBE_COMPARISONS
        if side == "left":
            self.merge_left.insert(row)
            self.routed["merge_left"] += 1
            for other in self.merge_right.probe(key):
                self.driver.emit(row + other)
                self.outputs_by_component["merge"] += 1
        else:
            self.merge_right.insert(row)
            self.routed["merge_right"] += 1
            for other in self.merge_left.probe(key):
                self.driver.emit(other + row)
                self.outputs_by_component["merge"] += 1

    def _hash_join(self, row: tuple, side: str, key: object) -> None:
        metrics = self.driver.metrics
        metrics.hash_inserts += 1
        metrics.hash_probes += 1
        if side == "left":
            self.hash_left.insert(row)
            self.routed["hash_left"] += 1
            for other in self.hash_right.probe(key):
                self.driver.emit(row + other)
                self.outputs_by_component["hash"] += 1
        else:
            self.hash_right.insert(row)
            self.routed["hash_right"] += 1
            for other in self.hash_left.probe(key):
                self.driver.emit(other + row)
                self.outputs_by_component["hash"] += 1

    def _route(self, row: tuple, side: str) -> None:
        if self._reorderers is None:
            self._process(row, side)
            return
        for released in self._reorderers[side].push(row):
            self._process(released, side)

    def _drain_reorderers(self) -> None:
        if self._reorderers is None:
            return
        for side in ("left", "right"):
            for released in self._reorderers[side].drain():
                self._process(released, side)

    # -- stitch-up -----------------------------------------------------------------

    def _stitch_up(self) -> None:
        """Join merge-side tables against the opposite hash-side tables.

        Mirrors the stitch-up join's pairwise decision (Section 3.4.3): skip a
        pair entirely when either structure is empty, and scan the smaller
        structure while probing the larger one.
        """
        # hash(R) ⋈ merge(S) and merge(R) ⋈ hash(S)
        self._stitch_pair(self.hash_left, self.merge_right)
        self._stitch_pair(self.merge_left, self.hash_right)

    def _stitch_pair(self, left_table: HashTableState, right_table: HashTableState) -> None:
        if len(left_table) == 0 or len(right_table) == 0:
            return
        metrics = self.driver.metrics
        if len(left_table) <= len(right_table):
            for row in left_table.scan():
                metrics.hash_probes += 1
                for other in right_table.probe(row[self.driver.left_key_pos]):
                    self.driver.emit(row + other)
                    self.outputs_by_component["stitch"] += 1
        else:
            for other in right_table.scan():
                metrics.hash_probes += 1
                for row in left_table.probe(other[self.driver.right_key_pos]):
                    self.driver.emit(row + other)
                    self.outputs_by_component["stitch"] += 1

    # -- execution -----------------------------------------------------------------

    def execute(self) -> ComplementaryJoinReport:
        driver = self.driver
        wall_start = wall_now()
        while True:
            side = driver.next_side()
            if side is None:
                break
            row = driver.read(side)
            if row is None:
                continue
            self._route(row, side)
        self._drain_reorderers()
        self._stitch_up()
        driver.sync_clock()
        strategy = "complementary_priority_queue" if self.use_priority_queue else "complementary_naive"
        details: dict[str, object] = {
            "merge_left": len(self.merge_left),
            "merge_right": len(self.merge_right),
            "hash_left": len(self.hash_left),
            "hash_right": len(self.hash_right),
        }
        if self._reorderers is not None:
            details["queue_high_water"] = {
                side: reorderer.buffered_high_water
                for side, reorderer in self._reorderers.items()
            }
        if driver.collect_outputs:
            details["outputs"] = driver.outputs
        return ComplementaryJoinReport(
            strategy=strategy,
            output_count=driver.output_count,
            outputs_by_component=dict(self.outputs_by_component),
            routed_by_component=dict(self.routed),
            metrics=driver.metrics,
            simulated_seconds=driver.clock.now,
            wall_seconds=wall_now() - wall_start,
            details=details,
        )
