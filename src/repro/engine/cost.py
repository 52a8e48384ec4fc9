"""Work-unit cost accounting and the simulated execution clock.

The paper reports wall-clock seconds on a 3.06 GHz Pentium IV.  A pure-Python
reproduction cannot (and need not) match those absolute numbers; what must be
preserved is the *shape* of each experiment — which strategy wins, by roughly
what factor, and where the crossovers fall.  To make those shapes
reproducible and machine-independent every operator charges **work units** to
a shared :class:`ExecutionMetrics` object:

============================  =====================================================
counter                        charged for
============================  =====================================================
``tuples_read``                reading one tuple from a source
``hash_inserts``               inserting a tuple into a hash state structure
``hash_probes``                probing a hash state structure (per probe, not match)
``comparisons``                merge-join / sort / priority-queue comparisons
``predicate_evals``            evaluating a selection or residual join predicate
``tuple_copies``               materializing a combined (joined / adapted) tuple
``aggregate_updates``          folding a value into an aggregate accumulator
``tuples_output``              emitting a tuple to the parent / final consumer
``batches_read``               forming one source batch (batched mode only)
============================  =====================================================

``batches_read`` counts scheduling decisions of the batch-at-a-time engine.
Its default weight is zero so that tuple-at-a-time and batched executions of
the same query charge *identical* work — the differential harness depends on
that — while still letting ablations model a per-batch dispatch overhead.

``ExecutionMetrics.work`` is the weighted sum of the counters using the
weights in :class:`CostModel`; benchmarks report it alongside wall-clock.

**Deferred charging invariant** (the compiled engine's accounting contract):
:meth:`ExecutionMetrics.charge_batch` applies one integer delta per counter,
computed from batch-level tallies, instead of incrementing counters once per
tuple.  Because every counter is a plain integer sum, charging ``N``
tuples' worth of work as one delta of ``N`` is *provably equal* to ``N``
per-tuple charges: the counter values — and therefore ``work()`` — coincide
exactly at every point where the engine synchronizes the clock.  The
compiled fused pipelines rely on this to do O(1) counter updates per batch
while staying bit-identical to the interpreted engine's accounting.

The :class:`SimulatedClock` converts work units into simulated seconds and
additionally models waiting on delayed sources (the wireless experiment of
Figure 3): pulling a tuple that has not "arrived" yet advances the clock to
its arrival time, and the time spent waiting is recorded separately so that
reports can distinguish computation from I/O stall.  Between two stalls it
derives the time from the cumulative ``work()`` once, so how often the
engine syncs it — per tuple, per group, per poll chunk — cannot move the
result: on local sources every engine mode and batch size reports the same
simulated seconds to the last bit, under any :class:`CostModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True, slots=True)
class CostModel:
    """Weights translating low-level actions into work units.

    The defaults approximate the relative CPU costs in a hash-join-dominated
    engine: probes and inserts dominate, comparisons are cheaper, and output
    materialization costs roughly one copy.  All weights can be overridden to
    study sensitivity (see the ablation benchmarks).

    Slotted: a model that arrives by pickle (every sharded worker's
    ``ShardTask.cost_model``) has no instance dict, so reading its weights
    stays on CPython's fast attribute path.
    """

    tuple_read: float = 1.0
    hash_insert: float = 1.0
    hash_probe: float = 1.0
    comparison: float = 0.25
    predicate_eval: float = 0.25
    tuple_copy: float = 0.5
    aggregate_update: float = 0.75
    tuple_output: float = 0.25
    # Per-batch dispatch overhead of the batched execution mode.  Zero by
    # default so tuple-at-a-time and batched runs of the same query report
    # identical work (and identical simulated seconds on local sources).
    batch_read: float = 0.0
    # How many simulated seconds one work unit costs.  The default is tuned
    # so that the paper's workloads land in the "tens of seconds" range the
    # paper reports, purely for readability of the reproduced tables.
    seconds_per_unit: float = 2.0e-5


#: the default weights, shared by every ``work()`` call that names no model
_DEFAULT_COST_MODEL = CostModel()


@dataclass
class ExecutionMetrics:
    """Mutable work counters shared by all operators of one execution."""

    tuples_read: int = 0
    hash_inserts: int = 0
    hash_probes: int = 0
    comparisons: int = 0
    predicate_evals: int = 0
    tuple_copies: int = 0
    aggregate_updates: int = 0
    tuples_output: int = 0
    batches_read: int = 0

    def work(self, model: CostModel | None = None) -> float:
        """Weighted total work units under ``model`` (default weights if None)."""
        model = model or _DEFAULT_COST_MODEL
        return (
            self.tuples_read * model.tuple_read
            + self.hash_inserts * model.hash_insert
            + self.hash_probes * model.hash_probe
            + self.comparisons * model.comparison
            + self.predicate_evals * model.predicate_eval
            + self.tuple_copies * model.tuple_copy
            + self.aggregate_updates * model.aggregate_update
            + self.tuples_output * model.tuple_output
            + self.batches_read * model.batch_read
        )

    def charge_batch(
        self,
        *,
        tuples_read: int = 0,
        hash_inserts: int = 0,
        hash_probes: int = 0,
        comparisons: int = 0,
        predicate_evals: int = 0,
        tuple_copies: int = 0,
        aggregate_updates: int = 0,
        tuples_output: int = 0,
        batches_read: int = 0,
    ) -> None:
        """Apply batch-level counter deltas in O(1) per counter.

        This is the deferred-charging API of the compiled execution mode:
        the fused batch pipelines tally how much work of each kind a whole
        batch performed and charge it here once, instead of touching the
        counters per tuple.  Summing integer deltas commutes with per-tuple
        increments, so the resulting counter values (and every quantity
        derived from them — ``work()``, the simulated clock) are identical
        to per-tuple charging; see the module docstring.
        """
        self.tuples_read += tuples_read
        self.hash_inserts += hash_inserts
        self.hash_probes += hash_probes
        self.comparisons += comparisons
        self.predicate_evals += predicate_evals
        self.tuple_copies += tuple_copies
        self.aggregate_updates += aggregate_updates
        self.tuples_output += tuples_output
        self.batches_read += batches_read

    def snapshot(self) -> "ExecutionMetrics":
        """Return an independent copy of the current counter values."""
        return ExecutionMetrics(**{f.name: getattr(self, f.name) for f in fields(self)})

    def merge(self, other: "ExecutionMetrics") -> None:
        """Add another metrics object's counters into this one."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __str__(self) -> str:  # pragma: no cover - debug convenience
        parts = ", ".join(f"{k}={v}" for k, v in self.as_dict().items() if v)
        return f"ExecutionMetrics({parts})"


class SimulatedClock:
    """Simulated time, combining CPU work and source arrival delays.

    The clock moves forward in two ways:

    * :meth:`charge` reports that a charger's cumulative work (its
      :meth:`ExecutionMetrics.work`) moved from ``since`` to ``work``;
    * :meth:`wait_until` jumps the clock forward to a source tuple's arrival
      time when the engine has to stall for it; the stalled interval is
      accumulated in :attr:`wait_time`.

    Time is exact: the clock keeps an *anchor* — the instant of the last
    stall and the cumulative work charged by then — and sets
    ``now = anchor + (work - anchor_work) * seconds_per_unit``, so how the
    engine groups its charges cannot move simulated seconds.  A charge whose
    ``since`` is not the last charged work (a plan partitioning stage built
    after work no plan charged) first re-anchors at ``now``.  ``now`` stays a plain
    attribute and ``cpu_time`` is derived when read, so a charge stores two
    attributes, as a running sum would.

    The adaptive scheduler avoids most stalls by working on whichever input
    has data available, which is exactly the behaviour that Figure 3's
    wireless experiment depends on.
    """

    def __init__(self, cost_model: CostModel | None = None) -> None:
        self.cost_model = cost_model or CostModel()
        self.now: float = 0.0
        self.wait_time: float = 0.0
        #: the instant of the last stall (or re-anchoring charge)
        self._anchor: float = 0.0
        #: the charger's cumulative work at :attr:`_anchor`
        self._anchor_work: float = 0.0
        #: the cumulative work of the last charge
        self._work: float = 0.0

    @property
    def cpu_time(self) -> float:
        """Simulated seconds spent working rather than waiting."""
        return self.now - self.wait_time

    def charge(self, work: float, since: float) -> None:
        """Advance the clock as the charger's cumulative work moves from
        ``since`` to ``work`` (both :meth:`ExecutionMetrics.work` values)."""
        if since != self._work:
            self._anchor = self.now
            self._anchor_work = since
        self._work = work
        seconds = (work - self._anchor_work) * self.cost_model.seconds_per_unit
        self.now = self._anchor + seconds

    def wait_until(self, arrival_time: float) -> float:
        """Stall until ``arrival_time`` if it is in the future; return the stall."""
        if arrival_time > self.now:
            stalled = arrival_time - self.now
            self.now = self._anchor = arrival_time
            self._anchor_work = self._work
            self.wait_time += stalled
            return stalled
        return 0.0

    def snapshot(self) -> dict[str, float]:
        return {"now": self.now, "cpu_time": self.cpu_time, "wait_time": self.wait_time}
