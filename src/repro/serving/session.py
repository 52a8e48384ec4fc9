"""One admitted query's resumable execution inside the query server."""

from __future__ import annotations

from collections.abc import Generator

from repro.core.corrective import (
    CorrectiveExecutionReport,
    CorrectiveQueryProcessor,
    CorrectiveTick,
)
from repro.engine.cost import SimulatedClock
from repro.optimizer.plans import JoinTree
from repro.optimizer.statistics import ObservedStatistics
from repro.relational.algebra import SPJAQuery
from repro.relational.catalog import Catalog


class QuerySession:
    """A query admitted to the server: a suspended corrective execution.

    The session wraps :meth:`CorrectiveQueryProcessor.execute_incremental`
    and exposes exactly what the scheduler needs: whether the session could
    make progress *right now* without stalling the shared clock
    (:meth:`is_ready`), an estimate of the work left
    (:meth:`remaining_cost_estimate`), and :meth:`grant` to run one quantum.
    """

    PENDING = "pending"
    ACTIVE = "active"
    DONE = "done"

    def __init__(
        self,
        index: int,
        label: str,
        query: SPJAQuery,
        processor: CorrectiveQueryProcessor,
        catalog: Catalog,
        admit_at: float = 0.0,
        initial_tree: JoinTree | None = None,
        quantum_tuples: int = 200,
        cooperative: bool = True,
    ) -> None:
        self.index = index
        self.label = label
        self.query = query
        self.processor = processor
        self.catalog = catalog
        self.admit_at = admit_at
        self.initial_tree = initial_tree
        self.quantum_tuples = quantum_tuples
        #: cooperative sessions stop chunks at the arrival horizon and yield
        #: (the shared-clock server mode); non-cooperative sessions block on
        #: a *private* clock exactly like solo execution — the mode the
        #: sharded worker fabric uses to keep per-session simulated seconds
        #: bit-identical to solo.
        self.cooperative = cooperative
        self.state = self.PENDING
        self.started_at: float | None = None
        self.finished_at: float | None = None
        #: quanta granted: chunks when cooperative, poll windows otherwise
        self.quanta = 0
        #: scheduler bookkeeping: the turn number of the last granted quantum
        #: (least-recently-served fairness); -1 = never granted.
        self.last_granted_turn = -1
        self.last_tick: CorrectiveTick | None = None
        self.report: CorrectiveExecutionReport | None = None
        self._runner: (
            Generator[CorrectiveTick, None, CorrectiveExecutionReport] | None
        ) = None

    # -- lifecycle ---------------------------------------------------------------

    def start(
        self, clock: SimulatedClock, seed_statistics: ObservedStatistics | None = None
    ) -> None:
        """Activate the session on the shared ``clock``.

        Builds the incremental execution (initial plan choice happens here,
        so it sees every statistic the server has published to its catalog
        by activation time) and advances it to the first tick — no source
        tuples are consumed yet.
        """
        if self.state is not self.PENDING:
            raise RuntimeError(f"session {self.label!r} started twice")
        self._runner = self.processor.execute_incremental(
            self.query,
            initial_tree=self.initial_tree,
            poll_step_limit=self.quantum_tuples,
            clock=clock,
            seed_statistics=seed_statistics,
            # Cooperative mode never stalls the shared clock inside a
            # quantum: chunks stop at the first not-yet-arrived tuple and
            # yield, so the scheduler can overlap this query's waits with
            # other queries' work.  Blocking mode (sharded workers) waits on
            # the session's private clock instead, as solo execution does.
            cooperative=self.cooperative,
        )
        self.state = self.ACTIVE
        self.started_at = clock.now
        self._advance()

    def grant(self) -> bool:
        """Run one quantum — a chunk of up to ``quantum_tuples`` source
        tuples when cooperative, a whole poll window of such chunks when
        blocking, or a phase transition / the final stitch-up; return
        ``True`` when the query finished."""
        if self.state is not self.ACTIVE:
            raise RuntimeError(f"session {self.label!r} granted while {self.state}")
        self.quanta += 1
        self._advance()
        return self.state is self.DONE

    def _advance(self) -> None:
        if self._runner is None:  # pragma: no cover - state checks guard this
            raise RuntimeError(f"session {self.label!r} advanced before start()")
        try:
            self.last_tick = next(self._runner)
        except StopIteration as stop:
            self.report = stop.value
            self.state = self.DONE

    # -- scheduler interface -----------------------------------------------------

    def is_ready(self, now: float) -> bool:
        """Could a quantum granted at ``now`` make progress without stalling?"""
        if self.state is not self.ACTIVE:
            return False
        arrival = self.last_tick.next_arrival if self.last_tick is not None else None
        return arrival is None or arrival <= now

    def next_arrival(self) -> float | None:
        """Earliest future source arrival this session is waiting on."""
        if self.state is not self.ACTIVE or self.last_tick is None:
            return None
        return self.last_tick.next_arrival

    def remaining_cost_estimate(self) -> float:
        """Estimated source tuples still to be read by this session.

        Uses the server catalog's (possibly learned) cardinalities, so the
        estimate sharpens as the statistics cache publishes exact counts.
        """
        consumed = self.last_tick.consumed if self.last_tick is not None else {}
        remaining = 0.0
        for relation in self.query.relations:
            expected = float(self.catalog.assumed_cardinality(relation))
            remaining += max(expected - consumed.get(relation, 0), 0.0)
        return remaining

    # -- results -----------------------------------------------------------------

    @property
    def latency(self) -> float | None:
        """Admission-to-completion time on the shared simulated clock."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.admit_at

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"QuerySession({self.label!r}, state={self.state}, "
            f"quanta={self.quanta})"
        )
