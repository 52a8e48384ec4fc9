"""Phase bookkeeping for corrective query processing.

A *phase* is one contiguous interval of execution under one query plan
(Section 4): phase 0 runs the initial plan, each plan switch starts a new
phase, and the terminal stitch-up phase combines data across phases.  The
:class:`PhaseManager` records what each phase consumed and produced so the
experiment reports (Tables 1 and 2) can be generated directly from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.optimizer.plans import JoinTree


@dataclass
class PhaseRecord:
    """Summary of one completed execution phase."""

    phase_id: int
    join_tree: JoinTree
    started_at: float
    ended_at: float = 0.0
    steps: int = 0
    tuples_read: int = 0
    outputs: int = 0
    consumed_per_relation: dict[str, int] = field(default_factory=dict)
    work_units: float = 0.0
    switch_reason: str = ""

    @property
    def duration(self) -> float:
        return max(self.ended_at - self.started_at, 0.0)

    def __repr__(self) -> str:
        switched = (
            f", switched: {self.switch_reason}" if self.switch_reason else ""
        )
        return (
            f"PhaseRecord(phase={self.phase_id}, tree={self.join_tree}, "
            f"[{self.started_at:.3f}s..{self.ended_at:.3f}s], "
            f"read={self.tuples_read}, outputs={self.outputs}{switched})"
        )

    def describe(self) -> str:
        consumed = ", ".join(
            f"{rel}={count}" for rel, count in sorted(self.consumed_per_relation.items())
        )
        return (
            f"phase {self.phase_id}: tree={self.join_tree} "
            f"duration={self.duration:.2f}s outputs={self.outputs} consumed[{consumed}]"
        )


class PhaseManager:
    """Tracks the sequence of phases of one corrective execution."""

    def __init__(self) -> None:
        self.records: list[PhaseRecord] = []

    def start_phase(self, join_tree: JoinTree, started_at: float) -> PhaseRecord:
        record = PhaseRecord(
            phase_id=len(self.records), join_tree=join_tree, started_at=started_at
        )
        self.records.append(record)
        return record

    def current(self) -> PhaseRecord:
        if not self.records:
            raise RuntimeError("no phase has been started")
        return self.records[-1]

    def finish_current(
        self,
        ended_at: float,
        steps: int,
        tuples_read: int,
        outputs: int,
        consumed_per_relation: dict[str, int],
        work_units: float,
        switch_reason: str = "",
    ) -> PhaseRecord:
        record = self.current()
        record.ended_at = ended_at
        record.steps = steps
        record.tuples_read = tuples_read
        record.outputs = outputs
        record.consumed_per_relation = dict(consumed_per_relation)
        record.work_units = work_units
        record.switch_reason = switch_reason
        return record

    # -- reporting ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def phase_count(self) -> int:
        return len(self.records)

    def trees(self) -> list[JoinTree]:
        return [record.join_tree for record in self.records]

    def describe(self) -> str:
        return "\n".join(record.describe() for record in self.records)
