"""Multi-query serving: one server that runs each session in a shard."""

from repro.serving.scheduler import shard_assignment
from repro.serving.sharded import (
    PartitionedServedQuery,
    ServedQuery,
    ServingReport,
    ShardedQueryServer,
    WorkerSummary,
)
from repro.serving.specs import SessionResult, SessionSpec, ShardResult, ShardTask
from repro.serving.stats_cache import SharedStatisticsCache, StatisticsSnapshot
from repro.serving.stats_store import SharedStatisticsStore

__all__ = [
    "PartitionedServedQuery",
    "ServedQuery",
    "ServingReport",
    "SessionResult",
    "SessionSpec",
    "ShardResult",
    "ShardTask",
    "ShardedQueryServer",
    "SharedStatisticsCache",
    "SharedStatisticsStore",
    "StatisticsSnapshot",
    "WorkerSummary",
    "shard_assignment",
]
