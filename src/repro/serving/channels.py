"""The shared-channel registry: the serving layer's explicit sharing contract.

The in-process `QueryServer` interleaves every session's quanta on one
shared :class:`~repro.engine.cost.SimulatedClock`; the sharded tier
(:mod:`repro.serving.sharded`, ROADMAP item 1) splits that loop into N
worker processes.  The split is only safe if every object
reachable from two or more served sessions is *named*, carries a declared
access discipline, and is machine-checked against it — an undeclared
cross-session mutation that is benign under single-threaded interleaving
becomes a nondeterministic race the moment sessions move to separate
processes.

This module is that contract.  Each :class:`SharedChannel` names one shared
object (or planned hand-off payload family), its discipline, and a one-line
rationale:

``read_only``
    Sessions may read but nothing mutates the object while sessions run;
    shardable by copying.
``single_writer``
    Exactly one component mutates it at a time — the serving loop between
    quanta, or the engine of the single session currently holding the
    quantum.  The sanctioned writer symbols are listed per channel.  Under
    sharding these become per-worker instances (clock) or front-end-owned
    state (catalog).
``cross_process_safe``
    Will cross a process boundary under sharding; every transitively
    reachable field must be picklable, and compiled pipelines must travel
    as ``__compiled_source__`` + constants, never as code objects.

The shard-safety rules in :mod:`repro.analysis.sharding` *parse this file
statically* (the declarations are deliberately literal-only) and verify the
package against it: undeclared escapes of server state into sessions,
channel mutations outside the sanctioned writer list, clock mutators
outside the drive loops, and unpicklable fields in ``cross_process_safe``
payloads are all findings.  ``repro-lint --shard-audit`` renders the
inventory below; the worker-process split (ROADMAP item 1) implements
against it.
"""

from __future__ import annotations

from dataclasses import dataclass

#: the three access disciplines a shared channel may declare
DISCIPLINES: tuple[str, ...] = ("read_only", "single_writer", "cross_process_safe")


@dataclass(frozen=True)
class SharedChannel:
    """One declared cross-session sharing channel.

    ``attributes`` are the attribute/parameter names the object travels
    under in code (the escape and isolation rules match receivers by these
    names); ``mutators`` are the method names that mutate the channel
    object; ``writers`` are the sanctioned ``path::Qualified.symbol`` sites
    allowed to invoke them.  ``type_name`` is the channel object's class;
    ``payload_types`` are additional class names that must satisfy the
    picklability audit for ``cross_process_safe`` channels.
    """

    name: str
    type_name: str
    discipline: str
    rationale: str
    attributes: tuple[str, ...] = ()
    mutators: tuple[str, ...] = ()
    writers: tuple[str, ...] = ()
    payload_types: tuple[str, ...] = ()

    def validate(self) -> list[str]:
        """Human-readable declaration problems (empty when well-formed)."""
        problems: list[str] = []
        if self.discipline not in DISCIPLINES:
            problems.append(
                f"channel {self.name!r} declares unknown discipline "
                f"{self.discipline!r}; expected one of {DISCIPLINES}"
            )
        if not self.rationale.strip():
            problems.append(
                f"channel {self.name!r} has no rationale; every shared "
                "channel must say why its discipline is safe"
            )
        if self.discipline == "read_only" and self.writers:
            problems.append(
                f"read_only channel {self.name!r} lists writer sites; "
                "a read-only channel has no sanctioned writers"
            )
        return problems


# ---------------------------------------------------------------------------
# The registry.  Every entry is literal-only so the static analyzer can read
# it without importing the package (and so the declarations cannot silently
# depend on runtime state).  Additions here require the same scrutiny as a
# whitelist change: the shared-channel rule reports channels that no longer
# correspond to an observed escape as stale.
# ---------------------------------------------------------------------------

CHANNELS: tuple[SharedChannel, ...] = (
    SharedChannel(
        name="clock",
        type_name="SimulatedClock",
        discipline="single_writer",
        rationale=(
            "one simulated clock orders all sessions' work; only the serving "
            "loop (idle-time jumps) and the engine drive loops of the session "
            "currently holding the quantum may advance it — under sharding "
            "each worker owns a clock shard synchronized at hand-off points"
        ),
        attributes=("clock", "_clock"),
        mutators=("charge", "wait_until", "advance"),
        writers=(
            "serving/server.py::QueryServer.run",
            "engine/pipelined.py::PipelinedPlan._drive_tuples",
            "engine/pipelined.py::PipelinedPlan.step_batch",
            "engine/pipelined.py::PipelinedPlan._sync_clock",
            "core/complementary.py::_JoinDriver.read",
            "core/complementary.py::_JoinDriver.sync_clock",
            "core/stitchup.py::StitchUpExecutor._charge_clock",
        ),
    ),
    SharedChannel(
        name="catalog",
        type_name="Catalog",
        discipline="single_writer",
        rationale=(
            "server-private catalog copy; sessions read it during plan "
            "choice and re-optimization, and only the statistics cache "
            "publishes learned exact cardinalities into it. In-process that "
            "happens between quanta; under sharding each worker publishes the "
            "run-start snapshot's once, before its first activation, and "
            "never again, so every session reads its activation-time catalog"
        ),
        attributes=("catalog",),
        mutators=("register", "set_statistics"),
        writers=(
            "serving/stats_cache.py::SharedStatisticsCache.apply_cardinalities",
        ),
    ),
    SharedChannel(
        name="sources",
        type_name="RemoteSource",
        discipline="single_writer",
        rationale=(
            "shared source pool: rows and cached arrival schedules are "
            "immutable after the server primes them; per-session cursors "
            "are session-owned, open counts are commutative telemetry, and "
            "mirror registration happens at setup time only"
        ),
        attributes=("sources",),
        mutators=("register_mirror", "prime"),
        writers=("serving/server.py::QueryServer._prime_sources",),
    ),
    SharedChannel(
        name="cost_model",
        type_name="CostModel",
        discipline="read_only",
        rationale=(
            "frozen dataclass of work-unit weights; identical in every "
            "process by construction, shardable by copying"
        ),
        attributes=("cost_model",),
    ),
    SharedChannel(
        name="options",
        type_name="ProcessorOptions",
        discipline="read_only",
        rationale=(
            "frozen, validated record of every session's processor knobs; "
            "each session's processor reads it and none can change it, and "
            "under sharding it crosses to the workers inside each ShardTask"
        ),
        attributes=("options",),
    ),
    SharedChannel(
        name="stats_cache",
        type_name="SharedStatisticsCache",
        discipline="cross_process_safe",
        rationale=(
            "the cross-query learning store; mutated only by the serving "
            "loop's telemetry hook and the shared-learning policy between "
            "sessions, and every reachable field must pickle — under "
            "sharding each worker hydrates a private cache from a snapshot, "
            "absorbs each retired session into it without publishing to the "
            "catalog, and the front-end folds post-run snapshots in "
            "worker-id order (see the stats_store channel for the "
            "manager-hosted variant)"
        ),
        attributes=("stats_cache", "cache"),
        mutators=("absorb", "record_rate_sample", "record_histogram"),
        writers=(
            "serving/server.py::QueryServer._record_rate_telemetry",
            "serving/worker.py::drive_shard",
            "adaptivity/policies.py::SharedLearningPolicy.session_finished",
        ),
        payload_types=("ObservedStatistics", "DynamicCompressedHistogram"),
    ),
    SharedChannel(
        name="session_policies",
        type_name="AdaptationPolicy",
        discipline="read_only",
        rationale=(
            "extra policy objects are registered with every session's "
            "controller, so one instance is aliased across all sessions; "
            "policies must keep per-run state in AdaptationRun.scratch, "
            "never on themselves"
        ),
        attributes=("session_policies",),
    ),
    SharedChannel(
        name="transports",
        type_name="ResilientSource",
        discipline="single_writer",
        rationale=(
            "real-I/O transport envelopes own sockets, file handles and "
            "DB-API connections — per-process resources that "
            "must never cross a process boundary (deliberately NOT "
            "cross_process_safe; the picklability audit rejects their field "
            "types). The serving loop of the owning worker opens them and "
            "registers mirrors at setup time only; under sharding each "
            "worker rebuilds its own envelopes from picklable backend "
            "descriptions (paths, URLs, queries, fault plans). Envelopes "
            "travel in the source pool only: no attribute is declared, so a "
            "ResilientSource parameter stored on an object is an undeclared "
            "alias"
        ),
        mutators=("register_mirror",),
        writers=("serving/server.py::QueryServer._prime_sources",),
    ),
    SharedChannel(
        name="shard_tasks",
        type_name="",
        discipline="cross_process_safe",
        rationale=(
            "the task hand-off of the sharded server: the front-end routes "
            "sessions to shards and starts each worker process with its one "
            "ShardTask as the process argument — inherited under fork, "
            "pickled once by Process.start under spawn (catalog snapshot, "
            "source pool, picklable session specs, the frozen "
            "ProcessorOptions record every session's processor is built "
            "from, statistics snapshot); compiled "
            "pipelines rehydrate worker-side from generated source, never "
            "as code objects"
        ),
        writers=("serving/sharded.py::ShardedQueryServer.run",),
        payload_types=(
            "ShardTask",
            "SessionSpec",
            "StatisticsSnapshot",
        ),
    ),
    SharedChannel(
        name="handoff",
        type_name="",
        discipline="cross_process_safe",
        rationale=(
            "the FIFO result hand-off of the sharded server: each worker "
            "returns one ShardResult (full per-session corrective reports, "
            "its post-run statistics snapshot, wall/utilization telemetry) "
            "— every payload crosses the process boundary whole, so every "
            "field must pickle"
        ),
        writers=("serving/worker.py::worker_main",),
        payload_types=(
            "ShardResult",
            "SessionResult",
            "CorrectiveExecutionReport",
            "ExecutionMetrics",
            "CorrectiveTick",
            "TableStatistics",
        ),
    ),
    SharedChannel(
        name="stats_store",
        type_name="SharedStatisticsStore",
        discipline="cross_process_safe",
        rationale=(
            "the cross-process statistics store: one real cache hosted in a "
            "multiprocessing manager process behind the existing cache API "
            "(method calls only — apply_cardinalities runs facade-side from "
            "a fetched snapshot); state transfers are whole "
            "StatisticsSnapshot values, so learned estimates survive across "
            "front-end processes and successive server runs"
        ),
        payload_types=("StatisticsSnapshot",),
    ),
    SharedChannel(
        name="partition_merge",
        type_name="",
        discipline="cross_process_safe",
        rationale=(
            "partition-parallel execution: fragment inputs travel as "
            "hash-partitioned Relation overrides inside session specs, "
            "fragment outputs return as ordinary session results, and the "
            "front-end merges them deterministically in partition order "
            "(partial aggregates folded per group key, avg decomposed as "
            "sum/count)"
        ),
        writers=(
            "serving/sharded.py::ShardedQueryServer.run",
            "serving/partition.py::merge_partition_results",
        ),
        payload_types=("PartitionPlan", "Relation"),
    ),
)


def registered_channels() -> dict[str, SharedChannel]:
    """Name → channel for every registry entry."""
    return {channel.name: channel for channel in CHANNELS}


def validate_registry(channels: tuple[SharedChannel, ...] = CHANNELS) -> list[str]:
    """All declaration problems across the registry (empty when certified)."""
    problems: list[str] = []
    seen: set[str] = set()
    for channel in channels:
        if channel.name in seen:
            problems.append(f"duplicate channel declaration {channel.name!r}")
        seen.add(channel.name)
        problems.extend(channel.validate())
    return problems


def render_inventory(channels: tuple[SharedChannel, ...] = CHANNELS) -> str:
    """The human-readable channel-inventory table of ``--shard-audit``."""
    lines = [
        "shared-channel inventory "
        f"({len(channels)} channels, disciplines: {', '.join(DISCIPLINES)})"
    ]
    for channel in channels:
        head = f"  {channel.name:<16} {channel.discipline:<19}"
        head += channel.type_name or "(payload family)"
        lines.append(head)
        lines.append(f"      {channel.rationale}")
        if channel.writers:
            lines.append(
                "      writers: " + ", ".join(channel.writers)
            )
        if channel.payload_types:
            lines.append(
                "      payloads: " + ", ".join(channel.payload_types)
            )
    return "\n".join(lines)
