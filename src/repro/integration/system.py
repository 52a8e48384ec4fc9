"""The data integration system facade.

:class:`AdaptiveIntegrationSystem` plays the role Tukwila plays in the paper:
the central query processor that registers autonomous sources (local or
remote, with or without statistics), accepts SPJA queries over them, and
executes them with a selectable strategy:

* ``"static"`` — optimize once, run to completion;
* ``"corrective"`` — corrective query processing with adaptive data
  partitioning (the paper's contribution, the default);
* ``"plan_partitioning"`` — mid-query re-optimization at a materialization
  point.

It returns a :class:`QueryAnswer` bundling the result rows with the execution
report, so applications can both consume answers and inspect how adaptation
behaved.

Beyond one-shot :meth:`AdaptiveIntegrationSystem.execute`, the facade also
exposes :meth:`AdaptiveIntegrationSystem.serve`: admit several queries at
once and let the multi-query serving layer interleave them over the shared
source pool on one simulated clock (see :mod:`repro.serving`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.baselines.plan_partitioning import PlanPartitioningExecutor
from repro.baselines.static_executor import StaticExecutor
from repro.core.corrective import CorrectiveQueryProcessor
from repro.engine.cost import CostModel
from repro.relational.algebra import SPJAQuery
from repro.relational.catalog import Catalog, TableStatistics
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.serving.server import QueryServer, ServingReport
from repro.serving.stats_cache import SharedStatisticsCache
from repro.sources.description import MappedSource, SourceDescription
from repro.sources.source import DataSource

_STRATEGIES = ("corrective", "static", "plan_partitioning")


class UnknownStrategyError(ValueError):
    """Raised when an unsupported execution strategy is requested."""


@dataclass
class QueryAnswer:
    """Query results plus the execution report that produced them."""

    query_name: str
    strategy: str
    rows: list[tuple]
    schema: Schema | None
    simulated_seconds: float
    report: object
    details: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.rows)


class AdaptiveIntegrationSystem:
    """Register sources, pose SPJA queries, pick an execution strategy."""

    def __init__(self, cost_model: CostModel | None = None) -> None:
        self.cost_model = cost_model or CostModel()
        self.catalog = Catalog()
        self._sources: dict[str, object] = {}
        self._descriptions: dict[str, SourceDescription] = {}

    # -- source registration -------------------------------------------------------

    def register_source(
        self,
        source: Relation | DataSource,
        statistics: TableStatistics | None = None,
        description: SourceDescription | None = None,
        name: str | None = None,
    ) -> str:
        """Register a source (a local relation or a remote/streaming source).

        ``statistics`` is whatever the provider publishes (often nothing);
        ``description`` optionally carries the semantic mapping to the global
        schema.  Returns the name under which the source was registered.
        """
        source_name = name or source.name
        registered: object = source
        local_relation = source if isinstance(source, Relation) else None
        if description is not None:
            mapped = MappedSource(source, description)
            source_name = name or description.global_relation
            registered = mapped
            local_relation = (
                mapped.to_relation() if isinstance(source, Relation) else None
            )
            self._descriptions[source_name] = description
        self.catalog.register(
            source_name, registered.schema, statistics, local_relation
        )
        self._sources[source_name] = (
            local_relation if local_relation is not None else registered
        )
        return source_name

    def register_sources(
        self, sources: Iterable[Relation | DataSource]
    ) -> list[str]:
        return [self.register_source(source) for source in sources]

    # -- querying --------------------------------------------------------------------

    def execute(
        self,
        query: SPJAQuery,
        strategy: str = "corrective",
        **options,
    ) -> QueryAnswer:
        """Execute ``query`` with the chosen strategy.

        Keyword options are forwarded to the strategy's executor.  Every
        strategy accepts ``batch_size`` and ``engine_mode``;
        ``"plan_partitioning"`` also accepts ``materialize_after_joins``, and
        ``"corrective"`` accepts every
        :class:`~repro.core.options.ProcessorOptions` field (or one
        ``options=`` record).
        """
        if strategy not in _STRATEGIES:
            raise UnknownStrategyError(
                f"unknown strategy {strategy!r}; expected one of {_STRATEGIES}"
            )
        missing = [name for name in query.relations if name not in self._sources]
        if missing:
            raise KeyError(f"query references unregistered sources: {missing}")

        if strategy == "static":
            executor = StaticExecutor(
                self.catalog, self._sources, self.cost_model, **options
            )
            report = executor.execute(query)
            rows, schema, seconds = report.rows, report.schema, report.simulated_seconds
        elif strategy == "plan_partitioning":
            executor = PlanPartitioningExecutor(
                self.catalog, self._sources, self.cost_model, **options
            )
            report = executor.execute(query)
            rows, schema, seconds = report.rows, report.schema, report.simulated_seconds
        else:
            processor = CorrectiveQueryProcessor(
                self.catalog, self._sources, self.cost_model, **options
            )
            report = processor.execute(query)
            rows, schema, seconds = report.rows, report.schema, report.simulated_seconds

        return QueryAnswer(
            query_name=query.name,
            strategy=strategy,
            rows=rows,
            schema=schema,
            simulated_seconds=seconds,
            report=report,
        )

    # -- serving -----------------------------------------------------------------------

    def serve(
        self,
        queries: Iterable[SPJAQuery],
        policy: str = "round_robin",
        quantum_tuples: int = 200,
        admission_times: Iterable[float] | None = None,
        stats_cache: SharedStatisticsCache | None = None,
        **options,
    ) -> ServingReport:
        """Serve several SPJA queries concurrently over the registered sources.

        The queries are admitted to a :class:`~repro.serving.server.QueryServer`
        (at time 0, or at the per-query simulated ``admission_times``) and
        interleaved on one shared simulated clock under the chosen scheduling
        ``policy`` (``"round_robin"`` or ``"shortest_remaining_cost"``).  All
        queries share the registered source objects — remote sources keep one
        cached arrival schedule across every consumer — and a cross-query
        statistics cache, so selectivities and exact cardinalities learned
        while serving one query inform the plans of the next.  Pass a
        ``stats_cache`` to carry learned statistics across successive
        ``serve`` calls.  Remaining keyword ``options`` go to the server:
        its own settings (``share_statistics``, ``session_policies``,
        ``options``) and every :class:`~repro.core.options.ProcessorOptions`
        field; any other name is a :class:`TypeError`.

        Each query's result multiset is identical to what a solo
        ``execute(query, strategy="corrective")`` run would return; only the
        timing (and possibly the plans travelled along the way) differs.
        """
        queries = list(queries)
        if not queries:
            raise ValueError("serve() needs at least one query")
        times = [0.0] * len(queries) if admission_times is None else list(admission_times)
        if len(times) != len(queries):
            raise ValueError(
                f"admission_times has {len(times)} entries for {len(queries)} queries"
            )
        server = QueryServer(
            self.catalog,
            self._sources,
            cost_model=self.cost_model,
            policy=policy,
            quantum_tuples=quantum_tuples,
            stats_cache=stats_cache,
            **options,
        )
        for query, admit_at in zip(queries, times):
            server.submit(query, admit_at=admit_at)
        return server.run()

    # -- introspection -----------------------------------------------------------------

    def describe_sources(
        self,
    ) -> list[dict[str, object]]:
        """Summaries of all registered sources (for examples / debugging)."""
        summaries = []
        for name in self._sources:
            entry = self.catalog.entry(name)
            summaries.append(
                {
                    "name": name,
                    "attributes": entry.schema.names,
                    "cardinality": entry.statistics.cardinality,
                    "keys": entry.statistics.key_attributes,
                    "sorted_on": entry.statistics.sorted_on,
                    "remote": not isinstance(self._sources[name], Relation),
                }
            )
        return summaries
