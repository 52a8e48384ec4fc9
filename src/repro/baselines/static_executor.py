"""Static (optimize-once) query execution — the traditional baseline."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.cost import CostModel, ExecutionMetrics, SimulatedClock
from repro.engine.pipelined import PipelinedExecutor
from repro.io.wallclock import wall_now
from repro.optimizer.enumerator import Optimizer
from repro.optimizer.plans import JoinTree
from repro.relational.algebra import SPJAQuery
from repro.relational.catalog import Catalog
from repro.relational.schema import Schema


@dataclass
class StaticExecutionReport:
    """Outcome of a static execution (one plan, no adaptation)."""

    query_name: str
    rows: list[tuple]
    schema: Schema | None
    join_tree: JoinTree
    metrics: ExecutionMetrics
    simulated_seconds: float
    wall_seconds: float
    wait_seconds: float
    details: dict = field(default_factory=dict)

    def work(self, cost_model: CostModel | None = None) -> float:
        return self.metrics.work(cost_model)

    def summary(self) -> dict[str, object]:
        return {
            "query": self.query_name,
            "strategy": "static",
            "join_tree": str(self.join_tree),
            "total_seconds": round(self.simulated_seconds, 2),
            "answers": len(self.rows),
        }


class StaticExecutor:
    """Optimize once using the catalog's statistics, then run to completion.

    This is "Static - No Statistics" or "Static - Cardinalities" in Figure 2
    depending on whether the supplied catalog carries cardinalities.  The
    execution uses the same pipelined hash joins (and the same cost
    accounting) as the adaptive strategies, so the comparison isolates the
    effect of adaptation rather than of different join machinery.
    """

    def __init__(
        self,
        catalog: Catalog,
        sources: dict[str, object],
        cost_model: CostModel | None = None,
        batch_size: int | None = None,
        engine_mode: str = "interpreted",
    ) -> None:
        self.catalog = catalog
        self.sources = dict(sources)
        self.cost_model = cost_model or CostModel()
        self.batch_size = batch_size
        self.engine_mode = engine_mode
        self.optimizer = Optimizer(catalog, self.cost_model)

    def execute(
        self, query: SPJAQuery, join_tree: JoinTree | None = None
    ) -> StaticExecutionReport:
        """Run ``query`` statically; ``join_tree`` overrides the optimizer."""
        tree = join_tree or self.optimizer.optimize_tree(query)
        metrics = ExecutionMetrics()
        clock = SimulatedClock(self.cost_model)
        executor = PipelinedExecutor(
            self.sources,
            self.cost_model,
            batch_size=self.batch_size,
            engine_mode=self.engine_mode,
        )
        wall_start = wall_now()
        rows, plan = executor.execute(query, tree, clock=clock, metrics=metrics)
        wall_seconds = wall_now() - wall_start
        schema = None
        if query.aggregation is None:
            schema = plan.output_schema
        return StaticExecutionReport(
            query_name=query.name,
            rows=rows,
            schema=schema,
            join_tree=tree,
            metrics=metrics,
            simulated_seconds=clock.now,
            wall_seconds=wall_seconds,
            wait_seconds=clock.wait_time,
            details={"phase_statistics": plan.statistics},
        )
