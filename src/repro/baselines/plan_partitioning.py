"""Plan partitioning with mid-query re-optimization (Kabra/DeWitt-style baseline).

The plan is broken into two stages at a materialization point.  With no
statistics there is no principled way to choose the break, so — exactly as
the paper configures it — the materialization point is inserted after three
joins: stage 1 joins the first four relations of a left-deep plan and
materializes the result; stage 2 re-optimizes the remaining joins with the
*exact* cardinality of the materialized intermediate and finishes the query.
For queries with three or fewer joins the materialization point coincides
with the end of the query, so plan partitioning degenerates to static
execution (which is what Figure 2 shows for queries 10 and 10A).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.cost import CostModel, ExecutionMetrics, SimulatedClock
from repro.engine.pipelined import PipelinedExecutor
from repro.io.wallclock import wall_now
from repro.optimizer.enumerator import Optimizer
from repro.optimizer.plans import JoinTree
from repro.relational.algebra import SPJAQuery
from repro.relational.catalog import Catalog, TableStatistics
from repro.relational.expressions import JoinPredicate
from repro.relational.relation import Relation
from repro.relational.schema import Schema


#: Name given to the materialized stage-1 intermediate when it re-enters the
#: optimizer as a base relation.
STAGE_RELATION_NAME = "__materialized_stage1__"


@dataclass
class PlanPartitioningReport:
    """Outcome of a plan-partitioning execution."""

    query_name: str
    rows: list[tuple]
    schema: Schema | None
    stage1_tree: JoinTree
    stage2_tree: JoinTree | None
    stage1_cardinality: int
    metrics: ExecutionMetrics
    simulated_seconds: float
    wall_seconds: float
    details: dict = field(default_factory=dict)

    def work(self, cost_model: CostModel | None = None) -> float:
        return self.metrics.work(cost_model)

    @property
    def materialized(self) -> bool:
        return self.stage2_tree is not None

    def summary(self) -> dict[str, object]:
        return {
            "query": self.query_name,
            "strategy": "plan_partitioning",
            "materialized": self.materialized,
            "stage1_cardinality": self.stage1_cardinality,
            "total_seconds": round(self.simulated_seconds, 2),
            "answers": len(self.rows),
        }


class PlanPartitioningExecutor:
    """Two-stage execution with re-optimization at a materialization point."""

    def __init__(
        self,
        catalog: Catalog,
        sources: dict[str, object],
        cost_model: CostModel | None = None,
        materialize_after_joins: int = 3,
        batch_size: int | None = None,
        engine_mode: str = "interpreted",
    ) -> None:
        self.catalog = catalog
        self.sources = dict(sources)
        self.cost_model = cost_model or CostModel()
        self.materialize_after_joins = materialize_after_joins
        self.batch_size = batch_size
        self.engine_mode = engine_mode
        self.optimizer = Optimizer(catalog, self.cost_model)

    # -- stage construction -----------------------------------------------------------

    def _stage1_relations(self, query: SPJAQuery) -> tuple[str, ...]:
        """First ``materialize_after_joins + 1`` relations of a left-deep order."""
        left_deep_optimizer = Optimizer(self.catalog, self.cost_model, bushy=False)
        order = left_deep_optimizer.optimize_tree(query).leaf_order()
        return order[: self.materialize_after_joins + 1]

    def _stage1_query(self, query: SPJAQuery, relations: tuple[str, ...]) -> SPJAQuery:
        relation_set = frozenset(relations)
        predicates = tuple(
            p
            for p in query.join_predicates
            if p.left_relation in relation_set and p.right_relation in relation_set
        )
        selections = {
            rel: pred for rel, pred in query.selections.items() if rel in relation_set
        }
        return SPJAQuery(
            name=f"{query.name}_stage1",
            relations=relations,
            join_predicates=predicates,
            selections=selections,
            aggregation=None,
        )

    def _stage2_query(
        self, query: SPJAQuery, stage1_relations: tuple[str, ...]
    ) -> SPJAQuery:
        stage1_set = frozenset(stage1_relations)
        remaining = tuple(r for r in query.relations if r not in stage1_set)
        predicates: list[JoinPredicate] = []
        for pred in query.join_predicates:
            left_in = pred.left_relation in stage1_set
            right_in = pred.right_relation in stage1_set
            if left_in and right_in:
                continue  # already applied in stage 1
            if left_in:
                predicates.append(
                    JoinPredicate(
                        STAGE_RELATION_NAME,
                        pred.left_attr,
                        pred.right_relation,
                        pred.right_attr,
                    )
                )
            elif right_in:
                predicates.append(
                    JoinPredicate(
                        pred.left_relation,
                        pred.left_attr,
                        STAGE_RELATION_NAME,
                        pred.right_attr,
                    )
                )
            else:
                predicates.append(pred)
        selections = {
            rel: pred for rel, pred in query.selections.items() if rel not in stage1_set
        }
        return SPJAQuery(
            name=f"{query.name}_stage2",
            relations=(STAGE_RELATION_NAME,) + remaining,
            join_predicates=tuple(predicates),
            selections=selections,
            aggregation=query.aggregation,
        )

    # -- execution ----------------------------------------------------------------------

    def execute(self, query: SPJAQuery) -> PlanPartitioningReport:
        metrics = ExecutionMetrics()
        clock = SimulatedClock(self.cost_model)
        wall_start = wall_now()

        stage1_relations = self._stage1_relations(query)
        if len(stage1_relations) >= len(query.relations):
            # Materialization point falls at (or beyond) the end of the query:
            # plan partitioning degenerates to static execution.
            tree = self.optimizer.optimize_tree(query)
            executor = PipelinedExecutor(
                self.sources,
                self.cost_model,
                batch_size=self.batch_size,
                engine_mode=self.engine_mode,
            )
            rows, plan = executor.execute(query, tree, clock=clock, metrics=metrics)
            return PlanPartitioningReport(
                query_name=query.name,
                rows=rows,
                schema=None if query.aggregation is not None else plan.output_schema,
                stage1_tree=tree,
                stage2_tree=None,
                stage1_cardinality=plan.output.count,
                metrics=metrics,
                simulated_seconds=clock.now,
                wall_seconds=wall_now() - wall_start,
                details={"degenerate": True},
            )

        # Stage 1: join the first few relations and materialize.
        stage1_query = self._stage1_query(query, stage1_relations)
        stage1_tree = self.optimizer.optimize_tree(stage1_query)
        executor = PipelinedExecutor(
            self.sources,
            self.cost_model,
            batch_size=self.batch_size,
            engine_mode=self.engine_mode,
        )
        stage1_rows, stage1_plan = executor.execute(
            stage1_query, stage1_tree, clock=clock, metrics=metrics
        )
        stage1_relation = Relation(
            STAGE_RELATION_NAME, stage1_plan.output_schema, list(stage1_rows)
        )
        # Materialization cost: writing the intermediate result.
        metrics.tuple_copies += len(stage1_rows)

        # Stage 2: re-optimize with exact knowledge of the intermediate.
        stage2_query = self._stage2_query(query, stage1_relations)
        stage2_catalog = Catalog()
        for name in query.relations:
            if name in stage1_relations:
                continue
            entry = self.catalog.entry(name)
            stage2_catalog.register(name, entry.schema, entry.statistics, entry.relation)
        stage2_catalog.register(
            STAGE_RELATION_NAME,
            stage1_relation.schema,
            TableStatistics(cardinality=len(stage1_relation)),
            stage1_relation,
        )
        stage2_optimizer = Optimizer(stage2_catalog, self.cost_model)
        stage2_tree = stage2_optimizer.optimize_tree(stage2_query)
        stage2_sources = dict(self.sources)
        stage2_sources[STAGE_RELATION_NAME] = stage1_relation
        stage2_executor = PipelinedExecutor(
            stage2_sources,
            self.cost_model,
            batch_size=self.batch_size,
            engine_mode=self.engine_mode,
        )
        rows, stage2_plan = stage2_executor.execute(
            stage2_query, stage2_tree, clock=clock, metrics=metrics
        )

        return PlanPartitioningReport(
            query_name=query.name,
            rows=rows,
            schema=None if query.aggregation is not None else stage2_plan.output_schema,
            stage1_tree=stage1_tree,
            stage2_tree=stage2_tree,
            stage1_cardinality=len(stage1_relation),
            metrics=metrics,
            simulated_seconds=clock.now,
            wall_seconds=wall_now() - wall_start,
            details={
                "stage1_relations": stage1_relations,
                "stage2_relations": stage2_query.relations,
            },
        )
