"""repro: a reproduction of "Adapting to Source Properties in Processing Data
Integration Queries" (Ives, Halevy, Weld — SIGMOD 2004).

The package implements adaptive data partitioning (ADP) on top of a pure-
Python data integration query engine:

* **corrective query processing** — switch join plans mid-pipeline and stitch
  the per-phase partitions back together (:mod:`repro.core.corrective`);
* **complementary join pairs** — exploit (partially) sorted sources with a
  merge join + pipelined hash join pair (:mod:`repro.core.complementary`);
* **adjustable-window pre-aggregation** — apply early aggregation only where
  it actually helps (:mod:`repro.core.preaggregation`).

The typical entry point is :class:`repro.AdaptiveIntegrationSystem`:

>>> from repro import AdaptiveIntegrationSystem
>>> from repro.workloads import TPCHGenerator, query_3a
>>> data = TPCHGenerator(scale_factor=0.0005).generate()
>>> system = AdaptiveIntegrationSystem()
>>> system.register_sources(data.relations.values())  # doctest: +ELLIPSIS
[...]
>>> answer = system.execute(query_3a(), strategy="corrective")
>>> len(answer.rows) > 0
True
"""

from repro.integration.system import AdaptiveIntegrationSystem, QueryAnswer
from repro.core.corrective import CorrectiveQueryProcessor
from repro.core.complementary import ComplementaryJoinPair, PipelinedHashJoinBaseline
from repro.core.preaggregation import WindowedPreAggregator
from repro.baselines.static_executor import StaticExecutor
from repro.baselines.plan_partitioning import PlanPartitioningExecutor
from repro.relational.algebra import AggregateSpec, SPJAQuery
from repro.relational.expressions import (
    Aggregate,
    AttributeRef,
    Comparison,
    Constant,
    JoinPredicate,
)
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.relational.catalog import Catalog, TableStatistics

__version__ = "1.0.0"

__all__ = [
    "AdaptiveIntegrationSystem",
    "QueryAnswer",
    "CorrectiveQueryProcessor",
    "ComplementaryJoinPair",
    "PipelinedHashJoinBaseline",
    "WindowedPreAggregator",
    "StaticExecutor",
    "PlanPartitioningExecutor",
    "AggregateSpec",
    "SPJAQuery",
    "Aggregate",
    "AttributeRef",
    "Comparison",
    "Constant",
    "JoinPredicate",
    "Relation",
    "Attribute",
    "Schema",
    "Catalog",
    "TableStatistics",
    "__version__",
]
