"""Workloads: TPC-H-style data generation and the paper's query set.

There is no standard data integration benchmark (the paper says as much), so
the evaluation uses TPC-H at scale factor 0.1 plus a skewed variant generated
with a Zipf factor of 0.5 on the major attributes.  This package reproduces
that setup at configurable (smaller) scale with a deterministic in-process
generator, the partial-reordering perturbation used in the order experiments,
and the four evaluation queries (3A, 10, 10A, 5).
"""

from repro.workloads.tpch_schema import (
    CUSTOMER_SCHEMA,
    LINEITEM_SCHEMA,
    NATION_SCHEMA,
    ORDERS_SCHEMA,
    REGION_SCHEMA,
    SUPPLIER_SCHEMA,
    TPCH_SCHEMAS,
)
from repro.workloads.generator import TPCHData, TPCHGenerator
from repro.workloads.perturb import reorder_fraction
from repro.workloads.queries import (
    flights_example_query,
    query_3a,
    query_5,
    query_10,
    query_10a,
    paper_query_workload,
)

__all__ = [
    "CUSTOMER_SCHEMA",
    "LINEITEM_SCHEMA",
    "NATION_SCHEMA",
    "ORDERS_SCHEMA",
    "REGION_SCHEMA",
    "SUPPLIER_SCHEMA",
    "TPCH_SCHEMAS",
    "TPCHData",
    "TPCHGenerator",
    "reorder_fraction",
    "flights_example_query",
    "query_3a",
    "query_5",
    "query_10",
    "query_10a",
    "paper_query_workload",
]
