"""The paper's query workload: TPC-H queries 3A, 10, 10A and 5.

The paper selects the TPC-H queries that fit its select-project-join-
aggregation model — queries 3, 10 and 5 — and adds the variants 3A and 10A
which drop the date-based selection predicates to make the queries more
expensive (Section 4.4); its experiments run 3A, not 3.  Date constants are
expressed in the generator's integer day encoding.

Additionally :func:`flights_example_query` reproduces the running example of
Section 2 (flights / travelers / children), used by the
``corrective_flight_query`` example and several unit tests.
"""

from __future__ import annotations

from repro.relational.algebra import AggregateSpec, SPJAQuery
from repro.relational.expressions import (
    Aggregate,
    AttributeRef,
    Comparison,
    Constant,
    JoinPredicate,
)
from repro.workloads.tpch_schema import DATE_RANGE_DAYS

# Date constants (integer day offsets).  Chosen so the date predicates select
# roughly the same fractions as the original TPC-H predicates do.
Q10_DATE_LOW = DATE_RANGE_DAYS // 3
Q10_DATE_HIGH = Q10_DATE_LOW + 90
Q5_DATE_LOW = DATE_RANGE_DAYS // 2
Q5_DATE_HIGH = Q5_DATE_LOW + 365


def _customer_orders_lineitem_joins() -> tuple[JoinPredicate, ...]:
    return (
        JoinPredicate("customer", "c_custkey", "orders", "o_custkey"),
        JoinPredicate("orders", "o_orderkey", "lineitem", "l_orderkey"),
    )


def query_3a(segment: str = "BUILDING") -> SPJAQuery:
    """Q3A: query 3 with the date-based selection predicates removed."""
    return SPJAQuery(
        name="Q3A",
        relations=("customer", "orders", "lineitem"),
        join_predicates=_customer_orders_lineitem_joins(),
        selections={
            "customer": Comparison(AttributeRef("c_mktsegment"), "=", Constant(segment)),
        },
        aggregation=AggregateSpec(
            group_attributes=("l_orderkey", "o_orderdate", "o_shippriority"),
            aggregates=(Aggregate("sum", "l_revenue", "revenue"),),
        ),
    )


def _q10_joins() -> tuple[JoinPredicate, ...]:
    return (
        JoinPredicate("customer", "c_custkey", "orders", "o_custkey"),
        JoinPredicate("orders", "o_orderkey", "lineitem", "l_orderkey"),
        JoinPredicate("customer", "c_nationkey", "nation", "n_nationkey"),
    )


def query_10() -> SPJAQuery:
    """TPC-H Q10: revenue lost to returned items per customer, one quarter."""
    date_predicate = Comparison(AttributeRef("o_orderdate"), ">=", Constant(Q10_DATE_LOW))
    date_predicate_high = Comparison(AttributeRef("o_orderdate"), "<", Constant(Q10_DATE_HIGH))
    from repro.relational.expressions import Conjunction

    return SPJAQuery(
        name="Q10",
        relations=("customer", "orders", "lineitem", "nation"),
        join_predicates=_q10_joins(),
        selections={
            "orders": Conjunction((date_predicate, date_predicate_high)),
            "lineitem": Comparison(AttributeRef("l_returnflag"), "=", Constant("R")),
        },
        aggregation=AggregateSpec(
            group_attributes=("c_custkey", "c_name", "n_name"),
            aggregates=(Aggregate("sum", "l_revenue", "revenue"),),
        ),
    )


def query_10a() -> SPJAQuery:
    """Q10A: query 10 with the date-based selection predicates removed."""
    return SPJAQuery(
        name="Q10A",
        relations=("customer", "orders", "lineitem", "nation"),
        join_predicates=_q10_joins(),
        selections={
            "lineitem": Comparison(AttributeRef("l_returnflag"), "=", Constant("R")),
        },
        aggregation=AggregateSpec(
            group_attributes=("c_custkey", "c_name", "n_name"),
            aggregates=(Aggregate("sum", "l_revenue", "revenue"),),
        ),
    )


def query_5(region: str = "ASIA") -> SPJAQuery:
    """TPC-H Q5: revenue per nation for local suppliers in one region and year.

    This is the 5-join query of the paper.  The ``c_nationkey = s_nationkey``
    condition creates the expensive CUSTOMER ⋈ NATION ⋈ SUPPLIER subresult
    that makes Q5 the interesting case for plan quality (Section 4.4).
    """
    from repro.relational.expressions import Conjunction

    date_low = Comparison(AttributeRef("o_orderdate"), ">=", Constant(Q5_DATE_LOW))
    date_high = Comparison(AttributeRef("o_orderdate"), "<", Constant(Q5_DATE_HIGH))
    return SPJAQuery(
        name="Q5",
        relations=("customer", "orders", "lineitem", "supplier", "nation", "region"),
        join_predicates=(
            JoinPredicate("customer", "c_custkey", "orders", "o_custkey"),
            JoinPredicate("orders", "o_orderkey", "lineitem", "l_orderkey"),
            JoinPredicate("lineitem", "l_suppkey", "supplier", "s_suppkey"),
            JoinPredicate("customer", "c_nationkey", "supplier", "s_nationkey"),
            JoinPredicate("supplier", "s_nationkey", "nation", "n_nationkey"),
            JoinPredicate("nation", "n_regionkey", "region", "r_regionkey"),
        ),
        selections={
            "region": Comparison(AttributeRef("r_name"), "=", Constant(region)),
            "orders": Conjunction((date_low, date_high)),
        },
        aggregation=AggregateSpec(
            group_attributes=("n_name",),
            aggregates=(Aggregate("sum", "l_revenue", "revenue"),),
        ),
    )


def flights_example_query(
) -> SPJAQuery:
    """The running example of Section 2: flights, travelers, children.

    ``Group[fid, from] max(num) (F ⋈ T ⋈ C)`` — find, per flight, the largest
    number of children of any traveler on it.
    """
    return SPJAQuery(
        name="flights_example",
        relations=("flights", "travelers", "children"),
        join_predicates=(
            JoinPredicate("flights", "fid", "travelers", "flight"),
            JoinPredicate("travelers", "ssn", "children", "parent"),
        ),
        aggregation=AggregateSpec(
            group_attributes=("fid", "origin"),
            aggregates=(Aggregate("max", "num", "max_children"),),
        ),
    )


def paper_query_workload() -> dict[str, SPJAQuery]:
    """The four queries evaluated in Figures 2, 3 and 6 and Tables 1 and 2."""
    return {
        "Q3A": query_3a(),
        "Q10": query_10(),
        "Q10A": query_10a(),
        "Q5": query_5(),
    }
