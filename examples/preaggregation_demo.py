"""Adjustable-window pre-aggregation in action (Section 6).

Run with::

    python examples/preaggregation_demo.py

The example runs TPC-H query 10A (which joins the entire ORDERS table, so
there is real coalescing opportunity on LINEITEM) and query 5 (where the
pre-aggregation point offers almost no coalescing) with three plans: no
pre-aggregation, the adjustable-window operator, and a traditional blocking
pre-aggregate, each on the pipelined engine.  It then shows the window-size
trajectory of the adaptive operator on both friendly and hostile inputs.
"""

from __future__ import annotations

from repro.core.preaggregation import WindowedPreAggregator, WindowPolicy
from repro.engine.pipelined import PipelinedExecutor
from repro.experiments.common import format_table
from repro.optimizer.enumerator import Optimizer
from repro.relational.expressions import Aggregate
from repro.workloads import TPCHGenerator, query_5, query_10a


def compare_plans(data) -> None:
    catalog = data.catalog(with_cardinalities=True)
    optimizer = Optimizer(catalog)
    executor = PipelinedExecutor(data.as_sources())
    rows = []
    for query in (query_10a(), query_5()):
        for label, mode in (
            ("single aggregation", None),
            ("adjustable window", "window"),
            ("traditional pre-agg", "traditional"),
        ):
            plan = optimizer.optimize(query, preaggregation=mode)
            groups, pipelined = executor.execute(
                query, plan.join_tree, preagg_points=plan.preagg_points
            )
            rows.append(
                {
                    "query": query.name,
                    "plan": label,
                    "preagg points": len(plan.preagg_points),
                    "seconds": pipelined.clock.now,
                    "groups": len(groups),
                }
            )
    print(format_table(rows))


def run_window(lineitem, group_attributes, aggregates) -> WindowedPreAggregator:
    """Feed every lineitem tuple through one window, then close it."""
    pre = WindowedPreAggregator(
        lineitem.schema, group_attributes, aggregates, policy=WindowPolicy(initial_window=32)
    )
    for row in lineitem.rows:
        pre.feed(row)
    pre.flush()
    return pre


def show_window_trajectory(data) -> None:
    aggregates = (Aggregate("sum", "l_revenue", "revenue"),)

    print("\nwindow trajectory, grouping lineitem by l_orderkey (coalesces ~4:1):")
    friendly = run_window(data.lineitem, ("l_orderkey",), aggregates)
    sizes = [decision.window_size for decision in friendly.window_decisions]
    print(f"  window sizes: {sizes[:12]}{' ...' if len(sizes) > 12 else ''}")
    print(f"  overall reduction: {friendly.overall_reduction:.2f} "
          f"(output/input), final window {friendly.current_window_size}")

    print("\nwindow trajectory, grouping lineitem by (l_orderkey, l_linenumber) "
          "(nothing coalesces):")
    hostile = run_window(data.lineitem, ("l_orderkey", "l_linenumber"), aggregates)
    sizes = [decision.window_size for decision in hostile.window_decisions]
    print(f"  window sizes: {sizes[:12]}{' ...' if len(sizes) > 12 else ''}")
    print(f"  overall reduction: {hostile.overall_reduction:.2f}, "
          f"final window {hostile.current_window_size} (pass-through mode)")


def main() -> None:
    print(__doc__)
    data = TPCHGenerator(scale_factor=0.002, zipf_z=0.0, seed=17).generate()
    compare_plans(data)
    show_window_trajectory(data)


if __name__ == "__main__":
    main()
