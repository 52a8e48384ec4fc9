"""Property-based tests of the algebraic foundations of adaptive data partitioning.

Section 2.3 of the paper: a join over relations that are each split into
partitions equals the union of the joins of all partition combinations; the
matching-superscript combinations are what the phases compute and the rest is
the stitch-up expression.  These tests check that identity (and its
interaction with selection and aggregation) directly, independent of the
execution machinery, and then check that the corrective executor realizes it
end to end on randomly partitioned inputs.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_same_bag, reference_join, reference_spja, rows_as_multiset
from repro.relational.relation import Relation
from repro.relational.schema import Schema

R_SCHEMA = Schema.from_names(["rk", "rv"], relation="r")
S_SCHEMA = Schema.from_names(["s_rk", "sv"], relation="s")
T_SCHEMA = Schema.from_names(["t_sv", "tv"], relation="t")


def relation(name, schema, rows):
    return Relation(name, schema, rows)


def split_rows(rows, boundaries):
    """Split ``rows`` into len(boundaries)+1 contiguous partitions."""
    partitions = []
    start = 0
    for boundary in sorted(boundaries):
        boundary = min(boundary, len(rows))
        partitions.append(rows[start:boundary])
        start = boundary
    partitions.append(rows[start:])
    return partitions


rows_r = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 100)), max_size=40
)
rows_s = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 4)), max_size=40
)
rows_t = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 100)), max_size=40
)
cut = st.integers(min_value=0, max_value=40)


@settings(max_examples=60, deadline=None)
@given(r_rows=rows_r, s_rows=rows_s, r_cut=cut, s_cut=cut)
def test_property_two_way_partitioned_join_identity(r_rows, s_rows, r_cut, s_cut):
    """R ⋈ S == union over all partition combinations of R^i ⋈ S^j."""
    full = reference_join(
        relation("r", R_SCHEMA, r_rows), relation("s", S_SCHEMA, s_rows), "rk", "s_rk"
    )
    r_parts = split_rows(r_rows, [r_cut])
    s_parts = split_rows(s_rows, [s_cut])
    combined = []
    for r_part, s_part in itertools.product(r_parts, s_parts):
        combined.extend(
            reference_join(
                relation("r", R_SCHEMA, r_part),
                relation("s", S_SCHEMA, s_part),
                "rk",
                "s_rk",
            )
        )
    assert_same_bag(combined, full)


@settings(max_examples=40, deadline=None)
@given(r_rows=rows_r, s_rows=rows_s, t_rows=rows_t, r_cut=cut, s_cut=cut, t_cut=cut)
def test_property_three_way_phases_plus_stitchup_identity(
    r_rows, s_rows, t_rows, r_cut, s_cut, t_cut
):
    """Matching-superscript combinations plus the stitch-up set cover everything exactly."""

    def three_way(r_part, s_part, t_part):
        first = reference_join(
            relation("r", R_SCHEMA, r_part),
            relation("s", S_SCHEMA, s_part),
            "rk",
            "s_rk",
        )
        first_rel = Relation("rs", R_SCHEMA.concat(S_SCHEMA), first)
        return reference_join(
            first_rel, relation("t", T_SCHEMA, t_part), "sv", "t_sv"
        )

    full = three_way(r_rows, s_rows, t_rows)
    r_parts = split_rows(r_rows, [r_cut])
    s_parts = split_rows(s_rows, [s_cut])
    t_parts = split_rows(t_rows, [t_cut])

    phases = []  # matching superscripts
    stitchup = []  # everything else
    for i, j, k in itertools.product(range(len(r_parts)), repeat=3):
        result = three_way(r_parts[i], s_parts[j], t_parts[k])
        if i == j == k:
            phases.extend(result)
        else:
            stitchup.extend(result)
    assert rows_as_multiset(phases + stitchup) == rows_as_multiset(full)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(0, 5), st.integers(-20, 20)), max_size=60),
    cut_a=st.integers(0, 60),
    cut_b=st.integers(0, 60),
)
def test_property_aggregation_distributes_over_partitions(rows, cut_a, cut_b):
    """sum/count/min/max grouped results are identical whether computed on the
    whole input or by coalescing per-partition partial aggregates."""
    from repro.engine.operators.aggregate import GroupAccumulator
    from repro.relational.expressions import Aggregate

    schema = Schema.from_names(["g", "v"])
    aggregates = [
        Aggregate("sum", "v", "total"),
        Aggregate("count", None, "n"),
        Aggregate("min", "v", "lo"),
        Aggregate("max", "v", "hi"),
    ]
    direct = GroupAccumulator(schema, ["g"], aggregates)
    direct.accumulate_batch(rows)

    final = GroupAccumulator(
        Schema.from_names(["g", "total", "n", "lo", "hi"]),
        ["g"],
        aggregates,
        input_is_partial=True,
    )
    for part in split_rows(rows, sorted([cut_a, cut_b])):
        partial = GroupAccumulator(schema, ["g"], aggregates)
        partial.accumulate_batch(part)
        final.accumulate_batch(partial.results())

    assert sorted(final.results()) == sorted(direct.results())


@settings(max_examples=25, deadline=None)
@given(
    r_rows=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 50)), min_size=4, max_size=60),
    s_rows=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 8)), min_size=4, max_size=80),
    switch_step=st.integers(min_value=1, max_value=60),
)
def test_property_corrective_execution_matches_reference(r_rows, s_rows, switch_step):
    """End-to-end: an extremely eager corrective configuration (constant
    polling, permissive switch threshold, arbitrary poll granularity) never
    changes the answer of an SPJ query."""
    from repro.core.corrective import CorrectiveQueryProcessor
    from repro.relational.algebra import SPJAQuery
    from repro.relational.catalog import Catalog
    from repro.relational.expressions import JoinPredicate

    r = relation("r", R_SCHEMA, r_rows)
    s = relation("s", S_SCHEMA, s_rows)
    query = SPJAQuery(
        name="rs",
        relations=("r", "s"),
        join_predicates=(JoinPredicate("r", "rk", "s", "s_rk"),),
    )
    catalog = Catalog()
    catalog.register_relation(r)
    catalog.register_relation(s)
    sources = {"r": r, "s": s}
    # An extremely eager configuration: poll constantly with a permissive
    # threshold so switches (and hence stitch-up) happen whenever possible.
    processor = CorrectiveQueryProcessor(
        catalog,
        sources,
        polling_interval_seconds=1e-6,
        switch_threshold=1.0,
        max_phases=4,
    )
    report = processor.execute(query, poll_step_limit=switch_step)
    assert_same_bag(report.rows, reference_spja(query, sources))
