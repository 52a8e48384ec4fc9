"""Tests for the stitch-up executor.

The central correctness property: running a query in multiple phases (each
phase joining only its own partitions) and then stitching up the cross-phase
combinations must produce exactly the same answers as a single-phase run.
"""

import itertools
import random
from collections import Counter

import pytest

from helpers import assert_same_bag, reference_spja
from repro.core.stitchup import StitchUpExecutor, StitchUpReport
from repro.engine.cost import CostModel, ExecutionMetrics, SimulatedClock
from repro.engine.operators.aggregate import GroupAccumulator
from repro.engine.pipelined import PipelinedPlan, SourceCursor
from repro.engine.state.hash_table import HashTableState
from repro.engine.state.registry import StateRegistry
from repro.engine.state.sorted_run import SortedRunState
from repro.optimizer.ordering import JoinStrategy
from repro.optimizer.plans import JoinTree
from repro.relational.algebra import AggregateSpec, QueryError, SPJAQuery
from repro.relational.expressions import Aggregate, JoinPredicate
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.tuples import TupleAdapter
from repro.workloads.differential import generate_workload


def three_way_query():
    return SPJAQuery(
        name="rst",
        relations=("r", "s", "t"),
        join_predicates=(
            JoinPredicate("r", "rk", "s", "s_rk"),
            JoinPredicate("s", "sk", "t", "t_sk"),
        ),
    )


def make_sources(n=60, seed=0):
    import random

    rng = random.Random(seed)
    r_schema = Schema.from_names(["rk", "rv"], relation="r")
    s_schema = Schema.from_names(["sk", "s_rk"], relation="s")
    t_schema = Schema.from_names(["tk", "t_sk"], relation="t")
    r = Relation("r", r_schema, [(i, f"r{i}") for i in range(n)])
    s = Relation("s", s_schema, [(i, rng.randrange(n)) for i in range(2 * n)])
    t = Relation("t", t_schema, [(i, rng.randrange(2 * n)) for i in range(3 * n)])
    return {"r": r, "s": s, "t": t}


def run_in_phases(query, sources, trees, boundaries):
    """Run the query as sequential phases switching trees at the given step counts."""
    cursors = {name: SourceCursor(name, sources[name]) for name in query.relations}
    registry = StateRegistry()
    collected = []
    canonical_schema = None

    from repro.relational.tuples import TupleAdapter

    phase_id = 0
    for tree, max_steps in itertools.zip_longest(trees, boundaries):
        plan = PipelinedPlan(query, tree, cursors, lambda row: None, phase_id=phase_id)
        if canonical_schema is None:
            canonical_schema = plan.output_schema
        adapter = TupleAdapter(plan.output_schema, canonical_schema)
        plan.output_sink = (
            collected.append
            if adapter.is_identity
            else (lambda row, a=adapter: collected.append(a.adapt(row)))
        )
        plan.run(max_steps=max_steps)
        plan.register_state(registry)
        phase_id += 1
        if plan.sources_exhausted:
            break

    stitchup = StitchUpExecutor(query, registry, phase_id, canonical_schema, collected)
    report = stitchup.run()
    return collected, report


class TestStitchUpCorrectness:
    def test_two_phase_same_tree(self):
        query = three_way_query()
        sources = make_sources()
        expected = reference_spja(query, sources)
        tree = JoinTree.left_deep(["r", "s", "t"])
        rows, report = run_in_phases(query, sources, [tree, tree], [150, None])
        assert_same_bag(rows, expected)
        assert report.combinations_excluded == 2
        assert report.reused_tuples > 0

    def test_two_phase_different_trees(self):
        query = three_way_query()
        sources = make_sources()
        expected = reference_spja(query, sources)
        tree_a = JoinTree.left_deep(["r", "s", "t"])
        tree_b = JoinTree.join(
            JoinTree.leaf("r"), JoinTree.join(JoinTree.leaf("s"), JoinTree.leaf("t"))
        )
        rows, report = run_in_phases(query, sources, [tree_a, tree_b], [120, None])
        assert_same_bag(rows, expected)
        assert report.combinations_evaluated > 0

    def test_three_phases(self):
        query = three_way_query()
        sources = make_sources(n=40)
        expected = reference_spja(query, sources)
        tree_a = JoinTree.left_deep(["r", "s", "t"])
        tree_b = JoinTree.left_deep(["t", "s", "r"])
        tree_c = JoinTree.join(
            JoinTree.leaf("r"), JoinTree.join(JoinTree.leaf("s"), JoinTree.leaf("t"))
        )
        rows, report = run_in_phases(
            query, sources, [tree_a, tree_b, tree_c], [60, 60, None]
        )
        assert_same_bag(rows, expected)
        assert report.num_phases == 3
        # 3^3 total combinations, 3 excluded (all-equal).
        assert report.combinations_total == 27
        assert report.combinations_excluded == 3

    def test_two_relation_query(self):
        query = SPJAQuery(
            name="rs",
            relations=("r", "s"),
            join_predicates=(JoinPredicate("r", "rk", "s", "s_rk"),),
        )
        sources = {k: v for k, v in make_sources().items() if k in ("r", "s")}
        expected = reference_spja(query, sources)
        tree = JoinTree.left_deep(["r", "s"])
        rows, report = run_in_phases(query, sources, [tree, tree], [40, None])
        assert_same_bag(rows, expected)

    def test_single_phase_needs_no_stitchup(self):
        query = three_way_query()
        sources = make_sources(n=30)
        tree = JoinTree.left_deep(["r", "s", "t"])
        rows, report = run_in_phases(query, sources, [tree], [None])
        assert_same_bag(rows, reference_spja(query, sources))
        assert report.combinations_total == 0
        assert report.output_count == 0


class TestStitchUpAccounting:
    def test_report_fields_consistent(self):
        query = three_way_query()
        sources = make_sources()
        tree = JoinTree.left_deep(["r", "s", "t"])
        _rows, report = run_in_phases(query, sources, [tree, tree], [150, None])
        assert (
            report.combinations_total
            == report.combinations_excluded
            + report.combinations_skipped_empty
            + report.combinations_evaluated
        )
        assert report.work_units > 0
        assert report.simulated_seconds > 0
        assert report.exclusion_list  # the all-equal vectors
        as_dict = report.as_dict()
        assert as_dict["reused_tuples"] == report.reused_tuples

    def test_reused_plus_discarded_covers_registry(self):
        query = three_way_query()
        sources = make_sources()
        tree = JoinTree.left_deep(["r", "s", "t"])
        cursors = {name: SourceCursor(name, sources[name]) for name in query.relations}
        registry = StateRegistry()
        plan0 = PipelinedPlan(query, tree, cursors, lambda row: None, phase_id=0)
        plan0.run(max_steps=150)
        plan0.register_state(registry)
        plan1 = PipelinedPlan(query, tree, cursors, lambda row: None, phase_id=1)
        plan1.run()
        plan1.register_state(registry)
        stitchup = StitchUpExecutor(query, registry, 2, plan0.output_schema, [])
        report = stitchup.run()
        assert (
            report.reused_tuples + report.discarded_tuples
            == registry.total_registered_tuples()
        )


# -- the order and accounting contract, against a tuple-at-a-time oracle ----------


def oracle_stitchup(query, registry, num_phases, output_schema, sink, metrics):
    """The tuple-at-a-time stitch-up the executor replaced, kept as its
    executable spec: one counter increment, one probe and one ``sink`` call
    per tuple.  Returns the report fields and a tally of the paths taken."""
    cost_model = CostModel()
    clock = SimulatedClock(cost_model)
    start_work = metrics.work(cost_model)
    relations = list(query.relations)
    report = Counter(num_phases=num_phases)
    paths = Counter()
    touched, rekeyed = set(), {}
    partitions = {rel: registry.base_partitions(rel) for rel in relations}
    for combo in itertools.product(range(num_phases), repeat=len(relations)):
        report["combinations_total"] += 1
        if len(set(combo)) == 1:
            report["combinations_excluded"] += 1
            continue
        entries = {rel: partitions[rel].get(phase) for rel, phase in zip(relations, combo)}
        if any(e is None or e.cardinality == 0 for e in entries.values()):
            report["combinations_skipped_empty"] += 1
            continue
        report["combinations_evaluated"] += 1
        pairs = frozenset(zip(relations, combo))
        reusable = [e for e in registry.intermediate_entries() if e.signature <= pairs]
        seed = min(reusable, key=lambda e: (-len(e.signature), e.cardinality), default=None)
        if seed is None:
            seed = min(entries.values(), key=lambda e: e.cardinality)
        touched.add(id(seed))
        schema, rows = seed.structure.schema, list(seed.structure.scan())
        metrics.tuple_copies += len(rows)
        covered = set(seed.relations)
        remaining = [rel for rel in relations if rel not in covered]

        def between(rel):
            return query.predicates_between(frozenset(covered), frozenset((rel,)))

        while remaining and rows:
            relation = next(rel for rel in remaining if between(rel))
            remaining.remove(relation)
            touched.add(id(entries[relation]))
            attrs = [  # (partition attribute, working-set attribute)
                (p.left_attr, p.right_attr) if p.left_relation == relation
                else (p.right_attr, p.left_attr)
                for p in between(relation)
            ]
            table = entries[relation].structure
            if not (isinstance(table, HashTableState) and table.key == attrs[0][0]):
                cache_key = (id(table), attrs[0][0])
                paths["rekey_hit" if cache_key in rekeyed else "rekey_built"] += 1
                if cache_key not in rekeyed:
                    rekeyed[cache_key] = HashTableState(table.schema, attrs[0][0])
                    for row in table.scan():
                        rekeyed[cache_key].insert(row)
                        metrics.hash_inserts += 1
                paths["rekey_sorted_run"] += isinstance(table, SortedRunState)
                table = rekeyed[cache_key]
            joined_schema = schema.concat(table.schema)
            checks = [
                (joined_schema.position(cur), joined_schema.position(part))
                for part, cur in attrs[1:]
            ]
            pos, joined = schema.position(attrs[0][1]), []
            for row in rows:
                metrics.hash_probes += 1
                for match in table.probe(row[pos]):
                    combined = row + match
                    if checks:
                        metrics.predicate_evals += len(checks)
                        paths["residual_candidates"] += 1
                        if not all(combined[a] == combined[b] for a, b in checks):
                            paths["residual_rejected"] += 1
                            continue
                    metrics.tuple_copies += 1
                    joined.append(combined)
            rows, schema = joined, joined_schema
            covered.add(relation)
        adapter = TupleAdapter(schema, output_schema)
        paths["layout_permuted"] += bool(rows) and not adapter.is_identity
        for row in rows:
            metrics.tuples_output += 1
            sink(adapter.adapt(row))
            report["output_count"] += 1
    work = metrics.work(cost_model) - start_work
    if work > 0:
        clock.charge(work)
    for entry in registry:
        kind = "reused_tuples" if id(entry) in touched else "discarded_tuples"
        report[kind] += entry.cardinality
    fields = StitchUpReport(num_phases).as_dict()
    return {**{name: report[name] for name in fields},
            "work_units": work, "simulated_seconds": clock.now}, paths


def random_tree(query, rng):
    """A random zig-zag join tree over a random connected relation order."""
    tree = JoinTree.leaf(rng.choice(query.relations))
    while len(tree.relations()) < len(query.relations):
        relation = rng.choice([
            rel for rel in query.relations
            if rel not in tree.relations()
            and query.predicates_between(tree.relations(), frozenset((rel,)))
        ])
        sides = [tree, JoinTree.leaf(relation)]
        rng.shuffle(sides)
        tree = JoinTree.join(*sides)
    return tree


def register_phases(query, relations, trees, boundaries, merge_first=False):
    """Run ``query`` as phases over ``trees`` (answers discarded) and return
    the registry, the canonical layout and the number of phases that ran."""
    cursors = {name: SourceCursor(name, relations[name]) for name in query.relations}
    registry = StateRegistry()
    canonical = None
    phases = 0
    for tree, max_steps in zip(trees, boundaries):
        strategies = None
        if merge_first and phases == 0:
            strategies = {
                node.relations(): JoinStrategy(algorithm="merge", direction=1)
                for node in tree.internal_nodes()
            }
        plan = PipelinedPlan(
            query, tree, cursors, lambda row: None, phase_id=phases,
            join_strategies=strategies,
        )
        canonical = canonical or plan.output_schema
        plan.run(max_steps=max_steps)
        plan.register_state(registry)
        phases += 1
        if plan.sources_exhausted:
            break
    return registry, canonical, phases


def stitch_case(seed):
    """Differential workload ``seed`` forced into 2–3 phases with different
    trees.  Every third seed aggregates avg/sum over float values (fold order
    shows in the last bits); every fifth registers sorted runs in phase 0."""
    workload = generate_workload(seed)
    query, relations = workload.query, workload.relations
    if seed % 3 == 0:
        last = len(relations) - 1
        relations = {}
        for name, relation in workload.relations.items():
            pos = relation.schema.position(name + "_val")
            relations[name] = Relation(name, relation.schema, [
                row[:pos] + (row[pos] / 7.0,) + row[pos + 1:] for row in relation.rows
            ])
        query = SPJAQuery(
            query.name, query.relations, query.join_predicates, query.selections,
            AggregateSpec(("r0_cat",), (
                Aggregate("avg", "r0_val", "a"), Aggregate("sum", f"r{last}_val", "s"),
            )),
        )
    rng = random.Random(seed)
    phases = 2 + seed % 2
    total = sum(len(relation) for relation in relations.values())
    boundaries = [max(1, total // phases)] * (phases - 1) + [None]
    trees = [random_tree(query, rng) for _ in range(phases)]
    return query, register_phases(query, relations, trees, boundaries, seed % 5 == 0)


def stitch_both(query, registry, canonical, num_phases, partial=False):
    """Run executor and oracle over one registry; return what each produced —
    (report fields, counters, ordered answers or group-by results) — and the
    oracle's tally of paths."""

    def fresh():
        metrics = ExecutionMetrics()
        if query.aggregation is None:
            return metrics, []
        return metrics, GroupAccumulator(
            canonical, query.aggregation.group_attributes,
            query.aggregation.aggregates, input_is_partial=partial, metrics=metrics,
        )

    def produced(report, metrics, output):
        if isinstance(output, list):
            return report, metrics, output
        return report, metrics, (output.results(), output.tuples_consumed)

    metrics, output = fresh()
    report = StitchUpExecutor(
        query, registry, num_phases, canonical, output, metrics=metrics
    ).run().as_dict()
    executor = produced(report, metrics, output)

    metrics, output = fresh()
    sink = output.append if isinstance(output, list) else output.accumulate
    report, paths = oracle_stitchup(query, registry, num_phases, canonical, sink, metrics)
    return executor, produced(report, metrics, output), paths


#: seeds of ``generate_workload`` with at least two relations
CONTRACT_SEEDS = [
    seed for seed in range(40) if len(generate_workload(seed).query.relations) >= 2
]


class TestStitchUpContract:
    """Ordered sink sequence, all six counters and every report field equal
    the tuple-at-a-time oracle's."""

    def test_enough_workloads(self):
        assert len(CONTRACT_SEEDS) >= 20

    @pytest.mark.parametrize("seed", CONTRACT_SEEDS)
    def test_matches_oracle(self, seed):
        query, (registry, canonical, num_phases) = stitch_case(seed)
        spj = SPJAQuery(query.name, query.relations, query.join_predicates, query.selections)
        for variant in [spj] + [query] * (query.aggregation is not None):
            executor, oracle, _paths = stitch_both(variant, registry, canonical, num_phases)
            assert executor[0] == oracle[0]  # every StitchUpReport.as_dict() field
            assert executor[1] == oracle[1]  # every counter
            assert executor[2] == oracle[2]  # answers, in sink order / group order

    def test_population_takes_every_path(self):
        """The sweep is only evidence if it reaches the paths the contract
        names; count them over the whole population."""
        paths, reports, aggregated, floats = Counter(), Counter(), 0, 0
        for seed in CONTRACT_SEEDS:
            query, (registry, canonical, num_phases) = stitch_case(seed)
            _executor, oracle, case_paths = stitch_both(query, registry, canonical, num_phases)
            paths.update({name: 1 for name, count in case_paths.items() if count})
            reports.update({name: 1 for name, count in oracle[0].items() if count})
            if query.aggregation is not None and oracle[0]["output_count"]:
                aggregated += 1
                floats += any(a.function == "avg" for a in query.aggregation.aggregates)
        assert paths["residual_candidates"] >= 2 and paths["residual_rejected"] >= 2
        assert paths["rekey_built"] >= 5 and paths["rekey_hit"] >= 3
        assert paths["rekey_sorted_run"] >= 1
        assert paths["layout_permuted"] >= 5
        assert reports["combinations_skipped_empty"] >= 3
        assert reports["discarded_tuples"] >= 3
        assert aggregated >= 5 and floats >= 3

    def test_rekey_is_charged_once_and_reused(self):
        """Three phases of one left-deep tree hash ``s`` on ``s_rk``; ``t`` is
        the smallest partition, so mixed combinations start there and probe
        ``s`` on ``sk``."""
        query, rng = three_way_query(), random.Random(4)
        sources = {
            "r": Relation("r", Schema.from_names(["rk", "rv"], "r"),
                          [(i, f"r{i}") for i in range(80)]),
            "s": Relation("s", Schema.from_names(["sk", "s_rk"], "s"),
                          [(i, rng.randrange(80)) for i in range(60)]),
            "t": Relation("t", Schema.from_names(["tk", "t_sk"], "t"),
                          [(i, rng.randrange(60)) for i in range(15)]),
        }
        tree = JoinTree.left_deep(["r", "s", "t"])
        registry, canonical, num_phases = register_phases(
            query, sources, [tree] * 3, [50, 50, None]
        )
        executor, oracle, paths = stitch_both(query, registry, canonical, num_phases)
        assert paths["rekey_built"] and paths["rekey_hit"]
        assert executor[1].hash_inserts == oracle[1].hash_inserts > 0
        assert executor == oracle

    def test_fallback_sink_when_fold_cannot_specialise(self, monkeypatch):
        """A group-by over partial aggregates (which it finds under the
        aggregate's alias) has no generated fold: rows go through
        ``adapt_many`` → ``accumulate_batch``, in the same order."""
        adapted = []
        adapt_many = TupleAdapter.adapt_many
        monkeypatch.setattr(
            TupleAdapter, "adapt_many",
            lambda self, rows: adapted.append(self.is_identity) or adapt_many(self, rows),
        )
        query, (registry, canonical, num_phases) = stitch_case(3)
        assert query.aggregation.aggregates[0].function == "avg"
        partials = SPJAQuery(
            query.name, query.relations, query.join_predicates, query.selections,
            AggregateSpec(("r0_cat",), (
                Aggregate("sum", "r0_val", "r0_val"), Aggregate("min", "r1_val", "r1_val"),
            )),
        )
        executor, oracle, _paths = stitch_both(
            partials, registry, canonical, num_phases, partial=True
        )
        assert executor == oracle and executor[0]["output_count"]
        assert False in adapted  # a non-identity layout took the fallback

    def test_disconnected_combination_is_rejected(self):
        query, sources = three_way_query(), make_sources()
        tree = JoinTree.left_deep(["r", "s", "t"])
        registry, canonical, num_phases = register_phases(
            query, sources, [tree, tree], [150, None]
        )
        # SPJAQuery rejects a disconnected join graph itself; lose the s–t
        # predicate behind its back.
        object.__setattr__(query, "join_predicates", query.join_predicates[:1])
        with pytest.raises(QueryError, match=r"combination \[.*\('t', \d\).*no join predicate"):
            StitchUpExecutor(query, registry, num_phases, canonical, []).run()


def test_is_identity_is_computed_once(monkeypatch):
    lengths = []
    monkeypatch.setattr(
        Schema, "__len__", lambda self: lengths.append(1) or len(self.attributes)
    )
    layout = Schema.from_names(["a", "b", "c"])
    same = TupleAdapter(layout, Schema.from_names(["a", "b", "c"]))
    permuted = TupleAdapter(layout, Schema.from_names(["b", "a", "c"]))
    prefix = TupleAdapter(layout, Schema.from_names(["a", "b"]))
    built = len(lengths)
    for _ in range(100):
        assert same.is_identity and not permuted.is_identity and not prefix.is_identity
    assert same.adapt_many([(1, 2, 3)]) == [(1, 2, 3)]
    assert len(lengths) == built
