"""Tests for the stitch-up executor.

The central correctness property: running a query in multiple phases (each
phase joining only its own partitions) and then stitching up the cross-phase
combinations must produce exactly the same answers as a single-phase run.
"""

import ast
import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from helpers import assert_same_bag, reference_spja
from repro.core.stitchup import StitchUpExecutor, StitchUpReport, _Hop, _loop_source
from repro.engine import compiled
from repro.engine.cost import CostModel, ExecutionMetrics, SimulatedClock
from repro.engine.operators.aggregate import GroupAccumulator
from repro.engine.pipelined import PipelinedPlan, SourceCursor
from repro.engine.state.hash_table import HashTableState
from repro.engine.state.registry import StateRegistry, expression_signature
from repro.engine.state.sorted_run import SortedRunState
from repro.optimizer.ordering import JoinStrategy
from repro.optimizer.plans import JoinTree
from repro.relational.algebra import AggregateSpec, QueryError, SPJAQuery
from repro.relational.expressions import Aggregate, JoinPredicate
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.tuples import TupleAdapter
from workload_generator import generate_workload


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
        plan = PipelinedPlan(query, tree, cursors, lambda rows: None, phase_id=phase_id)
        if canonical_schema is None:
            canonical_schema = plan.output_schema
        adapter = TupleAdapter(plan.output_schema, canonical_schema)
        plan.output.sink_batch = (
            collected.extend
            if adapter.is_identity
            else (lambda rows, a=adapter: collected.extend(a.adapt_many(rows)))
        )
        plan.run() if max_steps is None else plan.run_chunk(max_steps)
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
        plan0 = PipelinedPlan(query, tree, cursors, lambda rows: None, phase_id=0)
        plan0.run_chunk(150)
        plan0.register_state(registry)
        plan1 = PipelinedPlan(query, tree, cursors, lambda rows: None, phase_id=1)
        plan1.run()
        plan1.register_state(registry)
        stitchup = StitchUpExecutor(query, registry, 2, plan0.output_schema, [])
        report = stitchup.run()
        assert (
            report.reused_tuples + report.discarded_tuples
            == sum(entry.cardinality for entry in registry)
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
        # the rows ran dry after at least one hop: the later ones are never made
        paths["late_hop_unreached"] += bool(remaining) and covered != set(seed.relations)
        adapter = TupleAdapter(schema, output_schema)
        paths["layout_permuted"] += bool(rows) and not adapter.is_identity
        for row in rows:
            metrics.tuples_output += 1
            sink(adapter.adapt(row))
            report["output_count"] += 1
    work = metrics.work(cost_model) - start_work
    if work > 0:
        clock.charge(metrics.work(cost_model), start_work)
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
            query, tree, cursors, lambda rows: None, phase_id=phases,
            join_strategies=strategies,
        )
        canonical = canonical or plan.output_schema
        plan.run() if max_steps is None else plan.run_chunk(max_steps)
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
        return report, metrics, output.results()

    metrics, output = fresh()
    stitchup = StitchUpExecutor(query, registry, num_phases, canonical, output, metrics=metrics)
    executor = produced(stitchup.run().as_dict(), metrics, output)

    metrics, output = fresh()
    if isinstance(output, list):
        sink = output.append
    else:
        def sink(row):
            output.accumulate_batch([row])
    report, paths = oracle_stitchup(query, registry, num_phases, canonical, sink, metrics)
    for source in route_sources(stitchup):
        paths["route_folded" if folds_inline(source) else "route_materialised"] += 1
    return executor, produced(report, metrics, output), paths


def route_sources(stitchup):
    """Generated text of every route ``stitchup`` built, in combination order."""
    return [route.loop.__compiled_source__ for route in stitchup._routes.values()]


def folds_inline(source):
    """Does this route fold into the group-by in place (else it builds each
    output tuple once and hands the combination's list over)?"""
    return "_groups[key]" in source and "_deliver" not in source


#: seeds of ``generate_workload`` with at least two relations
CONTRACT_SEEDS = [
    seed for seed in range(40) if len(generate_workload(seed).query.relations) >= 2
]


#: the case the text-stability tests generate routes for: three phases, five
#: relations, an avg/sum group-by
FIXED_CASE = 35


def case_route_sources(seed):
    """Every route text of ``stitch_case(seed)``: its SPJ variant's
    (materialise-once bodies), then the aggregating query's (inlined folds)."""
    query, (registry, canonical, num_phases) = stitch_case(seed)
    texts = []
    for aggregation in (None, query.aggregation):
        output = [] if aggregation is None else GroupAccumulator(
            canonical, aggregation.group_attributes, aggregation.aggregates
        )
        variant = SPJAQuery(
            query.name, query.relations, query.join_predicates, query.selections, aggregation
        )
        stitchup = StitchUpExecutor(variant, registry, num_phases, canonical, output)
        stitchup.run()
        texts.extend(route_sources(stitchup))
    return texts


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
        paths, reports, routes, aggregated, floats = Counter(), Counter(), Counter(), 0, 0
        for seed in CONTRACT_SEEDS:
            query, (registry, canonical, num_phases) = stitch_case(seed)
            executor, oracle, case_paths = stitch_both(query, registry, canonical, num_phases)
            paths.update({name: 1 for name, count in case_paths.items() if count})
            reports.update({name: 1 for name, count in oracle[0].items() if count})
            routes.update({
                name: count for name, count in case_paths.items() if name.startswith("route_")
            })
            if case_paths["late_hop_unreached"]:
                # the hop nobody reached left its partition alone
                assert executor[0]["discarded_tuples"] == oracle[0]["discarded_tuples"]
                assert executor[1].hash_inserts == oracle[1].hash_inserts
            if query.aggregation is not None and oracle[0]["output_count"]:
                aggregated += 1
                floats += any(a.function == "avg" for a in query.aggregation.aggregates)
        assert paths["residual_candidates"] >= 2 and paths["residual_rejected"] >= 2
        assert paths["rekey_built"] >= 5 and paths["rekey_hit"] >= 3
        assert paths["rekey_sorted_run"] >= 1
        assert paths["layout_permuted"] >= 5
        assert paths["late_hop_unreached"] >= 2
        assert routes["route_folded"] >= 5 and routes["route_materialised"] >= 5
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

    def test_fallback_sink_when_fold_cannot_specialise(self):
        """A group-by over partial aggregates (which it finds under the
        aggregate's alias) has no inlined fold: over a layout that is not the
        canonical one, each output tuple is built once, already permuted, and
        the group-by gets the oracle's rows in the oracle's order."""
        query, (registry, canonical, num_phases) = stitch_case(3)
        assert query.aggregation.aggregates[0].function == "avg"
        partials = SPJAQuery(
            query.name, query.relations, query.join_predicates, query.selections,
            AggregateSpec(("r0_cat",), (
                Aggregate("sum", "r0_val", "r0_val"), Aggregate("min", "r1_val", "r1_val"),
            )),
        )
        executor, oracle, paths = stitch_both(
            partials, registry, canonical, num_phases, partial=True
        )
        assert paths["layout_permuted"] and executor[0]["output_count"]
        assert paths["route_materialised"] and not paths["route_folded"]
        assert executor[2] == oracle[2]  # float sums folded in the oracle's order
        assert executor[1] == oracle[1] and executor[0] == oracle[0]
        # every output tuple folded once, into both aggregate terms
        assert executor[1].aggregate_updates == 2 * executor[0]["output_count"]

    def test_no_working_set_between_the_seed_and_the_group_by(self):
        """Q10A's shape — a small seed fanning out through two hops into a
        group-by: nothing as long as a joined working set ever exists.  The
        group-by is handed no list at all, and its routes build none."""
        handed = []

        class Watched(GroupAccumulator):
            def accumulate_batch(self, rows):
                handed.append(len(rows))
                super().accumulate_batch(rows)

            def make_batch_fold(self, position_map=None):
                fold = super().make_batch_fold(position_map)
                return lambda rows: handed.append(len(rows)) or fold(rows)

        rng = random.Random(10)
        sources = {
            "r": Relation("r", Schema.from_names(["rk", "rv"], "r"),
                          [(i, i % 5) for i in range(20)]),
            "s": Relation("s", Schema.from_names(["sk", "s_rk"], "s"),
                          [(i, rng.randrange(20)) for i in range(120)]),
            "t": Relation("t", Schema.from_names(["tk", "t_sk"], "t"),
                          [(i, rng.randrange(120)) for i in range(900)]),
        }
        query = SPJAQuery(
            "rst", ("r", "s", "t"), three_way_query().join_predicates,
            aggregation=AggregateSpec(
                ("rv",), (Aggregate("sum", "tk", "total"), Aggregate("count", None, "n")),
            ),
        )
        tree = JoinTree.left_deep(["r", "s", "t"])
        registry, canonical, num_phases = register_phases(
            query, sources, [tree] * 2, [350, None]
        )
        seeds = []

        class Watching(StitchUpExecutor):
            def _best_seed(self, *args):
                seeds.append(super()._best_seed(*args))
                return seeds[-1]

        output = Watched(
            canonical, query.aggregation.group_attributes, query.aggregation.aggregates
        )
        stitchup = Watching(query, registry, num_phases, canonical, output)
        report = stitchup.run()
        # some combination produced several times the rows of the largest seed:
        # a working set would have had to hold them
        largest_seed = max(seed.cardinality for seed in seeds)
        assert report.output_count > 4 * report.combinations_evaluated * largest_seed > 0
        # every output tuple folded once, into both aggregate terms
        assert output.metrics.aggregate_updates == 2 * report.output_count
        assert handed == []
        for source in route_sources(stitchup):
            assert folds_inline(source)
            nodes = list(ast.walk(ast.parse(source)))
            # the only list it makes is a new group's state, one slot per aggregate
            assert not [n for n in nodes if isinstance(n, (ast.ListComp, ast.GeneratorExp))]
            assert [len(n.elts) for n in nodes if isinstance(n, ast.List)] == [2]
            assert not [
                n for n in nodes if isinstance(n, ast.Attribute) and n.attr in ("append", "extend")
            ]
            # nor a joined row: no ``+`` of two row variables
            assert not [
                n for n in nodes
                if isinstance(n, ast.BinOp)
                and isinstance(n.left, ast.Name) and isinstance(n.right, ast.Name)
            ]

    def test_generated_text_is_a_function_of_the_route_shape(self):
        """Route construction walks dicts and frozensets, and both the code
        cache and worker-side rehydration key on the text: it must not depend
        on the interpreter's hash seed."""
        script = (
            "import json\n"
            "from test_stitchup import case_route_sources\n"
            f"print(json.dumps(case_route_sources({FIXED_CASE})))\n"
        )
        tests = Path(__file__).parent
        texts = []
        for hash_seed in ("1", "2"):
            env = dict(
                os.environ, PYTHONHASHSEED=hash_seed,
                PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]),
            )
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True,
                timeout=120,
            )
            assert done.returncode == 0, done.stderr
            texts.append(json.loads(done.stdout))
        assert texts[0] == texts[1] == case_route_sources(FIXED_CASE)
        assert len(texts[0]) >= 4 and len(set(texts[0])) >= 3

    def test_equal_route_shapes_share_one_code_object(self):
        query, (registry, canonical, num_phases) = stitch_case(FIXED_CASE)

        def routes():
            output = GroupAccumulator(
                canonical, query.aggregation.group_attributes, query.aggregation.aggregates
            )
            stitchup = StitchUpExecutor(query, registry, num_phases, canonical, output)
            stitchup.run()
            return list(stitchup._routes.values())

        first = routes()
        cached = len(compiled._code_cache)
        second = routes()
        assert len(compiled._code_cache) == cached  # nothing new was compiled
        assert first and len(first) == len(second)
        for a, b in zip(first, second):
            assert a.loop is not b.loop and a.loop.__code__ is b.loop.__code__

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


def chain_registry(length, num_phases=2):
    """A ``length``-relation chain query ``r0 ⋈ r1 ⋈ …`` and a registry
    holding a one-row partition of every relation in every phase."""
    names = [f"r{i}" for i in range(length)]
    query = SPJAQuery(
        name="chain",
        relations=tuple(names),
        join_predicates=tuple(
            JoinPredicate(f"r{i}", f"b{i}", f"r{i + 1}", f"a{i + 1}") for i in range(length - 1)
        ),
    )
    registry, canonical = StateRegistry(), Schema(())
    for i, name in enumerate(names):
        schema = Schema.from_names([f"a{i}", f"b{i}"], name)
        canonical = canonical.concat(schema)
        for phase in range(num_phases):
            table = HashTableState(schema, f"a{i}")
            table.insert((0, 0))
            registry.register(expression_signature([(name, phase)]), table, phase)
    return query, registry, canonical


class TestRouteNestingLimit:
    def test_too_long_a_route_is_rejected_before_any_text_is_compiled(self):
        query, registry, canonical = chain_registry(22)
        collected = []
        with pytest.raises(QueryError, match=r"'chain'.* 21 hops .* at most 20 nested"):
            StitchUpExecutor(query, registry, 2, canonical, collected).run()
        assert collected == []

    def test_the_longest_accepted_route_compiles(self):
        """19 hops inside the seed's loop are 20 nested blocks, the most the
        compiler takes; residual tests and the fold's ``if`` do not count."""
        hops = [
            _Hop(f"r{k}", f"a{k}", f"r0[{k}]", (("r0[0]", f"m{k}[0]"),) * (k % 2))
            for k in range(1, 20)
        ]
        body = ("if rows is None:", "    pass")
        compile(_loop_source(hops, "", (), body, ()), "<route>", "exec")

    def test_a_six_relation_chain_is_stitched(self):
        query, registry, canonical = chain_registry(6)
        collected = []
        report = StitchUpExecutor(query, registry, 2, canonical, collected).run()
        assert report.combinations_evaluated == 2**6 - 2
        assert collected == [(0,) * 12] * report.output_count == [(0,) * 12] * (2**6 - 2)


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
