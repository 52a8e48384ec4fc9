"""Unit tests for the compiled fused-pipeline engine and its satellites.

The differential table (``test_differential.py``) proves
end-to-end bit-identity; these tests pin the individual contracts — the
deferred-charging API, predicate source emission, the specialized
aggregation fold, the tuple-adapter fast path, arrival-schedule priming
memoization, recompilation per phase and the engine-mode validation
surface — so a regression is reported at the component that broke.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace

import pytest

from helpers import consumed_counts, node_outputs, tuple_at_a_time
from test_stitchup import FIXED_CASE, case_route_sources, folds_inline
from workload_generator import generate_workload
from repro.engine import compiled
from repro.engine.compiled import bind_generated, compile_plan_chains

from repro.engine.compiled import ENGINE_MODES, _Env, predicate_source, validate_engine_mode
from repro.engine.cost import CostModel, ExecutionMetrics
from repro.engine.operators.aggregate import GroupAccumulator
from repro.engine.pipelined import PipelinedExecutor, PipelinedPlan, SourceCursor
from repro.core.corrective import CorrectiveQueryProcessor
from repro.experiments.common import build_dataset, paper_queries
from repro.experiments.corrective import worst_left_deep_tree
from repro.io.backends import compile_csv_decoder
from repro.optimizer.enumerator import Optimizer
from repro.optimizer.ordering import JoinStrategy
from repro.optimizer.plans import JoinTree, PlanError
from repro.relational.algebra import SPJAQuery
from repro.relational.expressions import (
    Aggregate,
    AttributeRef,
    BinaryPredicate,
    Comparison,
    Conjunction,
    Constant,
    Disjunction,
    JoinPredicate,
    Negation,
    Predicate,
    TruePredicate,
)
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.tuples import TupleAdapter
from repro.sources.network import (
    BurstyNetworkModel,
    ConstantRateNetworkModel,
    NetworkModel,
)
from repro.sources.remote import RemoteSource
from repro.workloads.tpch_schema import LINEITEM_SCHEMA


class TestChargeBatch:
    def test_batch_charge_equals_per_tuple_charges(self):
        per_tuple = ExecutionMetrics()
        for _ in range(17):
            per_tuple.tuples_read += 1
            per_tuple.hash_inserts += 1
            per_tuple.hash_probes += 1
        for _ in range(5):
            per_tuple.predicate_evals += 1
        for _ in range(3):
            per_tuple.tuple_copies += 1
            per_tuple.tuples_output += 1
        batched = ExecutionMetrics()
        batched.charge_batch(
            tuples_read=17,
            hash_inserts=17,
            hash_probes=17,
            predicate_evals=5,
            tuple_copies=3,
            tuples_output=3,
        )
        assert batched.as_dict() == per_tuple.as_dict()
        assert batched.work(CostModel()) == per_tuple.work(CostModel())

    def test_all_counters_reachable(self):
        metrics = ExecutionMetrics()
        metrics.charge_batch(
            tuples_read=1,
            hash_inserts=2,
            hash_probes=3,
            comparisons=4,
            predicate_evals=5,
            tuple_copies=6,
            aggregate_updates=7,
            tuples_output=8,
            batches_read=9,
        )
        assert metrics.as_dict() == {
            "tuples_read": 1,
            "hash_inserts": 2,
            "hash_probes": 3,
            "comparisons": 4,
            "predicate_evals": 5,
            "tuple_copies": 6,
            "aggregate_updates": 7,
            "tuples_output": 8,
            "batches_read": 9,
        }


class TestPredicateSource:
    SCHEMA = Schema.from_names(["a", "b", "c"])

    def _check(self, predicate, rows):
        env = _Env()
        src = predicate_source(predicate, self.SCHEMA, env)
        compiled_fn = predicate.compile(self.SCHEMA)
        namespace = dict(env.bindings)
        generated = eval(  # noqa: S307 - test mirror of the engine's exec
            f"lambda row: bool({src})", namespace
        )
        for row in rows:
            assert generated(row) == bool(compiled_fn(row)), (
                f"{src} disagrees with interpreter on {row}"
            )

    def test_comparisons_match_interpreter(self):
        rng = random.Random(0)
        rows = [tuple(rng.randrange(6) for _ in range(3)) for _ in range(50)]
        for op in ("=", "==", "!=", "<>", "<", "<=", ">", ">="):
            self._check(Comparison(AttributeRef("a"), op, Constant(3)), rows)
            self._check(Comparison(AttributeRef("a"), op, AttributeRef("b")), rows)

    def test_boolean_connectives_match_interpreter(self):
        rng = random.Random(1)
        rows = [tuple(rng.randrange(4) for _ in range(3)) for _ in range(60)]
        a_eq = Comparison(AttributeRef("a"), "=", Constant(1))
        b_lt = Comparison(AttributeRef("b"), "<", Constant(2))
        self._check(Conjunction((a_eq, b_lt)), rows)
        self._check(Disjunction((a_eq, b_lt)), rows)
        self._check(Negation(a_eq), rows)
        self._check(Conjunction((Disjunction((a_eq, b_lt)), Negation(b_lt))), rows)
        self._check(TruePredicate(), rows)
        self._check(Conjunction(()), rows)
        self._check(Disjunction(()), rows)

    def test_binary_predicate_binds_callable(self):
        rows = [(1, 2, 0), (2, 1, 0), (3, 3, 0)]
        self._check(
            BinaryPredicate("a", "b", lambda x, y: x > y, label="gt"), rows
        )

    def test_constants_are_bound_not_inlined(self):
        """Mutable/odd constants must round-trip through env bindings."""
        marker = object()
        env = _Env()
        src = predicate_source(
            Comparison(AttributeRef("a"), "=", Constant(marker)),
            self.SCHEMA,
            env,
        )
        namespace = dict(env.bindings)
        fn = eval(f"lambda row: {src}", namespace)
        assert fn((marker, 0, 0)) is True
        assert fn((object(), 0, 0)) is False


class TestBatchFold:
    SCHEMA = Schema.from_names(["g", "h", "v", "w"])

    def _rows(self, n=200, seed=3):
        rng = random.Random(seed)
        return [
            (rng.randrange(5), rng.randrange(3), rng.randrange(100), rng.random())
            for _ in range(n)
        ]

    @pytest.mark.parametrize(
        "aggregates",
        [
            [Aggregate("sum", "v", "s")],
            [Aggregate("count", None, "n")],
            [Aggregate("min", "v", "lo"), Aggregate("max", "v", "hi")],
            [Aggregate("avg", "w", "m")],
            [
                Aggregate("sum", "w", "s"),
                Aggregate("count", None, "n"),
                Aggregate("min", "v", "lo"),
            ],
        ],
    )
    @pytest.mark.parametrize("group", [["g"], ["g", "h"]])
    def test_fold_matches_accumulate_batch(self, aggregates, group):
        rows = self._rows()
        reference = GroupAccumulator(self.SCHEMA, group, aggregates)
        reference.accumulate_batch(rows)
        folded = GroupAccumulator(self.SCHEMA, group, aggregates)
        fold = folded.make_batch_fold()
        assert fold is not None
        for batch in (rows[:1], [], rows[1:]):
            fold(batch)
        assert folded._groups == reference._groups
        assert sorted(map(repr, folded.results())) == sorted(
            map(repr, reference.results())
        )
        assert (
            folded.metrics.aggregate_updates == reference.metrics.aggregate_updates
        )

    def test_fold_float_sum_order_is_identical(self):
        """Float folds must accumulate in row order, like the interpreter."""
        rows = self._rows(500, seed=9)
        aggregates = [Aggregate("sum", "w", "s")]
        reference = GroupAccumulator(self.SCHEMA, ["g"], aggregates)
        reference.accumulate_batch(rows)
        folded = GroupAccumulator(self.SCHEMA, ["g"], aggregates)
        folded.make_batch_fold()(rows)
        # Exact equality: same fold order, bit-identical float results.
        assert folded._groups == reference._groups

    def test_fold_with_position_map_composes_adapter(self):
        rows = self._rows()
        source = Schema.from_names(["w", "v", "h", "g"])  # permuted layout
        adapter = TupleAdapter(source, self.SCHEMA)
        aggregates = [Aggregate("sum", "v", "s"), Aggregate("count", None, "n")]
        reference = GroupAccumulator(self.SCHEMA, ["g"], aggregates)
        reference.accumulate_batch(adapter.adapt_many(rows))
        folded = GroupAccumulator(self.SCHEMA, ["g"], aggregates)
        fold = folded.make_batch_fold(position_map=adapter._mapping)
        assert fold is not None
        fold(rows)  # un-adapted rows; permutation composed into the fold
        assert folded._groups == reference._groups

    def test_fold_refuses_partial_input(self):
        partial_schema = Schema.from_names(["g", "s"])
        accumulator = GroupAccumulator(
            partial_schema, ["g"], [Aggregate("sum", "v", "s")], input_is_partial=True
        )
        assert accumulator.make_batch_fold() is None

    def test_fold_refuses_unmapped_attributes(self):
        accumulator = GroupAccumulator(
            self.SCHEMA, ["g"], [Aggregate("sum", "v", "s")]
        )
        # position_map sending the value column nowhere (missing attribute).
        assert accumulator.make_batch_fold(position_map=(0, 1, -1, 3)) is None


class TestTupleAdapterFastPath:
    def test_itemgetter_path_matches_generic_loop(self):
        """Satellite: the fast path must equal the per-tuple slow path."""
        rng = random.Random(5)
        for arity in (1, 2, 3, 6):
            names = [f"a{i}" for i in range(arity)]
            source = Schema.from_names(names)
            for _ in range(10):
                order = names[:]
                rng.shuffle(order)
                keep = order[: rng.randint(1, arity)]
                target = Schema.from_names(keep)
                adapter = TupleAdapter(source, target)
                assert adapter._getter is not None  # fast path engaged
                for _ in range(5):
                    row = tuple(rng.randrange(100) for _ in range(arity))
                    # The generic (slow) gather, inlined as the oracle:
                    expected = tuple(
                        row[i] if i >= 0 else adapter.fill_value
                        for i in adapter._mapping
                    )
                    assert adapter.adapt(row) == expected
                    assert adapter(row) == expected  # __call__ alias
                assert adapter.adapt_many([row]) == [expected]

    def test_zero_and_single_attribute_targets(self):
        source = Schema.from_names(["a", "b"])
        single = TupleAdapter(source, Schema.from_names(["b"]))
        assert single.adapt((1, 2)) == (2,)
        empty = TupleAdapter(source, Schema(()))
        assert empty.adapt((1, 2)) == ()

    def test_missing_attributes_take_slow_path(self):
        source = Schema.from_names(["a"])
        target = Schema.from_names(["a", "pad"])
        adapter = TupleAdapter(source, target, fill_value="x")
        assert adapter._getter is None
        assert adapter.adapt((1,)) == (1, "x")
        assert adapter.adapt_many([(1,), (2,)]) == [(1, "x"), (2, "x")]


class _CountingNetwork(NetworkModel):
    """Wraps a network model, counting arrival_times materializations."""

    def __init__(self, inner: NetworkModel) -> None:
        self.inner = inner
        self.calls = 0

    def arrival_times(self, tuple_count: int):
        self.calls += 1
        return self.inner.arrival_times(tuple_count)


class TestArrivalSchedulePriming:
    def _relation(self, n=40):
        schema = Schema.from_names(["k", "v"], relation="r")
        return Relation("r", schema, [(i, i * 2) for i in range(n)])

    def test_priming_happens_at_most_once_per_source_network_pair(self):
        """Satellite regression: every access path shares one materialization."""
        network = _CountingNetwork(BurstyNetworkModel(seed=11))
        source = RemoteSource(self._relation(), network)
        _ = source.arrival_schedule
        assert network.calls == 1
        # Every subsequent consumer — column streams, resumed streams, tuple
        # streams, cursors, repeated opens — reuses the cached schedule.
        list(source.open_stream_columns(8))
        list(source.open_stream_columns(8, offset=5, start_at=1.0))
        list(source.open_stream())
        for _ in range(3):
            cursor = SourceCursor("r", source, prefetch=4)
            while cursor.read() is not None:
                pass
        assert network.calls == 1
        assert source.open_count == 6

    def test_unprimed_source_materializes_lazily_once(self):
        network = _CountingNetwork(BurstyNetworkModel(seed=12))
        source = RemoteSource(self._relation(), network)
        assert network.calls == 0
        cursor = SourceCursor("r", source, prefetch=4)
        cursor.read_batch(1000)
        assert network.calls == 1
        SourceCursor("r", source, prefetch=4).read_batch(1000)
        assert network.calls == 1

    def test_column_chunks_match_pair_chunks(self):
        source = RemoteSource(self._relation(), BurstyNetworkModel(seed=13))
        pairs = list(zip(source.relation.rows, source.arrival_schedule))
        flattened = []
        for rows, arrivals in source.open_stream_columns(7):
            if arrivals is None:
                arrivals = [0.0] * len(rows)
            flattened.extend(zip(rows, arrivals))
        assert flattened == pairs
        assert list(source.open_stream()) == pairs


@pytest.fixture(scope="module")
def paper_dataset():
    """Uniform TPC-H at SF 0.002, the shape a solo benchmark round runs."""
    return build_dataset("uniform", 0.002, 0.0, 2004)


def _tiny_workload():
    r = Relation(
        "r", Schema.from_names(["r_pk", "r_v"], relation="r"),
        [(i % 4, i) for i in range(24)],
    )
    s = Relation(
        "s", Schema.from_names(["s_fk", "s_v"], relation="s"),
        [(i % 4, i * 10) for i in range(16)],
    )
    query = SPJAQuery(
        name="tiny",
        relations=("r", "s"),
        join_predicates=(JoinPredicate("s", "s_fk", "r", "r_pk"),),
        selections={},
        aggregation=None,
    )
    return query, {"r": r, "s": s}


class TestEngineModeSurface:
    @pytest.mark.parametrize(
        "mode, batch_size, staged, resolved",
        [
            (None, None, False, "compiled"),
            (None, 64, False, "compiled"),
            (None, 64, True, "interpreted"),
            ("interpreted", None, False, "interpreted"),
            ("interpreted", 1, True, "interpreted"),
            ("compiled", 8, False, "compiled"),
        ],
    )
    def test_the_mode_a_plan_runs(self, mode, batch_size, staged, resolved):
        assert validate_engine_mode(mode, batch_size, staged) == resolved

    @pytest.mark.parametrize(
        "mode, batch_size, message",
        [
            (None, 0, "batch_size must be positive"),
            ("compiled", -1, "batch_size must be positive"),
            ("jit", 8, "unknown engine_mode 'jit'"),
        ],
    )
    def test_invalid_pairs_are_plan_errors(self, mode, batch_size, message):
        with pytest.raises(PlanError, match=message):
            validate_engine_mode(mode, batch_size)

    def test_unknown_mode_rejected(self):
        query, sources = _tiny_workload()
        with pytest.raises(PlanError, match="engine_mode"):
            PipelinedExecutor(sources, batch_size=8, engine_mode="jit").execute(
                query, JoinTree.left_deep(["r", "s"])
            )

    @pytest.mark.parametrize("start", ["optimizer", "worst"])
    @pytest.mark.parametrize("name", ["Q3A", "Q10A", "Q5"])
    def test_compiled_without_a_batch_size_equals_the_interpreted_kernel(
        self, paper_dataset, name, start
    ):
        """No ``batch_size``: both kernels step by the default prefetch, so
        each query gives the same answers, every counter (``batches_read``
        too) and, to the last bit, the same simulated seconds — from the
        optimizer's own plan and from ``worst_left_deep_tree``, the two
        starts of a solo benchmark round and its reference answers."""
        (query,) = paper_queries((name,)).values()
        tree = worst_left_deep_tree(query, paper_dataset) if start == "worst" else None
        interpreted, compiled_run = [
            CorrectiveQueryProcessor(
                paper_dataset.catalog_no_statistics.copy(),
                paper_dataset.sources,
                polling_interval_seconds=0.25,
                engine_mode=mode,
            ).execute(query, initial_tree=tree)
            for mode in ("interpreted", "compiled")
        ]
        assert sorted(compiled_run.rows) == sorted(interpreted.rows)
        assert compiled_run.metrics.as_dict() == interpreted.metrics.as_dict()
        assert [p.tuples_read for p in compiled_run.phases] == [
            p.tuples_read for p in interpreted.phases
        ]
        assert repr(compiled_run.simulated_seconds) == repr(
            interpreted.simulated_seconds
        )

    def test_corrective_validates_eagerly(self):
        query, sources = _tiny_workload()
        from repro.relational.catalog import Catalog

        catalog = Catalog()
        for name, relation in sources.items():
            catalog.register(name, relation.schema)
        with pytest.raises(ValueError, match="batch_size"):
            CorrectiveQueryProcessor(catalog, sources, batch_size=0)
        with pytest.raises(ValueError, match="engine_mode"):
            CorrectiveQueryProcessor(catalog, sources, engine_mode="fused")

    def test_server_validates_eagerly(self):
        from repro.relational.catalog import Catalog
        from repro.serving.sharded import ShardedQueryServer

        query, sources = _tiny_workload()
        catalog = Catalog()
        for name, relation in sources.items():
            catalog.register(name, relation.schema)
        with pytest.raises(ValueError, match="batch_size"):
            ShardedQueryServer(catalog, sources, batch_size=0)

    def test_modes_constant(self):
        assert ENGINE_MODES == ("interpreted", "compiled")

    def test_compiled_executor_matches_interpreted(self):
        """Answers, every work counter and the clock, to the last bit — on the
        tiny join and on the fig2 smoke workload (Q3A/Q10A/Q5 from the
        optimizer's no-statistics plan) at batch 1, 64 and 1024."""
        query, sources = _tiny_workload()
        cases = [("tiny", query, sources, JoinTree.left_deep(["r", "s"]), (8,))]
        dataset = build_dataset("uniform", 0.003, 0.0, 2004)
        optimizer = Optimizer(dataset.catalog_no_statistics, CostModel())
        for name, query in paper_queries(("Q3A", "Q10A", "Q5")).items():
            tree = optimizer.optimize_tree(query)
            cases.append((name, query, dataset.sources, tree, (1, 64, 1024)))
        for name, query, sources, tree, batch_sizes in cases:
            for batch_size in batch_sizes:
                case = f"{name} at batch {batch_size}"
                interpreted_rows, interpreted_plan = PipelinedExecutor(
                    sources, batch_size=batch_size, engine_mode="interpreted"
                ).execute(query, tree)
                compiled_rows, compiled_plan = PipelinedExecutor(
                    sources, batch_size=batch_size, engine_mode="compiled"
                ).execute(query, tree)
                assert sorted(compiled_rows) == sorted(interpreted_rows), case
                assert (
                    compiled_plan.metrics.as_dict() == interpreted_plan.metrics.as_dict()
                ), case
                assert compiled_plan.clock.now == interpreted_plan.clock.now, case

    @pytest.mark.parametrize(
        "priorities", [{}, {"r": 1}, {"s": 1}], ids=["plain", "r-demoted", "s-demoted"]
    )
    @pytest.mark.parametrize("r_rows", [5, 24], ids=["merge-residue", "append-residue"])
    def test_modes_agree_when_local_source_drains_behind_delayed(
        self, r_rows, priorities
    ):
        """Local ``r`` runs dry inside its water-filled quota while delayed
        ``s`` still has future arrivals (5 rows: in the first batch; 24: a
        few batches in).  A batch reads only what has arrived by the clock
        reading it is scheduled at, so none spans ready and future tuples,
        and after every batch the three modes agree to the last bit —
        clocks included, once each has charged its work."""
        query, sources = _tiny_workload()
        sources["r"] = Relation("r", sources["r"].schema, sources["r"].rows[:r_rows])
        sources["s"] = RemoteSource(sources["s"], ConstantRateNetworkModel(1000.0))
        tree = JoinTree.left_deep(["r", "s"])

        def build(batch_size, engine_mode="interpreted"):
            out = []
            plan = PipelinedPlan(
                query,
                tree,
                {name: SourceCursor(name, source) for name, source in sources.items()},
                out.extend,
                batch_size=batch_size,
                engine_mode=engine_mode,
            )
            plan.read_priorities = dict(priorities)
            return plan, out

        def observables(plan, out):
            counters = plan.metrics.as_dict()
            del counters["batches_read"]  # the oracle steps at its own cadence
            return (
                sorted(out),
                counters,
                consumed_counts(plan),
                {
                    name: (leaf.tuples_read, leaf.tuples_passed)
                    for name, leaf in plan.leaves.items()
                },
                node_outputs(plan),
            )

        (tuple_plan, tuple_out), (batched, batched_out), (compiled, compiled_out) = (
            build(None), build(8), build(8, "compiled")
        )
        # the clock reading at each schedule the batched plan cuts
        scheduled_at = []
        schedule, clock = batched._read_schedule, batched.clock

        def recorded_schedule(*args):
            scheduled_at.append(clock.now)
            return schedule(*args)

        batched._read_schedule = recorded_schedule
        while True:
            read = batched.step_batch()
            assert compiled.step_batch() == read
            if read == 0:
                break
            with tuple_at_a_time():
                assert tuple_plan.run_chunk(read) == read
            assert observables(compiled, compiled_out) == observables(batched, batched_out)
            assert observables(batched, batched_out) == observables(tuple_plan, tuple_out)
            assert compiled.metrics.batches_read == batched.metrics.batches_read
            assert compiled.clock.now == batched.clock.now
            # Nothing consumed arrives after the reading it was scheduled at.
            consumed_s = consumed_counts(batched)["s"]
            if consumed_s:
                assert sources["s"].arrival_schedule[consumed_s - 1] <= scheduled_at[-1]
            for plan in (tuple_plan, batched, compiled):
                plan.finish_phase()
            assert repr(batched.clock.now) == repr(tuple_plan.clock.now)
            assert repr(compiled.clock.now) == repr(tuple_plan.clock.now)
        with tuple_at_a_time():
            assert tuple_plan.run_chunk(1) == 0
        assert sorted(batched_out)


class TestRecompilation:
    def test_chains_are_compiled_lazily_per_plan(self):
        query, sources = _tiny_workload()
        tree = JoinTree.left_deep(["r", "s"])
        cursors = {
            name: SourceCursor(name, source) for name, source in sources.items()
        }
        plan = PipelinedPlan(
            query,
            tree,
            cursors,
            output_sink=lambda rows: None,
            batch_size=8,
            engine_mode="compiled",
        )
        assert plan._compiled_chains is None  # not yet compiled
        plan.run()
        assert set(plan._compiled_chains) == {"r", "s"}

    def test_each_phase_gets_fresh_chains(self):
        """A corrective phase switch rebuilds the plan ⇒ recompiles chains."""
        query, sources = _tiny_workload()
        tree = JoinTree.left_deep(["r", "s"])

        def build_and_run():
            cursors = {
                name: SourceCursor(name, source)
                for name, source in sources.items()
            }
            plan = PipelinedPlan(
                query,
                tree,
                cursors,
                output_sink=lambda rows: None,
                batch_size=8,
                engine_mode="compiled",
            )
            plan.run()
            return plan._compiled_chains

        first = build_and_run()
        second = build_and_run()
        # Fresh closures per plan (bound to that plan's states/metrics)...
        assert first["r"] is not second["r"]
        # ...but the generated source is cached and reused verbatim.
        assert (
            first["r"].__compiled_source__ == second["r"].__compiled_source__
        )

    def test_source_text_is_deterministic_for_identical_structure(self):
        from repro.engine.compiled import _code_cache, _code_for

        src = "def _probe_cache_fn():\n    return 1\n"
        code_a = _code_for(src, {})
        code_b = _code_for(src, {})
        assert code_a is code_b
        assert src in _code_cache


@dataclass(frozen=True)
class OpaquePredicate(Predicate):
    """A predicate ``predicate_source`` does not know: it binds the compiled
    closure and emits a ``_p<N>(row)`` call."""

    inner: Predicate

    def compile(self, schema):
        return self.inner.compile(schema)

    def attributes(self):
        return self.inner.attributes()

    def estimated_selectivity(self):
        return self.inner.estimated_selectivity()


class TestGeneratedNames:
    """``bind_generated`` compiles every generated source and refuses a name
    that is neither bound, nor the function it defines, nor in
    ``GENERATED_NAMES``."""

    @pytest.mark.parametrize("name", ["set", "time", "random", "__import__", "globals"])
    @pytest.mark.parametrize(
        "body", ["return {}", "return [row for row in {}(rows)]"], ids=["top", "nested"]
    )
    def test_an_unknown_name_is_refused(self, name, body):
        src = f"def _chain(rows, _sink=_sink):\n    _sink(rows)\n    {body.format(name)}\n"
        for _ in range(2):  # a refused source is not cached
            with pytest.raises(PlanError, match=re.escape(f"[{name!r}]")):
                bind_generated(src, {"_sink": print})
        assert src not in compiled._code_cache

    def test_a_name_is_admitted_by_binding_it(self, monkeypatch):
        monkeypatch.setattr(compiled, "_code_cache", {})
        src = "def _walk(rows, _emit=_emit):\n    for row in rows:\n        _emit(row)\n"
        with pytest.raises(PlanError, match=re.escape("['_emit']")):
            bind_generated(src, {})
        out: list = []
        walk = bind_generated(src, {"_emit": out.append})
        walk([3, 2, 1])
        assert (out, walk.__name__, walk.__compiled_source__) == ([3, 2, 1], "_walk", src)

    def test_an_admitted_source_is_compiled_and_checked_once(self, monkeypatch):
        monkeypatch.setattr(compiled, "_code_cache", {})
        walks = 0
        real_compile = compile

        def counting_compile(*args, **kwargs):
            nonlocal walks
            walks += 1
            return real_compile(*args, **kwargs)

        monkeypatch.setattr(compiled, "compile", counting_compile, raising=False)
        src = "def _chain(rows, _sink=_sink):\n    _sink(len(rows))\n"
        first, second = [], []
        bind_generated(src, {"_sink": first.append})([1, 2])
        bind_generated(src, {"_sink": second.append})([1, 2, 3])
        assert (first, second, walks) == ([2], [3], 1)
        assert list(compiled._code_cache) == [src]

    def test_every_generator_compiles_under_the_allow_list(self, monkeypatch):
        monkeypatch.setattr(compiled, "_code_cache", {})
        chains = []
        folds = 0
        for seed in range(6):
            workload = generate_workload(seed)
            query = workload.query
            tree = JoinTree.left_deep(query.relations)
            for opaque, merge in ((False, False), (True, False), (False, True)):
                variant = query
                if opaque:
                    variant = replace(query, selections={
                        name: OpaquePredicate(p) for name, p in query.selections.items()
                    })
                strategies = {
                    node.relations(): JoinStrategy("merge", 1) for node in tree.internal_nodes()
                } if merge else None
                cursors = {n: SourceCursor(n, r) for n, r in workload.relations.items()}
                plan = PipelinedPlan(
                    variant, tree, cursors, output_sink=lambda rows: None, batch_size=16,
                    join_strategies=strategies, engine_mode="compiled",
                )
                chains += [c.__compiled_source__ for c in compile_plan_chains(plan).values()]
            if query.aggregation is not None:
                fold = GroupAccumulator(
                    plan.output_schema,
                    query.aggregation.group_attributes,
                    query.aggregation.aggregates,
                ).make_batch_fold()
                folds += fold is not None
        routes = case_route_sources(FIXED_CASE)
        decoder = compile_csv_decoder(LINEITEM_SCHEMA).__compiled_source__
        assert any("_p0(row)" in src for src in chains)  # opaque predicate
        assert any(" == _c0)" in src for src in chains)  # inline comparison
        assert any("_m" in src for src in chains)  # merge stage
        assert any("_og" in src for src in chains)  # hash insert and probe
        assert folds and {folds_inline(src) for src in routes} == {True, False}
        assert {*chains, *routes, decoder} <= compiled._code_cache.keys()
