"""Tests for corrective query processing (the paper's Section 4)."""

import pytest

from helpers import (
    assert_same_aggregates,
    assert_same_bag,
    consumed_counts,
    reference_spja,
)
from repro.baselines.static_executor import StaticExecutor
from repro.core.corrective import CorrectiveQueryProcessor
from repro.core.monitor import ExecutionMonitor
from repro.engine.pipelined import PipelinedPlan
from repro.optimizer.plans import JoinTree
from repro.relational.algebra import SPJAQuery
from repro.relational.expressions import JoinPredicate
from repro.sources.network import BurstyNetworkModel
from repro.sources.remote import RemoteSource
from repro.workloads.queries import query_3a, query_5, query_10a


def bad_tree(query):
    """A deliberately poor left-deep order: biggest relations joined first."""
    order = ["lineitem", "orders", "customer", "supplier", "nation", "region"]
    return JoinTree.left_deep([r for r in order if r in query.relations])


class TestCorrectness:
    @pytest.mark.parametrize("query_factory", [query_3a, query_10a, query_5])
    def test_matches_static_reference(self, small_tpch, query_factory):
        query = query_factory()
        sources = small_tpch.as_sources()
        reference = StaticExecutor(
            small_tpch.catalog(with_cardinalities=True), sources
        ).execute(query)
        processor = CorrectiveQueryProcessor(
            small_tpch.catalog(with_cardinalities=False),
            sources,
            polling_interval_seconds=0.1,
            switch_threshold=0.95,
        )
        report = processor.execute(query)
        assert_same_aggregates(report.rows, reference.rows)

    @pytest.mark.parametrize("query_factory", [query_3a, query_10a])
    def test_recovers_from_forced_bad_plan(self, small_tpch, query_factory):
        query = query_factory()
        sources = small_tpch.as_sources()
        reference = StaticExecutor(
            small_tpch.catalog(with_cardinalities=True), sources
        ).execute(query)
        processor = CorrectiveQueryProcessor(
            small_tpch.catalog(with_cardinalities=False),
            sources,
            polling_interval_seconds=0.1,
        )
        report = processor.execute(query, initial_tree=bad_tree(query))
        assert_same_aggregates(report.rows, reference.rows)
        assert report.num_phases >= 2  # it must actually have switched

    def test_spj_query_without_aggregation(self, tiny_tpch):
        query = SPJAQuery(
            name="spj",
            relations=("customer", "orders"),
            join_predicates=(
                JoinPredicate("customer", "c_custkey", "orders", "o_custkey"),
            ),
        )
        sources = tiny_tpch.as_sources()
        processor = CorrectiveQueryProcessor(
            tiny_tpch.catalog(), sources, polling_interval_seconds=0.05
        )
        report = processor.execute(query)
        assert_same_bag(report.rows, reference_spja(query, sources))
        assert report.schema is not None

    def test_skewed_data(self, tiny_tpch_skewed):
        query = query_10a()
        sources = tiny_tpch_skewed.as_sources()
        reference = StaticExecutor(
            tiny_tpch_skewed.catalog(with_cardinalities=True), sources
        ).execute(query)
        processor = CorrectiveQueryProcessor(
            tiny_tpch_skewed.catalog(), sources, polling_interval_seconds=0.1
        )
        report = processor.execute(query, initial_tree=bad_tree(query))
        assert_same_aggregates(report.rows, reference.rows)

    def test_remote_bursty_sources(self, tiny_tpch):
        query = query_3a()
        local = tiny_tpch.as_sources()
        remote = {
            name: RemoteSource(
                rel,
                BurstyNetworkModel(
                    burst_rate=50_000, mean_burst_tuples=400, mean_gap_seconds=0.02, seed=i
                ),
            )
            for i, (name, rel) in enumerate(local.items())
        }
        reference = StaticExecutor(
            tiny_tpch.catalog(with_cardinalities=True), local
        ).execute(query)
        processor = CorrectiveQueryProcessor(
            tiny_tpch.catalog(), remote, polling_interval_seconds=0.2
        )
        report = processor.execute(query)
        assert_same_aggregates(report.rows, reference.rows)
        assert report.wait_seconds > 0

    @pytest.mark.parametrize("limit", [0, -5])
    @pytest.mark.parametrize("engine", [{}, {"batch_size": 64}], ids=["tuple", "batch64"])
    def test_a_poll_step_limit_below_one_is_rejected(self, tiny_tpch, limit, engine):
        """A chunk of no tuples never reaches the next poll: rejected, not spun."""
        processor = CorrectiveQueryProcessor(
            tiny_tpch.catalog(), tiny_tpch.as_sources(), **engine
        )
        with pytest.raises(ValueError, match="poll_step_limit"):
            processor.execute(query_3a(), poll_step_limit=limit)


class TestAblationWeights:
    WEIGHTS = dict(hash_probe=1.3, predicate_eval=0.1, tuple_copy=0.7, tuple_output=0.3)
    PINNED = "0.5534050000000001"

    def _run(self, small_tpch, **engine):
        from repro.engine.cost import CostModel

        query = query_10a()
        processor = CorrectiveQueryProcessor(
            small_tpch.catalog(with_cardinalities=False),
            small_tpch.as_sources(),
            cost_model=CostModel(**self.WEIGHTS),
            polling_interval_seconds=0.1,
            **engine,
        )
        return processor.execute(query, initial_tree=bad_tree(query))

    def test_tuple_mode_run_under_non_default_weights_is_pinned(self, small_tpch):
        """Weights that are not binary fractions (1.3, 0.1, 0.7, 0.3) make
        every float sum of work deltas depend on its order and grouping.
        The clock no longer sums deltas: between stalls it derives ``now``
        from the cumulative work once, so the pinned value is the one every
        engine configuration reaches, whatever its charge cadence."""
        report = self._run(small_tpch)
        assert repr(report.simulated_seconds) == self.PINNED
        assert report.num_phases == 2
        assert report.metrics.as_dict() == {
            "tuples_read": 7571,
            "hash_inserts": 4780,
            "hash_probes": 6931,
            "comparisons": 0,
            "predicate_evals": 5896,
            "tuple_copies": 5256,
            "aggregate_updates": 1943,
            "tuples_output": 1943,
            "batches_read": 0,
        }

    @pytest.mark.parametrize("engine_mode", ["interpreted", "compiled"])
    def test_every_batch_size_reaches_the_tuple_mode_clock(self, small_tpch, engine_mode):
        """Under the same non-binary weights, batches of 1/7/64 charge at
        other cadences than tuple mode yet give its pinned
        ``repr(simulated_seconds)``."""
        for batch_size in (1, 7, 64):
            report = self._run(small_tpch, batch_size=batch_size, engine_mode=engine_mode)
            assert repr(report.simulated_seconds) == self.PINNED
            assert report.num_phases == 2


class TestPollWindows:
    """A blocking run hands the engine one poll window per call: the monitor
    sees, at every poll, the plan state it saw when the run went chunk by
    chunk, in every engine configuration."""

    CHUNK = 37

    @staticmethod
    def sources(dataset, remote):
        local = dataset.as_sources()
        if not remote:
            return local
        return {
            name: RemoteSource(
                relation,
                BurstyNetworkModel(
                    burst_rate=50_000, mean_burst_tuples=100, mean_gap_seconds=0.02, seed=i
                ),
            )
            for i, (name, relation) in enumerate(local.items())
        }

    def observe_run(self, monkeypatch, dataset, remote, chunk_by_chunk=False, **engine):
        """``(phase, consumed counts, repr(clock))`` at every monitor
        observation, and the finished report."""
        records = []
        observe = ExecutionMonitor.observe

        def recording(monitor, plan, cursors):
            records.append((plan.phase_id, consumed_counts(plan), repr(plan.clock.now)))
            return observe(monitor, plan, cursors)

        monkeypatch.setattr(ExecutionMonitor, "observe", recording)
        if chunk_by_chunk:
            run_chunk = PipelinedPlan.run_chunk

            def chunk_loop(plan, max_tuples, until=None):
                """The loop of single chunks a window replaced."""
                total = run_chunk(plan, max_tuples)
                if until is None:
                    return total
                while plan.clock.now < until and not plan.sources_exhausted:
                    ran = run_chunk(plan, max_tuples)
                    if ran == 0:
                        break
                    total += ran
                return total

            monkeypatch.setattr(PipelinedPlan, "run_chunk", chunk_loop)
        query = query_10a()
        try:
            report = CorrectiveQueryProcessor(
                dataset.catalog(),
                self.sources(dataset, remote),
                polling_interval_seconds=0.1,
                **engine,
            ).execute(query, initial_tree=bad_tree(query), poll_step_limit=self.CHUNK)
        finally:
            monkeypatch.undo()
        return records, report

    @pytest.mark.parametrize("remote", [False, True], ids=["local", "bursty"])
    def test_every_batch_size_polls_where_tuple_mode_polls(
        self, small_tpch, monkeypatch, remote
    ):
        expected, report = self.observe_run(monkeypatch, small_tpch, remote)
        assert report.num_phases >= 2
        assert len(expected) > 2 * report.num_phases
        for batch_size in (1, 7, 64):
            records, batched = self.observe_run(
                monkeypatch, small_tpch, remote, batch_size=batch_size
            )
            assert records == expected
            assert repr(batched.simulated_seconds) == repr(report.simulated_seconds)

    @pytest.mark.parametrize("remote", [False, True], ids=["local", "bursty"])
    @pytest.mark.parametrize("engine", [{}, {"batch_size": 7}], ids=["tuple", "batch7"])
    def test_a_window_is_the_chunk_loop_it_replaced(
        self, small_tpch, monkeypatch, remote, engine
    ):
        records, report = self.observe_run(monkeypatch, small_tpch, remote, **engine)
        chunked_records, chunked = self.observe_run(
            monkeypatch, small_tpch, remote, chunk_by_chunk=True, **engine
        )
        assert records == chunked_records
        assert report.rows == chunked.rows
        assert report.metrics.as_dict() == chunked.metrics.as_dict()
        assert report.num_phases == chunked.num_phases >= 2
        assert report.reoptimizer_polls == chunked.reoptimizer_polls
        assert report.details["monitor_polls"] == chunked.details["monitor_polls"]
        assert repr(report.simulated_seconds) == repr(chunked.simulated_seconds)


class TestKernelCalls:
    """``batch_size`` does not shape a corrective run's kernel calls: every
    scheduled per-leaf group is one call, so each batch size hands its
    kernels the same row counts, and all of them match tuple mode."""

    @staticmethod
    def run(monkeypatch, dataset, query, remote, **engine):
        """The finished report and ``(phase, relation, rows)`` per kernel call."""
        calls = []
        build = PipelinedPlan._build_kernels

        def recording(plan):
            def wrap(relation, kernel):
                def run(rows):
                    calls.append((plan.phase_id, relation, len(rows)))
                    kernel(rows)

                return run

            return {relation: wrap(relation, k) for relation, k in build(plan).items()}

        with monkeypatch.context() as patch:
            patch.setattr(PipelinedPlan, "_build_kernels", recording)
            report = CorrectiveQueryProcessor(
                dataset.catalog(),
                TestPollWindows.sources(dataset, remote),
                polling_interval_seconds=0.1,
                **engine,
            ).execute(query, initial_tree=bad_tree(query))
        return report, calls

    @staticmethod
    def phase_view(phase):
        """A phase record but its step count (a tuple or a batch)."""
        return (
            str(phase.join_tree),
            phase.switch_reason,
            repr(phase.ended_at),
            phase.tuples_read,
            phase.outputs,
            phase.consumed_per_relation,
        )

    @pytest.mark.parametrize(
        "query, remote",
        [(query_3a(), False), (query_10a(), False), (query_5(), False), (query_10a(), True)],
        ids=["Q3A-local", "Q10A-local", "Q5-local", "Q10A-bursty"],
    )
    def test_every_batch_size_makes_the_same_kernel_calls(
        self, small_tpch, monkeypatch, query, remote
    ):
        expected, _ = self.run(monkeypatch, small_tpch, query, remote)
        counters = expected.metrics.as_dict()
        del counters["batches_read"]
        sequences = []
        for batch_size in (1, 7, 64):
            report, calls = self.run(
                monkeypatch, small_tpch, query, remote, batch_size=batch_size
            )
            sequences.append(calls)
            assert sorted(report.rows) == sorted(expected.rows)
            batched = report.metrics.as_dict()
            del batched["batches_read"]
            assert batched == counters
            assert [self.phase_view(p) for p in report.phases] == [
                self.phase_view(p) for p in expected.phases
            ]
            assert repr(report.simulated_seconds) == repr(expected.simulated_seconds)
        assert sequences[0] == sequences[1] == sequences[2]
        assert expected.num_phases >= 2
        assert max(rows for _, _, rows in sequences[0]) > 64


class TestAdaptationBehaviour:
    def test_switches_away_from_bad_plan_and_improves(self, small_tpch):
        query = query_3a()
        sources = small_tpch.as_sources()
        catalog = small_tpch.catalog(with_cardinalities=False)
        static_bad = StaticExecutor(catalog, sources).execute(
            query, join_tree=bad_tree(query)
        )
        adaptive = CorrectiveQueryProcessor(
            catalog, sources, polling_interval_seconds=0.1
        ).execute(query, initial_tree=bad_tree(query))
        assert adaptive.num_phases >= 2
        assert adaptive.simulated_seconds < static_bad.simulated_seconds
        # The first phase must have ended on a re-optimizer switch.
        assert adaptive.phases[0].switch_reason

    def test_does_not_switch_away_from_good_plan(self, small_tpch):
        query = query_3a()
        sources = small_tpch.as_sources()
        catalog = small_tpch.catalog(with_cardinalities=True)
        good_tree = StaticExecutor(catalog, sources).execute(query).join_tree
        report = CorrectiveQueryProcessor(
            catalog, sources, polling_interval_seconds=0.1
        ).execute(query, initial_tree=good_tree)
        assert report.num_phases == 1
        assert report.stitchup is None
        assert report.stitchup_seconds == 0.0

    def test_max_phases_bounds_switching(self, small_tpch):
        query = query_10a()
        sources = small_tpch.as_sources()
        report = CorrectiveQueryProcessor(
            small_tpch.catalog(),
            sources,
            polling_interval_seconds=0.02,
            switch_threshold=0.999,
            max_phases=2,
        ).execute(query, initial_tree=bad_tree(query))
        assert report.num_phases <= 2

    def test_report_fields(self, small_tpch):
        query = query_3a()
        sources = small_tpch.as_sources()
        report = CorrectiveQueryProcessor(
            small_tpch.catalog(), sources, polling_interval_seconds=0.1
        ).execute(query, initial_tree=bad_tree(query))
        assert report.query_name == "Q3A"
        assert report.num_phases == len(report.phases)
        assert report.reoptimizer_polls >= 1
        assert report.work() > 0
        if report.num_phases > 1:
            assert report.reused_tuples > 0

    def test_stitchup_reuses_most_prior_tuples(self, small_tpch):
        """Few registered tuples should be left unused (paper Tables 1-2)."""
        query = query_10a()
        sources = small_tpch.as_sources()
        report = CorrectiveQueryProcessor(
            small_tpch.catalog(), sources, polling_interval_seconds=0.1
        ).execute(query, initial_tree=bad_tree(query))
        if report.num_phases > 1:
            total = report.reused_tuples + report.discarded_tuples
            assert report.reused_tuples > 0.5 * total
