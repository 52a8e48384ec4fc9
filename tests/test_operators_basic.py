"""Tests for scan, filter and project operators."""

import pytest

from repro.engine.cost import ExecutionMetrics, SimulatedClock
from repro.engine.operators.base import Operator
from repro.engine.operators.filter import Filter
from repro.engine.operators.project import ProjectOp
from repro.engine.operators.scan import Scan
from repro.relational.expressions import AttributeRef, Comparison, Constant
from repro.sources.network import ConstantRateNetworkModel
from repro.sources.remote import RemoteSource


class TestOperatorBase:
    def test_produce_is_abstract(self, people):
        operator = Operator(people.schema)
        with pytest.raises(NotImplementedError):
            list(operator.execute())

    def test_output_counter_and_metrics(self, people):
        scan = Scan(people)
        rows = scan.run_to_completion()
        assert len(rows) == 5
        assert scan.tuples_produced == 5
        assert scan.metrics.tuples_output == 5
        assert scan.metrics.tuples_read == 5

    def test_describe(self, people):
        scan = Scan(people)
        scan.run_to_completion()
        info = scan.describe()
        assert info["operator"] == "Scan"
        assert info["tuples_produced"] == 5


class TestScan:
    def test_scan_relation(self, people):
        assert Scan(people).run_to_completion() == people.rows

    def test_scan_remote_source_waits_on_clock(self, people):
        source = RemoteSource(people, ConstantRateNetworkModel(tuples_per_second=1.0))
        clock = SimulatedClock()
        scan = Scan(source, clock=clock)
        scan.run_to_completion()
        # last tuple arrives at t = 4 seconds with 5 tuples at 1/s
        assert clock.now == pytest.approx(4.0)
        assert clock.wait_time == pytest.approx(4.0)

    def test_scan_shares_metrics(self, people):
        metrics = ExecutionMetrics()
        Scan(people, metrics).run_to_completion()
        assert metrics.tuples_read == 5


class TestFilter:
    def test_filter_rows(self, people):
        predicate = Comparison(AttributeRef("city"), "=", Constant("london"))
        operator = Filter(Scan(people), predicate)
        assert len(operator.run_to_completion()) == 2
        assert operator.metrics.predicate_evals == 5

    def test_observed_selectivity(self, people):
        predicate = Comparison(AttributeRef("age"), ">", Constant(100))
        operator = Filter(Scan(people), predicate)
        assert operator.observed_selectivity is None
        operator.run_to_completion()
        assert operator.observed_selectivity == 0.0


class TestProject:
    def test_project_columns(self, people):
        operator = ProjectOp(Scan(people), ["name", "pid"])
        rows = operator.run_to_completion()
        assert rows[0] == ("ada", 1)
        assert operator.schema.names == ("name", "pid")


class TestMaterializeHelper:
    def test_materialize(self, people):
        from repro.engine.executor import materialize

        relation = materialize(Scan(people), name="copy")
        assert relation.name == "copy"
        assert relation.rows == people.rows
        assert relation.schema.names == people.schema.names
