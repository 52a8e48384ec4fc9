"""Tests for the AdaptiveIntegrationSystem facade."""

import pytest

from helpers import assert_same_aggregates, reference_spja
from repro.engine.pipelined import SourceCursor
from repro.integration.system import AdaptiveIntegrationSystem, UnknownStrategyError
from repro.relational.catalog import TableStatistics
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sources.description import SourceDescription
from repro.sources.network import ConstantRateNetworkModel
from repro.sources.remote import RemoteSource
from repro.workloads.queries import query_3a


@pytest.fixture
def system(tiny_tpch):
    system = AdaptiveIntegrationSystem()
    system.register_sources(tiny_tpch.relations.values())
    return system


class TestRegistration:
    def test_register_sources(self, system, tiny_tpch):
        descriptions = system.describe_sources()
        assert len(descriptions) == 6
        assert all(not d["remote"] for d in descriptions)

    def test_register_with_statistics(self, tiny_tpch):
        system = AdaptiveIntegrationSystem()
        system.register_source(
            tiny_tpch.orders, statistics=TableStatistics(cardinality=len(tiny_tpch.orders))
        )
        assert system.catalog.statistics("orders").cardinality == len(tiny_tpch.orders)

    def test_register_remote_source(self, tiny_tpch):
        system = AdaptiveIntegrationSystem()
        remote = RemoteSource(tiny_tpch.orders, ConstantRateNetworkModel(10_000))
        name = system.register_source(remote)
        assert name == "orders"
        assert system.describe_sources()[0]["remote"] is True

    def test_register_with_description_maps_to_global_schema(self):
        source_schema = Schema.from_names(["id", "segment"], relation="crm")
        crm = Relation("crm_customers", source_schema, [(1, "BUILDING")])
        description = SourceDescription(
            source_name="crm_customers",
            global_relation="customer",
            attribute_mapping={"id": "c_custkey", "segment": "c_mktsegment"},
        )
        system = AdaptiveIntegrationSystem()
        name = system.register_source(crm, description=description)
        assert name == "customer"
        assert system.catalog.schema("customer").names == ("c_custkey", "c_mktsegment")

    def test_described_remote_source_keeps_its_rate_telemetry(self, tiny_tpch):
        """A description renames columns; it must not blind the rate policies."""
        customer = tiny_tpch.customer
        crm_names = [f"crm_{name}" for name in customer.schema.names]
        crm = Relation(
            "crm", Schema.from_names(crm_names, relation="crm"), customer.rows
        )
        description = SourceDescription(
            "crm", "customer", attribute_mapping=dict(zip(crm_names, customer.schema.names))
        )

        def answer(customer_source, description=None):
            system = AdaptiveIntegrationSystem()
            system.register_source(customer_source, description=description)
            for name, relation in tiny_tpch.relations.items():
                if name != "customer":
                    system.register_source(relation)
            return system, system.execute(query_3a(), strategy="corrective")

        def remote(relation):
            network = ConstantRateNetworkModel(2_000.0, latency=0.01)
            return RemoteSource(relation, network, promised_rate=2_000.0)

        described, described_answer = answer(remote(crm), description)
        cursor = SourceCursor("customer", described._sources["customer"])
        assert cursor.is_remote
        assert cursor.promised_rate == 2_000.0
        assert cursor.arrived_by is not None
        assert cursor.arrived_by(0.01) == 1
        assert cursor.arrived_by(1e9) == len(customer)

        _, direct_answer = answer(remote(customer))
        assert described_answer.rows == direct_answer.rows
        assert described_answer.simulated_seconds == direct_answer.simulated_seconds
        expected = reference_spja(query_3a(), tiny_tpch.as_sources())
        assert_same_aggregates(described_answer.rows, expected)


class TestExecution:
    def test_unknown_strategy_rejected(self, system):
        with pytest.raises(UnknownStrategyError):
            system.execute(query_3a(), strategy="magic")

    def test_unregistered_source_rejected(self, tiny_tpch):
        system = AdaptiveIntegrationSystem()
        system.register_source(tiny_tpch.orders)
        with pytest.raises(KeyError):
            system.execute(query_3a())

    @pytest.mark.parametrize("strategy", ["static", "corrective", "plan_partitioning"])
    def test_all_strategies_agree(self, system, tiny_tpch, strategy):
        expected = reference_spja(query_3a(), tiny_tpch.as_sources())
        answer = system.execute(query_3a(), strategy=strategy)
        assert_same_aggregates(answer.rows, expected)
        assert answer.simulated_seconds > 0
        assert answer.strategy == strategy
        assert len(answer) == len(expected)

    def test_options_forwarded_to_corrective(self, system):
        answer = system.execute(
            query_3a(),
            strategy="corrective",
            polling_interval_seconds=0.05,
            switch_threshold=0.99,
            max_phases=3,
        )
        assert answer.report.num_phases <= 3
