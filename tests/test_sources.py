"""Tests for data sources, network models and source descriptions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io import (
    CSVFileTransport,
    FaultPlan,
    InjectedTransport,
    ResilientSource,
    write_csv,
)
from repro.relational.catalog import TableStatistics
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sources.description import MappedSource, MappingError, SourceDescription
from repro.sources.network import (
    BurstyNetworkModel,
    ConstantRateNetworkModel,
    InstantNetworkModel,
)
from repro.sources.remote import RemoteSource
from repro.sources.source import LocalSource


class TestLocalSource:
    def test_streams_with_zero_arrival(self, people):
        source = LocalSource(people)
        stream = list(source.open_stream())
        assert [row for row, _t in stream] == people.rows
        assert all(t == 0.0 for _row, t in stream)
        assert len(source) == len(people)
        assert source.schema is people.schema


class TestNetworkModels:
    def test_instant(self):
        assert list(InstantNetworkModel().arrival_times(3)) == [0.0, 0.0, 0.0]

    def test_constant_rate(self):
        times = list(ConstantRateNetworkModel(10.0, latency=1.0).arrival_times(3))
        assert times == pytest.approx([1.0, 1.1, 1.2])

    def test_constant_rate_validation(self):
        with pytest.raises(ValueError):
            ConstantRateNetworkModel(0.0)

    def test_bursty_deterministic_and_monotone(self):
        model = BurstyNetworkModel(seed=5)
        a = list(model.arrival_times(500))
        b = list(BurstyNetworkModel(seed=5).arrival_times(500))
        assert a == b
        assert all(a[i] <= a[i + 1] for i in range(len(a) - 1))
        assert len(a) == 500

    def test_bursty_has_gaps(self):
        model = BurstyNetworkModel(
            burst_rate=10_000, mean_burst_tuples=50, mean_gap_seconds=0.5, seed=1
        )
        times = list(model.arrival_times(1000))
        largest_gap = max(b - a for a, b in zip(times, times[1:]))
        assert largest_gap > 0.1  # visible burst gaps

    def test_bursty_validation(self):
        with pytest.raises(ValueError):
            BurstyNetworkModel(burst_rate=0)
        with pytest.raises(ValueError):
            BurstyNetworkModel(mean_burst_tuples=0)
        with pytest.raises(ValueError):
            BurstyNetworkModel(mean_gap_seconds=-1)


class TestRemoteSource:
    def test_stream_matches_relation_with_arrivals(self, people):
        source = RemoteSource(people, ConstantRateNetworkModel(1.0))
        stream = list(source.open_stream())
        assert [row for row, _t in stream] == people.rows
        assert stream[-1][1] == pytest.approx(len(people) - 1)

    def test_repeated_access_is_reproducible(self, people):
        source = RemoteSource(people, BurstyNetworkModel(seed=3))
        assert list(source.open_stream()) == list(source.open_stream())


class TestSourceDescription:
    def test_translate_schema_and_rows(self):
        source_schema = Schema.from_names(["id", "full_name", "junk"], relation="crm")
        description = SourceDescription(
            source_name="crm_customers",
            global_relation="customer",
            attribute_mapping={"id": "c_custkey", "full_name": "c_name"},
        )
        translated = description.translate_schema(source_schema)
        assert translated.names == ("c_custkey", "c_name")
        assert translated.attributes[0].relation == "customer"
        assert description.translate_row(source_schema, (7, "Ada", "x")) == (7, "Ada")

    def test_identity_mapping_keeps_everything(self):
        source_schema = Schema.from_names(["a", "b"], relation="src")
        description = SourceDescription("src", "global")
        assert description.translate_schema(source_schema).names == ("a", "b")

    def test_empty_mapping_result_raises(self):
        source_schema = Schema.from_names(["a"], relation="src")
        description = SourceDescription("src", "global", attribute_mapping={"zzz": "q"})
        with pytest.raises(MappingError):
            description.translate_schema(source_schema)

    def test_promised_statistics_default(self):
        description = SourceDescription("src", "global")
        assert isinstance(description.promised_statistics, TableStatistics)
        assert description.promised_statistics.cardinality is None


# -- the one stream protocol --------------------------------------------------------

PROTOCOL_RELATION = Relation(
    "r",
    Schema.from_names(["k", "v"], relation="r"),
    [(i, i * 7 % 11) for i in range(40)],
)
PROTOCOL_NETWORKS = {
    "instant": InstantNetworkModel,
    "constant": lambda: ConstantRateNetworkModel(50.0, latency=0.2),
    "bursty": lambda: BurstyNetworkModel(mean_gap_seconds=0.3, seed=5),
}
SOURCE_KINDS = ("local", *PROTOCOL_NETWORKS, "resilient", "mapped")


@pytest.fixture(scope="module")
def protocol_csv(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("protocol") / "r.csv")
    write_csv(path, PROTOCOL_RELATION)
    return path


def protocol_source(kind, csv_path, fault_seed):
    relation = PROTOCOL_RELATION
    if kind == "local":
        return LocalSource(relation)
    if kind == "resilient":
        transport = InjectedTransport(
            CSVFileTransport("r", csv_path, relation.schema),
            FaultPlan.seeded(fault_seed, len(relation.rows)),
        )
        return ResilientSource(transport)
    if kind == "mapped":
        remote = RemoteSource(relation, ConstantRateNetworkModel(50.0, latency=0.2))
        return MappedSource(remote, SourceDescription("r", "g", {"v": "g_v"}))
    return RemoteSource(relation, PROTOCOL_NETWORKS[kind]())


class TestOneStreamProtocol:
    """Every source kind answers ``open_stream_columns(batch_size, offset,
    start_at)`` alike: the rows from ``offset`` in chunks of at most
    ``batch_size``, arrivals on the source's own clock or re-based to a
    connection at ``start_at``, one counted open, and a delivery oracle that
    counts exactly the arrivals the stream itself carries."""

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(SOURCE_KINDS),
        batch_size=st.integers(1, 50),
        offset=st.integers(0, len(PROTOCOL_RELATION.rows)),
        start_at=st.one_of(st.none(), st.sampled_from([0.0, 0.1, 2.5, 1e3])),
        fault_seed=st.integers(0, 30),
    )
    def test_every_source_kind_honours_the_protocol(
        self, protocol_csv, kind, batch_size, offset, start_at, fault_seed
    ):
        source = protocol_source(kind, protocol_csv, fault_seed)
        remote = source.wrapped if kind == "mapped" else source
        opens = getattr(remote, "open_count", 0)
        chunks = list(source.open_stream_columns(batch_size, offset, start_at))
        if isinstance(remote, RemoteSource):
            assert remote.open_count == opens + 1

        expected_rows = PROTOCOL_RELATION.rows[offset:]
        if kind == "mapped":
            expected_rows = [(v,) for _k, v in expected_rows]
        assert [row for rows, _arr in chunks for row in rows] == expected_rows
        for rows, arrivals in chunks:
            assert 1 <= len(rows) <= batch_size
            assert arrivals is None or (len(arrivals) == len(rows) and arrivals[-1] > 0.0)
        arrivals = [
            t for rows, column in chunks for t in (column or [0.0] * len(rows))
        ]
        assert arrivals == sorted(arrivals)

        if kind == "local":
            assert set(arrivals) <= {0.0}
        elif kind == "resilient":
            again = protocol_source(kind, protocol_csv, fault_seed)
            one_by_one = [
                t
                for rows, column in again.open_stream_columns(1, offset, start_at)
                for t in (column or [0.0] * len(rows))
            ]
            assert arrivals == one_by_one
            assert source.telemetry.as_dict() == again.telemetry.as_dict()
            assert source.telemetry.rows_delivered == len(expected_rows)
            if start_at is not None:
                assert all(t >= start_at for t in arrivals)
                assert source.timeline.now() == 0.0  # ran on a branch
        else:
            schedule = remote.arrival_schedule
            if start_at is None:
                assert arrivals == list(schedule[offset:])
            else:
                rebased = [start_at + t for t in schedule[: len(expected_rows)]]
                assert arrivals == rebased
            # the oracle keeps the numbering of a stream read from row 0
            for now in {*arrivals, -1.0, 0.0, 1e9}:
                delivered = offset + sum(1 for t in arrivals if t <= now)
                assert source.arrived_by(now, offset, start_at) == delivered

    @pytest.mark.parametrize("batch_size, offset", [(0, 0), (1, -1)])
    @pytest.mark.parametrize("kind", SOURCE_KINDS)
    def test_bad_arguments_fail_at_the_call(self, protocol_csv, kind, batch_size, offset):
        """A chunk size below 1 or a negative offset is rejected when the
        stream is asked for, before any connection opens."""
        source = protocol_source(kind, protocol_csv, 0)
        remote = source.wrapped if kind == "mapped" else source
        with pytest.raises(ValueError, match="batch_size|offset"):
            source.open_stream_columns(batch_size, offset)
        assert getattr(remote, "open_count", 0) == 0
