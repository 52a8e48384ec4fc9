"""Unit tests for the real-I/O fabric: backends, faults, envelope, fetch.

Covers the PR's satellite contracts directly:

* seeded-jitter backoff determinism, cap behavior, and retry-budget
  exhaustion surfacing as a circuit-breaker trip;
* resume-offset correctness — no duplicated and no dropped rows after a
  mid-stream reconnect on every backend;
* the fixture server's wire protocol (completeness marker, fault shapes,
  64-line chunk framing) and the thread-pool prefetch layer;
* the streaming read contract — lazy offset-resuming file readers, prefix
  then raise on a cut record, a shrunken source never read as end-of-stream,
  and the envelope's batch view equal to its per-row view pair for pair.

The CI ``io`` job runs this file with ``-W error::ResourceWarning`` (and
pytest's unraisable-exception warning as an error): file readers hold a
handle between calls, so a leaked one must fail.

Every test runs under a hard SIGALRM deadline so a wedged socket or a
stuck breaker loop fails fast instead of hanging the suite.
"""

import random
import signal
import sqlite3
from collections import Counter

import pytest

from repro.core.corrective import CorrectiveQueryProcessor
from repro.experiments.common import build_dataset
from repro.io import (
    CSVFileTransport,
    CircuitOpenError,
    ConnectError,
    DBAPITransport,
    FaultPlan,
    FixtureServer,
    HTTPTransport,
    InjectedTransport,
    JSONLinesTransport,
    ReadError,
    ResilientSource,
    ThreadedPrefetchSource,
    TruncatedPayloadError,
    write_csv,
    write_jsonl,
    write_sqlite,
)
from repro.io.backends import Transport, _HTTPReader, compile_converter
from repro.io.envelope import (
    BackoffSchedule,
    CircuitBreaker,
    SimulatedTimeline,
    WallTimeline,
)
from repro.io.faults import DELAY, OUTAGE, RESET, TRUNCATE, Fault
from repro.io.wallclock import wall_now
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.workloads.generator import TPCHGenerator
from repro.workloads.queries import query_3
from repro.workloads.tpch_schema import LINEITEM_SCHEMA

TEST_DEADLINE_SECONDS = 60


@pytest.fixture(autouse=True)
def hard_deadline():
    """Hard per-test timeout: a hung socket must fail, not wedge the run."""

    def _expired(signum, frame):
        raise TimeoutError(
            f"test exceeded the {TEST_DEADLINE_SECONDS}s hard deadline"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(TEST_DEADLINE_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def make_relation(name="r", count=40):
    schema = Schema.from_names(["a", "b", "c"], relation=name)
    rows = [(i, i * 2, i * i) for i in range(count)]
    return Relation.from_rows(name, schema, rows)


def make_transport(kind, tmp_path, relation, server=None):
    """A fresh transport of ``kind`` over ``relation`` staged under ``tmp_path``."""
    path = str(tmp_path / f"{relation.name}.{kind}")
    if kind == "csv":
        write_csv(path, relation)
        return CSVFileTransport(relation.name, path, relation.schema)
    if kind == "jsonl":
        write_jsonl(path, relation)
        return JSONLinesTransport(relation.name, path, relation.schema)
    if kind == "sqlite":
        query = write_sqlite(path, relation)
        return DBAPITransport(
            relation.name, lambda: sqlite3.connect(path), query, relation.schema
        )
    url = server.add_relation(relation.name, relation)
    return HTTPTransport(relation.name, url, relation.schema)


class FailingTransport(Transport):
    """Connects always fail — the retry-budget exhaustion fixture."""

    def __init__(self, name="dead"):
        super().__init__(name, Schema.from_names(["a", "b", "c"]))
        self.attempts = 0

    def open(self, offset):
        self.attempts += 1
        raise ConnectError(f"{self.name}: connection refused")


class FlakyReadTransport(Transport):
    """Every chunk read fails — exhausts the read retry budget."""

    def __init__(self, rows):
        super().__init__("flaky", Schema.from_names(["a", "b", "c"]))
        self._rows = rows

    def open(self, offset):
        class Reader:
            def read_rows(self_inner, max_rows):
                raise ReadError("flaky: connection reset mid-body")

            def close(self_inner):
                pass

        return Reader()


class TestBackoffSchedule:
    def test_seeded_jitter_is_deterministic(self):
        a = BackoffSchedule(seed=17)
        b = BackoffSchedule(seed=17)
        assert [a.delay(i) for i in range(12)] == [b.delay(i) for i in range(12)]

    def test_delay_is_order_independent(self):
        schedule = BackoffSchedule(seed=3)
        forward = [schedule.delay(i) for i in range(8)]
        backward = [schedule.delay(i) for i in reversed(range(8))]
        assert forward == list(reversed(backward))

    def test_different_seeds_differ(self):
        a = [BackoffSchedule(seed=1).delay(i) for i in range(6)]
        b = [BackoffSchedule(seed=2).delay(i) for i in range(6)]
        assert a != b

    def test_cap_is_never_exceeded(self):
        schedule = BackoffSchedule(base=0.1, multiplier=3.0, cap=0.75, seed=9)
        for i in range(20):
            assert 0.0 < schedule.delay(i) <= 0.75

    def test_zero_jitter_is_exact_exponential(self):
        schedule = BackoffSchedule(
            base=0.05, multiplier=2.0, cap=10.0, jitter=0.0, seed=0
        )
        assert [schedule.delay(i) for i in range(4)] == pytest.approx(
            [0.05, 0.1, 0.2, 0.4]
        )

    def test_jitter_only_shrinks(self):
        schedule = BackoffSchedule(base=0.05, multiplier=2.0, cap=2.0, seed=4)
        for i in range(10):
            raw = min(2.0, 0.05 * 2.0**i)
            assert schedule.delay(i) <= raw
            assert schedule.delay(i) >= raw * 0.5  # jitter=0.5 shrinks at most half

    def test_validation(self):
        with pytest.raises(ValueError):
            BackoffSchedule(base=0.0)
        with pytest.raises(ValueError):
            BackoffSchedule(multiplier=0.5)
        with pytest.raises(ValueError):
            BackoffSchedule(base=1.0, cap=0.5)
        with pytest.raises(ValueError):
            BackoffSchedule(jitter=1.5)


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_seconds=5.0)
        for _ in range(2):
            breaker.record_failure(now=1.0)
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure(now=1.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trip_count == 1
        assert not breaker.allow(now=2.0)
        assert breaker.cooldown_remaining(now=2.0) == pytest.approx(4.0)

    def test_success_resets_the_failure_run(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure(now=0.0)
        breaker.record_success()
        breaker.record_failure(now=0.0)
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_after_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_seconds=2.0)
        breaker.record_failure(now=10.0)
        assert not breaker.allow(now=11.0)
        assert breaker.allow(now=12.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_failure_reopens_immediately(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_seconds=1.0)
        breaker.force_open(now=0.0)
        assert breaker.allow(now=1.0)  # half-open probe
        breaker.record_failure(now=1.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trip_count == 2

    def test_probe_after_cooldown_defeats_float_rounding(self):
        # Sleeping cooldown_remaining can land an ulp short of the
        # threshold; the explicit transition must still let a probe through.
        breaker = CircuitBreaker(failure_threshold=1, cooldown_seconds=0.3)
        breaker.record_failure(now=1e9)
        breaker.probe_after_cooldown()
        assert breaker.state == CircuitBreaker.HALF_OPEN


class TestBackends:
    def test_csv_round_trip_with_offsets(self, tmp_path):
        relation = make_relation()
        path = str(tmp_path / "r.csv")
        write_csv(path, relation)
        transport = CSVFileTransport("r", path, relation.schema)
        reader = transport.open(0)
        rows = []
        while True:
            chunk = reader.read_rows(7)
            if not chunk:
                break
            rows.extend(chunk)
        reader.close()
        assert rows == relation.rows
        resumed = transport.open(25)
        assert resumed.read_rows(1000) == relation.rows[25:]
        resumed.close()

    def test_csv_ragged_row_is_a_truncation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n4,5,6\n7,8\n")
        transport = CSVFileTransport("bad", str(path), Schema.from_names(["a", "b", "c"]))
        # The file streams, so the cut row surfaces from the read that
        # reaches it: the valid prefix is delivered once, then the error.
        reader = transport.open(0)
        assert reader.read_rows(10) == [(1, 2, 3), (4, 5, 6)]
        with pytest.raises(TruncatedPayloadError):
            reader.read_rows(10)
        reader.close()
        resumed = transport.open(2)
        with pytest.raises(TruncatedPayloadError):
            resumed.read_rows(10)
        resumed.close()
        # Behind the envelope the cut is a read fault: every valid row is
        # delivered exactly once before the read budget runs out.
        source = ResilientSource(transport, read_retry_limit=2)
        delivered = []
        with pytest.raises(CircuitOpenError):
            for row, _t in source.open_stream():
                delivered.append(row)
        assert delivered == [(1, 2, 3), (4, 5, 6)]
        assert source.telemetry.truncations == 3
        assert source.telemetry.connect_retries == 0

    def test_jsonl_cut_line_is_a_truncation_and_blank_lines_are_not_rows(
        self, tmp_path
    ):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1,2,3]\n\n[4,5,6]\n   \n[7,8,9]\n[10,11")
        transport = JSONLinesTransport(
            "bad", str(path), Schema.from_names(["a", "b", "c"])
        )
        reader = transport.open(0)
        assert reader.read_rows(10) == [(1, 2, 3), (4, 5, 6), (7, 8, 9)]
        with pytest.raises(TruncatedPayloadError):
            reader.read_rows(10)
        reader.close()
        # offsets count records, not lines
        resumed = transport.open(2)
        assert resumed.read_rows(10) == [(7, 8, 9)]
        with pytest.raises(TruncatedPayloadError):
            resumed.read_rows(10)
        resumed.close()
        source = ResilientSource(transport, read_retry_limit=2)
        delivered = []
        with pytest.raises(CircuitOpenError):
            for row, _t in source.open_stream():
                delivered.append(row)
        assert delivered == [(1, 2, 3), (4, 5, 6), (7, 8, 9)]

    def test_file_readers_convert_only_what_is_read(self, tmp_path):
        relation = make_relation(count=10_000)
        path = str(tmp_path / "big.csv")
        write_csv(path, relation)
        transport = CSVFileTransport("big", path, relation.schema)
        converted = []
        convert = transport._convert

        def counting(values):
            converted.append(values)
            return convert(values)

        transport._convert = counting
        reader = transport.open(0)
        assert converted == []
        reader.close()
        reader = transport.open(6_000)
        assert converted == []
        assert reader.read_rows(5) == relation.rows[6_000:6_005]
        assert len(converted) == 5
        reader.close()

    @pytest.mark.parametrize("kind", ["csv", "jsonl", "sqlite"])
    def test_resume_past_a_shrunken_source_is_not_end_of_stream(
        self, tmp_path, kind
    ):
        relation = make_relation(count=10)
        transport = make_transport(kind, tmp_path, relation)
        # the whole source delivered: a valid, verified-empty remainder
        reader = transport.open(10)
        assert reader.read_rows(5) == []
        reader.close()
        # the source holds fewer rows than were already delivered
        with pytest.raises(TruncatedPayloadError):
            transport.open(11)
        source = ResilientSource(transport, connect_retry_limit=1)
        with pytest.raises(CircuitOpenError):
            list(source.reopen_from(11, start_at=0.0).open_stream())

    @pytest.mark.parametrize("name", ["orders", "lineitem"])
    def test_csv_round_trips_tpch_rows_with_int_dates(self, tmp_path, name):
        relation = TPCHGenerator(scale_factor=0.001, seed=5).generate().relations[name]
        path = str(tmp_path / f"{name}.csv")
        write_csv(path, relation)
        reader = CSVFileTransport(name, path, relation.schema).open(0)
        assert reader.read_rows(100_000) == relation.rows
        reader.close()

    def test_query_3_over_csv_sources_matches_the_local_oracle(self, tmp_path):
        dataset = build_dataset("uniform", 0.001, 0.0, 5)
        sources = dict(dataset.sources)
        for name in ("orders", "lineitem"):
            relation = dataset.data.relations[name]
            path = str(tmp_path / f"{name}.csv")
            write_csv(path, relation)
            sources[name] = ResilientSource(
                CSVFileTransport(name, path, relation.schema)
            )

        def answer(query_sources):
            processor = CorrectiveQueryProcessor(
                dataset.catalog_no_statistics.copy(), query_sources, batch_size=64
            )
            return Counter(processor.execute(query_3()).rows)

        oracle = answer(dataset.sources)
        assert oracle  # the date predicates select something
        assert answer(sources) == oracle

    def test_generated_converter_source(self):
        convert = compile_converter(LINEITEM_SCHEMA)
        assert convert.__compiled_source__ == (
            "lambda v: (int(v[0]), int(v[1]), int(v[2]), int(v[3]), "
            "float(v[4]), float(v[5]), float(v[6]), v[7], "
            "_parse_literal(v[8]))"
        )
        values = ["1", "2", "3", "4", "5.5", "0.1", "4.95", "R", "1753"]
        assert convert(values) == (1, 2, 3, 4, 5.5, 0.1, 4.95, "R", 1753)
        one = compile_converter(Schema.from_names(["a"], types=["int"]))
        assert one.__compiled_source__ == "lambda v: (int(v[0]),)"
        assert one(["7"]) == (7,)
        iso = compile_converter(Schema.from_names(["d"], types=["date"]))
        assert iso(["1998-09-02"]) == ("1998-09-02",)

    @pytest.mark.parametrize("kind", ["csv", "jsonl", "sqlite", "http"])
    def test_reader_close_is_idempotent(self, tmp_path, kind):
        relation = make_relation()
        with FixtureServer() as server:
            transport = make_transport(kind, tmp_path, relation, server)
            half_read = transport.open(3)
            assert half_read.read_rows(4) == relation.rows[3:7]
            half_read.close()
            half_read.close()
            drained = transport.open(30)
            assert drained.read_rows(100) == relation.rows[30:]
            assert drained.read_rows(100) == []
            drained.close()
            drained.close()

    def test_jsonl_round_trip_with_offsets(self, tmp_path):
        relation = make_relation()
        path = str(tmp_path / "r.jsonl")
        write_jsonl(path, relation)
        transport = JSONLinesTransport("r", path, relation.schema)
        reader = transport.open(13)
        assert reader.read_rows(10_000) == relation.rows[13:]
        reader.close()

    def test_sqlite_round_trip_with_offsets(self, tmp_path):
        relation = make_relation()
        path = str(tmp_path / "r.db")
        query = write_sqlite(path, relation)
        transport = DBAPITransport(
            "r", lambda: sqlite3.connect(path), query, relation.schema
        )
        reader = transport.open(0)
        rows = []
        while True:
            chunk = reader.read_rows(9)
            if not chunk:
                break
            rows.extend(chunk)
        reader.close()
        assert rows == relation.rows
        resumed = transport.open(31)
        assert resumed.read_rows(10_000) == relation.rows[31:]
        resumed.close()


class TestFaultPlan:
    def test_seeded_plans_are_deterministic(self):
        a = FaultPlan.seeded(11, 40)
        b = FaultPlan.seeded(11, 40)
        assert a.describe() == b.describe()
        assert a.connect_flaps == b.connect_flaps
        assert sorted(a.read_faults) == sorted(b.read_faults)

    def test_script_fires_each_fault_exactly_once(self):
        plan = FaultPlan({5: Fault(kind=RESET, offset=5)})
        script = plan.script()
        assert script.on_row(4) is None
        assert script.on_row(5) is not None
        # The re-read after resume passes straight through.
        assert script.on_row(5) is None

    def test_outage_arms_subsequent_connects(self):
        plan = FaultPlan({2: Fault(kind=OUTAGE, offset=2, count=2)})
        script = plan.script()
        assert script.on_connect() is None
        assert script.on_row(2).kind == OUTAGE
        assert script.on_connect().kind == OUTAGE
        assert script.on_connect().kind == OUTAGE
        assert script.on_connect() is None


class TestResilientEnvelope:
    def make_faulted_source(self, tmp_path, plan, **kwargs):
        relation = make_relation()
        path = str(tmp_path / "r.csv")
        write_csv(path, relation)
        inner = CSVFileTransport("r", path, relation.schema)
        return relation, ResilientSource(InjectedTransport(inner, plan), **kwargs)

    def test_resume_after_reset_no_dup_no_drop(self, tmp_path):
        plan = FaultPlan(
            {
                7: Fault(kind=RESET, offset=7),
                21: Fault(kind=TRUNCATE, offset=21),
            }
        )
        relation, source = self.make_faulted_source(tmp_path, plan)
        delivered = [row for row, _t in source.open_stream()]
        assert delivered == relation.rows
        assert source.telemetry.read_faults == 2
        assert source.telemetry.truncations == 1
        assert source.telemetry.resumes == 2

    def test_faulted_stream_is_bitwise_deterministic(self, tmp_path):
        def run():
            plan = FaultPlan.seeded(23, 40)
            relation, source = self.make_faulted_source(tmp_path, plan)
            return relation, list(source.open_stream())

        relation, first = run()
        _, second = run()
        assert first == second  # rows AND simulated arrival instants
        assert [row for row, _t in first] == relation.rows
        times = [t for _row, t in first]
        assert times == sorted(times)

    def test_connect_budget_exhaustion_trips_the_breaker(self):
        transport = FailingTransport()
        source = ResilientSource(
            transport,
            connect_retry_limit=3,
            breaker=CircuitBreaker(failure_threshold=100),
        )
        with pytest.raises(CircuitOpenError) as excinfo:
            list(source.open_stream())
        assert source.breaker.state == CircuitBreaker.OPEN
        assert source.breaker.trip_count == 1
        assert "budget (3) exhausted" in str(excinfo.value)
        assert transport.attempts == 4  # the first try plus three retries
        assert source.telemetry.backoff_seconds > 0.0

    def test_read_budget_exhaustion_trips_the_breaker(self):
        source = ResilientSource(
            FlakyReadTransport([]),
            read_retry_limit=2,
            breaker=CircuitBreaker(failure_threshold=100),
        )
        with pytest.raises(CircuitOpenError):
            list(source.open_stream())
        assert source.breaker.state == CircuitBreaker.OPEN

    def test_open_breaker_stalls_the_timeline(self, tmp_path):
        plan = FaultPlan(
            {
                3: Fault(kind=OUTAGE, offset=3, count=2),
            }
        )
        timeline = SimulatedTimeline()
        relation, source = self.make_faulted_source(
            tmp_path,
            plan,
            timeline=timeline,
            breaker=CircuitBreaker(failure_threshold=1, cooldown_seconds=0.5),
        )
        delivered = [row for row, _t in source.open_stream()]
        assert delivered == relation.rows
        # The outage tripped the breaker; waiting out the cooldown is a
        # simulated-time stall, which is what the adaptivity monitor sees.
        assert source.breaker.trip_count >= 1
        assert timeline.now() >= 0.5

    def test_reopen_from_continues_exactly(self, tmp_path):
        relation, source = self.make_faulted_source(
            tmp_path, FaultPlan.seeded(5, 40)
        )
        resumed = source.reopen_from(17, start_at=9.0)
        out = list(resumed.open_stream())
        assert [row for row, _t in out] == relation.rows[17:]
        assert all(t >= 9.0 for _row, t in out)
        assert resumed.name == source.name
        assert resumed.offset == 17

    def test_register_mirror_requires_matching_schema(self, tmp_path):
        relation, source = self.make_faulted_source(tmp_path, FaultPlan.quiet())
        other = ResilientSource(FailingTransport("other"))
        source.register_mirror(other)
        assert source.mirrors == [other]
        bad_schema = Schema.from_names(["x", "y"])
        bad_relation = Relation.from_rows("bad", bad_schema, [(1, 2)])
        mismatched = ResilientSource(
            CSVFileTransport("bad", str(tmp_path / "none.csv"), bad_schema)
        )
        with pytest.raises(ValueError):
            source.register_mirror(mismatched)

    def test_telemetry_counts_quiet_run(self, tmp_path):
        relation, source = self.make_faulted_source(tmp_path, FaultPlan.quiet())
        delivered = [row for row, _t in source.open_stream()]
        assert delivered == relation.rows
        stats = source.telemetry.as_dict()
        assert stats["connects"] == 1
        assert stats["connect_retries"] == 0
        assert stats["read_faults"] == 0
        assert stats["rows_delivered"] == len(relation.rows)


def equivalence_plan(seed, row_count):
    """Every read-fault kind (two delays, so arrivals move mid-batch) at
    seeded offsets, plus seed-dependent connect flaps and connect delay."""
    rng = random.Random(f"envelope-equivalence:{seed}")
    kinds = (DELAY, RESET, OUTAGE, TRUNCATE, DELAY)
    offsets = rng.sample(range(row_count), len(kinds))
    return FaultPlan(
        {
            offset: Fault(
                kind,
                offset,
                seconds=rng.uniform(0.001, 0.01) if kind == DELAY else 0.0,
                count=rng.randint(1, 2) if kind == OUTAGE else 0,
            )
            for kind, offset in zip(kinds, offsets)
        },
        connect_flaps=seed % 3,
        connect_delay=0.004 if seed % 2 else 0.0,
    )


class TestEnvelopeBatchView:
    """`open_stream_columns(n)` is the chunk loop re-cut into batches; it
    must equal the per-row view pair for pair, telemetry and clock included."""

    ROWS = 300

    def envelope(self, path, relation, seed):
        timeline = SimulatedTimeline()
        transport = InjectedTransport(
            CSVFileTransport("r", path, relation.schema),
            equivalence_plan(seed, self.ROWS),
            stall=timeline.sleep,
        )
        return ResilientSource(transport, timeline=timeline)

    @staticmethod
    def flatten(columns):
        pairs = []
        for rows, arrivals in columns:
            pairs.extend(zip(rows, arrivals or [0.0] * len(rows)))
        return pairs

    @pytest.mark.parametrize("seed", range(20))
    def test_batches_equal_the_per_row_stream(self, tmp_path, seed):
        relation = make_relation(count=self.ROWS)
        path = str(tmp_path / "r.csv")
        write_csv(path, relation)
        resume_at = random.Random(seed).randrange(self.ROWS)

        def views(source):
            return source, source.reopen_from(resume_at, start_at=2.5)

        for batch_size in (1, 7, 64, 256):
            for view in (0, 1):
                by_row = self.envelope(path, relation, seed)
                by_batch = self.envelope(path, relation, seed)
                expected = list(views(by_row)[view].open_stream())
                got = self.flatten(
                    views(by_batch)[view].open_stream_columns(batch_size)
                )
                assert got == expected
                assert [row for row, _t in got] == relation.rows[
                    resume_at if view else 0 :
                ]
                assert by_batch.telemetry.as_dict() == by_row.telemetry.as_dict()
                assert by_batch.timeline.now() == by_row.timeline.now()
                arrivals = [t for _row, t in expected]
                assert arrivals == sorted(arrivals)
                if view == 0:
                    # every scheduled fault fired; the stalls and backoffs
                    # moved arrivals inside the stream, not only at its start
                    assert by_row.telemetry.read_faults == 3
                    assert len(set(arrivals)) > 3


class TestFixtureServer:
    def test_quiet_round_trip(self):
        relation = make_relation(count=60)
        with FixtureServer() as server:
            url = server.add_relation("r", relation)
            transport = HTTPTransport("r", url, relation.schema)
            source = ResilientSource(transport)
            delivered = [row for row, _t in source.open_stream()]
        assert delivered == relation.rows

    def test_server_side_faults_resume_exactly(self):
        relation = make_relation(count=60)
        plan = FaultPlan(
            {
                9: Fault(kind=RESET, offset=9),
                30: Fault(kind=TRUNCATE, offset=30),
                45: Fault(kind=DELAY, offset=45, seconds=0.01),
            }
        )
        with FixtureServer() as server:
            url = server.add_relation("r", relation, plan)
            transport = HTTPTransport("r", url, relation.schema)
            source = ResilientSource(transport)
            delivered = [row for row, _t in source.open_stream()]
        assert delivered == relation.rows
        assert source.telemetry.read_faults >= 2
        assert source.telemetry.resumes >= 2

    def test_seeded_faults_resume_exactly_on_real_time(self):
        """The deployment configuration: real sockets *and* a real clock —
        backoff really sleeps, arrivals are wall readings."""
        relation = make_relation(count=60)
        plan = FaultPlan.seeded(23, len(relation.rows))
        assert {RESET, DELAY} <= {fault.kind for fault in plan.read_faults.values()}
        with FixtureServer() as server:
            url = server.add_relation("r", relation, plan)
            source = ResilientSource(
                HTTPTransport("r", url, relation.schema), timeline=WallTimeline()
            )
            stream = list(source.open_stream())
        assert [row for row, _t in stream] == relation.rows
        arrivals = [arrival for _row, arrival in stream]
        assert arrivals == sorted(arrivals)
        # nothing arrives before the backoff the envelope really slept
        assert arrivals[-1] >= source.telemetry.backoff_seconds > 0.0
        assert source.telemetry.resumes >= 1

    def test_offset_query_serves_a_suffix(self):
        relation = make_relation(count=25)
        with FixtureServer() as server:
            url = server.add_relation("r", relation)
            transport = HTTPTransport("r", url, relation.schema)
            reader = transport.open(20)
            assert reader.read_rows(100) == relation.rows[20:]
            reader.close()

    def test_unknown_relation_is_a_connect_error(self):
        with FixtureServer() as server:
            transport = HTTPTransport(
                "ghost", server.url_for("ghost"), Schema.from_names(["a"])
            )
            with pytest.raises(ConnectError):
                transport.open(0)


    @pytest.mark.parametrize("kind", [RESET, OUTAGE, TRUNCATE])
    def test_a_fault_lands_at_its_row_whatever_the_chunking(self, kind):
        # 64-line HTTP chunks: offsets inside one, on the boundaries, and 0.
        relation = make_relation(count=200)
        offsets = (0, 37, 64, 128, 150)
        error = TruncatedPayloadError if kind == TRUNCATE else ReadError
        with FixtureServer() as server:
            for offset in offsets:
                plan = FaultPlan({offset: Fault(kind, offset, count=1)})
                url = server.add_relation(f"r{offset}", relation, plan)
                reader = HTTPTransport("r", url, relation.schema).open(0)
                received = []
                with pytest.raises(error):
                    while True:
                        chunk = reader.read_rows(50)
                        assert chunk, "the faulted stream read as complete"
                        received.extend(chunk)
                reader.close()
                assert received == relation.rows[:offset]

    def test_a_delay_flushes_the_rows_before_it(self):
        relation = make_relation(count=200)
        delay = 0.5
        with FixtureServer() as server:
            for offset in (0, 37, 64, 128):
                plan = FaultPlan({offset: Fault(DELAY, offset, seconds=delay)})
                url = server.add_relation(f"r{offset}", relation, plan)
                reader = HTTPTransport("r", url, relation.schema).open(0)
                started = wall_now()
                received = reader.read_rows(offset) if offset else []
                # the prefix does not wait for the stalled row behind it
                assert wall_now() - started < delay / 2
                assert received == relation.rows[:offset]
                while True:
                    chunk = reader.read_rows(50)
                    if not chunk:
                        break
                    received.extend(chunk)
                reader.close()
                assert wall_now() - started >= delay
                assert received == relation.rows

    def test_a_line_split_across_blocks_parses_once(self):
        class Blocks:
            def __init__(self, *blocks):
                self.blocks = list(blocks)

            def read1(self, size):
                return self.blocks.pop(0) if self.blocks else b""

        class Connection:
            def close(self):
                pass

        response = Blocks(
            b"[1, 2", b", 3]\n[4, 5, 6]\n[7, ", b"8, 9]\n", b'{"__end__": 3}\n'
        )
        reader = _HTTPReader(Connection(), response, width=3)
        assert reader.read_rows(2) == [(1, 2, 3), (4, 5, 6)]
        assert reader.read_rows(2) == [(7, 8, 9)]
        assert reader.read_rows(2) == []
        # a body that ends inside a record is a truncation, after its prefix
        cut = _HTTPReader(Connection(), Blocks(b"[1, 2, 3]\n[4, 5"), width=3)
        assert cut.read_rows(5) == [(1, 2, 3)]
        with pytest.raises(TruncatedPayloadError):
            cut.read_rows(5)


class TestThreadedPrefetch:
    def test_prefetch_preserves_rows_and_order(self, tmp_path):
        relation = make_relation(count=80)
        path = str(tmp_path / "r.csv")
        write_csv(path, relation)
        inner = ResilientSource(
            InjectedTransport(
                CSVFileTransport("r", path, relation.schema),
                FaultPlan.seeded(31, 80),
            )
        )
        prefetch = ThreadedPrefetchSource(inner, depth=2)
        delivered = [row for row, _t in prefetch.open_stream()]
        assert delivered == relation.rows

    def test_prefetch_propagates_failures(self):
        prefetch = ThreadedPrefetchSource(ResilientSource(FailingTransport()))
        with pytest.raises(CircuitOpenError):
            list(prefetch.open_stream())
