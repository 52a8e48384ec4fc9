"""Unit tests for the real-I/O fabric: backends, faults, envelope, fixture server.

Covers the fabric's contracts directly:

* seeded-jitter backoff determinism, cap behavior, and retry-budget
  exhaustion surfacing as a circuit-breaker trip;
* resume-offset correctness — no duplicated and no dropped rows after a
  mid-stream reconnect on every backend;
* the fixture server's wire protocol (completeness marker, fault shapes,
  64-line chunk framing — byte for byte against a row-at-a-time reference
  encoder), and seeded faults resumed exactly on a `WallTimeline` over real
  sockets;
* the streaming read contract — lazy offset-resuming file readers, prefix
  then raise on a cut record or a cut character, a shrunken source never
  read as end-of-stream, the JSON-lines block parser equal to a per-line
  ``json.loads``, and the envelope's column view equal to its per-row view.

The CI ``io`` job runs this file with ``-W error::ResourceWarning`` (and
pytest's unraisable-exception warning as an error): file readers hold a
handle between calls, so a leaked one must fail.

Every test runs under a hard SIGALRM deadline so a wedged socket or a
stuck breaker loop fails fast instead of hanging the suite.
"""

import gc
import json
import random
import signal
import socket
import sqlite3
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    TruncatedPayloadError,
    write_csv,
    write_jsonl,
    write_sqlite,
)
from repro.io.backends import Transport, _HTTPReader, compile_csv_decoder, scan_json_rows
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
from repro.workloads.queries import query_10
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
    return Relation(name, schema, rows)


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
            for chunk, _arrivals in source.open_stream_columns(1):
                delivered.extend(chunk)
        assert delivered == [(1, 2, 3), (4, 5, 6)]
        assert source.telemetry.truncations == 3
        assert source.telemetry.connect_retries == 0

    @pytest.mark.parametrize("kind", ["csv", "jsonl"])
    def test_a_saved_cut_keeps_its_traceback_and_is_forgotten_on_close(self, tmp_path, kind):
        path = tmp_path / f"cut.{kind}"
        path.write_text("a,b,c\n1,2,3\n7,8\n" if kind == "csv" else "[1,2,3]\n[7,8")
        transport = (CSVFileTransport if kind == "csv" else JSONLinesTransport)(
            "cut", str(path), Schema.from_names(["a", "b", "c"])
        )

        def traceback_length(exc):
            length, tb = 0, exc.__traceback__
            while tb is not None:
                length, tb = length + 1, tb.tb_next
            return length

        # every later call raises the cut again, and no raise adds frames to it
        reader = transport.open(0)
        assert reader.read_rows(10) == [(1, 2, 3)]
        lengths = []
        for _ in range(4):
            try:
                reader.read_rows(10)
            except TruncatedPayloadError as exc:
                lengths.append(traceback_length(exc))
        assert lengths == [lengths[0]] * 4
        reader.close()
        # the saved fault's traceback holds the reader's frame: close() forgets
        # it, so a failed-then-closed reader is freed without the collector
        gc.collect()
        gc.disable()
        try:
            reader = transport.open(0)
            reader.read_rows(10)
            with pytest.raises(TruncatedPayloadError):
                reader.read_rows(10)
            reader.close()
            del reader
            assert gc.collect() == 0
        finally:
            gc.enable()

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
            for chunk, _arrivals in source.open_stream_columns(1):
                delivered.extend(chunk)
        assert delivered == [(1, 2, 3), (4, 5, 6), (7, 8, 9)]

    def test_file_readers_convert_only_what_is_read(self, tmp_path):
        # Only records 6 000–6 004 convert: had any other been converted, not
        # just scanned past, the int columns would have raised.
        schema = Schema.from_names(["a", "b", "c"], types=["int", "int", "int"])
        good = [(i, i * 2, i * i) for i in range(6_000, 6_005)]
        path = tmp_path / "big.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("a,b,c\r\n" + "x,y,z\r\n" * 6_000)
            handle.writelines(f"{a},{b},{c}\r\n" for a, b, c in good)
            handle.write("x,y,z\r\n" * 3_995)
        transport = CSVFileTransport("big", str(path), schema)
        transport.open(0).close()
        reader = transport.open(6_000)
        assert reader.read_rows(5) == good
        with pytest.raises(TruncatedPayloadError):
            reader.read_rows(5)
        reader.close()

    @pytest.mark.parametrize("kind", ["csv", "jsonl", "sqlite", "http"])
    def test_resume_past_a_shrunken_source_is_not_end_of_stream(
        self, tmp_path, kind
    ):
        relation = make_relation(count=10)
        with FixtureServer() as server:
            transport = make_transport(kind, tmp_path, relation, server)
            # the whole source delivered: a valid, verified-empty remainder
            reader = transport.open(10)
            assert reader.read_rows(5) == []
            reader.close()
            # the source holds fewer rows than were already delivered
            with pytest.raises(TruncatedPayloadError):
                transport.open(11)
            source = ResilientSource(transport, connect_retry_limit=1)
            with pytest.raises(CircuitOpenError):
                list(source.open_stream_columns(1, offset=11, start_at=0.0))
            # ... because it changed between two accesses (Section 3.5): 8 of
            # 10 rows delivered, then the same path / endpoint holds 5
            reader = transport.open(8)
            assert reader.read_rows(8) == relation.rows[8:]
            reader.close()
            make_transport(kind, tmp_path, make_relation(count=5), server)
            with pytest.raises(TruncatedPayloadError):
                transport.open(8)

    @pytest.mark.parametrize("kind", ["csv", "jsonl"])
    def test_a_file_cut_inside_a_character_is_a_truncation(self, tmp_path, kind):
        schema = Schema.from_names(["a", "b"], types=["int", "str"])
        rows = [(1, "zoé"), (2, "año"), (3, "café")]
        if kind == "csv":
            text = "a,b\r\n" + "".join(f"{a},{b}\r\n" for a, b in rows)
        else:
            text = "".join(
                json.dumps(list(row), ensure_ascii=False) + "\n" for row in rows
            )
        data = text.encode("utf-8")
        path = tmp_path / f"cut.{kind}"
        # the file ends on the first byte of the last record's two-byte "é"
        path.write_bytes(data[: data.rindex("é".encode("utf-8")) + 1])
        make = CSVFileTransport if kind == "csv" else JSONLinesTransport
        transport = make("cut", str(path), schema)
        reader = transport.open(0)
        assert reader.read_rows(10) == rows[:2]
        with pytest.raises(TruncatedPayloadError):
            reader.read_rows(10)
        reader.close()
        # a resume whose positioning scan runs into the cut fails from open
        with pytest.raises(TruncatedPayloadError):
            transport.open(3)
        # behind the envelope it is a counted, retried read fault
        source = ResilientSource(transport, read_retry_limit=2)
        delivered = []
        with pytest.raises(CircuitOpenError):
            for chunk, _arrivals in source.open_stream_columns(1):
                delivered.extend(chunk)
        assert delivered == rows[:2]
        assert source.telemetry.read_faults == source.telemetry.truncations == 3
        assert source.telemetry.connect_retries == 0

    def test_csv_cut_header_and_parser_errors_are_truncations(self, tmp_path):
        schema = Schema.from_names(["a", "b"], types=["int", "str"])
        path = tmp_path / "bad.csv"
        transport = CSVFileTransport("bad", str(path), schema)
        path.write_bytes("é,b".encode("utf-8")[:1])  # cut inside the header
        with pytest.raises(TruncatedPayloadError):
            transport.open(0)
        # csv.Error (a field over the parser's limit) and a field that does
        # not convert: both after the valid prefix, both normalised
        for bad in ('2,"' + "x" * 200_000 + '"', "two,b"):
            path.write_text(f"a,b\r\n1,one\r\n{bad}\r\n3,three\r\n")
            reader = transport.open(0)
            assert reader.read_rows(10) == [(1, "one")]
            with pytest.raises(TruncatedPayloadError):
                reader.read_rows(10)
            reader.close()

    @pytest.mark.parametrize("name", ["orders", "lineitem"])
    def test_csv_round_trips_tpch_rows_with_int_dates(self, tmp_path, name):
        relation = TPCHGenerator(scale_factor=0.001, seed=5).generate().relations[name]
        path = str(tmp_path / f"{name}.csv")
        write_csv(path, relation)
        reader = CSVFileTransport(name, path, relation.schema).open(0)
        assert reader.read_rows(100_000) == relation.rows
        reader.close()

    def test_query_10_over_csv_sources_matches_the_local_oracle(self, tmp_path):
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
            return Counter(processor.execute(query_10()).rows)

        oracle = answer(dataset.sources)
        assert oracle  # the date predicates select something
        assert answer(sources) == oracle

    def test_generated_converter_source(self):
        decode = compile_csv_decoder(LINEITEM_SCHEMA)
        assert decode.__compiled_source__ == (
            "def decode(records, rows):\n"
            "    append = rows.append\n"
            "    for v0, v1, v2, v3, v4, v5, v6, v7, v8, in records:\n"
            "        append((int(v0), int(v1), int(v2), int(v3), float(v4), "
            "float(v5), float(v6), v7, _parse_literal(v8),))\n"
        )

        def convert(decoder, *records):
            rows = []
            decoder(iter(records), rows)
            return rows

        values = ["1", "2", "3", "4", "5.5", "0.1", "4.95", "R", "1753"]
        assert convert(decode, values) == [(1, 2, 3, 4, 5.5, 0.1, 4.95, "R", 1753)]
        one = compile_csv_decoder(Schema.from_names(["a"], types=["int"]))
        assert "for v0, in records:" in one.__compiled_source__
        assert convert(one, ["7"], ["8"]) == [(7,), (8,)]
        iso = compile_csv_decoder(Schema.from_names(["d"], types=["date"]))
        assert convert(iso, ["1998-09-02"]) == [("1998-09-02",)]
        # the unpack is the width check, and the records before it stay
        rows = []
        with pytest.raises(ValueError):
            one(iter([["7"], ["8", "9"]]), rows)
        assert rows == [(7,)]

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

    def test_an_open_at_an_offset_continues_exactly(self, tmp_path):
        relation, source = self.make_faulted_source(
            tmp_path, FaultPlan.seeded(5, 40)
        )
        out = TestEnvelopeBatchView.flatten(
            source.open_stream_columns(8, offset=17, start_at=9.0)
        )
        assert [row for row, _t in out] == relation.rows[17:]
        assert all(t >= 9.0 for _row, t in out)
        # the connection ran on a branch: the envelope's own clock stayed put
        assert source.timeline.now() == 0.0

    def test_register_mirror_requires_matching_schema(self, tmp_path):
        relation, source = self.make_faulted_source(tmp_path, FaultPlan.quiet())
        other = ResilientSource(FailingTransport("other"))
        source.register_mirror(other)
        assert source.mirrors == [other]
        bad_schema = Schema.from_names(["x", "y"])
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
    """Batch-size invariance: `open_stream_columns(n)` re-cuts the one chunk
    loop into columns of `n` rows, and for every `n` — from the start and
    resumed at an offset on a branched timeline — it must equal the
    one-row-at-a-time stream, `n = 1`, row for row and stamp for stamp,
    telemetry and clock included."""

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

        for offset, start_at in ((0, None), (resume_at, 2.5)):
            by_row = self.envelope(path, relation, seed)
            expected = self.flatten(by_row.open_stream_columns(1, offset, start_at))
            assert [row for row, _t in expected] == relation.rows[offset:]
            arrivals = [t for _row, t in expected]
            assert arrivals == sorted(arrivals)
            if start_at is None:
                # every scheduled fault fired; the stalls and backoffs
                # moved arrivals inside the stream, not only at its start
                assert by_row.telemetry.read_faults == 3
                assert len(set(arrivals)) > 3
            else:
                assert arrivals[0] >= start_at
            for batch_size in (7, 64, 256):
                by_batch = self.envelope(path, relation, seed)
                got = self.flatten(
                    by_batch.open_stream_columns(batch_size, offset, start_at)
                )
                assert got == expected
                assert by_batch.telemetry.as_dict() == by_row.telemetry.as_dict()
                assert by_batch.timeline.now() == by_row.timeline.now()


class Blocks:
    """An HTTP response body that arrives in exactly these blocks."""

    def __init__(self, *blocks):
        self.blocks = list(blocks)

    def read1(self, size):
        return self.blocks.pop(0) if self.blocks else b""


class NoConnection:
    def close(self):
        pass


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
                # At offset 0 the server starts the delay when the request
                # arrives, inside ``open``: the total bracket starts before it.
                requested = wall_now()
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
                assert wall_now() - requested >= delay
                assert received == relation.rows

    def test_a_line_split_across_blocks_parses_once(self):
        response = Blocks(
            b"[1, 2", b", 3]\n[4, 5, 6]\n[7, ", b"8, 9]\n", b'{"__end__": 3}\n'
        )
        reader = _HTTPReader(NoConnection(), response, width=3)
        assert reader.read_rows(2) == [(1, 2, 3), (4, 5, 6)]
        assert reader.read_rows(2) == [(7, 8, 9)]
        assert reader.read_rows(2) == []
        # a body that ends inside a record is a truncation, after its prefix
        cut = _HTTPReader(NoConnection(), Blocks(b"[1, 2, 3]\n[4, 5"), width=3)
        assert cut.read_rows(5) == [(1, 2, 3)]
        with pytest.raises(TruncatedPayloadError):
            cut.read_rows(5)


def raw_body(url, offset):
    """The bytes one ``GET ...?offset=N`` puts on a socket, headers aside
    (or the status, when it is not 200)."""
    parts = url.split("/", 3)
    host, port = parts[2].split(":")
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(
            f"GET /{parts[3]}?offset={offset} HTTP/1.1\r\n"
            f"Host: {host}\r\nConnection: close\r\n\r\n".encode()
        )
        received = b""
        while True:
            block = sock.recv(1 << 16)
            if not block:
                break
            received += block
    head, _, body = received.partition(b"\r\n\r\n")
    return body if head.startswith(b"HTTP/1.1 200") else int(head.split()[1])


def reference_body(rows, offset, faults):
    """The wire protocol from scratch, a row at a time: JSON lines in HTTP
    chunks of at most 64, a flush before a fault, the marker in the last."""
    out, lines = [], []

    def flush():
        if lines:
            data = b"".join(lines)
            out.append(b"%X\r\n" % len(data) + data + b"\r\n")
            lines.clear()

    for position in range(offset, len(rows)):
        fault = faults.get(position)
        if fault is not None:
            flush()
            if fault.kind in (RESET, OUTAGE):
                return b"".join(out)  # the socket is dropped mid-body
            if fault.kind == TRUNCATE:
                return b"".join(out) + b"0\r\n\r\n\r\n"  # a clean end, unmarked
        lines.append(json.dumps(list(rows[position])).encode() + b"\n")
        if len(lines) >= 64:
            flush()
    lines.append(json.dumps({"__end__": len(rows) - offset}).encode() + b"\n")
    flush()
    return b"".join(out) + b"0\r\n\r\n\r\n"


class TestFixtureServerWire:
    """The served relation is pre-encoded and sliced; the bytes on the wire
    and their chunk framing are still the row-at-a-time protocol's."""

    ROWS = 150

    @pytest.mark.parametrize("kind", [DELAY, RESET, OUTAGE, TRUNCATE])
    def test_response_bytes_equal_the_reference_encoder(self, kind):
        relation = make_relation(count=self.ROWS)
        with FixtureServer() as server:
            for at in (0, 1, 63, 64, 65, self.ROWS - 1):
                for start in (0, 10):
                    fault = Fault(kind, at, seconds=0.001, count=1)
                    url = server.add_relation("r", relation, FaultPlan({at: fault}))
                    expected = reference_body(relation.rows, start, {at: fault})
                    assert raw_body(url, start) == expected, (kind, at, start)
                    if at >= start:
                        # the fault fired (an outage refuses the next connect
                        # too); after that a reconnect passes its row
                        if kind == OUTAGE:
                            assert raw_body(url, start) == 503
                        clean = reference_body(relation.rows, start, {})
                        assert raw_body(url, start) == clean, (kind, at, start)

    def test_concurrent_requests_fire_a_fault_once_between_them(self):
        relation = make_relation(count=self.ROWS)
        fault = Fault(RESET, 100)
        bodies = []
        with FixtureServer() as server:
            url = server.add_relation("r", relation, FaultPlan({100: fault}))
            threads = [
                threading.Thread(target=lambda: bodies.append(raw_body(url, 0)))
                for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        assert sorted(bodies, key=len) == [
            reference_body(relation.rows, 0, {100: fault}),
            reference_body(relation.rows, 0, {}),
        ]

    def test_reregistering_keeps_or_replaces_the_encoded_body(self):
        relation = make_relation(count=20)
        served = list(relation.rows)
        with FixtureServer() as server:
            url = server.add_relation("r", relation)
            # The same object again (the benchmark does this before every
            # round, for a fresh fault script) is not encoded again.  Seen
            # from outside by breaking the contract that makes it safe — a
            # Relation is never mutated in place: the edit is not served.
            relation.rows[0] = (-1, -1, -1)
            server.add_relation("r", relation, FaultPlan.quiet())
            assert raw_body(url, 0) == reference_body(served, 0, {})
            # another object under the served name: its rows are served
            other = Relation("r", relation.schema, relation.rows[:7])
            assert server.add_relation("r", other) == url
            assert raw_body(url, 0) == reference_body(other.rows, 0, {})
            reader = HTTPTransport("r", url, relation.schema).open(0)
            assert reader.read_rows(100) == other.rows
            reader.close()


# -- the JSON-lines block parser against a per-line json.loads reference ---------

json_values = st.one_of(
    st.integers(-5, 5), st.text(max_size=3), st.floats(allow_nan=False, width=16),
    st.none(), st.booleans(),
)  # fmt: skip
row_lines = st.lists(json_values, min_size=3, max_size=3).map(
    lambda row: json.dumps(row, ensure_ascii=False)
)
odd_lines = st.one_of(
    st.sampled_from(["", "   ", "\t", "7", '"text"', "null", "[1, 2]", "[1, 2, 3, 4]"]),
    st.sampled_from(["[1, 2, 3] [4, 5, 6]", "[1,1],[[2]", "[3]]", "[1, 2", '[1, "a'] ),
    row_lines.map(lambda line: "  " + line), row_lines.map(lambda line: line + " \t"),
    st.integers(0, 6).map(lambda n: json.dumps({"__end__": n})),
    st.just('{"other": 1}'),
)  # fmt: skip


def reference_rows(lines, width, marker_ends):
    """Rows then outcome, one ``json.loads`` per line.  On the wire the
    marker ends the stream (and must count right); in a file it is just a
    malformed record and the end of the file is the end of the stream."""
    rows = []
    for line in lines:
        if not line.strip():
            continue
        try:
            document = json.loads(line)
        except ValueError:
            return rows, "cut"
        if marker_ends and isinstance(document, dict):
            served = document.get("__end__")
            return rows, "complete" if served == len(rows) else "cut"
        if not isinstance(document, list) or len(document) != width:
            return rows, "cut"
        rows.append(tuple(document))
    return rows, "cut" if marker_ends else "complete"


def drain(reader, sizes):
    """Rows then outcome through ``read_rows``, in calls of the drawn sizes."""
    rows = []
    try:
        for size in sizes:
            chunk = reader.read_rows(size)
            if not chunk:
                return rows, "complete"
            rows.extend(chunk)
    except TruncatedPayloadError:
        return rows, "cut"
    finally:
        reader.close()
    raise AssertionError("the drawn read sizes ran out")


def undecodable_after(line):
    yield line
    raise UnicodeDecodeError("utf-8", b"\xe2", 0, 1, "unexpected end of data")


class TestScanJsonRows:
    """The one JSON-lines validator, branch by branch: ``(rows kept, what
    it returns or the message it raises)`` for a limit of two rows."""

    CASES = {
        "stops-at-the-limit": (["[1, 2]\n", "[3, 4]\n", "[5, 6]\n"], [(1, 2), (3, 4)], None),
        "blank-lines-are-no-rows": (["\n", "[1, 2]\n", "  \n"], [(1, 2)], None),
        "marker-is-returned": (["[1, 2]\n", '{"__end__": 1}\n', "[3, 4]"], [(1, 2)], {"__end__": 1}),
        "cut-record": (["[1, 2]\n", "[3,"], [(1, 2)], "cut mid-record"),
        "two-documents": (["[1, 2][3, 4]\n"], [], "cut mid-record"),
        "wrong-width": (["[1, 2]\n", "[1, 2, 3]\n"], [(1, 2)], "malformed row"),
        "scalar": (["7\n"], [], "malformed row"),
        "cut-character": (lambda: undecodable_after("[1, 2]\n"), [(1, 2)], "cut inside a character"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_branches(self, case):
        lines, kept, outcome = self.CASES[case]
        lines, rows = lines() if callable(lines) else iter(lines), []
        if isinstance(outcome, str):
            with pytest.raises(TruncatedPayloadError, match=f"blk: {outcome}"):
                scan_json_rows(lines, 2, rows, 2, "blk")
        else:
            assert scan_json_rows(lines, 2, rows, 2, "blk") == outcome
        assert rows == kept


class TestJSONLinesBlocks:
    @settings(max_examples=100, deadline=None)
    @given(
        lines=st.lists(st.one_of(row_lines, row_lines, row_lines, odd_lines), max_size=12),
        cut_last=st.booleans(),
        cuts=st.lists(st.integers(0, 400), max_size=6),
        size=st.integers(1, 5),
    )
    def test_http_reader_and_file_reader_equal_the_per_line_reference(
        self, tmp_path_factory, lines, cut_last, cuts, size
    ):
        if cut_last and lines:
            lines[-1] = lines[-1][: len(lines[-1]) // 2]
        text = "\n".join(lines) + ("" if cut_last else "\n")
        sizes = [size] * (len(lines) + 2)

        # over the wire: the same bytes in blocks cut anywhere
        data = text.encode("utf-8")
        edges = sorted({min(cut, len(data)) for cut in cuts} | {0, len(data)})

        blocks = Blocks(*(data[a:b] for a, b in zip(edges, edges[1:])))
        reader = _HTTPReader(NoConnection(), blocks, width=3)
        assert drain(reader, sizes) == reference_rows(
            data.split(b"\n"), 3, marker_ends=True
        )

        # from a file
        path = tmp_path_factory.mktemp("jsonl") / "block.jsonl"
        path.write_bytes(data)
        schema = Schema.from_names(["a", "b", "c"])
        reader = JSONLinesTransport("block", str(path), schema).open(0)
        assert drain(reader, sizes) == reference_rows(
            text.split("\n"), 3, marker_ends=False
        )

