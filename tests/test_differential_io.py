"""Fault-injection differential suite: real backends vs the simulated oracle.

The PR's acceptance contract: ≥20 seeded workloads run over *real* file,
SQLite and HTTP backends — each wrapped in the resilience envelope and
subjected to a seeded schedule of delays, resets, outages and truncated
payloads — and every run's answer multiset must be identical to the
simulated-source oracle (local relations on the simulated clock) and to
the brute-force reference evaluation.

A *kill-the-envelope* control demonstrates the suite has teeth: a naive
reader over the same faulted transports (one connect, transport errors
swallowed as end-of-stream) silently loses rows on every seed whose plan
contains a lossy fault, and an engine run over naive sources disagrees
with the oracle.

A final integration case wires envelope mirrors into the adaptivity
kernel: a primary envelope that collapses into a long outage mid-stream
is failed over to its registered mirror by ``MirrorFailoverPolicy``, and
the stitched answers still match the oracle bit-for-bit.
"""

import signal
import sqlite3
from collections import Counter

import pytest

from differential import run_solo_corrective
from helpers import reference_spja

from repro.io import (
    CSVFileTransport,
    DBAPITransport,
    FaultPlan,
    FixtureServer,
    HTTPTransport,
    InjectedTransport,
    ResilientSource,
    TransportError,
)
from repro.io.faults import DELAY
from repro.relational.catalog import Catalog, TableStatistics
from repro.sources.source import DataSource
from workload_generator import generate_workload
from repro.io.backends import write_csv, write_sqlite
from repro.io.errors import ConnectError

SEEDS = range(20)

TEST_DEADLINE_SECONDS = 120


@pytest.fixture(autouse=True)
def hard_deadline():
    """Hard per-test timeout so a wedged socket cannot hang the suite."""

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


def plan_for(seed: int, index: int, row_count: int) -> FaultPlan:
    """The deterministic fault plan for relation ``index`` of ``seed``."""
    return FaultPlan.seeded(seed * 1009 + index, row_count)


def fault_plans(workload) -> dict[str, FaultPlan]:
    return {
        name: plan_for(workload.seed, index, len(relation.rows))
        for index, (name, relation) in enumerate(workload.relations.items())
    }


def csv_sources(workload, tmp_path, plans) -> dict[str, ResilientSource]:
    sources = {}
    for name, relation in workload.relations.items():
        path = str(tmp_path / f"{name}.csv")
        write_csv(path, relation)
        transport = CSVFileTransport(name, path, relation.schema)
        sources[name] = ResilientSource(InjectedTransport(transport, plans[name]))
    return sources


def sqlite_sources(workload, tmp_path, plans) -> dict[str, ResilientSource]:
    sources = {}
    for name, relation in workload.relations.items():
        path = str(tmp_path / f"{name}.db")
        query = write_sqlite(path, relation)
        transport = DBAPITransport(
            name, lambda path=path: sqlite3.connect(path), query, relation.schema
        )
        sources[name] = ResilientSource(InjectedTransport(transport, plans[name]))
    return sources


def http_sources(workload, server, plans) -> dict[str, ResilientSource]:
    sources = {}
    for name, relation in workload.relations.items():
        url = server.add_relation(name, relation, plans[name])
        transport = HTTPTransport(name, url, relation.schema)
        sources[name] = ResilientSource(transport)
    return sources


def oracle_multiset(workload):
    """The simulated-source oracle: local relations, simulated clock."""
    _report, observables = run_solo_corrective(
        workload, batch_size=64, sources=dict(workload.relations)
    )
    return observables.multiset


class NaiveSource(DataSource):
    """The kill-the-envelope control: one connect, faults read as EOF.

    This is exactly the bug the envelope exists to prevent — a transport
    error mid-stream is indistinguishable from a clean end of data, so
    every lossy fault silently truncates the relation.
    """

    def __init__(self, transport) -> None:
        super().__init__(transport.name, transport.schema)
        self.transport = transport

    def _stream_columns(self, batch_size, offset, start_at):
        try:
            reader = self.transport.open(offset)
        except TransportError:
            return
        try:
            while True:
                chunk = reader.read_rows(batch_size)
                if not chunk:
                    return
                yield chunk, None
        except TransportError:
            return  # swallowed: rows silently lost
        finally:
            reader.close()


def plan_is_lossy(plan: FaultPlan, row_count: int) -> bool:
    """Does the plan guarantee the naive reader loses rows?"""
    if row_count == 0:
        return False
    if plan.connect_flaps > 0:
        return True  # naive never retries the connect: zero rows
    return any(fault.kind != DELAY for fault in plan.read_faults.values())


@pytest.mark.parametrize("seed", SEEDS)
def test_real_backends_match_the_simulated_oracle(seed, tmp_path):
    workload = generate_workload(seed)
    plans = fault_plans(workload)
    reference = Counter(reference_spja(workload.query, workload.relations))
    oracle = oracle_multiset(workload)
    assert oracle == reference, (
        f"seed {seed}: simulated oracle disagrees with the reference "
        f"evaluation on {workload.query.name}"
    )

    columns = {
        "csv": csv_sources(workload, tmp_path, plans),
        "sqlite": sqlite_sources(workload, tmp_path, plans),
    }
    with FixtureServer() as server:
        columns["http"] = http_sources(workload, server, plans)
        for label, sources in columns.items():
            _report, observables = run_solo_corrective(
                workload, batch_size=64, sources=sources
            )
            assert observables.multiset == oracle, (
                f"seed {seed}: faulted {label} backend disagrees with the "
                f"simulated oracle on {workload.query.name} (plans: "
                + "; ".join(
                    f"{name}={plan.describe()}" for name, plan in plans.items()
                )
            )


def test_the_suite_actually_injects_every_lossy_fault_kind():
    """The 20 seeds must cover resets, outages and truncations."""
    kinds = set()
    flaps = 0
    for seed in SEEDS:
        workload = generate_workload(seed)
        for plan in fault_plans(workload).values():
            kinds.update(fault.kind for fault in plan.read_faults.values())
            flaps += plan.connect_flaps
    assert {"reset", "outage", "truncate"} <= kinds, kinds
    assert flaps > 0


def test_killed_envelope_loses_rows_on_every_lossy_plan(tmp_path):
    """Control: the same faults without the envelope mean silent row loss."""
    lossy_seeds = 0
    for seed in SEEDS:
        workload = generate_workload(seed)
        for index, (name, relation) in enumerate(workload.relations.items()):
            plan = plan_for(seed, index, len(relation.rows))
            path = str(tmp_path / f"{seed}_{name}.csv")
            write_csv(path, relation)
            transport = InjectedTransport(
                CSVFileTransport(name, path, relation.schema), plan
            )
            delivered = [row for row, _t in NaiveSource(transport).open_stream()]
            if plan_is_lossy(plan, len(relation.rows)):
                lossy_seeds += 1
                assert len(delivered) < len(relation.rows), (
                    f"seed {seed} {name}: naive reader should have lost rows "
                    f"under {plan.describe()}"
                )
            else:
                assert delivered == relation.rows
    assert lossy_seeds >= 5, "the seeded plans barely exercise lossy faults"


def test_killed_envelope_breaks_the_engine_differential(tmp_path):
    """Control at engine level: naive sources disagree with the oracle."""
    from repro.io.faults import RESET, Fault

    for seed in SEEDS:
        workload = generate_workload(seed)
        # Inject a guaranteed mid-stream reset into the largest relation —
        # the workload must actually produce rows, or losing input cannot
        # change the (empty) answer.
        victim = max(workload.relations, key=lambda n: len(workload.relations[n].rows))
        if len(workload.relations[victim].rows) >= 4 and reference_spja(
            workload.query, workload.relations
        ):
            break
    else:  # pragma: no cover - the seeded workloads always produce answers
        pytest.skip("no workload with a non-empty answer")
    cut = 1  # lose all but the first row of the victim relation
    sources: dict[str, object] = dict(workload.relations)
    path = str(tmp_path / f"{victim}.csv")
    write_csv(path, workload.relations[victim])
    sources[victim] = NaiveSource(
        InjectedTransport(
            CSVFileTransport(victim, path, workload.relations[victim].schema),
            FaultPlan({cut: Fault(kind=RESET, offset=cut)}),
        )
    )
    oracle = oracle_multiset(workload)
    _report, observables = run_solo_corrective(workload, batch_size=64, sources=sources)
    assert observables.multiset != oracle, (
        "the naive reader swallowed a mid-stream reset yet the answers "
        "still matched — the differential suite has no teeth"
    )


class PrefixThenOutageTransport(CSVFileTransport):
    """Serves rows normally, but connects fail ``outage_connects`` times
    once ``fail_after`` rows have been served — a collapsed primary."""

    def __init__(self, name, path, schema, fail_after: int, outage_connects: int = 6):
        super().__init__(name, path, schema)
        self.fail_after = fail_after
        self.outage_connects = outage_connects
        self.served = 0

    def open(self, offset):
        if offset >= self.fail_after and self.outage_connects > 0:
            self.outage_connects -= 1
            raise ConnectError(f"{self.name}: primary collapsed")
        reader = super().open(offset)
        if offset < self.fail_after:
            # Cut the stream at the collapse point: deliver the healthy
            # prefix, then the next reconnect hits the outage above.
            inner_rows = reader.read_rows(self.fail_after - offset)

            class PrefixReader:
                def __init__(self_inner):
                    self_inner._rows = inner_rows
                    self_inner._done = False

                def read_rows(self_inner, max_rows):
                    if self_inner._rows:
                        chunk = self_inner._rows[:max_rows]
                        self_inner._rows = self_inner._rows[max_rows:]
                        return chunk
                    if self_inner._done:
                        return []
                    self_inner._done = True
                    raise ConnectError("primary collapsed mid-stream")

                def close(self_inner):
                    pass

            reader.close()
            return PrefixReader()
        return reader


def test_mirror_failover_across_envelopes(tmp_path):
    """A collapsed primary envelope fails over to its mirror envelope and
    the stitched answers still match the simulated oracle."""
    workload = generate_workload(3)
    reference = Counter(reference_spja(workload.query, workload.relations))
    promised = 4000.0

    catalog = Catalog()
    sources: dict[str, object] = {}
    for name, relation in workload.relations.items():
        path = str(tmp_path / f"{name}.csv")
        write_csv(path, relation)
        primary = ResilientSource(
            PrefixThenOutageTransport(
                name, path, relation.schema, fail_after=max(len(relation.rows) // 3, 1)
            ),
            promised_rate=promised,
        )
        mirror = ResilientSource(
            CSVFileTransport(name, path, relation.schema),
            promised_rate=promised,
        )
        primary.register_mirror(mirror)
        sources[name] = primary
        catalog.register(
            name, relation.schema, TableStatistics(promised_rate=promised)
        )

    report, observables = run_solo_corrective(
        workload,
        batch_size=64,
        catalog=catalog,
        sources=sources,
        failover_adaptive=True,
        failover_stall_seconds=0.005,
    )
    assert observables.multiset == reference, (
        "mirror failover across resilience envelopes changed the answers"
    )
    failovers = report.details.get("adaptation", {}).get("failovers", [])
    assert failovers, "the collapsed primary never failed over to its mirror"
