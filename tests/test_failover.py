"""Unit tests for the mirror-failover machinery.

Bottom-up over the three layers the tentpole touches: the source layer
(mirror registration and resumed streams), the cursor (mid-stream
re-pointing), and the policy (sustained-outage detection and the action it
proposes through the controller).  The end-to-end answer contract lives in
the mirror-failover differential suite.
"""

from __future__ import annotations

import pytest

from differential import mirror_outage_setup, run_solo_corrective

from repro.workloads.differential import generate_workload

from repro.adaptivity import (
    AdaptationController,
    FailoverSourceAction,
    MirrorFailoverPolicy,
)
from repro.adaptivity.events import SourceRateEvent
from repro.engine.pipelined import SourceCursor
from repro.relational.catalog import Catalog
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sources.network import ConstantRateNetworkModel, InstantNetworkModel
from repro.sources.remote import RemoteSource


def _relation(name: str = "r", rows: int = 20) -> Relation:
    schema = Schema.from_names([f"{name}_k", f"{name}_v"], relation=name)
    return Relation(name, schema, [(i, i * 10) for i in range(rows)])


class TestMirrorRegistration:
    def test_register_and_order(self):
        relation = _relation()
        primary = RemoteSource(relation, ConstantRateNetworkModel(100.0))
        m1 = RemoteSource(relation, InstantNetworkModel(), name="r_mirror1")
        m2 = RemoteSource(relation, InstantNetworkModel(), name="r_mirror2")
        assert primary.register_mirror(m1) is m1
        primary.register_mirror(m2)
        assert primary.mirrors == [m1, m2]

    def test_rejects_different_rows(self):
        primary = RemoteSource(_relation(rows=20), InstantNetworkModel())
        impostor = RemoteSource(_relation(rows=19), InstantNetworkModel())
        with pytest.raises(ValueError, match="same rows"):
            primary.register_mirror(impostor)

    def test_rejects_different_schema(self):
        primary = RemoteSource(_relation("r"), InstantNetworkModel())
        other = RemoteSource(_relation("s"), InstantNetworkModel())
        with pytest.raises(ValueError, match="schema"):
            primary.register_mirror(other)


class TestResumedMirrorStream:
    def test_schedule_rebased_to_connection_time(self):
        relation = _relation(rows=10)
        mirror = RemoteSource(relation, ConstantRateNetworkModel(10.0, latency=1.0))
        chunks = list(mirror.open_stream_columns(4, offset=4, start_at=50.0))
        rows = [row for chunk_rows, _arr in chunks for row in chunk_rows]
        assert rows == relation.rows[4:]
        arrivals = [t for _rows, arr in chunks for t in arr]
        # ConstantRate(10/s, latency 1): first remaining tuple lands at
        # connection + latency, then every 0.1s.
        assert arrivals[0] == pytest.approx(51.0)
        assert arrivals[1] == pytest.approx(51.1)
        assert all(a <= b for a, b in zip(arrivals, arrivals[1:]))

    def test_arrived_by_continues_the_primarys_numbering(self):
        mirror = RemoteSource(_relation(rows=10), ConstantRateNetworkModel(10.0, latency=1.0))
        resumed = dict(offset=4, start_at=50.0)
        assert mirror.arrived_by(50.0, **resumed) == 4  # nothing new yet, 4 already read
        assert mirror.arrived_by(51.05, **resumed) == 5
        assert mirror.arrived_by(1e9, **resumed) == 10

    def test_open_counts_toward_the_mirror(self):
        mirror = RemoteSource(_relation(), InstantNetworkModel())
        list(mirror.open_stream_columns(8, offset=0, start_at=0.0))
        assert mirror.open_count == 1

    def test_offset_validation(self):
        mirror = RemoteSource(_relation(), InstantNetworkModel())
        with pytest.raises(ValueError):
            mirror.open_stream_columns(8, offset=-1, start_at=0.0)


class TestCursorFailover:
    def test_mid_stream_resume_preserves_rows_and_counters(self):
        relation = _relation(rows=30)
        primary = RemoteSource(relation, ConstantRateNetworkModel(1000.0))
        mirror = RemoteSource(
            relation, ConstantRateNetworkModel(2000.0, latency=0.5), name="m"
        )
        cursor = SourceCursor("r", primary, prefetch=8)
        first = [cursor.read()[0] for _ in range(12)]
        assert cursor.consumed == 12

        cursor.failover_to(mirror, start_at=7.0)
        assert not cursor.exhausted
        rest = []
        while True:
            item = cursor.read()
            if item is None:
                break
            rest.append(item)
        # Same rows as an uninterrupted primary read, in order.
        assert first + [row for row, _t in rest] == relation.rows
        assert cursor.consumed == len(relation)
        assert cursor.exhausted
        # Arrivals come from the mirror's re-based schedule.
        assert rest[0][1] == pytest.approx(7.5)
        # The delivery oracle now answers with the resumed numbering.
        assert cursor.arrived_by(7.0) == 12

    def test_order_detectors_survive_failover(self):
        relation = _relation(rows=16)
        primary = RemoteSource(relation, InstantNetworkModel())
        mirror = RemoteSource(relation, InstantNetworkModel(), name="m")
        cursor = SourceCursor("r", primary, prefetch=4)
        detector = cursor.ensure_order_detector("r_k")
        for _ in range(6):
            cursor.read()
        cursor.failover_to(mirror, start_at=0.0)
        while cursor.read() is not None:
            pass
        assert detector.direction() == 1  # ascending keys, across both halves
        assert detector.observed == len(relation)


def _rate_event(relation: str, **overrides) -> SourceRateEvent:
    base = dict(
        phase_id=0,
        simulated_seconds=1.0,
        relation=relation,
        consumed=10,
        next_arrival=None,
        exhausted=False,
        promised_rate=1000.0,
        arrived=10,
    )
    base.update(overrides)
    return SourceRateEvent(**base)


class TestMirrorFailoverPolicy:
    def _query(self):
        workload = generate_workload(1000)
        while len(workload.query.relations) < 2:
            workload = generate_workload(workload.seed + 1)
        return workload

    def test_sustained_outage_proposes_failover_once_per_mirror(self):
        workload = self._query()
        query = workload.query
        relation_name = query.relations[0]
        relation = workload.relations[relation_name]
        primary = RemoteSource(
            relation, ConstantRateNetworkModel(1.0), promised_rate=1000.0
        )
        mirror = RemoteSource(
            relation, InstantNetworkModel(), name=f"{relation_name}_mirror"
        )
        primary.register_mirror(mirror)
        policy = MirrorFailoverPolicy(Catalog(), outage_polls=2)
        controller = AdaptationController([policy])
        cursor = SourceCursor(relation_name, primary, prefetch=8)
        run = controller.begin(
            query,
            Catalog(),
            cursors={relation_name: cursor},
            sources={relation_name: primary},
        )

        stalled = dict(next_arrival=9.0, consumed=2, arrived=2)
        policy.observe(run, _rate_event(relation_name, **stalled))
        decision = run.poll(
            plan=None,
            current_tree=None,
            current_strategies=None,
            phase_id=0,
            now=1.0,
            can_switch=False,
        )
        assert decision is None
        assert run.failovers == []  # one stalled poll is noise, not an outage

        policy.observe(run, _rate_event(relation_name, **stalled))
        actions = policy.decide(run, _context(run, query, now=1.2))
        assert actions is not None
        (action,) = actions
        assert isinstance(action, FailoverSourceAction)
        assert action.relation == relation_name
        assert action.mirror_name == f"{relation_name}_mirror"
        assert action.mirror is mirror
        assert action.start_at == 1.2

        # The mirror list is consumed: a renewed outage finds no second mirror.
        run.scratch(policy)["streaks"][relation_name] = 5
        assert policy.decide(run, _context(run, query, now=2.0)) is None

    def test_healthy_poll_resets_the_streak(self):
        workload = self._query()
        query = workload.query
        name = query.relations[0]
        policy = MirrorFailoverPolicy(Catalog(), outage_polls=2)
        controller = AdaptationController([policy])
        run = controller.begin(query, Catalog())
        policy.observe(run, _rate_event(name, next_arrival=9.0))
        policy.observe(run, _rate_event(name, next_arrival=1.0, arrived=1500, consumed=1500))
        assert run.scratch(policy)["streaks"][name] == 0

    def test_exhausted_source_is_never_an_outage(self):
        policy = MirrorFailoverPolicy(Catalog())
        assert not policy._outage(_rate_event("r", exhausted=True))
        # Mid-outage live stream without a schedule *is* one.
        assert policy._outage(_rate_event("r", next_arrival=None))

    def test_controller_applies_failover_and_reports_it(self):
        """End to end through the executor: describe() carries the failover."""
        workload = self._query()
        catalog, sources = mirror_outage_setup(workload)
        report, observables = run_solo_corrective(
            workload,
            batch_size=64,
            catalog=catalog,
            sources=sources,
            failover_adaptive=True,
            failover_stall_seconds=0.005,
        )
        adaptation = report.details["adaptation"]
        assert "mirror_failover" in adaptation["policies"]
        for entry in adaptation["failovers"]:
            assert entry["policy"] == "mirror_failover"
            assert entry["mirror"].endswith("_mirror")
            assert entry["relation"] in workload.query.relations

    def test_outage_polls_validation(self):
        with pytest.raises(ValueError):
            MirrorFailoverPolicy(Catalog(), outage_polls=0)


def _context(run, query, now: float):
    from repro.adaptivity import AdaptationContext

    return AdaptationContext(
        query=query,
        catalog=run.catalog,
        observed=None,
        phase_id=0,
        now=now,
        current_tree=None,
        current_strategies=None,
        can_switch=False,
    )
