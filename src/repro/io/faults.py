"""Deterministic fault injection: seeded plans, scripts, injected transports.

A :class:`FaultPlan` is an immutable, seeded schedule of transport faults
for one source. Read faults are keyed by **global row offset** — the fault
strikes when any connection crosses that offset, so a plan injects exactly
the same failures whether the rows are read in one pass or across several
reconnects, and identically against the in-process backends (via
:class:`InjectedTransport`) and the HTTP fixture server (which interprets
the same plan server-side).

The fault taxonomy:

``delay``
    The row (or the connection accept) stalls for ``seconds`` before
    delivery. Under a simulated timeline this advances simulated time; in
    wall mode it really sleeps.
``reset``
    The connection dies just before the row is delivered
    (:class:`~repro.io.errors.ReadError`); an immediate reconnect succeeds.
``outage``
    Like a reset, but the source stays unreachable: the next ``count``
    connection attempts fail too.
``truncate``
    The stream ends cleanly at the offset without its completeness marker
    (:class:`~repro.io.errors.TruncatedPayloadError`) — the silent-row-loss
    shape a naive reader mistakes for EOF.
``flap``
    Connect-time 5xx: the first ``connect_flaps`` connection attempts are
    refused (:class:`~repro.io.errors.ConnectError`).

Each fault fires exactly once per :class:`FaultScript` lifetime, so a
resumed connection re-reading the faulted offset passes through — which is
precisely the retry-then-resume behavior the envelope must implement.
Both interpreters ask once per chunk where the next unfired read fault lies
(:meth:`FaultScript.next_read_fault`); the rows before it move untouched.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.io.backends import RowReader, Transport
from repro.io.errors import ConnectError, ReadError, TruncatedPayloadError

DELAY = "delay"
RESET = "reset"
OUTAGE = "outage"
TRUNCATE = "truncate"
FLAP = "flap"

#: every fault kind a plan may schedule
FAULT_KINDS: tuple[str, ...] = (DELAY, RESET, OUTAGE, TRUNCATE, FLAP)


@dataclass(frozen=True)
class Fault:
    """One scheduled fault; ``offset`` is -1 for connect-time faults."""

    kind: str
    offset: int
    seconds: float = 0.0
    count: int = 0


class FaultPlan:
    """An immutable, seeded schedule of faults for one source."""

    def __init__(
        self,
        read_faults: dict[int, Fault] | None = None,
        connect_flaps: int = 0,
        connect_delay: float = 0.0,
    ) -> None:
        self.read_faults: dict[int, Fault] = dict(read_faults or {})
        self.connect_flaps = connect_flaps
        self.connect_delay = connect_delay

    @classmethod
    def quiet(cls) -> "FaultPlan":
        """A plan that injects nothing."""
        return cls()

    @classmethod
    def seeded(
        cls,
        seed: int,
        row_count: int,
        max_read_faults: int = 3,
        delay_seconds: tuple[float, float] = (0.001, 0.01),
        kinds: tuple[str, ...] = (DELAY, RESET, RESET, OUTAGE, TRUNCATE),
    ) -> "FaultPlan":
        """A deterministic plan drawn from ``seed`` for a source of
        ``row_count`` rows. ``kinds`` weights the read-fault mix by
        repetition; delays are uniform over ``delay_seconds``."""
        rng = random.Random(f"fault-plan:{seed}")
        connect_flaps = rng.choice((0, 0, 0, 1, 1, 2))
        connect_delay = (
            rng.uniform(*delay_seconds) if rng.random() < 0.3 else 0.0
        )
        read_faults: dict[int, Fault] = {}
        if row_count > 0:
            budget = rng.randint(0, min(max_read_faults, row_count))
            for offset in rng.sample(range(row_count), budget):
                kind = rng.choice(kinds)
                read_faults[offset] = Fault(
                    kind=kind,
                    offset=offset,
                    seconds=(
                        rng.uniform(*delay_seconds) if kind == DELAY else 0.0
                    ),
                    count=rng.randint(1, 2) if kind == OUTAGE else 0,
                )
        return cls(read_faults, connect_flaps, connect_delay)

    def script(self) -> "FaultScript":
        """A fresh stateful interpreter of this plan."""
        return FaultScript(self)


class FaultScript:
    """Stateful interpreter of one plan for one source lifetime.

    Both the in-process injector and the HTTP fixture server drive one of
    these, so the client-side and server-side fault behaviors stay
    mechanically identical. Every fault fires at most once; an ``outage``
    additionally arms the next ``count`` connection attempts to fail.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._connect_attempts = 0
        self._fired: set[int] = set()
        self._outage_connects = 0

    def on_connect(self) -> Fault | None:
        """The fault striking this connection attempt (None = accept)."""
        self._connect_attempts += 1
        if self._outage_connects > 0:
            self._outage_connects -= 1
            return Fault(OUTAGE, offset=-1)
        if self._connect_attempts <= self.plan.connect_flaps:
            return Fault(FLAP, offset=-1)
        if (
            self.plan.connect_delay > 0.0
            and self._connect_attempts == self.plan.connect_flaps + 1
        ):
            return Fault(DELAY, offset=-1, seconds=self.plan.connect_delay)
        return None

    def on_row(self, offset: int) -> Fault | None:
        """The fault striking the row at global ``offset`` (once only)."""
        fault = self.plan.read_faults.get(offset)
        if fault is None or offset in self._fired:
            return None
        self._fired.add(offset)
        if fault.kind == OUTAGE:
            self._outage_connects = max(fault.count, 1)
        return fault

    def next_read_fault(self, start: int, stop: int) -> int | None:
        """Offset of the first unfired read fault in ``[start, stop)`` — the one
        lookup a chunk costs; :meth:`on_row` still fires it, at its row."""
        unfired = self.plan.read_faults.keys() - self._fired
        return min((at for at in unfired if start <= at < stop), default=None)


def _no_stall(seconds: float) -> None:
    """Default stall hook: delays cost nothing (pure-logic tests)."""


class _InjectedReader:
    """Applies a script's read faults to an inner reader's row stream."""

    def __init__(
        self,
        inner: RowReader,
        script: FaultScript,
        offset: int,
        stall: Callable[[float], None],
    ) -> None:
        self._inner = inner
        self._script = script
        self._offset = offset
        self._stall = stall
        self._pending: Fault | None = None

    def _raise_fault(self, fault: Fault) -> None:
        if fault.kind == RESET:
            raise ReadError(f"injected connection reset at offset {fault.offset}")
        if fault.kind == OUTAGE:
            raise ReadError(f"injected outage at offset {fault.offset}")
        raise TruncatedPayloadError(
            f"injected truncation at offset {fault.offset}"
        )

    def read_rows(self, max_rows: int) -> list[tuple[object, ...]]:
        if self._pending is not None:
            fault, self._pending = self._pending, None
            self._raise_fault(fault)
        chunk = self._inner.read_rows(max_rows)
        start = self._offset
        at = self._script.next_read_fault(start, start + len(chunk))
        if at is None:
            self._offset += len(chunk)
            return chunk
        # a fault in this chunk: the rows before it as they are, then row by row
        delivered = chunk[: at - start]
        self._offset = at
        for row in chunk[at - start :]:
            fault = self._script.on_row(self._offset)
            if fault is not None and fault.kind == DELAY:
                self._stall(fault.seconds)
                fault = None
            if fault is not None:
                if delivered:
                    # deliver the pre-fault prefix now, fail on the next call
                    self._pending = fault
                    break
                self._raise_fault(fault)
            delivered.append(row)
            self._offset += 1
        return delivered

    def close(self) -> None:
        self._inner.close()


class InjectedTransport(Transport):
    """A transport wrapper that injects a plan's faults client-side.

    One instance owns one :class:`FaultScript`, so faults fire once across
    all reconnects of the owning envelope. ``stall`` is how delay faults
    cost time — wire it to the envelope timeline's ``sleep`` so simulated
    runs account delays deterministically and wall runs really wait.
    """

    def __init__(
        self,
        inner: Transport,
        plan: FaultPlan,
        stall: Callable[[float], None] = _no_stall,
    ) -> None:
        super().__init__(inner.name, inner.schema)
        self.inner = inner
        self.script = plan.script()
        self._stall = stall

    def open(self, offset: int) -> RowReader:
        fault = self.script.on_connect()
        if fault is not None:
            if fault.kind == FLAP:
                raise ConnectError("injected 5xx flap")
            if fault.kind == OUTAGE:
                raise ConnectError("injected outage: source unreachable")
            self._stall(fault.seconds)
        return _InjectedReader(
            self.inner.open(offset), self.script, offset, self._stall
        )
