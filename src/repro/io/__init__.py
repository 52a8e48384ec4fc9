"""Real-I/O source fabric: transports, resilience envelope, fault injection.

This package is the bridge from "reproduction" to "system":
`DataSource` adapters over real backends — CSV/JSON-lines files, DB-API
queries, HTTP endpoints — wrapped in a resilience envelope (timeouts, seeded
retry/backoff, a per-source circuit breaker, offset-based resume) and paired
with a deterministic fault-injection harness (a `FaultPlan` schedule plus a
local HTTP fixture server that interprets the same plans server-side).

It is also, deliberately, the only package where reading the wall clock is
legal: `repro.io.wallclock` is the single sanctioned wall-clock surface, and
the `determinism.wall-clock` lint rule exempts exactly this directory.
Everything else stays on the `SimulatedClock`, so the differential suites
remain bit-identical while the same envelope code, given a `WallTimeline`,
serves a deployment on real sockets and real time.
"""

from repro.io.backends import (
    CSVFileTransport,
    DBAPITransport,
    HTTPTransport,
    JSONLinesTransport,
    RowReader,
    Transport,
    write_csv,
    write_jsonl,
    write_sqlite,
)
from repro.io.envelope import (
    BackoffSchedule,
    CircuitBreaker,
    EnvelopeTelemetry,
    ResilientSource,
    ResumedResilientStream,
    SimulatedTimeline,
    Timeline,
    WallTimeline,
)
from repro.io.errors import (
    CircuitOpenError,
    ConnectError,
    ReadError,
    TransportError,
    TransportTimeout,
    TruncatedPayloadError,
)
from repro.io.faults import Fault, FaultPlan, FaultScript, InjectedTransport
from repro.io.fixture_server import FixtureServer

__all__ = [
    "BackoffSchedule",
    "CSVFileTransport",
    "CircuitBreaker",
    "CircuitOpenError",
    "ConnectError",
    "DBAPITransport",
    "EnvelopeTelemetry",
    "Fault",
    "FaultPlan",
    "FaultScript",
    "FixtureServer",
    "HTTPTransport",
    "InjectedTransport",
    "JSONLinesTransport",
    "ReadError",
    "ResilientSource",
    "ResumedResilientStream",
    "RowReader",
    "SimulatedTimeline",
    "Timeline",
    "Transport",
    "TransportError",
    "TransportTimeout",
    "TruncatedPayloadError",
    "WallTimeline",
    "write_csv",
    "write_jsonl",
    "write_sqlite",
]
