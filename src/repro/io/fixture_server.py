"""A local HTTP fixture server with server-side deterministic fault injection.

The server speaks the `HTTPTransport` wire protocol — ``GET
/rows/<name>?offset=N`` streams JSON-lines rows from global offset ``N`` in
HTTP chunks of up to 64 lines, terminated by the ``{"__end__": served}``
completeness marker — and
interprets the *same* :class:`~repro.io.faults.FaultPlan` schedules the
in-process injector applies, but over real sockets:

* ``flap`` / ``outage`` connect faults → HTTP 503 responses;
* connect/row ``delay`` faults → real server-side sleeps;
* ``reset`` / ``outage`` read faults → the socket is dropped mid-body
  (no terminating chunk), which clients observe as a connection reset;
* ``truncate`` read faults → the response ends *cleanly* without the
  completeness marker — the silent-row-loss shape the envelope must catch.

One :class:`~repro.io.faults.FaultScript` per registered relation persists
across requests, so a fault fires exactly once and a resumed connection
re-reading the faulted offset passes — mirroring the in-process injector.

A served relation *is* its wire body: every row is encoded to its JSON line
once, at registration, and a request slices that list into HTTP chunks, one
script lookup per fault-free stretch.  A fault is still taken at its row,
after a flush of the rows before it, so the bytes and the chunk framing are
those of encoding and checking row by row.
"""

from __future__ import annotations

import json
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.io.backends import END_MARKER_KEY
from repro.io.faults import DELAY, FLAP, OUTAGE, RESET, TRUNCATE, FaultPlan
from repro.io.wallclock import wall_sleep
from repro.relational.relation import Relation


#: rows coalesced into one HTTP chunk (a fault flushes a shorter one)
CHUNK_ROWS = 64


class _QuietServer(ThreadingHTTPServer):
    """Client disconnects are routine under fault injection: don't log them."""

    daemon_threads = True

    def handle_error(self, request: object, client_address: object) -> None:
        pass


class _ServedRelation:
    """One registered relation as its wire body — a JSON line per row,
    encoded once — plus its live fault script."""

    def __init__(
        self, relation: Relation, plan: FaultPlan, lines: list[bytes] | None
    ) -> None:
        self.relation = relation
        self.lines = lines or [
            json.dumps(list(row)).encode() + b"\n" for row in relation.rows
        ]
        self.script = plan.script()
        self.guard = threading.Lock()


class FixtureServer:
    """A threading HTTP server for the fault-injection suites and the benchmark."""

    def __init__(self) -> None:
        served: dict[str, _ServedRelation] = {}
        self._served = served

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, format: str, *args: object) -> None:
                pass  # keep test output quiet

            def _chunk(self, data: bytes) -> None:
                self.wfile.write(b"%X\r\n" % len(data) + data + b"\r\n")

            def do_GET(self) -> None:
                parts = urllib.parse.urlsplit(self.path)
                prefix, _, quoted = parts.path.rpartition("/")
                name = urllib.parse.unquote(quoted)
                state = served.get(name) if prefix == "/rows" else None
                if state is None:
                    self.send_response(404)
                    self.send_header("Content-Length", "0")
                    self.end_headers()
                    return
                query = urllib.parse.parse_qs(parts.query)
                offset = int(query.get("offset", ["0"])[0])
                with state.guard:
                    connect_fault = state.script.on_connect()
                if connect_fault is not None and connect_fault.kind in (
                    FLAP,
                    OUTAGE,
                ):
                    self.send_response(503)
                    self.send_header("Content-Length", "0")
                    self.end_headers()
                    return
                if connect_fault is not None and connect_fault.kind == DELAY:
                    wall_sleep(connect_fault.seconds)
                lines = state.lines
                end = len(lines)
                if not 0 <= offset <= end:
                    # shrunk below a resume point; ``offset == end`` would be
                    # a valid empty remainder
                    self.send_response(416)
                    self.send_header("Content-Length", "0")
                    self.end_headers()
                    return
                self.send_response(200)
                self.send_header("Content-Type", "application/json-lines")
                self.send_header("Transfer-Encoding", "chunked")
                self.end_headers()
                start = offset  # the first line not yet on the wire
                try:
                    while True:
                        with state.guard:
                            at = state.script.next_read_fault(start, end)
                        stop = end if at is None else at
                        while stop - start >= CHUNK_ROWS:
                            self._chunk(b"".join(lines[start : start + CHUNK_ROWS]))
                            start += CHUNK_ROWS
                        if at is None:
                            break
                        with state.guard:
                            fault = state.script.on_row(at)
                        if fault is None:
                            continue  # another request took it meanwhile
                        # everything before the faulted row reaches the client
                        # first: a fault lands at its row whatever the chunking
                        if start < at:
                            self._chunk(b"".join(lines[start:at]))
                            start = at
                        if fault.kind == DELAY:
                            wall_sleep(fault.seconds)
                        elif fault.kind in (RESET, OUTAGE):
                            # drop the socket mid-body: no final chunk, the
                            # client sees a connection reset
                            self.close_connection = True
                            return
                        elif fault.kind == TRUNCATE:
                            # end cleanly but WITHOUT the completeness marker:
                            # silent row loss unless detected
                            self._chunk(b"")
                            self.wfile.write(b"\r\n")
                            self.close_connection = True
                            return
                    marker = json.dumps({END_MARKER_KEY: end - offset}).encode()
                    self._chunk(b"".join(lines[start:]) + marker + b"\n")
                    self._chunk(b"")
                    self.wfile.write(b"\r\n")
                except (BrokenPipeError, ConnectionResetError):
                    # the client abandoned the stream; nothing to clean up
                    self.close_connection = True

        self._server = _QuietServer(("127.0.0.1", 0), Handler)
        self._thread: threading.Thread | None = None

    # -- registration -----------------------------------------------------

    def add_relation(
        self, name: str, relation: Relation, plan: FaultPlan | None = None
    ) -> str:
        """Serve ``relation`` under ``name`` with an optional fault plan;
        returns the endpoint URL for an `HTTPTransport`."""
        was = self._served.get(name)
        # Re-registering the object already served (for a fresh fault script)
        # keeps its encoded body: a Relation is never mutated in place.
        lines = was.lines if was and was.relation is relation else None
        self._served[name] = _ServedRelation(relation, plan or FaultPlan.quiet(), lines)
        return self.url_for(name)

    def url_for(self, name: str) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/rows/{urllib.parse.quote(name)}"

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "FixtureServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                kwargs={"poll_interval": 0.05},
                daemon=True,
            )
            self._thread.start()
        return self

    def close(self) -> None:
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._server.server_close()

    def __enter__(self) -> "FixtureServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()
