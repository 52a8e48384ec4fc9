"""Real backends behind the resilience envelope.

Each transport adapts one kind of real data access — CSV files, JSON-lines
files, DB-API queries, HTTP endpoints — to a single tiny contract, modeled
on pygrametl's iterable dict-row datasources but offset-addressable so the
envelope can resume mid-stream:

* ``Transport.open(offset)`` establishes a fresh connection positioned at
  the given global row offset and returns a :class:`RowReader`; a source
  that no longer holds ``offset`` rows (it shrank between accesses) raises
  :class:`~repro.io.errors.TruncatedPayloadError` — ``offset == row count``
  is a valid empty remainder;
* ``RowReader.read_rows(max_rows)`` returns the next chunk of engine tuples,
  where an **empty list means verified end-of-stream** — a reader that
  cannot prove the stream is complete must raise
  :class:`~repro.io.errors.TruncatedPayloadError` instead of returning
  ``[]``, because a silent early EOF is indistinguishable from row loss.

**Every reader streams.**  A file reader keeps its handle open between
calls and parses and converts only the ``max_rows`` records a call asks
for.  ``open(offset)`` costs one scan of the ``offset`` records before the
resume point (through ``csv.reader`` / line iteration, so quoted newlines
and blank lines count as they did when the rows were first delivered) but
converts none of them.  Each delivered record is validated on its own: its
field count against the schema and, for a JSON line, its parse and shape.
A record that fails is where the file was cut: the valid rows before it
are delivered first and the error is raised by the next call (**prefix,
then raise** — progress is never discarded; the HTTP reader does the
same).  So a cut file surfaces from ``read_rows``, as a
*read* fault: it spends the envelope's read retry budget, not the connect
one, and every retry resumes past the rows already delivered.

**A chunk is the unit of work.**  CSV records are validated and coerced by
one *chunk* decoder generated per schema from its informal type tags
(:func:`compile_csv_decoder`): ``int`` and ``float`` columns through the
constructors, ``str`` columns untouched, ``date`` / ``any`` columns through
literal parsing (int, then float, then str) — the engine's dates are int
day numbers and ISO text stays text — which round-trips every generated
workload exactly.  JSON lines, from a file or off the HTTP wire, go through
one validator (:func:`scan_json_rows`) that hands each line of a block
straight to the C scanner and sends only the lines that are not plainly a
row — blanks, padding, cuts, the wire's marker — down a per-line branch.
"""

from __future__ import annotations

import csv
import http.client
import json
import socket
import sqlite3
import urllib.parse
from itertools import islice
from typing import IO, Any, Callable, Generic, Iterator, Protocol, Sequence, TypeVar

from repro.io.errors import (
    ConnectError,
    ReadError,
    TransportError,
    TransportTimeout,
    TruncatedPayloadError,
)
from repro.relational.relation import Relation
from repro.relational.schema import Schema

#: a file format's raw record: a CSV field list, a JSON line
_Raw = TypeVar("_Raw")

#: JSON key of the completeness marker the HTTP wire protocol ends with;
#: its value is the number of rows served since the requested offset
END_MARKER_KEY = "__end__"


def _parse_literal(text: str) -> object:
    """Best-effort typed parse for ``any``-tagged columns."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


#: type tag → how the generated decoder coerces a field (``{}`` is the
#: field); any other tag (``date``, ``any``) goes through literal parsing
_COERCIONS = {"int": "int({})", "float": "float({})", "str": "{}"}

_Rows = list[tuple[object, ...]]


def compile_csv_decoder(schema: Schema) -> Callable[[Iterator[list[str]], _Rows], None]:
    """One chunk decoder generated from the schema's type tags: it appends CSV
    records to ``rows`` as engine tuples, the unpack doing the width check (a
    record cut mid-row, like a field that does not convert, is a
    ``ValueError`` after the records before it); its source stays on it as
    ``__compiled_source__``."""
    names = [f"v{i}" for i in range(len(schema.attributes))]
    fields = [
        _COERCIONS.get(attribute.type_name, "_parse_literal({})").format(name)
        for name, attribute in zip(names, schema.attributes)
    ]
    source = (
        "def decode(records, rows):\n"
        "    append = rows.append\n"
        f"    for {', '.join(names)}, in records:\n"
        f"        append(({', '.join(fields)},))\n"
    )
    namespace: dict[str, Any] = {"_parse_literal": _parse_literal}
    exec(source, namespace)
    # popped: left in its own globals, the function would sit in a cycle
    decode: Callable[[Iterator[list[str]], _Rows], None] = namespace.pop("decode")
    setattr(decode, "__compiled_source__", source)
    return decode


#: the C scanner, without the calls ``json.loads`` wraps around it
_scan_json = json.JSONDecoder().raw_decode


def scan_json_rows(
    lines: Iterator[str], width: int, rows: _Rows, limit: int, what: str
) -> dict[str, object] | None:
    """Append the rows of JSON ``lines`` to ``rows`` until it holds ``limit``.

    The one JSON-lines validator.  A line the scanner consumes whole as a list
    of ``width`` values is a row; any other line takes the per-line branch: a
    blank is skipped, a JSON object (the wire's completeness marker) is
    returned, anything else — cut, malformed, two documents — raises
    :class:`TruncatedPayloadError`, the rows before it already in ``rows``.
    ``None`` means ``limit`` was reached or the lines ran out.
    """
    append = rows.append
    try:
        for line in lines:
            try:
                values, end = _scan_json(line)
                whole = end == len(line) or line[end:] == "\n"
            except ValueError:
                whole = False
            if not (whole and isinstance(values, list) and len(values) == width):
                if not line.strip():
                    continue
                try:
                    values = json.loads(line)
                except ValueError as exc:
                    raise TruncatedPayloadError(f"{what}: cut mid-record") from exc
                if isinstance(values, dict):
                    return values
                if not isinstance(values, list) or len(values) != width:
                    raise TruncatedPayloadError(f"{what}: malformed row")
            append(tuple(values))
            if len(rows) >= limit:
                break
    except UnicodeDecodeError as exc:
        raise TruncatedPayloadError(f"{what}: cut inside a character") from exc
    return None


class RowReader(Protocol):
    """One open, offset-positioned connection's row stream."""

    def read_rows(self, max_rows: int) -> list[tuple[object, ...]]:
        """Next chunk of rows; ``[]`` only at *verified* end-of-stream."""
        ...

    def close(self) -> None:
        """Release the underlying handle (idempotent)."""
        ...


class Transport:
    """Base class for offset-addressable real backends."""

    def __init__(self, name: str, schema: Schema) -> None:
        self.name = name
        self.schema = schema

    def open(self, offset: int) -> RowReader:
        """A fresh connection positioned at global row ``offset``."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line backend description for telemetry and bench reports."""
        return type(self).__name__

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"{type(self).__name__}({self.name!r})"


class _RecordReader(Generic[_Raw]):
    """RowReader streaming an open file's records, a call's worth at a time.

    ``records`` yields raw records (CSV field lists, non-blank JSON lines)
    from the resume offset on; ``decode`` validates and converts up to
    ``limit`` of them into the row list it is handed.
    """

    def __init__(
        self,
        handle: IO[str],
        records: Iterator[_Raw],
        decode: Callable[[Iterator[_Raw], _Rows, int], None],
    ) -> None:
        self._handle = handle
        self._records = records
        self._decode = decode
        self._failed: TransportError | None = None

    def read_rows(self, max_rows: int) -> _Rows:
        # The saved fault is raised with a fresh traceback each time: kept,
        # its frames would grow per raise and pin this reader in a cycle.
        if self._failed is not None:
            raise self._failed.with_traceback(None)
        rows: _Rows = []
        try:
            self._decode(self._records, rows, max_rows)
        except TransportError as exc:
            self._failed = exc.with_traceback(None)
        except (ValueError, csv.Error) as exc:
            # another width, an unconvertible field, a character cut in two
            self._failed = TruncatedPayloadError(
                f"{self._handle.name}: partial or malformed record ({exc})"
            )
        except OSError as exc:
            self._failed = ReadError(f"{self._handle.name}: {exc}")
        if not rows:
            # the cut (every later call's answer too), or verified end-of-stream
            self._handle.close()
            self._records = iter(())
            if self._failed is not None:
                raise self._failed
        # a valid prefix goes out first, so progress is never discarded; the
        # error that ended it is raised by the next call
        return rows

    def close(self) -> None:
        self._failed = None
        self._handle.close()


class _FileTransport(Transport, Generic[_Raw]):
    """A file of records, one engine row each, read through a
    :class:`_RecordReader`; the formats differ only in how a handle is cut
    into raw records and how a chunk of raw records is decoded."""

    def __init__(self, name: str, path: str, schema: Schema) -> None:
        super().__init__(name, schema)
        self.path = path
        self._width = len(schema.attributes)

    def _records(self, handle: IO[str]) -> Iterator[_Raw]:
        """The handle's raw records from row 0 on (consumes any header)."""
        raise NotImplementedError

    def _decode(self, records: Iterator[_Raw], rows: _Rows, limit: int) -> None:
        """Append up to ``limit`` records, validated and converted, to ``rows``."""
        raise NotImplementedError

    def open(self, offset: int) -> RowReader:
        try:
            handle = open(self.path, "r", encoding="utf-8", newline="")
            try:
                records = self._records(handle)
                # position by scanning, not converting: the skipped records
                # were validated when they were delivered
                skipped = sum(1 for _ in islice(records, offset))
                if skipped < offset:
                    raise TruncatedPayloadError(
                        f"{self.path}: resume offset {offset} is past the "
                        f"{skipped} records the file now holds"
                    )
            except BaseException:
                handle.close()
                raise
        except OSError as exc:
            raise ConnectError(f"{self.path}: {exc}") from exc
        except (UnicodeDecodeError, csv.Error) as exc:
            raise TruncatedPayloadError(f"{self.path}: {exc}") from exc
        return _RecordReader(handle, records, self._decode)


class CSVFileTransport(_FileTransport[list[str]]):  # lint: ignore[reachability.unread] bench's io workloads
    """Rows from a header-first CSV file (pygrametl ``CSVSource`` shape)."""

    def __init__(
        self, name: str, path: str, schema: Schema, delimiter: str = ","
    ) -> None:
        super().__init__(name, path, schema)
        self.delimiter = delimiter
        self._decode_chunk = compile_csv_decoder(schema)

    def _records(self, handle: IO[str]) -> Iterator[list[str]]:
        records = csv.reader(handle, delimiter=self.delimiter)
        header = next(records, None)
        if header is None or len(header) != self._width:
            raise TruncatedPayloadError(f"{self.path}: missing or short CSV header")
        return records

    def _decode(self, records: Iterator[list[str]], rows: _Rows, limit: int) -> None:
        self._decode_chunk(islice(records, limit), rows)

    def describe(self) -> str:
        return f"csv:{self.path}"


class JSONLinesTransport(_FileTransport[str]):  # lint: ignore[reachability.unread] bench's io workloads
    """Rows from a JSON-lines file (one JSON array per line; blank lines
    are not records and do not count toward an offset)."""

    def _records(self, handle: IO[str]) -> Iterator[str]:
        return filter(str.strip, handle)

    def _decode(self, records: Iterator[str], rows: _Rows, limit: int) -> None:
        if scan_json_rows(records, self._width, rows, limit, self.path) is not None:
            raise TruncatedPayloadError(f"{self.path}: malformed row")

    def describe(self) -> str:
        return f"jsonl:{self.path}"


class _DBAPICursor(Protocol):
    """The sliver of PEP 249 the transport needs."""

    def execute(self, sql: str) -> object: ...

    def fetchmany(self, size: int) -> Sequence[Sequence[object]]: ...


class _DBAPIConnection(Protocol):
    def cursor(self) -> _DBAPICursor: ...

    def close(self) -> None: ...


class _DBAPIReader:
    """RowReader over an open DB-API cursor (closes its connection)."""

    def __init__(self, connection: _DBAPIConnection, cursor: _DBAPICursor) -> None:
        self._connection: _DBAPIConnection | None = connection
        self._cursor = cursor

    def read_rows(self, max_rows: int) -> list[tuple[object, ...]]:
        try:
            fetched = self._cursor.fetchmany(max_rows)
        except Exception as exc:  # DB-API error classes are per-driver
            raise ReadError(f"DB-API fetch failed: {exc}") from exc
        return [tuple(values) for values in fetched]

    def close(self) -> None:
        if self._connection is not None:
            try:
                self._connection.close()
            except Exception:  # pragma: no cover - close is best-effort
                pass
            self._connection = None


class DBAPITransport(Transport):  # lint: ignore[reachability.unread] bench's io workloads
    """Rows from a DB-API query (pygrametl ``SQLSource`` shape).

    ``connect`` returns a fresh PEP 249 connection per open; the query's
    result order must be deterministic (``ORDER BY`` a key) so offsets name
    the same rows across reconnects.
    """

    def __init__(
        self,
        name: str,
        connect: Callable[[], _DBAPIConnection],
        query: str,
        schema: Schema,
    ) -> None:
        super().__init__(name, schema)
        self.connect = connect
        self.query = query

    def open(self, offset: int) -> RowReader:
        try:
            connection = self.connect()
        except Exception as exc:
            raise ConnectError(f"DB-API connect failed: {exc}") from exc
        try:
            cursor = connection.cursor()
            cursor.execute(self.query)
            skipped = 0
            while skipped < offset:
                chunk = cursor.fetchmany(min(256, offset - skipped))
                if not chunk:
                    break
                skipped += len(chunk)
        except Exception as exc:
            try:
                connection.close()
            except Exception:  # pragma: no cover - close is best-effort
                pass
            raise ConnectError(f"DB-API query failed: {exc}") from exc
        reader = _DBAPIReader(connection, cursor)
        if skipped < offset:
            reader.close()
            raise TruncatedPayloadError(
                f"resume offset {offset} is past the {skipped} rows "
                "the query now returns"
            )
        return reader

    def describe(self) -> str:
        return f"dbapi:{self.query!r}"


class _HTTPReader:
    """RowReader over one streaming HTTP response.

    The wire protocol is JSON lines: one JSON array per row, terminated by a
    ``{"__end__": n}`` marker counting the rows served since the requested
    offset. A response that ends without the marker (or whose count
    disagrees) raises :class:`TruncatedPayloadError`; socket-level failures
    mid-body raise :class:`ReadError`. The body is read a block at a time
    (whatever the socket holds, at most one HTTP chunk) and split into
    lines here; a line cut by a block boundary waits for the next block.
    """

    BLOCK_BYTES = 1 << 16

    def __init__(
        self,
        connection: http.client.HTTPConnection,
        response: http.client.HTTPResponse,
        width: int,
    ) -> None:
        self._connection: http.client.HTTPConnection | None = connection
        self._response = response
        self._width = width
        self._delivered = 0
        self._complete = False
        self._pending: TransportError | None = None
        self._lines: Iterator[str] = iter(())
        self._tail = b""

    def read_rows(self, max_rows: int) -> _Rows:
        if self._pending is not None:
            # raised from the attribute, not a local: a local would hold the
            # exception whose traceback holds this frame (close() forgets one
            # never raised)
            try:
                raise self._pending
            finally:
                self._pending = None
        if self._complete:
            return []
        rows: _Rows = []
        try:
            self._fill(rows, max_rows)
        except TransportError as exc:
            if not rows:
                raise
            # deliver the pre-fault rows now so progress is never discarded;
            # the fault surfaces on the next call and the envelope resumes
            # from the advanced offset
            self._pending = exc
        self._delivered += len(rows)
        if self._complete:
            self.close()
        return rows

    def _next_lines(self) -> Iterator[str]:
        """The complete lines of the next block (plus the carried tail)."""
        try:
            block = self._response.read1(self.BLOCK_BYTES)
        except socket.timeout as exc:
            raise TransportTimeout(f"HTTP read timed out: {exc}") from exc
        except (http.client.HTTPException, OSError, ValueError) as exc:
            raise ReadError(f"HTTP stream died mid-body: {exc}") from exc
        if block:
            # the tail is cut by the block boundary, or empty
            head, _, self._tail = (self._tail + block).rpartition(b"\n")
        elif self._tail:
            head, self._tail = self._tail, b""  # body ended mid-line
        else:
            raise TruncatedPayloadError(
                "HTTP stream ended without its completeness marker"
            )
        # decoded as they are scanned (in C): a character cut in two fails at
        # its line, after the lines before it
        return map(bytes.decode, head.split(b"\n"))

    def _fill(self, rows: _Rows, max_rows: int) -> None:
        while len(rows) < max_rows:
            marker = scan_json_rows(self._lines, self._width, rows, max_rows, "HTTP")
            if marker is not None:
                served = marker.get(END_MARKER_KEY)
                if served != self._delivered + len(rows):
                    raise TruncatedPayloadError(
                        f"HTTP completeness marker disagrees: marker={served} "
                        f"delivered={self._delivered + len(rows)}"
                    )
                self._complete = True
                return
            if len(rows) < max_rows:
                self._lines = self._next_lines()

    def close(self) -> None:
        self._pending = None
        if self._connection is not None:
            try:
                self._connection.close()
            except Exception:  # pragma: no cover - close is best-effort
                pass
            self._connection = None


class HTTPTransport(Transport):  # lint: ignore[reachability.unread] bench's io workloads
    """Rows from an HTTP endpoint speaking the JSON-lines wire protocol.

    ``GET <url>?offset=N`` must stream the rows from global offset ``N``
    followed by the ``{"__end__": served}`` marker —
    :class:`~repro.io.fixture_server.FixtureServer` is the reference
    implementation. 5xx responses surface as :class:`ConnectError` (the
    retryable "flap" shape); connect and read deadlines are separate.
    """

    def __init__(
        self,
        name: str,
        url: str,
        schema: Schema,
        connect_timeout: float = 5.0,
        read_timeout: float = 5.0,
    ) -> None:
        super().__init__(name, schema)
        self.url = url
        self.connect_timeout = connect_timeout
        self.read_timeout = read_timeout

    def open(self, offset: int) -> RowReader:
        parts = urllib.parse.urlsplit(self.url)
        if parts.scheme != "http" or parts.hostname is None:
            raise ConnectError(f"unsupported URL {self.url!r}")
        connection = http.client.HTTPConnection(
            parts.hostname, parts.port or 80, timeout=self.connect_timeout
        )
        try:
            query = urllib.parse.urlencode({"offset": offset})
            connection.request("GET", f"{parts.path}?{query}")
            response = connection.getresponse()
        except socket.timeout as exc:
            connection.close()
            raise TransportTimeout(f"HTTP connect timed out: {exc}") from exc
        except (http.client.HTTPException, OSError) as exc:
            connection.close()
            raise ConnectError(f"HTTP connect failed: {exc}") from exc
        if response.status != 200:
            connection.close()
            if response.status == 416:
                raise TruncatedPayloadError(f"{self.url}: no row {offset} any more")
            raise ConnectError(f"HTTP status {response.status} from {self.url}")
        if connection.sock is not None:
            connection.sock.settimeout(self.read_timeout)
        return _HTTPReader(connection, response, len(self.schema.attributes))

    def describe(self) -> str:
        return f"http:{self.url}"


# ---------------------------------------------------------------------------
# Materializers: write a Relation to each backend's native format, used by
# the differential suite and the benchmark to stage real data for the transports.
# ---------------------------------------------------------------------------


def write_csv(  # lint: ignore[reachability.unread] bench writes its source files
    path: str, relation: Relation, delimiter: str = ","
) -> None:
    """Write ``relation`` as a header-first CSV file."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow([attribute.name for attribute in relation.schema.attributes])
        for row in relation.rows:
            writer.writerow(list(row))


def write_jsonl(  # lint: ignore[reachability.unread] bench writes its source files
    path: str, relation: Relation
) -> None:
    """Write ``relation`` as JSON lines (one array per row)."""
    with open(path, "w", encoding="utf-8") as handle:
        for row in relation.rows:
            handle.write(json.dumps(list(row)) + "\n")


def write_sqlite(  # lint: ignore[reachability.unread] bench writes its source files
    path: str, relation: Relation
) -> str:
    """Materialize ``relation`` into a SQLite file; returns the read query.

    Rows are stored with an explicit ``rowpos`` key so the read-back query's
    order is deterministic and offsets name the same rows on every connect.
    """
    columns = ", ".join(
        f'"{attribute.name}"' for attribute in relation.schema.attributes
    )
    connection = sqlite3.connect(path)
    try:
        connection.execute(
            f'CREATE TABLE IF NOT EXISTS "{relation.name}" '
            f"(rowpos INTEGER PRIMARY KEY, {columns})"
        )
        connection.execute(f'DELETE FROM "{relation.name}"')
        placeholders = ", ".join(
            ["?"] * (len(relation.schema.attributes) + 1)
        )
        connection.executemany(
            f'INSERT INTO "{relation.name}" VALUES ({placeholders})',
            [(position, *row) for position, row in enumerate(relation.rows)],
        )
        connection.commit()
    finally:
        connection.close()
    return f'SELECT {columns} FROM "{relation.name}" ORDER BY rowpos'
