"""Fixture hand-off payloads with picklability violations.

``HandoffSnapshot`` and ``SharedLedger`` are listed in the fixture
registry's ``CROSS_PROCESS_TYPES``; the audit walks their annotated fields
(recursing into ``SideState``) and their ``__init__`` stores.
``SharedLedger`` itself is clean.
"""


class SideState:
    frames: "Iterator[bytes]"  # LINT: unpicklable-nested
    worker: "Thread"  # LINT: unpicklable-thread
    depth: int


class HandoffSnapshot:
    on_flush: "Callable[[], None]"  # LINT: unpicklable-annotation
    detail: "SideState"
    label: str

    def __init__(self, rows) -> None:
        self.rows = list(rows)
        self.render = lambda: self.rows  # LINT: unpicklable-lambda
        self.stream = (row for row in self.rows)  # LINT: unpicklable-genexp
        self.flush = self.close  # LINT: unpicklable-bound

    def close(self) -> None:
        self.rows = []


class SharedLedger:
    def __init__(self) -> None:
        self.totals = {}

    def absorb(self, snapshot) -> None:
        self.totals[snapshot] = 1
