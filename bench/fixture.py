"""The HTTP fixture server in a process of its own.

``repro.io.FixtureServer`` serves from a thread; inside the client's process
that thread competes with the engine for the interpreter lock and the same
quiet query flips between two wall-time modes.  Here the server runs in a
forked child, and the client talks to it over one control pipe:

* ``rearm`` re-registers every relation, which gives each a fresh fault
  script — a script fires every fault once per registration, so without
  this only the first pass over a relation would be faulted;
* ``usage`` reports the child's CPU seconds and peak RSS, because
  ``RUSAGE_CHILDREN`` only counts children that have already exited.

Forked, not spawned: the first spawn of a process also starts
``multiprocessing``'s resource tracker, which nobody waits for and which
outlives the benchmark by a moment — a process left running after the run.
"""

from __future__ import annotations

import multiprocessing
import resource
import time
from multiprocessing.connection import Connection
from typing import Any

_STARTUP_TIMEOUT_S = 60.0
_REPLY_TIMEOUT_S = 30.0


def _usage() -> dict[str, float]:
    return {
        "cpu_s": time.process_time(),
        "maxrss_kb": float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
    }


def _serve(
    control: Connection,
    parent_end: Connection,
    relations: dict[str, Any],
    plans: dict[str, Any],
) -> None:
    """Child entry point: serve until told to stop (or the pipe closes)."""
    from repro.io.fixture_server import FixtureServer

    # The fork copied the parent's end too; while the child holds it, the
    # parent's death would not close the pipe.
    parent_end.close()

    def register(server: FixtureServer) -> dict[str, str]:
        return {
            name: server.add_relation(name, relation, plans[name])
            for name, relation in relations.items()
        }

    with FixtureServer() as server:
        control.send(register(server))
        while True:
            try:
                command = control.recv()
            except EOFError:
                return
            if command == "rearm":
                register(server)
                control.send(_usage())
            elif command == "usage":
                control.send(_usage())
            else:
                return


class FixtureProcess:
    """Owns the child; ``urls`` maps relation name to its endpoint."""

    def __init__(self, relations: dict[str, Any], plans: dict[str, Any]) -> None:
        context = multiprocessing.get_context("fork")
        self._control, child_end = context.Pipe()
        self._process = context.Process(
            target=_serve,
            args=(child_end, self._control, relations, plans),
            daemon=True,
        )
        self._process.start()
        child_end.close()
        self.urls: dict[str, str] = self._reply(_STARTUP_TIMEOUT_S)

    def _reply(self, timeout: float) -> Any:
        if not self._control.poll(timeout):
            self.close()
            raise RuntimeError("fixture server process did not answer")
        return self._control.recv()

    def rearm(self) -> dict[str, float]:
        """Fresh fault scripts for every relation; returns the child's usage."""
        self._control.send("rearm")
        return self._reply(_REPLY_TIMEOUT_S)

    def usage(self) -> dict[str, float]:
        self._control.send("usage")
        return self._reply(_REPLY_TIMEOUT_S)

    def close(self) -> None:
        if self._process.is_alive():
            try:
                self._control.send("stop")
            except (BrokenPipeError, OSError):
                pass
            self._process.join(timeout=10.0)
            if self._process.is_alive():
                self._process.terminate()
                self._process.join()
        self._control.close()
