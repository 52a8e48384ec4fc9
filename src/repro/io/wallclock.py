"""The package's single sanctioned wall-clock surface.

Every wall-clock read in the repository flows through these two functions.
The `determinism.wall-clock` lint rule forbids `time.*` / `datetime.now()`
everywhere except `src/repro/io/`, so callers outside this package (the
executors' `wall_seconds` reporting fields) import `wall_now` from here
instead of touching `time` directly — which keeps the
set of real-clock call sites greppable to one module and lets the lint rule
be a package-scope statement instead of a per-site whitelist.

Wall seconds are diagnostic output only: they never feed answers, simulated
time, plan decisions, or adaptation events.
"""

from __future__ import annotations

import time


def wall_now() -> float:
    """A monotonic wall-clock reading in seconds (perf_counter)."""
    return time.perf_counter()


def wall_sleep(seconds: float) -> None:
    """Really sleep (wall-clock envelope mode and the fixture server only)."""
    if seconds > 0.0:
        time.sleep(seconds)
