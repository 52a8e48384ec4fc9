"""Host fingerprint and calibration kernel.  Imports nothing from ``repro``:
the runner calls it before the set-up timer starts."""

from __future__ import annotations

import multiprocessing
import os
import platform
import statistics
import subprocess
import tempfile
from time import perf_counter
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: everything the benchmark writes goes here (data files of ``io_faulted``,
#: temporary files of the standard library), and is removed again
WORK_ROOT = os.path.join(ROOT, ".bench_work")
#: a calibration gap above this marks the record ``host_unstable``
HOST_UNSTABLE_GAP = 0.10
#: what one kernel pass takes on the quiet 2-CPU reference host.  Durations
#: are reported at this host speed: on this class of VM the speed a process
#: gets drifts by tens of percent over minutes (a busy hyperthread sibling),
#: and dividing that drift out is what makes two runs of one commit agree.
REFERENCE_KERNEL_S = 0.0115


def kernel() -> float:
    """Seconds one pass of a fixed pure-Python kernel takes right now: integer
    arithmetic, then building and probing a hash table of tuples — the two
    things the engine spends its time on."""
    started = perf_counter()
    total = 0
    for value in range(100_000):
        total += (value * value) % 7
    table: dict[int, list[tuple[int, int, float, str]]] = {}
    rows = []
    for value in range(12_000):
        row = (value, value * 7919 % 10007, float(value), "x")
        rows.append(row)
        table.setdefault(row[1], []).append(row)
    for row in rows:
        total += len(table.get(row[0], ()))
    return perf_counter() - started


def calibrate() -> float:
    """Median of five kernel passes (the first one after process start also
    pays for a cold CPU and reads slow on an idle host)."""
    return statistics.median(kernel() for _ in range(5))


def speed_correction(kernel_seconds: float) -> float:
    """Factor that scales a duration measured while the kernel took
    ``kernel_seconds`` to what it would have been at reference host speed."""
    return REFERENCE_KERNEL_S / kernel_seconds


def keep_temporary_files_inside() -> None:
    """Point ``tempfile`` (and with it ``multiprocessing``'s socket
    directory) into the checkout: a run writes nowhere else."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    os.environ["TMPDIR"] = WORK_ROOT
    tempfile.tempdir = WORK_ROOT


def commit_id() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            # Never a commit of some repository further up the tree.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def host_fingerprint() -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "start_method": multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_all_start_methods()[0],
        "load_average": list(os.getloadavg()),
        "commit": commit_id(),
    }


def host_unstable(calib_before: float, calib_after: float) -> bool:
    return abs(calib_after - calib_before) > HOST_UNSTABLE_GAP * min(
        calib_before, calib_after
    )
