"""Run the benchmark: ``python -m bench.run`` (or ``python3 bench/run.py``).

    --workload NAME   one of solo_tuple, solo_compiled, serve_sharded,
                      io_faulted; without it, all four run one after the
                      other, each in a fresh process
    --seed N          every input is generated from it (default 2004)
    --seconds S       how long the rounds are measured (default 14)
    --trace 0|1       0: the end-to-end metrics, tracing off
                      1: the per-layer metrics (spans + micro-operations)
    --out DIR         also write the record (and the spans) as JSON there
    --check           1 warm-up + 2 rounds of every workload at a tiny scale
                      factor: is the benchmark itself still sound?

Prints every metric by name and unit, then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
for _path in (SRC, ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench.host import (  # noqa: E402
    calibrate,
    host_fingerprint,
    host_unstable,
    keep_temporary_files_inside,
    speed_correction,
)
from bench.metrics import END_TO_END, PER_LAYER, UNITS  # noqa: E402

WORKLOAD_NAMES = ("solo_tuple", "solo_compiled", "serve_sharded", "io_faulted")
DEFAULT_SEED = 2004
DEFAULT_SECONDS = 14
#: set-up is measured this many times, each in a fresh process
SETUP_SAMPLES = 3
#: rounds per phase of a traced run are few: spans, not percentiles, matter
TRACED_MIN_ROUNDS = 5


def parse_arguments(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="bench.run", description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--check", action="store_true")
    # Internal: the fresh processes the runner starts for itself.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--cold-first-query", choices=("compiled", "interpreted"), help=argparse.SUPPRESS
    )
    return parser.parse_args(argv)


def normalise_bytecode() -> None:
    """Compile every source file now, so no run pays for (or is spared)
    byte-compilation inside a timer depending on what ran before it."""
    for directory in (SRC, os.path.join(ROOT, "bench")):
        compileall.compile_dir(directory, quiet=2)


def _self_command(*arguments: str) -> list[str]:
    return [sys.executable, os.path.abspath(__file__), *arguments]


def setup_sample(workload: str, seed: int) -> float:
    """``setup_s`` of one more fresh process."""
    done = subprocess.run(
        _self_command("--workload", workload, "--seed", str(seed), "--setup-only"),
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def print_metrics(metrics: dict[str, Any]) -> None:
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name:<{width}}  {shown:>12} {UNITS[name]}")


def write_record(directory: str, record: dict[str, Any], spans: list[Any] | None) -> None:
    os.makedirs(directory, exist_ok=True)
    stem = "{workload}-seed{seed}-trace{trace}-{pid}".format(pid=os.getpid(), **record)
    with open(os.path.join(directory, stem + ".json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if spans is not None:
        path = os.path.join(directory, stem + ".spans")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(spans, handle)


def run_workload(arguments: argparse.Namespace) -> int:
    normalise_bytecode()
    calib_before = calibrate()
    fingerprint = host_fingerprint()

    # -- set-up: everything from here to the end of warm-up is ``setup_s`` --
    setup_started = perf_counter()
    from bench import harness

    session = harness.Session(arguments.workload, arguments.seed)
    with session:
        session.warm_up()
        setup_seconds = perf_counter() - setup_started
        # Like every duration, at reference host speed (see bench/host.py).
        # The pass before set-up is not used for it: the first kernel passes
        # of a process read slow, those after warm-up do not.
        setup_seconds *= speed_correction(calibrate())
        if arguments.setup_only:
            print(repr(setup_seconds))
            return 0

        spans = None
        if arguments.trace:
            from bench.layers import ProbeContext, run_probes
            from bench.trace import Tracer, install_probes

            untraced = session.measure(arguments.seconds / 4, TRACED_MIN_ROUNDS)
            tracer = Tracer()
            install_probes(tracer)
            try:
                traced = session.measure(
                    arguments.seconds / 4, TRACED_MIN_ROUNDS, tracer
                )
            finally:
                tracer.uninstall()
            for target in tracer.missing:
                print(f"probe target missing: {target}", file=sys.stderr)
            measured = [untraced, traced]
            if min(len(phase.walls) for phase in measured) < 1:
                print("no round succeeded", file=sys.stderr)
                return 1
            values: dict[str, Any] = harness.per_layer(untraced, traced, tracer)
            values["workloads.generate_s"] = session.workload.generate_seconds
            context = ProbeContext(
                arguments.seed, session.workdir, os.path.abspath(__file__)
            )
            values.update(run_probes(context))
            spans = tracer.spans
        else:
            untraced = session.measure(arguments.seconds, harness.MIN_ROUNDS)
            measured = [untraced]
            if len(untraced.walls) < 2:
                print("fewer than two rounds succeeded", file=sys.stderr)
                return 1
            values = harness.end_to_end(untraced, setup_seconds, session.peak_rss_mb())
        calib_after = calibrate()

    setup_samples = [setup_seconds]
    if arguments.trace:
        values["host.calib_before_s"] = calib_before
        values["host.calib_after_s"] = calib_after
        names = [name for name, _unit, _better in PER_LAYER]
    else:
        # After the measurement, so these processes are in none of its numbers.
        setup_samples += [
            setup_sample(arguments.workload, arguments.seed)
            for _ in range(SETUP_SAMPLES - 1)
        ]
        values["setup_s"] = statistics.median(setup_samples)
        names = [name for name, *_rest in END_TO_END]

    metrics = {name: values[name] for name in names}
    attempted = sum(phase.attempted for phase in measured)
    failed = sum(phase.failed for phase in measured)
    record = {
        "workload": arguments.workload,
        "seed": arguments.seed,
        "seconds": arguments.seconds,
        "trace": arguments.trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "round_walls_raw": [phase.raw_walls for phase in measured],
        "round_corrections": [phase.corrections for phase in measured],
        "setup_samples": setup_samples,
        "host": {
            **fingerprint,
            "calib_before_s": calib_before,
            "calib_after_s": calib_after,
        },
        "host_unstable": host_unstable(calib_before, calib_after),
    }
    if arguments.out:
        write_record(arguments.out, record, spans)

    print(
        f"# {arguments.workload} seed={arguments.seed} rounds={attempted} "
        f"failed={failed} host_unstable={record['host_unstable']}"
    )
    print_metrics(metrics)
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


def run_all(arguments: argparse.Namespace) -> int:
    """Every workload, each in a fresh process of its own."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = _self_command(
            "--workload", name,
            "--seed", str(arguments.seed),
            "--seconds", str(arguments.seconds),
            "--trace", str(arguments.trace),
        )
        if arguments.out:
            command += ["--out", arguments.out]
        status = max(status, subprocess.run(command, check=False).returncode)
    return status


def run_check(arguments: argparse.Namespace) -> int:
    """Is the benchmark sound?  Every workload, tiny data, 1 + 2 rounds:
    all rounds oracle-verified and identical to the first."""
    from bench import harness
    from bench.workloads import CHECK_SCALE_FACTOR

    status = 0
    for name in WORKLOAD_NAMES:
        with harness.Session(name, arguments.seed, CHECK_SCALE_FACTOR) as session:
            session.warm_up(rounds=1)
            measured = session.measure(0.0, min_rounds=2, max_rounds=2)
        ok = measured.failed == 0 and len(measured.walls) == 2
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({measured.attempted} rounds)")
        status = status or (0 if ok else 1)
    return status


def main(argv: list[str] | None = None) -> int:
    arguments = parse_arguments(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"nothing to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    keep_temporary_files_inside()
    if arguments.cold_first_query:
        from bench.layers import cold_first_query

        print(repr(cold_first_query(arguments.cold_first_query, arguments.seed)))
        return 0
    if arguments.check:
        return run_check(arguments)
    if arguments.workload is None:
        return run_all(arguments)
    return run_workload(arguments)


if __name__ == "__main__":
    sys.exit(main())
