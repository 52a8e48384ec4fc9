"""Command-line runner for the experiment harnesses.

Regenerate any of the paper's tables/figures without going through pytest::

    python -m repro.experiments.cli fig2          # corrective QP, local sources
    python -m repro.experiments.cli fig3          # corrective QP, wireless sources
    python -m repro.experiments.cli fig5          # complementary joins
    python -m repro.experiments.cli fig6          # pre-aggregation
    python -m repro.experiments.cli sec4.5        # selectivity prediction
    python -m repro.experiments.cli ablations     # sensitivity sweeps
    python -m repro.experiments.cli serve-bench   # multi-query serving layer
    python -m repro.experiments.cli order-bench   # order-adaptive joins
    python -m repro.experiments.cli engine-bench  # tuple vs batched vs compiled
    python -m repro.experiments.cli rate-bench    # source-rate adaptivity
    python -m repro.experiments.cli resilience-bench  # failover/backpressure/seeding
    python -m repro.experiments.cli io-bench      # real sockets, injected faults
    python -m repro.experiments.cli all           # every paper figure/table

Use ``--scale`` to trade runtime for fidelity (default 0.003), ``--seed``
for a different deterministic instance, and ``--batch-size N`` to run the
engines batch-at-a-time (identical results, much faster regeneration).
``serve-bench`` additionally honours ``--serve-queries`` (concurrent query
count, default 8), ``--serve-wireless`` and ``--bench-output`` (write the
JSON benchmark record, e.g. ``BENCH_pr2.json``); with ``--workers 1 2 4``
it instead sweeps the multi-process sharded tier across worker counts,
verifying every run's answers against solo execution and recording the
wall-clock scaling curve (``--bench-output BENCH_pr10.json``).  ``order-bench`` compares
hash-only against order-adaptive corrective processing over sorted /
near-sorted / unordered / lying-promise source mixes and honours
``--bench-output`` (e.g. ``BENCH_pr3.json``).  ``--engine-mode compiled``
(requires ``--batch-size``) runs the engines through the fused compiled
batch pipelines — identical results and simulated timings, lower wall-clock
— and ``engine-bench`` measures all three engine modes against each other,
verifying bit-identical accounting (``--bench-output BENCH_pr4.json``).
``rate-bench`` compares plain corrective processing against
``rate_adaptive=True`` over slow / bursty / flaky remote-source deliveries
in both engine modes, verifies identical answers, and gates the >= 1.3x
simulated-time speedup on the slow and bursty workloads
(``--bench-output BENCH_pr5.json``).  ``resilience-bench`` exercises the
resilience policy suite — mirror failover on a dead primary (solo, both
engine modes), admission backpressure under a flaky serving pool (p95
must improve), and rate-seeded initial plan choice for a repeat query —
verifying in every scenario that the resilient configuration's answers
are identical to its baseline twin (``--bench-output BENCH_pr6.json``).
``io-bench`` is the one wall-clock real-I/O mode: it replays seeded
workloads over the local HTTP fixture server under injected faults
(resets, outages, truncations, delays, 5xx flaps) through the resilience
envelope on real sockets, gating on exact delivery for every stream and
on an engine run whose answers match the same engine over local relations
(``--bench-output BENCH_pr9.json``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
from typing import Callable

from repro.experiments.ablations import (
    sweep_polling_interval,
    sweep_priority_queue_capacity,
    sweep_window_policy,
)
from repro.experiments.common import DEFAULT_SCALE_FACTOR, DEFAULT_SEED, format_table
from repro.experiments.complementary import (
    complementary_distribution,
    run_complementary_comparison,
)
from repro.experiments.corrective import (
    comparison_rows,
    run_corrective_comparison,
    stitchup_breakdown,
)
from repro.experiments.engine_bench import engine_bench_rows, run_engine_benchmark
from repro.experiments.order_bench import order_bench_rows, run_order_benchmark
from repro.experiments.preaggregation import run_preaggregation_comparison
from repro.experiments.rate_bench import rate_bench_rows, run_rate_benchmark
from repro.experiments.selectivity import run_selectivity_prediction
from repro.experiments.serving_bench import (
    run_serving_benchmark,
    run_sharded_serving_benchmark,
    serving_per_query_rows,
    serving_summary_rows,
    sharded_summary_rows,
)


def _print(title: str, table: str) -> None:
    print(f"\n=== {title} ===")
    print(table)


def run_fig2(
    scale: float,
    seed: int,
    batch_size: int | None = None,
    engine_mode: str = "interpreted",
) -> None:
    results = run_corrective_comparison(
        scale_factor=scale,
        seed=seed,
        forced_bad_start=True,
        batch_size=batch_size,
        engine_mode=engine_mode,
    )
    _print("Figure 2 — corrective query processing (local)", format_table(comparison_rows(results)))
    _print("Table 1 — stitch-up breakdown", format_table(stitchup_breakdown(results)))


def run_fig3(
    scale: float,
    seed: int,
    batch_size: int | None = None,
    engine_mode: str = "interpreted",
) -> None:
    results = run_corrective_comparison(
        scale_factor=scale,
        seed=seed,
        wireless=True,
        include_plan_partitioning=False,
        forced_bad_start=True,
        query_names=("Q3A", "Q10A", "Q5"),
        batch_size=batch_size,
        engine_mode=engine_mode,
    )
    _print("Figure 3 — corrective query processing (wireless)", format_table(comparison_rows(results)))
    _print("Table 2 — stitch-up breakdown (wireless)", format_table(stitchup_breakdown(results)))


def run_fig5(scale: float, seed: int, batch_size: int | None = None) -> None:
    rows = run_complementary_comparison(scale_factor=scale, seed=seed)
    _print("Figure 5 — complementary joins", format_table(rows))
    _print("Table 3 — output distribution", format_table(complementary_distribution(rows)))


def run_fig6(scale: float, seed: int, batch_size: int | None = None) -> None:
    rows = run_preaggregation_comparison(scale_factor=scale, seed=seed)
    _print("Figure 6 — pre-aggregation strategies", format_table(rows))


def run_sec45(scale: float, seed: int, batch_size: int | None = None) -> None:
    result = run_selectivity_prediction(scale_factor=scale, seed=seed)
    _print("Section 4.5 — selectivity prediction", format_table(result["prediction_rows"]))
    print(f"histogram maintenance overhead: {result['overhead']}")


def run_ablations(scale: float, seed: int, batch_size: int | None = None) -> None:
    _print("Ablation — re-optimization polling interval",
           format_table(sweep_polling_interval(scale_factor=scale, seed=seed)))
    _print("Ablation — priority-queue capacity",
           format_table(sweep_priority_queue_capacity(scale_factor=scale, seed=seed)))
    _print("Ablation — adjustable-window policy",
           format_table(sweep_window_policy(scale_factor=scale, seed=seed)))


def run_serve_bench(
    scale: float,
    seed: int,
    batch_size: int | None = None,
    num_queries: int = 8,
    wireless: bool = False,
    output: str | None = None,
    workers: list[int] | None = None,
) -> None:
    if workers is not None:
        run_shard_bench(
            scale,
            seed,
            batch_size,
            num_queries=num_queries,
            wireless=wireless,
            output=output,
            workers=workers,
        )
        return
    result = run_serving_benchmark(
        scale_factor=scale,
        seed=seed,
        num_queries=num_queries,
        batch_size=batch_size,
        wireless=wireless,
    )
    _print(
        f"Serving layer — {num_queries} concurrent queries per policy",
        format_table(serving_summary_rows(result)),
    )
    for policy in result["policies"]:
        _print(
            f"Per-query breakdown — {policy}",
            format_table(serving_per_query_rows(result, policy)),
        )
    # Write the record before the verification gate: on a failure the JSON's
    # per-policy ``mismatched_queries`` list is the primary diagnostic.
    if output is not None:
        path = pathlib.Path(output)
        path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
        print(f"\nbenchmark record written to {path}")
    failed = [
        policy
        for policy, stats in result["policies"].items()
        if not stats["verified_vs_solo"]
    ]
    if failed:
        mismatched = {
            policy: result["policies"][policy]["mismatched_queries"]
            for policy in failed
        }
        raise SystemExit(
            f"serving-vs-solo verification FAILED: {mismatched}"
        )
    print("serving-vs-solo verification: all result multisets identical")


def run_shard_bench(
    scale: float,
    seed: int,
    batch_size: int | None = None,
    num_queries: int = 8,
    wireless: bool = False,
    output: str | None = None,
    workers: list[int] | None = None,
) -> None:
    """The multi-process scaling sweep behind ``serve-bench --workers``.

    Runs the same query mix through :class:`ShardedQueryServer` once per
    worker count, prints the scaling curve, writes the JSON record, and
    gates on (a) every worker count's answers matching solo corrective
    execution and (b) — only where the host has the cores for it — the
    4-vs-1-worker wall-clock speedup meeting the acceptance threshold.
    """
    worker_counts = list(workers) if workers else [1, 2, 4]
    result = run_sharded_serving_benchmark(
        scale_factor=scale,
        seed=seed,
        num_queries=num_queries,
        batch_size=batch_size,
        workers=worker_counts,
        wireless=wireless,
    )
    _print(
        f"Sharded serving — {num_queries} queries per worker count",
        format_table(sharded_summary_rows(result)),
    )
    gate = result["scaling_gate"]
    # Write the record before the gates: on a failure the JSON's per-count
    # ``mismatched_queries`` and ``scaling_gate`` record are the diagnostics.
    if output is not None:
        path = pathlib.Path(output)
        path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
        print(f"\nbenchmark record written to {path}")
    failed = {
        count: stats["mismatched_queries"]
        for count, stats in result["workers"].items()
        if not stats["verified_vs_solo"]
    }
    if failed:
        raise SystemExit(f"sharded-vs-solo verification FAILED: {failed}")
    print("sharded-vs-solo verification: all result multisets identical")
    if gate["applicable"]:
        if not gate["passed"]:
            raise SystemExit(
                f"scaling gate FAILED: 4-vs-1-worker speedup "
                f"{gate['speedup_4v1']}x < {gate['threshold']}x "
                f"(cpu_count={gate['cpu_count']})"
            )
        print(
            f"scaling gate: 4-vs-1-worker speedup {gate['speedup_4v1']}x "
            f">= {gate['threshold']}x"
        )
    else:
        print(f"scaling gate: {gate['reason']}")


def run_order_bench(
    scale: float,
    seed: int,
    batch_size: int | None = None,
    output: str | None = None,
) -> None:
    result = run_order_benchmark(
        scale_factor=scale, seed=seed, batch_size=batch_size
    )
    _print(
        "Order-adaptive joins — hash-only vs adaptive per source mix",
        format_table(order_bench_rows(result)),
    )
    if output is not None:
        path = pathlib.Path(output)
        path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
        print(f"\nbenchmark record written to {path}")
    if not result["all_verified"]:
        raise SystemExit(
            "order-bench verification FAILED: adaptive and hash-only result "
            "multisets differ"
        )
    print("adaptive-vs-hash verification: all result multisets identical")
    if not result["sorted_scenarios_beat_hash"]:
        raise SystemExit(
            "order-bench acceptance FAILED: merge strategy did not beat "
            "hash-only on the sorted scenarios"
        )
    print("sorted scenarios: merge strategy beat hash-only on time and state")


def run_rate_bench(
    scale: float,
    seed: int,
    batch_size: int | None = None,
    output: str | None = None,
) -> None:
    from repro.experiments.rate_bench import ENGINE_CONFIGS

    # --batch-size overrides the batch size of both engine configurations.
    engine_configs = ENGINE_CONFIGS
    if batch_size is not None:
        engine_configs = tuple(
            (engine_mode, batch_size) for engine_mode, _ in ENGINE_CONFIGS
        )
    result = run_rate_benchmark(
        scale_factor=scale, seed=seed, engine_configs=engine_configs
    )
    _print(
        "Source-rate adaptivity — static vs rate-adaptive per delivery pathology",
        format_table(rate_bench_rows(result)),
    )
    # Write the record before the verification gates: on a failure the JSON
    # is the primary diagnostic.
    if output is not None:
        path = pathlib.Path(output)
        path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
        print(f"\nbenchmark record written to {path}")
    if not result["all_verified"]:
        raise SystemExit(
            "rate-bench verification FAILED: rate-adaptive and static result "
            "multisets differ"
        )
    print("adaptive-vs-static verification: all result multisets identical")
    if not result["slow_bursty_speedup_ok"]:
        raise SystemExit(
            "rate-bench acceptance FAILED: rate adaptivity did not reach the "
            "1.3x simulated-time speedup on the slow/bursty workloads"
        )
    print(
        "slow/bursty workloads: rate adaptivity beat static execution by "
        ">= 1.3x simulated time in both engine modes"
    )


def run_resilience_bench(
    scale: float,
    seed: int,
    batch_size: int | None = None,
    output: str | None = None,
) -> None:
    from repro.experiments.resilience_bench import (
        ENGINE_CONFIGS,
        resilience_bench_rows,
        run_resilience_benchmark,
    )

    # --batch-size overrides the failover scenario's engine configurations.
    engine_configs = ENGINE_CONFIGS
    if batch_size is not None:
        engine_configs = tuple(
            (engine_mode, batch_size) for engine_mode, _ in ENGINE_CONFIGS
        )
    result = run_resilience_benchmark(
        scale_factor=scale, seed=seed, engine_configs=engine_configs
    )
    _print(
        "Resilience suite — mirror failover / admission backpressure / rate-seeded plans",
        format_table(resilience_bench_rows(result)),
    )
    # Write the record before the verification gates: on a failure the JSON
    # is the primary diagnostic.
    if output is not None:
        path = pathlib.Path(output)
        path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
        print(f"\nbenchmark record written to {path}")
    if not result["all_verified"]:
        raise SystemExit(
            "resilience-bench verification FAILED: a resilient configuration "
            "changed answers against its baseline twin"
        )
    print("resilient-vs-baseline verification: all result multisets identical")
    if not result["failover_ok"]:
        raise SystemExit(
            "resilience-bench acceptance FAILED: mirror failover missed the "
            f"{result['failover_speedup_bar']}x bar (or never fired)"
        )
    if not result["backpressure_ok"]:
        raise SystemExit(
            "resilience-bench acceptance FAILED: admission backpressure did "
            "not improve the pool's p95 latency"
        )
    if not result["rate_seeded_ok"]:
        raise SystemExit(
            "resilience-bench acceptance FAILED: the seeded repeat query did "
            "not start on a gating tree"
        )
    print(
        "failover beat static beyond the bar, backpressure improved p95, and "
        "the seeded repeat started gated"
    )


def run_io_bench(
    scale: float,
    seed: int,
    batch_size: int | None = None,
    output: str | None = None,
) -> None:
    from repro.experiments.io_bench import io_bench_rows, run_io_benchmark

    result = run_io_benchmark(scale_factor=scale, seed=seed)
    _print(
        "Real I/O — faulted fixture-server replay through the resilience envelope",
        format_table(io_bench_rows(result)),
    )
    # Write the record before the gates: on a failure the JSON is the
    # primary diagnostic.
    if output is not None:
        path = pathlib.Path(output)
        path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
        print(f"\nbenchmark record written to {path}")
    if not result["faults_injected"]:
        raise SystemExit(
            "io-bench acceptance FAILED: the seeded plans injected no faults"
        )
    if not result["all_exact"]:
        raise SystemExit(
            "io-bench acceptance FAILED: a faulted stream dropped or "
            "duplicated rows"
        )
    if not result["verified_vs_local"]:
        raise SystemExit(
            "io-bench verification FAILED: the engine run over faulted HTTP "
            "sources disagrees with the same engine over local relations"
        )
    print(
        "every faulted stream delivered exactly; the engine's answers over "
        "real faulted sockets match the local-relation run"
    )


def run_engine_bench(
    scale: float,
    seed: int,
    batch_size: int | None = None,
    repeats: int = 5,
    output: str | None = None,
) -> None:
    from repro.experiments.engine_bench import BATCH_SIZES

    # --batch-size adds the requested size to the standard 1/64/1024 sweep
    # (the standard sizes stay so headline speedups remain comparable).
    batch_sizes = BATCH_SIZES
    if batch_size is not None:
        batch_sizes = tuple(sorted(set(BATCH_SIZES) | {batch_size}))
    result = run_engine_benchmark(
        scale_factor=scale, seed=seed, repeats=repeats, batch_sizes=batch_sizes
    )
    _print(
        "Engine modes — tuple vs interpreted batched vs compiled (fig2 smoke)",
        format_table(engine_bench_rows(result)),
    )
    # Write the record before the verification gate: on a failure the JSON's
    # ``equivalence_mismatches`` list is the primary diagnostic.
    if output is not None:
        path = pathlib.Path(output)
        path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
        print(f"\nbenchmark record written to {path}")
    if not result["equivalence_check"]:
        raise SystemExit(
            "engine-bench verification FAILED: compiled and interpreted "
            f"engines diverged: {result['equivalence_mismatches']}"
        )
    print(
        "compiled-vs-interpreted verification: result multisets, work "
        "counters, simulated seconds and phase counts all identical"
    )
    headline = result["speedups"][str(result["headline_batch"])]
    print(
        f"speedups at batch {result['headline_batch']}: "
        f"batched/tuple {headline['batched_vs_tuple']}x, "
        f"compiled/tuple {headline['compiled_vs_tuple']}x, "
        f"compiled/batched {headline['compiled_vs_batched']}x"
    )


EXPERIMENTS: dict[str, Callable[[float, int, int | None], None]] = {
    "fig2": run_fig2,
    "fig3": run_fig3,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "sec4.5": run_sec45,
    "ablations": run_ablations,
}

#: Experiments that honour ``--engine-mode`` (they run the pipelined engines).
ENGINE_MODE_EXPERIMENTS = ("fig2", "fig3")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS)
        + [
            "serve-bench",
            "order-bench",
            "engine-bench",
            "rate-bench",
            "resilience-bench",
            "io-bench",
            "repro-lint",
            "all",
        ],
        help="which experiment to run",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=DEFAULT_SCALE_FACTOR,
        help=f"TPC-H scale factor for the generated data (default {DEFAULT_SCALE_FACTOR})",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="random seed (default 2004)"
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help=(
            "execute the engines batch-at-a-time with this batch size "
            "(default: tuple-at-a-time, as in the paper).  Results are "
            "identical and regeneration is much faster; simulated timings "
            "are bit-identical for local experiments (fig2) and may drift "
            "~1%% for wireless ones (fig3).  Currently honoured by fig2, "
            "fig3 and serve-bench."
        ),
    )
    parser.add_argument(
        "--engine-mode",
        choices=("interpreted", "compiled"),
        default="interpreted",
        help=(
            "execution mode for the pipelined engines (fig2, fig3): "
            "'compiled' runs fused plan-specialized batch pipelines and "
            "requires --batch-size; results and simulated timings are "
            "bit-identical to 'interpreted'"
        ),
    )
    parser.add_argument(
        "--bench-repeats",
        type=int,
        default=5,
        help="engine-bench: wall-clock repetitions per configuration (best-of)",
    )
    parser.add_argument(
        "--serve-queries",
        type=int,
        default=8,
        help="serve-bench: number of concurrent queries to admit (default 8)",
    )
    parser.add_argument(
        "--serve-wireless",
        action="store_true",
        help="serve-bench: put every source behind a bursty wireless link",
    )
    parser.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=None,
        metavar="N",
        help=(
            "serve-bench: run the multi-process scaling sweep instead of "
            "the policy comparison — one sharded run per worker count "
            "(e.g. --workers 1 2 4), verifying every run's answers against "
            "solo execution and gating the 4-vs-1 wall-clock speedup on "
            "hosts with >= 4 CPUs"
        ),
    )
    parser.add_argument(
        "--bench-output",
        default=None,
        help=(
            "serve-bench / order-bench / engine-bench / rate-bench / "
            "resilience-bench / io-bench: write the JSON benchmark record "
            "to this path"
        ),
    )
    parser.add_argument(
        "--no-codegen",
        action="store_true",
        help=(
            "repro-lint: skip the compiled-codegen audit and only run the "
            "file-level rules (the full gate runs both)"
        ),
    )
    parser.add_argument(
        "--shard-audit",
        action="store_true",
        help=(
            "repro-lint: append the shared-channel inventory (name, type, "
            "discipline, writers) and registry validation to the report"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="output_format",
        help="repro-lint: report format on stdout (default text)",
    )
    parser.add_argument(
        "--report-output",
        default=None,
        help=(
            "repro-lint: also write the JSON report to this path "
            "(regardless of --format; CI uploads it as an artifact)"
        ),
    )
    return parser


def run_repro_lint(
    codegen: bool = True,
    shard_audit: bool = False,
    output_format: str = "text",
    report_output: str | None = None,
) -> int:
    """The static-analysis gate: file-level lint plus the codegen audit.

    Prints both reports and returns a documented process exit code — the
    CI ``analysis`` job gates on it:

    * ``0`` — every rule clean (nothing unsuppressed);
    * ``1`` — at least one finding (lint, codegen audit, or an invalid
      channel registry under ``--shard-audit``);
    * ``2`` — usage error (argparse rejects the invocation).
    """
    import json as _json

    from repro.analysis import run_lint
    from repro.serving import channels

    report = run_lint()
    failed = not report.clean
    payload: dict[str, object] = report.to_json()

    registry_problems: list[str] = []
    if shard_audit:
        registry_problems = channels.validate_registry()
        failed = failed or bool(registry_problems)
        payload["channels"] = [
            {
                "name": channel.name,
                "type": channel.type_name,
                "discipline": channel.discipline,
                "attributes": list(channel.attributes),
                "mutators": list(channel.mutators),
                "writers": list(channel.writers),
                "payload_types": list(channel.payload_types),
            }
            for channel in channels.registered_channels().values()
        ]
        payload["registry_problems"] = registry_problems

    codegen_report = None
    if codegen:
        from repro.analysis.codegen_audit import audit_generated_pipelines

        codegen_report = audit_generated_pipelines()
        failed = failed or not codegen_report.clean
        payload["codegen"] = {
            "clean": codegen_report.clean,
            "pipelines_audited": codegen_report.pipelines_audited,
            "folds_audited": codegen_report.folds_audited,
            "routes_audited": codegen_report.routes_audited,
            "findings": [f.as_dict() for f in codegen_report.findings],
        }

    if output_format == "json":
        print(_json.dumps(payload, indent=2))
    else:
        print(report.render())
        if shard_audit:
            print(channels.render_inventory())
            for problem in registry_problems:
                print(f"  registry problem: {problem}")
        if codegen_report is not None:
            print(codegen_report.render())

    if report_output is not None:
        pathlib.Path(report_output).write_text(
            _json.dumps(payload, indent=2) + "\n"
        )

    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.experiment == "repro-lint":
        return run_repro_lint(
            codegen=not args.no_codegen,
            shard_audit=args.shard_audit,
            output_format=args.output_format,
            report_output=args.report_output,
        )
    if args.batch_size is not None and args.batch_size < 1:
        raise SystemExit("--batch-size must be a positive integer")
    if args.engine_mode == "compiled" and args.batch_size is None:
        raise SystemExit("--engine-mode compiled requires --batch-size")
    if args.experiment == "engine-bench":
        if args.bench_repeats < 1:
            raise SystemExit("--bench-repeats must be a positive integer")
        run_engine_bench(
            args.scale,
            args.seed,
            args.batch_size,
            repeats=args.bench_repeats,
            output=args.bench_output,
        )
        return 0
    if args.experiment == "serve-bench":
        if args.serve_queries < 1:
            raise SystemExit("--serve-queries must be a positive integer")
        if args.workers is not None and any(count < 1 for count in args.workers):
            raise SystemExit("--workers must be positive integers")
        run_serve_bench(
            args.scale,
            args.seed,
            args.batch_size,
            num_queries=args.serve_queries,
            wireless=args.serve_wireless,
            output=args.bench_output,
            workers=args.workers,
        )
    elif args.experiment == "order-bench":
        run_order_bench(
            args.scale,
            args.seed,
            args.batch_size,
            output=args.bench_output,
        )
    elif args.experiment == "rate-bench":
        run_rate_bench(
            args.scale,
            args.seed,
            args.batch_size,
            output=args.bench_output,
        )
    elif args.experiment == "resilience-bench":
        run_resilience_bench(
            args.scale,
            args.seed,
            args.batch_size,
            output=args.bench_output,
        )
    elif args.experiment == "io-bench":
        run_io_bench(
            args.scale,
            args.seed,
            args.batch_size,
            output=args.bench_output,
        )
    elif args.experiment == "all":
        for name in ("fig2", "fig3", "fig5", "fig6", "sec4.5", "ablations"):
            if name in ENGINE_MODE_EXPERIMENTS:
                EXPERIMENTS[name](
                    args.scale, args.seed, args.batch_size, engine_mode=args.engine_mode
                )
            else:
                EXPERIMENTS[name](args.scale, args.seed, args.batch_size)
    elif args.experiment in ENGINE_MODE_EXPERIMENTS:
        EXPERIMENTS[args.experiment](
            args.scale, args.seed, args.batch_size, engine_mode=args.engine_mode
        )
    else:
        EXPERIMENTS[args.experiment](args.scale, args.seed, args.batch_size)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
