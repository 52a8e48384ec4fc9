"""Command-line runner for the experiment harnesses.

Regenerate any of the paper's tables/figures without going through pytest::

    python -m repro.experiments.cli fig2          # corrective QP, local sources
    python -m repro.experiments.cli fig3          # corrective QP, wireless sources
    python -m repro.experiments.cli fig5          # complementary joins
    python -m repro.experiments.cli fig6          # pre-aggregation
    python -m repro.experiments.cli sec4.5        # selectivity prediction
    python -m repro.experiments.cli ablations     # sensitivity sweeps
    python -m repro.experiments.cli all           # every paper figure/table
    python -m repro.experiments.cli repro-lint    # the static-analysis gate

Use ``--scale`` to trade runtime for fidelity (default 0.003) and ``--seed``
for a different deterministic instance.  ``fig2`` and ``fig3`` run the
pipelined engines and additionally honour ``--batch-size N`` (batch-at-a-time
execution: identical results, much faster regeneration) and ``--engine-mode
compiled`` (requires ``--batch-size``; the fused compiled batch pipelines —
identical results and simulated timings); with any other experiment those two
flags are a usage error, and ``all`` forwards them to ``fig2``/``fig3`` only.

Wall-clock measurement is not this module's job: ``python -m bench.run`` is
the one instrument for it (``bench/README.md``).
"""

from __future__ import annotations

import argparse
import pathlib
from typing import Callable

from repro.core.options import ProcessorOptions
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
from repro.experiments.preaggregation import run_preaggregation_comparison
from repro.experiments.selectivity import run_selectivity_prediction


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


def run_fig5(scale: float, seed: int) -> None:
    rows = run_complementary_comparison(scale_factor=scale, seed=seed)
    _print("Figure 5 — complementary joins", format_table(rows))
    _print("Table 3 — output distribution", format_table(complementary_distribution(rows)))


def run_fig6(scale: float, seed: int) -> None:
    rows = run_preaggregation_comparison(scale_factor=scale, seed=seed)
    _print("Figure 6 — pre-aggregation strategies", format_table(rows))


def run_sec45(scale: float, seed: int) -> None:
    result = run_selectivity_prediction(scale_factor=scale, seed=seed)
    _print("Section 4.5 — selectivity prediction", format_table(result["prediction_rows"]))
    print(f"histogram maintenance overhead: {result['overhead']}")


def run_ablations(scale: float, seed: int) -> None:
    _print("Ablation — re-optimization polling interval",
           format_table(sweep_polling_interval(scale_factor=scale, seed=seed)))
    _print("Ablation — priority-queue capacity",
           format_table(sweep_priority_queue_capacity(scale_factor=scale, seed=seed)))
    _print("Ablation — adjustable-window policy",
           format_table(sweep_window_policy(scale_factor=scale, seed=seed)))


EXPERIMENTS: dict[str, Callable[..., None]] = {
    "fig2": run_fig2,
    "fig3": run_fig3,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "sec4.5": run_sec45,
    "ablations": run_ablations,
}

#: Experiments that honour ``--batch-size`` / ``--engine-mode`` (they run the
#: pipelined engines; the others take ``(scale, seed)`` only).
ENGINE_MODE_EXPERIMENTS = ("fig2", "fig3")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["repro-lint", "all"],
        help=(
            "which experiment to run ('all' runs the six paper experiments, "
            "forwarding --batch-size / --engine-mode to fig2 and fig3 only)"
        ),
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
            "fig2, fig3: execute the engines batch-at-a-time with this batch "
            "size (default: tuple-at-a-time, as in the paper).  Results are "
            "identical and regeneration is much faster; simulated timings "
            "are bit-identical for local experiments (fig2) and may drift "
            "~1%% for wireless ones (fig3).  A usage error with any other "
            "experiment."
        ),
    )
    parser.add_argument(
        "--engine-mode",
        choices=("interpreted", "compiled"),
        default="interpreted",
        help=(
            "fig2, fig3: execution mode for the pipelined engines; "
            "'compiled' runs fused plan-specialized batch pipelines and "
            "requires --batch-size; results and simulated timings are "
            "bit-identical to 'interpreted'.  A usage error with any other "
            "experiment."
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
    parser = build_parser()
    args = parser.parse_args(argv)
    engine_flags = args.batch_size is not None or args.engine_mode != "interpreted"
    if engine_flags and args.experiment not in (*ENGINE_MODE_EXPERIMENTS, "all"):
        parser.error(
            f"--batch-size / --engine-mode are honoured by "
            f"{' and '.join(ENGINE_MODE_EXPERIMENTS)} only (and by 'all', which "
            f"forwards them to those); {args.experiment} would ignore them"
        )
    if args.experiment == "repro-lint":
        return run_repro_lint(
            codegen=not args.no_codegen,
            shard_audit=args.shard_audit,
            output_format=args.output_format,
            report_output=args.report_output,
        )
    engine = {"batch_size": args.batch_size, "engine_mode": args.engine_mode}
    try:
        ProcessorOptions(**engine)
    except ValueError as error:
        parser.error(str(error))
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        EXPERIMENTS[name](
            args.scale, args.seed, **(engine if name in ENGINE_MODE_EXPERIMENTS else {})
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
