"""Judge two sets of benchmark records: ``python -m bench.compare A/ B/``.

``A/`` is the parent (or the first of two same-commit sets), ``B/`` the
change.  Both hold records written by ``bench.run --out``.  For every
workload × end-to-end metric the table gives each set's median and
quartiles, the relative difference (positive = B is worse), the bound from
``bench.metrics`` and a verdict:

``pass``        B's median is not worse than A's by more than the bound
``unresolved``  it is within the bound, but A's own run-to-run spread
                (quartile distance / median) is wider than the bound, so
                "unchanged" cannot be claimed — unless every run of B reads
                better than every run of A, which is a ``pass``
``fail``        B's median is worse than A's by more than the bound

Simulated seconds and count-type layer metrics must repeat exactly: where
both sets hold a record of the same workload and seed, any difference in
them is reported as ``drift`` and fails the comparison.  Exit status is 1
on any ``fail`` or ``drift``, else 0.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Any

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench.metrics import END_TO_END, PER_LAYER  # noqa: E402

#: metrics that are pure functions of the seed
EXACT = {"sim_s_per_query"} | {name for name, unit, _ in PER_LAYER if unit == "count"}

Records = dict[str, list[dict[str, Any]]]


def load(directory: str) -> Records:
    """Records of one set, by workload."""
    by_workload: Records = defaultdict(list)
    for entry in sorted(os.listdir(directory)):
        if entry.endswith(".json"):
            with open(os.path.join(directory, entry), encoding="utf-8") as handle:
                record = json.load(handle)
            by_workload[record["workload"]].append(record)
    return by_workload


def values(records: list[dict[str, Any]], metric: str) -> list[float]:
    return [
        record["metrics"][metric]
        for record in records
        if record["metrics"].get(metric) is not None
    ]


def summary(sample: list[float]) -> tuple[float, float, float]:
    """``(first quartile, median, third quartile)``."""
    if len(sample) == 1:
        return sample[0], sample[0], sample[0]
    first, median, third = statistics.quantiles(sample, n=4)
    return first, median, third


def spread(sample: list[float]) -> float:
    first, median, third = summary(sample)
    return (third - first) / abs(median) if median else 0.0


def worsening(a_median: float, b_median: float, better: str) -> float:
    """Relative difference of B against A, positive when B is worse."""
    if not a_median:
        return 0.0
    change = (b_median - a_median) / abs(a_median)
    return change if better == "lower" else -change


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    if worsening(summary(a)[1], summary(b)[1], better) > bound:
        return "fail"
    if spread(a) > bound:
        all_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return "pass" if all_better else "unresolved"
    return "pass"


def drifts(a: Records, b: Records) -> list[str]:
    """Exact metrics that differ between same-workload, same-seed records."""
    found = []
    for workload in sorted(set(a) & set(b)):
        by_seed: dict[tuple[int, int], dict[str, Any]] = {}
        for record in a[workload]:
            by_seed.setdefault((record["seed"], record["trace"]), record["metrics"])
        for record in b[workload]:
            reference = by_seed.get((record["seed"], record["trace"]))
            if reference is None:
                continue
            for name in sorted(EXACT & set(reference) & set(record["metrics"])):
                if reference[name] != record["metrics"][name]:
                    found.append(
                        f"{workload} seed {record['seed']} {name}: "
                        f"{reference[name]!r} != {record['metrics'][name]!r}"
                    )
    return found


def compare(a: Records, b: Records) -> tuple[list[str], bool]:
    """The table's lines and whether everything passed."""
    lines = [
        f"{'workload':<14}{'metric':<22}{'A q1':>11}{'A med':>11}{'A q3':>11}"
        f"{'B q1':>11}{'B med':>11}{'B q3':>11}{'A iqr%':>8}{'B iqr%':>8}"
        f"{'worse%':>8}{'bound%':>8}  verdict"
    ]
    ok = True
    for workload in sorted(set(a) & set(b)):
        for name, _unit, better, bound in END_TO_END:
            sample_a, sample_b = values(a[workload], name), values(b[workload], name)
            if not sample_a or not sample_b:
                continue
            qa, qb = summary(sample_a), summary(sample_b)
            outcome = verdict(sample_a, sample_b, better, bound)
            ok = ok and outcome != "fail"
            lines.append(
                f"{workload:<14}{name:<22}"
                + "".join(f"{value:>11.5g}" for value in (*qa, *qb))
                + f"{100 * spread(sample_a):>8.2f}{100 * spread(sample_b):>8.2f}"
                f"{100 * worsening(qa[1], qb[1], better):>8.2f}{100 * bound:>8.1f}"
                f"  {outcome}"
            )
    layer_lines = []
    for workload in sorted(set(a) & set(b)):
        for name, _unit, better in PER_LAYER:
            sample_a, sample_b = values(a[workload], name), values(b[workload], name)
            if sample_a and sample_b:
                median_a, median_b = summary(sample_a)[1], summary(sample_b)[1]
                layer_lines.append(
                    f"{workload:<14}{name:<40}{median_a:>12.5g}{median_b:>12.5g}"
                    f"{100 * worsening(median_a, median_b, better):>8.2f}"
                )
    if layer_lines:
        lines += ["", f"{'workload':<14}{'layer metric':<40}{'A med':>12}{'B med':>12}{'worse%':>8}"]
        lines += layer_lines
    drifted = drifts(a, b)
    if drifted:
        ok = False
        lines += ["", "drift in metrics that must repeat exactly:"]
        lines += [f"  {line}" for line in drifted]
    return lines, ok


def main(argv: list[str] | None = None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    if len(arguments) != 2:
        print("usage: python -m bench.compare A/ B/", file=sys.stderr)
        return 2
    lines, ok = compare(load(arguments[0]), load(arguments[1]))
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
