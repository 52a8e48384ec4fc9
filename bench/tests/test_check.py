"""Tier-1 guard for the benchmark itself: it still runs, its rounds are still
oracle-verified and homogeneous, and its manifest still matches its code.

No timing is asserted here — that is what ``bench.compare`` is for.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUNNER = os.path.join(ROOT, "bench", "run.py")
sys.path.insert(0, ROOT)

from bench import compare, metrics  # noqa: E402
from bench.run import DEFAULT_SECONDS, WORKLOAD_NAMES  # noqa: E402
from bench.workloads import WHY  # noqa: E402


def test_check_mode_verifies_every_workload():
    done = subprocess.run(
        [sys.executable, RUNNER, "--check"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    for name in WORKLOAD_NAMES:
        assert f"check {name}: ok (2 rounds)" in done.stdout


def test_manifest_lists_exactly_the_metrics_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == [
        (name, WHY[name]) for name in WORKLOAD_NAMES
    ]
    assert manifest["paths"] == ["bench"]
    assert manifest["run_seconds"] == DEFAULT_SECONDS
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]
    ] == list(metrics.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]
    ] == list(metrics.PER_LAYER)


def test_runner_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(
        os.path.join(ROOT, "bench"),
        tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solo_tuple", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_compare_verdicts_follow_the_guide():
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    noisy = [0.8, 1.0, 1.2, 0.9, 1.3]
    # within the bound, parent steady: unchanged can be claimed
    assert compare.verdict(steady, [1.03] * 5, "lower", 0.10) == "pass"
    # worse than the bound
    assert compare.verdict(steady, [1.2] * 5, "lower", 0.10) == "fail"
    assert compare.verdict(steady, [0.8] * 5, "higher", 0.10) == "fail"
    # parent's own spread exceeds the bound: unresolved, unless B wins every run
    assert compare.verdict(noisy, [1.0] * 5, "lower", 0.10) == "unresolved"
    assert compare.verdict(noisy, [0.7] * 5, "lower", 0.10) == "pass"
