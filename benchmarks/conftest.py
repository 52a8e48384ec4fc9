"""Shared helpers for the benchmark harness.

Every test here regenerates one (or one pair) of the paper's tables/figures
and writes the reproduced rows — simulated query times, phase counts — to
``benchmarks/results/<name>.txt``: tracked golden tables, which a run must
regenerate byte-identical (CI checks ``git diff --exit-code`` after tier-1).
The test suite's helpers (``tests/helpers.py``: the tuple-at-a-time clock
oracle) are importable here.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "tests"))


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def save_result(results_dir):
    """Write a reproduced table to benchmarks/results/<name>.txt."""

    def _save(name: str, content: str) -> pathlib.Path:
        path = results_dir / f"{name}.txt"
        path.write_text(content + "\n", encoding="utf-8")
        return path

    return _save
