"""The strict-typing gate: mypy --strict over the analysis subsystem.

CI's ``analysis`` job runs this same invocation directly; the test exists so
that developers with mypy installed get the gate locally too.  The container
image used for offline development does not ship mypy, so the test skips
(rather than fails) when the tool is absent — the gate is still enforced in
CI, where mypy is installed explicitly.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The strict surface: the analysis subsystem, the serving layer it
#: certifies for sharding (home of the channel registry), the real-I/O
#: fabric, the source protocol, the two invariant-bearing modules it audits
#: against, the processor-options record and the collector pause.  Keep in
#: sync with .github/workflows/ci.yml.
STRICT_TARGETS = (
    "src/repro/analysis",
    "src/repro/serving",
    "src/repro/io",
    "src/repro/sources/source.py",
    "src/repro/engine/cost.py",
    "src/repro/adaptivity/events.py",
    "src/repro/core/options.py",
    "src/repro/engine/collector.py",
)


@pytest.mark.skipif(
    importlib.util.find_spec("mypy") is None,
    reason="mypy is not installed; the strict gate runs in CI",
)
def test_strict_surface_passes_mypy() -> None:
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--strict", *STRICT_TARGETS],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, (
        f"mypy --strict failed:\n{result.stdout}\n{result.stderr}"
    )


def test_package_ships_typing_marker() -> None:
    """PEP 561: the package advertises inline types via py.typed."""
    assert (REPO_ROOT / "src" / "repro" / "py.typed").exists()


def test_pyproject_strict_targets_are_real() -> None:
    """Catch the config rotting when modules move."""
    for target in STRICT_TARGETS:
        assert (REPO_ROOT / target).exists(), target
