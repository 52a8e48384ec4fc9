"""Corrective runs do not depend on the interpreter's hash seed.

``determinism.unordered-iter`` forbids set iteration on tuple-emit paths by
reading the source; this is its runtime cover.  Q3A, Q10A and Q5 run
correctively from their worst plans, switching plans mid-run, in tuple and
compiled mode, in two interpreters with different ``PYTHONHASHSEED``
values: rows in order, counters, phase trees and simulated seconds must
agree to the bit.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.core.corrective import CorrectiveQueryProcessor
from repro.experiments.common import build_dataset
from repro.experiments.corrective import worst_left_deep_tree
from repro.workloads.queries import query_3a, query_5, query_10a


def corrective_runs() -> list[list[object]]:
    """One record per (mode, query): rows, metrics, phases and seconds."""
    dataset = build_dataset("uniform", 0.002, 0.0, 2004)
    runs = []
    for batch_size in (None, 64):
        for query in (query_3a(), query_10a(), query_5()):
            processor = CorrectiveQueryProcessor(
                dataset.catalog_no_statistics.copy(),
                dataset.sources,
                batch_size=batch_size,
                polling_interval_seconds=0.25,
            )
            report = processor.execute(
                query, initial_tree=worst_left_deep_tree(query, dataset)
            )
            runs.append([
                repr(report.rows),
                report.metrics.as_dict(),
                [[str(p.join_tree), p.switch_reason, repr(p.ended_at)] for p in report.phases],
                repr(report.simulated_seconds),
            ])
    return runs


def test_corrective_runs_are_bit_identical_across_hash_seeds():
    tests = Path(__file__).parent
    script = "import json\nfrom test_hash_seed import corrective_runs\nprint(json.dumps(corrective_runs()))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    children = [
        subprocess.Popen(
            [sys.executable, "-c", script],
            env=dict(env, PYTHONHASHSEED=seed),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in ("0", "1")
    ]
    runs = []
    for child in children:
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        runs.append(json.loads(out))
    assert runs[0] == runs[1]
    # every run switched plans at least once, so re-optimization is covered
    assert all(len(phases) >= 2 for _, _, phases, _ in runs[0])
