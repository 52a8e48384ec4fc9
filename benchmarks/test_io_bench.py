"""Real-I/O fault-injection benchmark (record written under pytest's ``tmp_path``).

The tier-1 suite leaves tracked files alone; keep a record with
``repro.experiments.cli io-bench --bench-output FILE``.

Runs the ``io-bench`` replay — seeded differential workloads served by the
local HTTP fixture server under injected faults (delays, resets, outages,
truncated payloads, 5xx flaps), streamed through the resilience envelope
on real sockets and a real clock — and asserts the PR's acceptance
criteria:

* every faulted stream delivers **exactly** the relation's rows — no
  duplicates, no drops, for every workload;
* the seeded plans actually injected faults (a quiet replay proves
  nothing);
* a corrective engine run over the faulted HTTP sources produces the
  identical result multiset as the same engine over local relations.
"""

from __future__ import annotations

import json

from repro.experiments.io_bench import run_io_benchmark

SEED = 2004

BENCH_NAME = "BENCH_pr9.json"


def test_io_bench_acceptance_and_record(tmp_path):
    result = run_io_benchmark(seed=SEED)
    (tmp_path / BENCH_NAME).write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8"
    )

    assert result["faults_injected"], "the seeded plans injected no faults"
    for entry in result["streams"]:
        assert entry["exact_delivery"], (
            f"seed {entry['seed']}: a faulted stream dropped or duplicated "
            f"rows ({entry['telemetry']})"
        )
    assert result["verified_vs_local"], (
        "the engine over faulted HTTP sources disagrees with the same "
        "engine over local relations"
    )
    # The envelope actually worked for its living: at least one stream
    # needed a mid-stream resume.
    assert any(
        entry["telemetry"].get("resumes", 0) > 0 for entry in result["streams"]
    )
