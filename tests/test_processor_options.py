"""The corrective processor's knobs: one validated record behind every front door.

Every invalid setting is rejected when :class:`ProcessorOptions` is built,
so each front door (the processor, the server under its former name and
under both start methods) fails at construction, before any query runs and
before any worker starts.
"""

from __future__ import annotations

import math
import pickle

import pytest

from repro import ProcessorOptions as ExportedOptions
from repro.core import ProcessorOptions as CoreExportedOptions
from repro.core.corrective import CorrectiveQueryProcessor
from repro.core.options import ProcessorOptions
from repro.experiments import cli
from repro.serving.server import QueryServer
from repro.serving.sharded import ShardedQueryServer
from repro.serving.specs import ShardTask
from workload_generator import generate_workload


def _processor(catalog, sources, **knobs):
    return CorrectiveQueryProcessor(catalog, sources, **knobs)


def _sharded_inline(catalog, sources, **knobs):
    return ShardedQueryServer(catalog, sources, start_method="inline", **knobs)


def _sharded_default(catalog, sources, **knobs):
    return ShardedQueryServer(catalog, sources, **knobs)


FRONT_DOORS = {
    "processor": _processor,
    # the former name the benchmark still builds
    "query_server": QueryServer,
    "sharded_inline": _sharded_inline,
    "sharded_default": _sharded_default,
}

#: (knobs, the field names the message must carry)
REJECTIONS = {
    "polling_zero": ({"polling_interval_seconds": 0.0}, ("polling_interval_seconds",)),
    "polling_negative": (
        {"polling_interval_seconds": -1.0},
        ("polling_interval_seconds",),
    ),
    "polling_nan": (
        {"polling_interval_seconds": math.nan},
        ("polling_interval_seconds",),
    ),
    "batch_zero": ({"batch_size": 0}, ("batch_size",)),
    "batch_negative": ({"batch_size": -4}, ("batch_size",)),
    "unknown_engine": ({"engine_mode": "jit"}, ("engine_mode",)),
    "compiled_without_batch": (
        {"engine_mode": "compiled"},
        ("engine_mode", "batch_size"),
    ),
}


@pytest.fixture(scope="module")
def workload():
    return generate_workload(2)


@pytest.mark.parametrize("door", sorted(FRONT_DOORS))
@pytest.mark.parametrize("rejection", sorted(REJECTIONS))
def test_every_front_door_rejects_at_construction(workload, door, rejection):
    knobs, named = REJECTIONS[rejection]
    with pytest.raises(ValueError) as raised:
        FRONT_DOORS[door](workload.catalog(), workload.sources(), **knobs)
    for field_name in named:
        assert field_name in str(raised.value)


@pytest.mark.parametrize("door", sorted(FRONT_DOORS))
@pytest.mark.parametrize(
    "knob",
    [
        "order_tolerance",
        "bushy",
        "no_such_knob",
        # deleted server features: a caller still passing one hears of it
        "admission_backpressure",
        "rate_seeded_plans",
        "session_policies",
    ],
)
def test_a_name_that_is_not_a_knob_is_a_type_error(workload, door, knob):
    with pytest.raises(TypeError, match=knob):
        FRONT_DOORS[door](workload.catalog(), workload.sources(), **{knob: 1})


def test_knobs_override_the_record_field_by_field():
    base = ProcessorOptions(batch_size=64, engine_mode="compiled")
    processor = CorrectiveQueryProcessor(
        generate_workload(2).catalog(), {}, options=base, max_phases=3
    )
    assert processor.options == ProcessorOptions(
        batch_size=64, engine_mode="compiled", max_phases=3
    )
    assert base.max_phases == 8
    # An override is validated as a whole record.
    with pytest.raises(ValueError, match="batch_size"):
        CorrectiveQueryProcessor(
            generate_workload(2).catalog(), {}, options=base, batch_size=None
        )


def test_keywords_and_record_build_the_same_servers(workload):
    record = ProcessorOptions(polling_interval_seconds=0.25, order_adaptive=True)
    by_keyword = ShardedQueryServer(
        workload.catalog(),
        workload.sources(),
        workers=1,
        polling_interval_seconds=0.25,
        order_adaptive=True,
    )
    by_record = ShardedQueryServer(
        workload.catalog(), workload.sources(), workers=1, options=record
    )
    assert by_keyword.options == by_record.options == record
    by_record.submit(workload.query)
    (task,) = by_record._build_tasks()
    assert task.processor_options == record


def test_the_record_is_frozen_picklable_and_exported():
    record = ProcessorOptions(batch_size=64, engine_mode="compiled")
    assert pickle.loads(pickle.dumps(record)) == record
    with pytest.raises(AttributeError):
        record.batch_size = 1  # type: ignore[misc]
    with pytest.raises(TypeError):
        ProcessorOptions(64)  # type: ignore[misc]
    assert ExportedOptions is CoreExportedOptions is ProcessorOptions


def test_a_shard_task_defaults_to_default_options(workload):
    task = ShardTask(
        worker_id=0,
        policy="round_robin",
        catalog=workload.catalog(),
        sources=workload.sources(),
        specs=(),
    )
    assert task.processor_options == ProcessorOptions()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--batch-size", "0"], "batch_size"),
        (["--engine-mode", "compiled"], "batch_size"),
    ],
)
def test_cli_reports_the_record_error_as_a_usage_error(capsys, flags, message):
    with pytest.raises(SystemExit) as raised:
        cli.main(["fig2", *flags])
    assert raised.value.code == 2
    assert message in capsys.readouterr().err
