"""In-memory span recorder installed from outside the program.

The traced run wraps public callables of ``src/repro`` (a method, a module
function, or an iterator factory) so that every call records one span:
name, start, end, and the span that was open when it started.  A span's
name is ``<layer>.<what>``; the layer is the ``src/repro`` package the
callable belongs to.  Nothing inside ``src/repro`` knows it is traced, and
:meth:`Tracer.uninstall` puts every original back.

A layer's *self time* is its spans' durations minus the part their child
spans cover, so one wall second is attributed to exactly one layer.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Iterator

#: name of the span the harness opens around one whole round
ROUND_SPAN = "bench.round"


class Tracer:
    """Records spans for wrapped callables; single-threaded by design (the
    workloads run one client)."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index]`` in start order
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []
        #: running totals that are not times (rows handed out by transports)
        self.counters: defaultdict[str, float] = defaultdict(float)
        #: ``module:attr`` targets that did not resolve (reported, not fatal)
        self.missing: list[str] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> list[Any]:
        stack = self._stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        return record

    def _close(self, record: list[Any]) -> None:
        record[2] = perf_counter()
        self._stack.pop()

    def call(self, name: str, function: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``function`` inside a span called ``name``."""
        record = self._open(name)
        try:
            return function(*args, **kwargs)
        finally:
            self._close(record)

    # -- installation ----------------------------------------------------------

    def _resolve(self, module_name: str, owner_path: str) -> Any | None:
        try:
            owner: Any = importlib.import_module(module_name)
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            return None
        return owner

    def _replace(
        self,
        target: str,
        adapt: Callable[[Callable[..., Any]], Callable[..., Any]],
    ) -> bool:
        """Swap ``module:Owner.attr`` for ``adapt(original)``."""
        module_name, _, path = target.partition(":")
        owner_path, _, attr = path.rpartition(".")
        owner = self._resolve(module_name, owner_path)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(target)
            return False
        # ``vars`` keeps staticmethod/classmethod wrappers intact on restore.
        stored = vars(owner).get(attr, original)
        self._undo.append((owner, attr, stored))
        setattr(owner, attr, adapt(original))
        return True

    def wrap(self, target: str, name: str) -> bool:
        """Record one span per call of ``module:Owner.attr``."""

        def adapt(original: Callable[..., Any]) -> Callable[..., Any]:
            def traced(*args: Any, **kwargs: Any) -> Any:
                return self.call(name, original, *args, **kwargs)

            return traced

        return self._replace(target, adapt)

    def wrap_iterator_factory(
        self, target: str, name_for: Callable[[Any], str]
    ) -> bool:
        """``module:Owner.attr`` returns an iterator; record one span per item
        pulled from it.  ``name_for(self_argument)`` names the spans, so one
        factory shared by several classes can report under several layers."""

        def adapt(original: Callable[..., Any]) -> Callable[..., Any]:
            def traced(instance: Any, *args: Any, **kwargs: Any) -> Iterator[Any]:
                inner = iter(original(instance, *args, **kwargs))
                name = name_for(instance)
                while True:
                    record = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(record)
                    yield item

            return traced

        return self._replace(target, adapt)

    def wrap_reader_factory(self, target: str, prefix: str, rescans: bool) -> bool:
        """``module:Transport.open`` returns a row reader; span the open
        (``<prefix>open``) and every ``read_rows`` on the reader it returns
        (``<prefix>read_rows``, whose row total is counted under the same
        name).  ``rescans`` says the transport restarts from row 0 and skips
        to the requested offset, so a resume at offset ``n`` parses ``n``
        rows again; they are counted under ``<prefix>rescanned_rows``."""

        def adapt(original: Callable[..., Any]) -> Callable[..., Any]:
            def traced(transport: Any, offset: int) -> Any:
                reader = self.call(prefix + "open", original, transport, offset)
                if rescans:
                    self.counters[prefix + "rescanned_rows"] += offset
                return _TracedReader(reader, self, prefix + "read_rows")

            return traced

        return self._replace(target, adapt)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, stored = self._undo.pop()
            setattr(owner, attr, stored)

    # -- analysis --------------------------------------------------------------

    def per_round(self) -> list[dict[str, tuple[float, int]]]:
        """For each :data:`ROUND_SPAN`, ``{span name: (self seconds, calls)}``
        over the spans inside it (the round span's own self time included)."""
        spans = self.spans
        child_seconds = [0.0] * len(spans)
        root = [0] * len(spans)
        for index, (_name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child_seconds[parent] += end - start
                root[index] = root[parent]
            else:
                root[index] = index
        rounds: dict[int, dict[str, list[float]]] = {}
        for index, (name, start, end, _parent) in enumerate(spans):
            if spans[root[index]][0] != ROUND_SPAN:
                continue
            totals = rounds.setdefault(root[index], defaultdict(lambda: [0.0, 0]))
            entry = totals[name]
            entry[0] += (end - start) - child_seconds[index]
            entry[1] += 1
        return [
            {name: (entry[0], int(entry[1])) for name, entry in totals.items()}
            for _root, totals in sorted(rounds.items())
        ]


class _TracedReader:
    """A row reader whose ``read_rows`` calls are spans."""

    def __init__(self, inner: Any, tracer: Tracer, name: str) -> None:
        self._inner = inner
        self._tracer = tracer
        self._name = name

    def read_rows(self, max_rows: int) -> list[tuple[object, ...]]:
        rows = self._tracer.call(self._name, self._inner.read_rows, max_rows)
        self._tracer.counters[self._name] += len(rows)
        return rows

    def close(self) -> None:
        self._inner.close()


def _pull_span_name(source: Any) -> str:
    """Pulls from a resilience envelope are ``io`` time; from a plain local
    or simulated-remote source, ``sources`` time."""
    return "io.pull" if hasattr(source, "transport") else "sources.pull"


#: every boundary the traced run records: ``(target, span name)``
CALL_PROBES: tuple[tuple[str, str], ...] = (
    ("repro.core.corrective:CorrectiveQueryProcessor.execute", "core.execute"),
    ("repro.core.monitor:ExecutionMonitor.observe", "core.monitor_observe"),
    ("repro.core.stitchup:StitchUpExecutor.run", "core.stitchup"),
    ("repro.engine.pipelined:PipelinedPlan.__init__", "engine.plan_build"),
    ("repro.engine.pipelined:PipelinedPlan.run_chunk", "engine.run_chunk"),
    ("repro.engine.pipelined:PipelinedPlan.finish_phase", "engine.finish_phase"),
    ("repro.engine.pipelined:PipelinedPlan.register_state", "engine.register_state"),
    ("repro.engine.compiled:compile_chain", "engine.codegen"),
    ("repro.optimizer.enumerator:Optimizer.optimize_tree", "optimizer.optimize_tree"),
    ("repro.optimizer.reoptimizer:ReOptimizer.evaluate", "optimizer.reopt_evaluate"),
    ("repro.adaptivity.controller:AdaptationRun.poll", "adaptivity.poll"),
    ("repro.serving.sharded:ShardedQueryServer.__init__", "serving.init"),
    ("repro.serving.sharded:ShardedQueryServer.submit", "serving.submit"),
    (
        "repro.serving.sharded:ShardedQueryServer.submit_partitioned",
        "serving.submit_partitioned",
    ),
    ("repro.serving.sharded:build_partition_plan", "serving.partition_build_plan"),
    ("repro.serving.sharded:ShardedQueryServer.run", "serving.run"),
    ("repro.serving.sharded:merge_partition_results", "serving.partition_merge"),
    (
        "repro.serving.stats_cache:SharedStatisticsCache.snapshot_state",
        "serving.stats_snapshot",
    ),
    (
        "repro.serving.stats_cache:SharedStatisticsCache.absorb_snapshot",
        "serving.stats_absorb",
    ),
)

#: source classes whose chunk iterators are spanned per pulled chunk
PULL_PROBES: tuple[str, ...] = (
    "repro.sources.source:DataSource.open_stream_columns",
    "repro.sources.source:LocalSource.open_stream_columns",
    "repro.sources.remote:RemoteSource.open_stream_columns",
)

#: transports whose ``open`` and readers are spanned:
#: ``(target, span prefix, restarts from row 0 on resume)``.  The injector
#: gets its own prefix so rows are counted once, at the real backend.
TRANSPORT_PROBES: tuple[tuple[str, str, bool], ...] = (
    ("repro.io.backends:CSVFileTransport.open", "io.", True),
    ("repro.io.backends:JSONLinesTransport.open", "io.", True),
    ("repro.io.backends:DBAPITransport.open", "io.", True),
    ("repro.io.backends:HTTPTransport.open", "io.", False),
    ("repro.io.faults:InjectedTransport.open", "io.inject_", False),
)


def install_probes(tracer: Tracer) -> None:
    """Wrap every boundary above; unresolved targets land in
    ``tracer.missing`` and simply record nothing."""
    for target, name in CALL_PROBES:
        tracer.wrap(target, name)
    for target in PULL_PROBES:
        tracer.wrap_iterator_factory(target, _pull_span_name)
    for target, prefix, rescans in TRANSPORT_PROBES:
        tracer.wrap_reader_factory(target, prefix, rescans)
