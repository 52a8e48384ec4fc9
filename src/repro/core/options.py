"""The corrective processor's knobs, declared once.

:class:`ProcessorOptions` is the one record every front door builds a
:class:`~repro.core.corrective.CorrectiveQueryProcessor` from: the processor
itself and :class:`~repro.serving.sharded.ShardedQueryServer`, which ships
the record to its shards inside each
:class:`~repro.serving.specs.ShardTask` (one processor per session).  Each
front door takes ``options=`` and also accepts the fields as keywords (see
:func:`resolve_options`).

The record is frozen and validated in ``__post_init__``, so an invalid one
cannot exist: a bad setting fails where it is written, never inside a
worker or halfway through a query.  Every value is a plain scalar, so it
pickles as-is.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any

from repro.engine.compiled import validate_engine_mode


@dataclass(frozen=True, kw_only=True)
class ProcessorOptions:
    """The paper's experimental knobs for corrective query processing."""

    #: an integer ``>= 1`` sets the step of a static ``run()`` and the cursor
    #: prefetch floor (``max(batch_size, DEFAULT_PREFETCH)``); ``None`` steps
    #: by ``DEFAULT_PREFETCH``.  Every value reads in the paper's tuple
    #: order (Section 4.1), so answers, adaptation decisions, phase counts
    #: and ``repr(simulated_seconds)`` are the same on every source, local or
    #: delayed; a corrective run hands each per-leaf group of a poll chunk to
    #: its kernel whole.
    batch_size: int | None = None
    #: the kernel.  By default (``None``) a run goes through the fused
    #: plan-specialized pipelines of :mod:`repro.engine.compiled`.
    #: ``"interpreted"`` forces the generic
    #: operator code, the reference they are held to: answers, work
    #: counters, simulated seconds and phase counts are bit-identical.
    engine_mode: str | None = None
    #: the re-optimization poll interval, in simulated seconds (the paper
    #: polls every second of wall-clock); must be ``> 0``
    polling_interval_seconds: float = 1.0
    #: how much cheaper an alternative plan must be before the processor
    #: switches to it, in (0, 1]
    switch_threshold: float = 0.8
    #: the most sequential plans one query may run through, an int >= 1 (a
    #: safety valve, rarely reached)
    max_phases: int = 8
    #: order-adaptive join processing: every cursor gets an order detector on
    #: its join attributes, catalog promises seed the ordering knowledge, the
    #: optimizer costs merge joins on order-eligible nodes, and a plan switch
    #: may change only the physical strategies (hash↔merge).  Off by default:
    #: the detectors cost per tuple, and order exploitation changes the plans
    #: the paper-reproduction benchmarks pin.
    order_adaptive: bool = False
    #: the source-rate policy (:class:`~repro.adaptivity.rate.SourceRatePolicy`):
    #: a source delivering well below its catalog ``promised_rate`` is
    #: demoted in the read schedule, and a plan that gates work behind its
    #: arrivals may be switched to.  Without rate promises it never acts.
    rate_adaptive: bool = False
    #: the mirror-failover policy
    #: (:class:`~repro.adaptivity.failover.MirrorFailoverPolicy`): a source in
    #: sustained outage whose :class:`~repro.sources.remote.RemoteSource` has
    #: registered mirrors is re-pointed at a mirror for the rest of the
    #: relation.  Answers are bit-identical; it runs before the rate policy,
    #: so a recoverable outage is repaired rather than gated around.
    failover_adaptive: bool = False
    #: how long a source must stall within one poll for that poll to count
    #: toward an outage, > 0 (failover policy only)
    failover_stall_seconds: float = 0.05

    def __post_init__(self) -> None:
        # Each test is written so that NaN fails it too: a non-positive
        # interval makes every poll window empty, and the phase loop would
        # never end.
        for name, valid, rule in (
            ("batch_size", self.batch_size is None or isinstance(self.batch_size, int), "an int"),
            ("polling_interval_seconds", self.polling_interval_seconds > 0, "> 0"),
            ("switch_threshold", 0 < self.switch_threshold <= 1, "in (0, 1]"),
            ("max_phases", isinstance(self.max_phases, int) and self.max_phases >= 1, "an int >= 1"),
            ("failover_stall_seconds", self.failover_stall_seconds > 0, "> 0"),
        ):
            if not valid:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        validate_engine_mode(self.engine_mode, self.batch_size)


_KNOBS = frozenset(field.name for field in fields(ProcessorOptions))


def resolve_options(
    options: ProcessorOptions | None, knobs: dict[str, Any]
) -> ProcessorOptions:
    """``options`` (default: all defaults) with the keyword ``knobs`` applied
    on top.  A name that is not a field is a :class:`TypeError` naming it."""
    unknown = sorted(set(knobs) - _KNOBS)
    if unknown:
        raise TypeError(
            "unexpected keyword argument(s) "
            + ", ".join(repr(name) for name in unknown)
            + f"; the processor knobs are {', '.join(sorted(_KNOBS))}"
        )
    if options is None:
        return ProcessorOptions(**knobs)
    return replace(options, **knobs) if knobs else options
