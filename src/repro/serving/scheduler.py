"""Shard routing and the one scheduling policy of the serving layer.

A worker runs its shard's sessions one at a time, each to completion, in
admission order.  The order changes no session's result (every session reads
the catalog as it stood at the start of the run); it fixes only the order in
which finished sessions are absorbed into the statistics cache, so a serving
run is a pure function of its inputs.
"""

from __future__ import annotations

#: The one scheduling policy's name: admission order.  The server and
#: :class:`~repro.serving.specs.ShardTask` still take a ``policy`` because
#: the benchmark passes this value.
ROUND_ROBIN = "round_robin"


def check_policy(policy: str) -> str:
    """``policy`` itself when it names the one policy; a ``ValueError``
    naming it otherwise."""
    if policy != ROUND_ROBIN:
        raise ValueError(
            f"unknown scheduling policy {policy!r}; sessions run in admission "
            f"order, whose name is {ROUND_ROBIN!r}"
        )
    return policy


def shard_assignment(num_sessions: int, workers: int) -> list[int]:
    """Deterministic session→worker routing for the sharded server.

    Plain round-robin by admission index: session ``i`` runs on worker
    ``i % workers``.  A pure function of the two counts — no hashing, no
    randomness — so a sharded run's shard composition (and therefore every
    worker-local learning order) is reproducible from the submission order
    alone.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    return [index % workers for index in range(num_sessions)]
