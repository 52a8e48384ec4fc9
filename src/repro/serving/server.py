"""Former names of the query server, kept for the benchmark's probes.

:class:`~repro.serving.sharded.ShardedQueryServer` is the one server.
"""

from __future__ import annotations

import functools

from repro.core.options import ProcessorOptions
from repro.serving.sharded import ShardedQueryServer

#: The in-process, one-shard server under its former name, kept for the
#: benchmark's shared-server probe.
QueryServer = functools.partial(ShardedQueryServer, workers=1, start_method="inline")

#: The :class:`ProcessorOptions` constructor under its former name, kept for
#: the benchmark's pickle probe.
corrective_processor_options = ProcessorOptions
