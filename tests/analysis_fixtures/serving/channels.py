"""Fixture registry for the shard-safety rules.

Never imported — only parsed.  Each tuple names what the other serving
fixtures define, plus one stale entry that names nothing in the tree.
"""

CLOCK_WRITERS = (
    "serving/loop.py::MiniLoop.run",
    "serving/loop.py::MiniLoop.rewind",  # LINT: stale-writer
)

CROSS_PROCESS_TYPES = (
    "SharedLedger",
    "HandoffSnapshot",
    "RetiredSnapshot",  # LINT: stale-payload
)
