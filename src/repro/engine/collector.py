"""The one place the package touches :mod:`gc`: drivers run queries with the
cyclic collector paused.  The execution path is acyclic, so reference
counting alone frees a finished query; ``tests/test_no_reference_cycles.py``
is the contract that makes the pause safe.
"""

from __future__ import annotations

import gc
from collections.abc import Iterator
from contextlib import contextmanager


@contextmanager
def collector_paused() -> Iterator[None]:
    """Disable the cyclic collector for a block or, as a decorator, a call;
    then restore the state it found, on return and on exception.  Nests."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
