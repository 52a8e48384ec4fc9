"""A cross-process :class:`SharedStatisticsCache` behind the existing API.

:class:`SharedStatisticsStore` hosts one real
:class:`~repro.serving.stats_cache.SharedStatisticsCache` inside a
``multiprocessing`` manager process and exposes the cache's method surface
as a local facade.  Any process holding the facade (or a pickled copy of
it) reads and writes the *same* learned statistics — the "later queries on
any worker still start from learned estimates" property of the sharded
serving tier, held across successive server runs.

Two deliberate design points:

* **Method calls only.**  Every consumer of the cache — the server's
  front-end and shards, the benchmarks — already talks to it through methods, never
  attributes, which is exactly what a manager proxy can forward.  The one
  exception, :meth:`apply_cardinalities`, mutates its *argument* (the
  caller's catalog), so the facade performs it locally from a fetched
  snapshot instead of forwarding it.
* **Snapshots stay the bulk-transfer protocol.**  The sharded server seeds
  workers from one run-start :meth:`snapshot_state` and folds their results
  back via :meth:`absorb_snapshot`; pointing its ``stats_cache`` at a store
  simply makes that persistent state live outside any single front-end
  process.
"""

from __future__ import annotations

import multiprocessing
from multiprocessing.managers import BaseManager
from typing import Any

from repro.optimizer.statistics import ObservedStatistics
from repro.relational.algebra import SPJAQuery
from repro.relational.catalog import Catalog
from repro.serving.stats_cache import SharedStatisticsCache, StatisticsSnapshot


def _make_manager(start_method: str | None) -> BaseManager:
    """A manager whose server process hosts one statistics cache."""

    class _StoreManager(BaseManager):
        pass

    _StoreManager.register("shared_statistics_cache", SharedStatisticsCache)
    return _StoreManager(ctx=multiprocessing.get_context(start_method))


class SharedStatisticsStore:
    """The statistics cache's API, served out of a manager process."""

    def __init__(self, start_method: str | None = None) -> None:
        manager = _make_manager(start_method)
        manager.start()
        self._manager = manager
        factory = getattr(manager, "shared_statistics_cache")
        self._proxy: Any = factory()

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Shut down the manager process (the learned state dies with it)."""
        self._manager.shutdown()

    def __enter__(self) -> "SharedStatisticsStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the cache API, forwarded -------------------------------------------------

    def seed_for(self, query: SPJAQuery) -> ObservedStatistics | None:
        seed = self._proxy.seed_for(query)
        return seed if isinstance(seed, ObservedStatistics) else None

    def apply_cardinalities(self, catalog: Catalog) -> int:
        # Performed locally — a proxy call would mutate a remote *copy* of
        # the caller's catalog and discard it.
        local = SharedStatisticsCache()
        local.hydrate_state(self.snapshot_state())
        return local.apply_cardinalities(catalog)

    def absorb(self, observed: ObservedStatistics) -> None:
        self._proxy.absorb(observed)

    # -- cross-process transfer ---------------------------------------------------

    def snapshot_state(self) -> StatisticsSnapshot:
        snapshot = self._proxy.snapshot_state()
        assert isinstance(snapshot, StatisticsSnapshot)
        return snapshot

    def hydrate_state(self, snapshot: StatisticsSnapshot) -> None:
        self._proxy.hydrate_state(snapshot)

    def absorb_snapshot(self, snapshot: StatisticsSnapshot) -> None:
        self._proxy.absorb_snapshot(snapshot)

    # -- reporting ----------------------------------------------------------------

    def summary(self) -> dict[str, int]:
        return dict(self._proxy.summary())
