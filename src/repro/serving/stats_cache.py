"""Cross-query statistics sharing for the serving layer.

In a one-shot experiment every query starts from the catalog's (often empty)
statistics and learns selectivities from scratch.  Under serving traffic the
same sources are referenced by query after query, so what one execution's
monitor observed is exactly the prior the next execution's re-optimizer
wants: observed subexpression selectivities, multiplicative-join flags, and
exact cardinalities of exhausted sources.

:class:`SharedStatisticsCache` is that memory.  The :class:`QueryServer`
seeds every admitted query's monitor from it (``seed_for``), folds each
finished query's observations back in (``absorb``), and publishes learned
exact cardinalities into its catalog (``apply_cardinalities``) so even the
*initial* optimizer run of later queries benefits.  The sharded tier moves
the same learning across processes as a :class:`StatisticsSnapshot`
(``snapshot_state`` / ``hydrate_state`` / ``absorb_snapshot``).

A deliberate approximation: selectivities are keyed by relation set, the
paper's Section 4.2 definition of a logical subexpression *within one
query*.  Two queries over the same relations but different selection
predicates will therefore exchange slightly-off priors.  That is safe — the
seed only pre-populates the monitor, and the query's own observations
overwrite seeded values as soon as data flows — and it is what makes the
cache useful across the paper's workload, where Q3/Q3A/Q10/Q10A share their
join structure.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.optimizer.statistics import ObservedStatistics
from repro.relational.algebra import SPJAQuery
from repro.relational.catalog import Catalog


@dataclass(frozen=True)
class StatisticsSnapshot:
    """A picklable copy of everything a statistics cache has learned.

    The cross-process protocol of the sharded serving tier: the front-end
    snapshots its persistent cache once per run and ships the snapshot to
    every worker (each worker hydrates a private cache from it), and each
    worker ships its own post-run snapshot back so the front-end can fold
    the shards' learning together deterministically (worker-id order).
    Snapshots are plain data — no live views, no clocks, no cursors — so
    they cross process boundaries whole.
    """

    observed: ObservedStatistics = field(default_factory=ObservedStatistics)
    cardinalities: dict[str, int] = field(default_factory=dict)
    queries_absorbed: int = 0


class SharedStatisticsCache:
    """Statistics learned by finished queries, reusable by future ones."""

    def __init__(self) -> None:
        #: the accumulated cross-query observations; ``merge`` (later wins /
        #: max-fold) is exactly the folding the cache needs, so absorbing a
        #: finished query delegates to it rather than re-implementing it
        self._observed = ObservedStatistics()
        #: observed selectivity per subexpression (keyed by relation set) —
        #: a live view into the accumulated observations
        self.selectivities: dict[frozenset[str], float] = (
            self._observed.selectivities
        )
        #: multiplicative-join blow-up factors keyed by predicate (live view)
        self.multiplicative_factors: dict[frozenset[tuple[str, str]], float] = (
            self._observed.multiplicative_factors
        )
        #: discovered arrival orderings keyed by (relation, attribute) — a
        #: live view; later queries inherit them so an order discovered once
        #: lets the very first phase of the next query run merge joins
        self.orderings = self._observed.orderings
        #: exact cardinalities of sources some query has fully consumed
        self.cardinalities: dict[str, int] = {}
        self.queries_seeded = 0
        self.queries_absorbed = 0

    # -- seeding new queries ---------------------------------------------------

    def seed_for(self, query: SPJAQuery) -> ObservedStatistics | None:
        """Observations relevant to ``query``, or ``None`` when nothing applies.

        Only entries whose relation sets fall entirely within the query's
        relations are seeded; statistics about unrelated subexpressions would
        never be read and would only bloat the monitor.
        """
        relations = set(query.relations)
        seed = ObservedStatistics()
        for key, selectivity in self.selectivities.items():
            if key <= relations:
                seed.selectivities[key] = selectivity
        for key, factor in self.multiplicative_factors.items():
            if all(relation in relations for relation, _attr in key):
                seed.multiplicative_factors[key] = factor
        for (relation, attribute), ordering in self.orderings.items():
            if relation in relations:
                seed.orderings[(relation, attribute)] = ordering
        if (
            not seed.selectivities
            and not seed.multiplicative_factors
            and not seed.orderings
        ):
            return None
        self.queries_seeded += 1
        return seed

    def apply_cardinalities(self, catalog: Catalog) -> int:
        """Publish learned exact cardinalities into ``catalog``.

        Exhausted-source counts are published as catalog statistics rather
        than seeded as source observations: a new query's ``tuples_read``
        must start at zero (it drives the remaining-progress estimate), but
        the *total* size of a source is a property of the source itself.
        Returns the number of entries updated.
        """
        updated = 0
        for relation, cardinality in self.cardinalities.items():
            if relation not in catalog:
                continue
            stats = catalog.statistics(relation)
            if stats.cardinality != cardinality:
                catalog.set_statistics(relation, stats.with_cardinality(cardinality))
                updated += 1
        return updated

    # -- absorbing finished queries --------------------------------------------

    def absorb(self, observed: ObservedStatistics) -> None:
        """Fold one execution's accumulated observations into the cache."""
        self.queries_absorbed += 1
        self._observed.merge(observed)
        for relation, obs in observed.sources.items():
            if obs.exhausted and obs.tuples_read > 0:
                existing_count = self.cardinalities.get(relation, 0)
                self.cardinalities[relation] = max(existing_count, obs.tuples_read)

    # -- cross-process transfer --------------------------------------------------

    def snapshot_state(self) -> StatisticsSnapshot:
        """A detached, picklable copy of everything the cache has learned.

        Deep-copied so the snapshot neither aliases the cache's live views
        nor is mutated by later ``absorb`` calls — exactly the hand-off shape
        the sharded serving tier ships over its task and result queues.
        """
        return StatisticsSnapshot(
            observed=copy.deepcopy(self._observed),
            cardinalities=dict(self.cardinalities),
            queries_absorbed=self.queries_absorbed,
        )

    def hydrate_state(self, snapshot: StatisticsSnapshot) -> None:
        """Replace this cache's learned state with ``snapshot``'s.

        Used by worker processes to build a private cache from the
        front-end's run-start snapshot.  Seed/absorb counters restart at
        zero: they count what *this* cache did, not what its ancestor did.
        """
        self._observed = copy.deepcopy(snapshot.observed)
        self.selectivities = self._observed.selectivities
        self.multiplicative_factors = self._observed.multiplicative_factors
        self.orderings = self._observed.orderings
        self.cardinalities = dict(snapshot.cardinalities)
        self.queries_seeded = 0
        self.queries_absorbed = 0

    def absorb_snapshot(self, snapshot: StatisticsSnapshot) -> None:
        """Fold another cache's learned state into this one.

        The front-end calls this once per worker, in worker-id order, when a
        sharded run finishes — the deterministic cross-process counterpart of
        per-query :meth:`absorb`.  Selectivities, orderings, and factors go
        through :meth:`ObservedStatistics.merge`, and exhausted-source
        cardinalities max-fold like ``absorb``'s.
        """
        self._observed.merge(snapshot.observed)
        for relation, cardinality in snapshot.cardinalities.items():
            existing_count = self.cardinalities.get(relation, 0)
            self.cardinalities[relation] = max(existing_count, cardinality)
        self.queries_absorbed += snapshot.queries_absorbed

    # -- reporting --------------------------------------------------------------

    def summary(self) -> dict[str, int]:
        return {
            "selectivities": len(self.selectivities),
            "multiplicative_factors": len(self.multiplicative_factors),
            "cardinalities": len(self.cardinalities),
            "orderings": len(self.orderings),
            "queries_seeded": self.queries_seeded,
            "queries_absorbed": self.queries_absorbed,
        }
