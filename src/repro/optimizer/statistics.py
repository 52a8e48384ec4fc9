"""Optimizer statistics: what is known a priori plus what execution revealed.

The paper's re-estimation scheme (Section 4.2) drives everything here:

* One *subexpression selectivity* is recorded per logically equivalent
  subexpression, regardless of the physical plan that computed it, defined as
  output cardinality divided by the product of the input relations'
  cardinalities.
* When a subexpression has not been observed, its cardinality is estimated by
  **averaging** a System-R-style estimate with a key/foreign-key speculation
  ("the parent expression may be a key-foreign-key join, whose cardinality
  would match the size of the foreign-key relation").
* Join predicates observed to be **multiplicative** (output larger than both
  inputs) are flagged, and any future estimate involving them is scaled by
  the observed blow-up factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

from repro.relational.algebra import SPJAQuery
from repro.relational.catalog import Catalog, DEFAULT_ASSUMED_CARDINALITY
from repro.relational.expressions import JoinPredicate, Predicate


def selectivity_key(relations: Iterable[str]) -> frozenset[str]:
    """Canonical key identifying a logical subexpression (its relation set)."""
    return frozenset(relations)


def predicate_key(predicate: JoinPredicate) -> frozenset[str]:
    """Canonical key for a join predicate (order-independent)."""
    return frozenset(
        (
            (predicate.left_relation, predicate.left_attr),
            (predicate.right_relation, predicate.right_attr),
        )
    )


@dataclass
class SourceObservation:
    """Runtime knowledge about one source relation."""

    tuples_read: int = 0
    tuples_passed_selection: int = 0
    exhausted: bool = False

    @property
    def observed_selection_selectivity(self) -> float | None:
        if self.tuples_read == 0:
            return None
        return self.tuples_passed_selection / self.tuples_read


@dataclass
class OrderingObservation:
    """What is known about one source attribute's arrival order.

    Combines the provider's *promise* (``promised_direction``, from
    ``TableStatistics.sorted_on``) with what a per-cursor
    :class:`~repro.stats.order_detector.OrderDetector` actually observed.
    ``direction`` is ``+1``/``-1`` for a (near-)sorted stream, ``None`` when
    unknown (``observed <= 1``) or verified unordered (``observed > 1``).
    ``in_order_fraction`` is the fraction of arrivals an order-exploiting
    operator could fast-path (high/low-water based, see
    ``OrderDetector.in_order_fraction``).
    """

    relation: str
    attribute: str
    observed: int = 0
    direction: int | None = None
    in_order_fraction: float = 1.0
    min_value: object = None
    max_value: object = None
    promised_direction: int | None = None

    def progress_fraction(self, domain_low: float, domain_high: float) -> float | None:
        """Fraction of ``[domain_low, domain_high]`` the sorted stream covered."""
        if self.direction is None or self.observed == 0:
            return None
        span = domain_high - domain_low
        if span <= 0:
            return None
        if self.direction == -1:
            fraction = (domain_high - self.min_value) / span
        else:
            fraction = (self.max_value - domain_low) / span
        return min(max(fraction, 0.0), 1.0)


@dataclass
class ObservedStatistics:
    """Everything the monitor has learned during execution so far."""

    #: observed selectivity per subexpression (keyed by relation set)
    selectivities: dict[frozenset, float] = field(default_factory=dict)
    #: per-source read/selection counters
    sources: dict[str, SourceObservation] = field(default_factory=dict)
    #: multiplicative-join blow-up factors keyed by predicate
    multiplicative_factors: dict[frozenset, float] = field(default_factory=dict)
    #: per-attribute arrival-order knowledge keyed by ``(relation, attribute)``
    orderings: dict[tuple[str, str], OrderingObservation] = field(default_factory=dict)

    # -- update API (called by the execution monitor) --------------------------

    def record_selectivity(self, relations: Iterable[str], selectivity: float) -> None:
        self.selectivities[selectivity_key(relations)] = selectivity

    def record_promised_ordering(
        self, relation: str, attribute: str, direction: int = 1
    ) -> None:
        """Note a provider's (unverified) ordering promise for an attribute."""
        key = (relation, attribute)
        obs = self.orderings.get(key)
        if obs is None:
            obs = OrderingObservation(relation, attribute)
            self.orderings[key] = obs
        obs.promised_direction = direction
        if obs.observed == 0:
            obs.direction = direction

    def record_ordering(self, relation: str, attribute: str, detector) -> None:
        """Fold an :class:`OrderDetector`'s current view into the statistics."""
        key = (relation, attribute)
        obs = self.orderings.get(key)
        if obs is None:
            obs = OrderingObservation(relation, attribute)
            self.orderings[key] = obs
        if detector.observed < obs.observed:
            return  # stale snapshot (e.g. a seeded observation knows more)
        obs.observed = detector.observed
        obs.min_value = detector.min_value
        obs.max_value = detector.max_value
        if detector.observed <= 1:
            # Nothing observed yet: an unverified promise keeps standing in.
            if obs.promised_direction is not None:
                obs.direction = obs.promised_direction
            return
        obs.direction = detector.direction()
        obs.in_order_fraction = detector.in_order_fraction(obs.direction)

    def record_source(
        self, relation: str, tuples_read: int, tuples_passed: int, exhausted: bool
    ) -> None:
        obs = self.sources.setdefault(relation, SourceObservation())
        obs.tuples_read = max(obs.tuples_read, tuples_read)
        obs.tuples_passed_selection = max(obs.tuples_passed_selection, tuples_passed)
        obs.exhausted = obs.exhausted or exhausted

    def flag_multiplicative(self, predicate: JoinPredicate, factor: float) -> None:
        key = predicate_key(predicate)
        existing = self.multiplicative_factors.get(key, 1.0)
        self.multiplicative_factors[key] = max(existing, factor)

    # -- query API --------------------------------------------------------------

    def selectivity_of(self, relations: Iterable[str]) -> float | None:
        return self.selectivities.get(selectivity_key(relations))

    def source(self, relation: str) -> SourceObservation | None:
        return self.sources.get(relation)

    def multiplicative_factor(self, predicate: JoinPredicate) -> float:
        return self.multiplicative_factors.get(predicate_key(predicate), 1.0)

    def merge(self, other: "ObservedStatistics") -> None:
        """Fold another observation set into this one (later phases win)."""
        self.selectivities.update(other.selectivities)
        for relation, obs in other.sources.items():
            self.record_source(
                relation, obs.tuples_read, obs.tuples_passed_selection, obs.exhausted
            )
        for key, factor in other.multiplicative_factors.items():
            self.multiplicative_factors[key] = max(
                self.multiplicative_factors.get(key, 1.0), factor
            )
        for key, ordering in other.orderings.items():
            existing = self.orderings.get(key)
            if existing is None or ordering.observed >= existing.observed:
                promised = (
                    ordering.promised_direction
                    if ordering.promised_direction is not None
                    else (existing.promised_direction if existing else None)
                )
                merged = replace(ordering, promised_direction=promised)
                self.orderings[key] = merged
            elif ordering.promised_direction is not None:
                existing.promised_direction = ordering.promised_direction


class SelectivityEstimator:
    """Cardinality / selectivity estimation combining catalog and runtime knowledge."""

    #: default selectivity applied to single-relation selection predicates
    DEFAULT_SELECTION_SELECTIVITY = 0.3
    #: order observations need this many arrivals before the sorted-input
    #: cardinality extrapolation (Section 4.5) is trusted
    MIN_ORDERED_OBSERVATIONS = 24
    #: and the stream must have advanced this far through its promised domain
    MIN_ORDERED_PROGRESS = 0.05

    def __init__(
        self,
        catalog: Catalog,
        query: SPJAQuery,
        observed: ObservedStatistics | None = None,
    ) -> None:
        self.catalog = catalog
        self.query = query
        self.observed = observed or ObservedStatistics()
        # Memos for one estimator lifetime (one optimizer invocation or one
        # adaptation poll, shared by every policy of that poll): the
        # observations are read-only while it lives; new observations need a
        # new estimator.
        self._cache: dict[frozenset, float] = {}
        self._base_cache: dict[str, float] = {}
        self._selected_cache: dict[str, float] = {}

    # -- base relations ----------------------------------------------------------

    def base_cardinality(self, relation: str) -> float:
        """Estimated *full* cardinality of a source relation.

        Preference order: exact count when the source has been exhausted;
        sorted-input extrapolation (tuples read so far divided by how far the
        observed-sorted stream has advanced through its promised key domain,
        Section 4.5); published catalog statistics; the default assumption —
        never less than what has already been read.
        """
        return self._memoized(self._base_cache, relation, self._base_cardinality)

    @staticmethod
    def _memoized(cache: dict, key, compute) -> float:
        value = cache.get(key)
        if value is None:
            value = cache[key] = compute(key)
        return value

    def _base_cardinality(self, relation: str) -> float:
        obs = self.observed.source(relation)
        if obs is not None and obs.exhausted:
            return max(obs.tuples_read, 1)
        if relation in self.catalog:
            stats = self.catalog.statistics(relation)
            published = stats.cardinality
        else:
            published = None
        extrapolated = self._sorted_extrapolation(relation)
        if extrapolated is not None:
            estimate = extrapolated
        elif published is not None:
            estimate = float(published)
        else:
            estimate = float(DEFAULT_ASSUMED_CARDINALITY)
        if obs is not None:
            estimate = max(estimate, obs.tuples_read)
        return max(estimate, 1.0)

    def _sorted_extrapolation(self, relation: str) -> float | None:
        """Cardinality prediction for a (near-)sorted, partially-read source.

        When the stream of ``relation.attr`` is observed sorted and the
        catalog publishes the attribute's value domain, the fraction of the
        domain covered so far estimates the fraction of the relation already
        read — often far more accurate than a stale published cardinality.

        Both the numerator and the progress fraction come from the *same*
        ordering observation (``ordering.observed`` tuples advanced the
        stream to ``min/max_value``), never from this query's own read
        counter: an observation seeded from another query's detector (the
        serving layer's statistics cache) describes a further-advanced
        stream, and dividing a fresh query's small ``tuples_read`` by the
        donor's near-complete progress would collapse the estimate to
        roughly the tuples read so far.
        """
        if relation not in self.catalog:
            return None
        stats = self.catalog.statistics(relation)
        if not stats.attribute_ranges:
            return None
        best: tuple[int, float] | None = None  # (observed, estimate)
        for (rel, attr), ordering in self.observed.orderings.items():
            if rel != relation or ordering.direction is None:
                continue
            if ordering.observed < self.MIN_ORDERED_OBSERVATIONS:
                continue
            domain = stats.attribute_range(attr)
            if domain is None:
                continue
            progress = ordering.progress_fraction(domain[0], domain[1])
            if progress is None or progress < self.MIN_ORDERED_PROGRESS:
                continue
            estimate = ordering.observed / progress
            if best is None or ordering.observed > best[0]:
                best = (ordering.observed, estimate)
        return best[1] if best is not None else None

    def selected_cardinality(self, relation: str) -> float:
        """Cardinality of a base relation after its pushed-down selection."""
        return self._memoized(self._selected_cache, relation, self._selected_cardinality)

    def _selected_cardinality(self, relation: str) -> float:
        base = self.base_cardinality(relation)
        predicate = self.query.selection_for(relation)
        obs = self.observed.source(relation)
        if obs is not None and obs.observed_selection_selectivity is not None:
            return max(base * obs.observed_selection_selectivity, 1.0)
        selectivity = self._selection_selectivity(relation, predicate)
        if selectivity >= 1.0:
            return base
        return max(base * selectivity, 1.0)

    def _selection_selectivity(self, relation: str, predicate: Predicate) -> float:
        """Selectivity of a pushed-down selection.

        Equality predicates use ``1 / distinct(attribute)`` when the catalog
        publishes a distinct count (classic System-R); everything else falls
        back to the predicate's own magic-constant estimate.
        """
        from repro.relational.expressions import Comparison, Conjunction, AttributeRef

        if isinstance(predicate, Conjunction):
            selectivity = 1.0
            for child in predicate.children:
                selectivity *= self._selection_selectivity(relation, child)
            return selectivity
        if (
            isinstance(predicate, Comparison)
            and predicate.op in ("=", "==")
            and isinstance(predicate.left, AttributeRef)
            and relation in self.catalog
        ):
            distinct = self.catalog.statistics(relation).distinct(predicate.left.name)
            if distinct:
                return 1.0 / max(distinct, 1)
        return predicate.estimated_selectivity()

    def distinct_values(self, relation: str, attribute: str) -> float:
        """Estimated number of distinct values of ``relation.attribute``."""
        if relation in self.catalog:
            stats = self.catalog.statistics(relation)
            known = stats.distinct(attribute)
            if known is not None:
                return float(max(known, 1))
            if stats.is_key(attribute):
                return self.base_cardinality(relation)
        # Assume near-key behaviour: most join attributes in integration
        # workloads are keys or foreign keys.
        return self.base_cardinality(relation)

    # -- join subexpressions ------------------------------------------------------

    def estimate_cardinality(self, relations: frozenset[str]) -> float:
        """Estimated output cardinality of joining ``relations`` (selections applied)."""
        return self._memoized(self._cache, relations, self._estimate_cardinality)

    def _estimate_cardinality(self, relations: frozenset[str]) -> float:
        if len(relations) == 1:
            (relation,) = relations
            return self.selected_cardinality(relation)

        observed = self.observed.selectivity_of(relations)
        if observed is not None:
            return max(observed * self._input_product(relations), 1.0)

        system_r = self._system_r_estimate(relations)
        fk_speculation = self._foreign_key_speculation(relations)
        value = (system_r + fk_speculation) / 2.0
        value *= self._multiplicative_penalty(relations)
        return max(value, 1.0)

    def _input_product(self, relations: frozenset[str]) -> float:
        """Product of the inputs' selected cardinalities, taken in query
        order: a float product depends on its order, and a frozenset iterates
        in an order that depends on how it was built and on ``PYTHONHASHSEED``
        — an estimate must depend on neither."""
        product = 1.0
        for relation in self.query.relations:
            if relation in relations:
                product *= self.selected_cardinality(relation)
        return product

    def _internal_predicates(self, relations: frozenset) -> list[JoinPredicate]:
        return [
            pred
            for pred in self.query.join_predicates
            if pred.left_relation in relations and pred.right_relation in relations
        ]

    def _system_r_estimate(self, relations: frozenset[str]) -> float:
        """Product of input cardinalities scaled by 1/max(distinct) per predicate."""
        value = self._input_product(relations)
        for pred in self._internal_predicates(relations):
            left_distinct = self.distinct_values(pred.left_relation, pred.left_attr)
            right_distinct = self.distinct_values(pred.right_relation, pred.right_attr)
            value /= max(left_distinct, right_distinct, 1.0)
        return max(value, 1.0)

    def _foreign_key_speculation(self, relations: frozenset[str]) -> float:
        """Speculate every join is key/foreign-key: result matches the largest input."""
        return max(self.selected_cardinality(r) for r in relations)

    def _multiplicative_penalty(self, relations: frozenset[str]) -> float:
        """Blow-up factor from predicates previously flagged as multiplicative."""
        penalty = 1.0
        for pred in self._internal_predicates(relations):
            penalty *= self.observed.multiplicative_factor(pred)
        return penalty

    def selectivity(self, relations: frozenset[str]) -> float:
        """Selectivity (output / product of inputs) of a subexpression estimate."""
        product = self._input_product(relations)
        if product <= 0:
            return 1.0
        return self.estimate_cardinality(relations) / product
