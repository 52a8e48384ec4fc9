"""Catalog: registered relations / data sources and (optional) statistics.

In a data integration setting the catalog is intentionally sparse: a source
is registered with its schema, but cardinalities, distinct counts and order
information may be unknown (``None``).  The paper's experiments compare an
optimizer that is *given* cardinalities against one that must assume a
default (20 000 tuples); :class:`TableStatistics` models exactly that level
of knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.relational.relation import Relation
from repro.relational.schema import Schema


# Default cardinality the paper's optimizer assumes when a source publishes
# no statistics ("roughly the median number of tuples in the TPC datasets").
DEFAULT_ASSUMED_CARDINALITY = 20_000


class CatalogError(KeyError):
    """Raised when a relation or source is not registered."""


@dataclass(frozen=True)
class TableStatistics:
    """What the system knows (possibly nothing) about one source relation."""

    cardinality: int | None = None
    distinct_counts: dict[str, int] = field(default_factory=dict)
    sorted_on: tuple[str, ...] = ()
    key_attributes: tuple[str, ...] = ()
    #: promised ``[low, high]`` value domains per attribute.  Together with a
    #: runtime order observation these enable the Section 4.5 sorted-input
    #: predictor: how far a sorted stream has advanced through its domain
    #: estimates what fraction of the relation has been read.
    attribute_ranges: dict[str, tuple[float, float]] = field(default_factory=dict)
    #: delivery rate (tuples per second) the provider claims for this
    #: source's connection.  The source-rate adaptation policy compares the
    #: observed arrival rate against this promise to detect collapsed /
    #: stalled sources; ``None`` (the default) means no promise was made and
    #: rate adaptivity leaves the source alone.
    promised_rate: float | None = None

    def with_cardinality(self, cardinality: int) -> "TableStatistics":
        return replace(self, cardinality=cardinality)

    def distinct(self, attribute: str) -> int | None:
        return self.distinct_counts.get(attribute)

    def attribute_range(self, attribute: str) -> tuple[float, float] | None:
        return self.attribute_ranges.get(attribute)

    def is_key(self, attribute: str) -> bool:
        return attribute in self.key_attributes


@dataclass
class CatalogEntry:
    """One registered relation: schema, optional stats, optional local data."""

    name: str
    schema: Schema
    statistics: TableStatistics = field(default_factory=TableStatistics)
    relation: Relation | None = None


class Catalog:
    """Registry of source relations available to the query processor."""

    def __init__(self) -> None:
        self._entries: dict[str, CatalogEntry] = {}

    # -- registration ----------------------------------------------------------

    def register(
        self,
        name: str,
        schema: Schema,
        statistics: TableStatistics | None = None,
        relation: Relation | None = None,
    ) -> CatalogEntry:
        """Register (or replace) a source relation."""
        entry = CatalogEntry(name, schema, statistics or TableStatistics(), relation)
        self._entries[name] = entry
        return entry

    # -- lookups ---------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def names(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def entry(self, name: str) -> CatalogEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise CatalogError(f"relation {name!r} is not registered") from None

    def schema(self, name: str) -> Schema:
        return self.entry(name).schema

    def statistics(self, name: str) -> TableStatistics:
        return self.entry(name).statistics

    def relation(self, name: str) -> Relation:
        entry = self.entry(name)
        if entry.relation is None:
            raise CatalogError(f"relation {name!r} has no local data attached")
        return entry.relation

    # -- statistics management -------------------------------------------------

    def set_statistics(self, name: str, statistics: TableStatistics) -> None:
        self.entry(name).statistics = statistics

    def copy(self) -> "Catalog":
        """Independent copy sharing schemas/relations but not the entry objects.

        Statistics objects are frozen dataclasses, so a copied catalog can
        have learned statistics published into it (``set_statistics``)
        without mutating the original — the serving layer relies on this to
        accumulate learned cardinalities without surprising the caller.
        """
        clone = Catalog()
        for entry in self._entries.values():
            clone.register(entry.name, entry.schema, entry.statistics, entry.relation)
        return clone

    def with_cardinalities(self) -> "Catalog":
        """Return a copy whose statistics include true cardinalities.

        Only meaningful when local data is attached; used by the experiment
        harness to build the "given cardinalities" optimizer configuration.
        """
        clone = Catalog()
        for entry in self._entries.values():
            stats = entry.statistics
            if entry.relation is not None:
                stats = stats.with_cardinality(len(entry.relation))
            clone.register(entry.name, entry.schema, stats, entry.relation)
        return clone
