"""Source descriptions: the cursory metadata a data integration source publishes.

"The data integration source descriptions for each data source are typically
quite cursory: often, they merely describe the semantic relationship between
relations in a data source and the relations in the globally integrated view
of the data" (Section 1).  A :class:`SourceDescription` therefore carries the
mapping from source attributes to global-schema attributes plus whatever
optional promises the provider is willing to make (cardinality, ordering) —
all of which may be absent or stale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Iterator

from repro.relational.catalog import TableStatistics
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.sources.source import Columns, DataSource, LocalSource


class MappingError(ValueError):
    """Raised when a source description does not line up with its schemas."""


@dataclass(frozen=True)
class SourceDescription:
    """Semantic mapping from a source relation to the global (mediated) schema.

    Parameters
    ----------
    source_name:
        The source relation's name.
    global_relation:
        Name of the relation in the mediated schema this source provides.
    attribute_mapping:
        Mapping from source attribute name to global attribute name.  Source
        attributes not mentioned are dropped; global attributes not covered
        are unavailable from this source.
    promised_statistics:
        Statistics the provider volunteers.  They are *promises*, not
        guarantees — the adaptive machinery exists precisely because they may
        be wrong or missing.
    """

    source_name: str
    global_relation: str
    attribute_mapping: dict[str, str] = field(default_factory=dict)
    promised_statistics: TableStatistics = field(default_factory=TableStatistics)

    def translate_schema(self, source_schema: Schema) -> Schema:
        """Schema of this source's data expressed in global attribute names."""
        attrs = []
        for attr in source_schema.attributes:
            if self.attribute_mapping and attr.name not in self.attribute_mapping:
                continue
            global_name = self.attribute_mapping.get(attr.name, attr.name)
            attrs.append(Attribute(global_name, attr.type_name, self.global_relation))
        if not attrs:
            raise MappingError(
                f"source {self.source_name!r} maps no attributes of {source_schema.names}"
            )
        return Schema(tuple(attrs))

    def translate_row(self, source_schema: Schema, row: tuple) -> tuple:
        """Project/reorder one source row into the global attribute layout."""
        values = []
        for attr in source_schema.attributes:
            if self.attribute_mapping and attr.name not in self.attribute_mapping:
                continue
            values.append(row[source_schema.position(attr.name)])
        return tuple(values)


class MappedSource(DataSource):
    """A source viewed through its description: rows arrive in the global schema.

    Wraps either an in-memory :class:`Relation` or any streaming source and
    applies the description's attribute mapping (projection + renaming) to
    every row, so the query processor only ever sees the mediated schema.
    Arrivals pass through unchanged, and so does the wrapped source's rate
    telemetry (``promised_rate``, ``network``, ``arrived_by``).  Its
    ``mirrors`` do not: a mirror serves the unmapped schema.
    """

    def __init__(self, source, description: SourceDescription) -> None:
        source_schema = source.schema
        super().__init__(
            description.global_relation, description.translate_schema(source_schema)
        )
        self.wrapped = source
        self.description = description
        self._source_schema = source_schema
        self.promised_rate = getattr(source, "promised_rate", None)
        self.network = getattr(source, "network", None)
        self.arrived_by = getattr(source, "arrived_by", None)

    def _stream_columns(
        self, batch_size: int, offset: int, start_at: float | None
    ) -> Iterator[Columns]:
        translate = partial(self.description.translate_row, self._source_schema)
        source = self.wrapped
        if isinstance(source, Relation):
            source = LocalSource(source)
        chunks = source.open_stream_columns(batch_size, offset, start_at)
        return (([translate(row) for row in rows], arrivals) for rows, arrivals in chunks)

    def to_relation(self) -> Relation:
        """Materialize the translated contents (only for in-memory sources)."""
        if not isinstance(self.wrapped, Relation):
            raise TypeError("only relation-backed sources can be materialized eagerly")
        rows = [
            self.description.translate_row(self._source_schema, row)
            for row in self.wrapped.rows
        ]
        return Relation(self.name, self.schema, rows)
