"""Schemas and attributes.

A :class:`Schema` is an ordered list of :class:`Attribute` objects and a name
-> position index.  Tuples in the engine are plain Python ``tuple`` objects
whose values are positionally aligned with the schema, so schema lookups are
the only place attribute names are resolved; the hot execution path works
with integer positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence


class SchemaError(ValueError):
    """Raised when an attribute cannot be resolved or schemas conflict."""


@dataclass(frozen=True)
class Attribute:
    """A named, typed column of a relation.

    Parameters
    ----------
    name:
        Attribute name.  TPC-H-style prefixes (``o_orderkey`` ...) make names
        globally unique; the engine nevertheless supports qualification via
        the ``relation`` field.
    type_name:
        Informal type tag (``"int"``, ``"float"``, ``"str"``, ``"date"``).
        Used only by the data generator and for documentation; the engine is
        dynamically typed.
    relation:
        Name of the relation the attribute originally belongs to (may be
        ``None`` for computed attributes such as aggregates).
    """

    name: str
    type_name: str = "any"
    relation: str | None = None

    @property
    def qualified_name(self) -> str:
        """Return ``relation.name`` when a relation is known, else ``name``."""
        if self.relation:
            return f"{self.relation}.{self.name}"
        return self.name

    def without_relation(self) -> "Attribute":
        """Return a copy with the relation qualifier dropped."""
        return Attribute(self.name, self.type_name, None)


@dataclass(frozen=True)
class Schema:
    """An ordered collection of attributes with fast positional lookup."""

    attributes: tuple[Attribute, ...]
    _index: dict[str, int] = field(default=None, compare=False, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        attrs = tuple(self.attributes)
        object.__setattr__(self, "attributes", attrs)
        index: dict[str, int] = {}
        for pos, attr in enumerate(attrs):
            if attr.name in index:
                raise SchemaError(f"duplicate attribute name {attr.name!r} in schema")
            index[attr.name] = pos
            if attr.relation:
                index.setdefault(attr.qualified_name, pos)
        object.__setattr__(self, "_index", index)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_names(
        cls,
        names: Sequence[str],
        relation: str | None = None,
        types: Sequence[str] | None = None,
    ) -> "Schema":
        """Build a schema from bare attribute names (all typed ``any``)."""
        if types is None:
            types = ["any"] * len(names)
        if len(types) != len(names):
            raise SchemaError("names and types must have the same length")
        return cls(tuple(Attribute(n, t, relation) for n, t in zip(names, types)))

    # -- lookups ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    @property
    def names(self) -> tuple[str, ...]:
        """Attribute names, in schema order."""
        return tuple(a.name for a in self.attributes)

    def position(self, name: str) -> int:
        """Return the position of attribute ``name`` (qualified or not)."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(
                f"attribute {name!r} not found in schema with attributes {self.names}"
            ) from None

    def positions(self, names: Iterable[str]) -> tuple[int, ...]:
        """Return positions for several attribute names at once."""
        return tuple(self.position(n) for n in names)

    def attribute(self, name: str) -> Attribute:
        """Return the :class:`Attribute` object for ``name``."""
        return self.attributes[self.position(name)]

    # -- derivation ------------------------------------------------------------

    def concat(self, other: "Schema") -> "Schema":
        """Concatenate two schemas (used when joining relations)."""
        return Schema(self.attributes + other.attributes)
