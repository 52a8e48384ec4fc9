"""Tuple utilities and tuple adapters.

Tuples flowing through the engine are plain Python ``tuple`` objects.  The
paper's Tukwila engine represents tuples as vectors of pointers into value
containers so that state structures filled by one plan can be read by another
plan whose physical attribute ordering differs; the equivalent mechanism here
is the :class:`TupleAdapter`, which permutes (and optionally pads) values
when reading from a state structure whose schema ordering does not match the
consumer's expectation (paper Section 3.2, "State Structure Compatibility").
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

from repro.relational.schema import Schema, SchemaError


def concat_tuples(left: tuple, right: tuple) -> tuple:
    """Concatenate two value tuples (the physical form of a join output)."""
    return left + right


@dataclass(frozen=True)
class TupleAdapter:
    """Permutes tuple values from a source schema layout to a target layout.

    The adapter is built once (resolving names to positions) and then applied
    to every tuple with a cheap positional gather.  Attributes present in the
    target schema but missing from the source are filled with ``fill_value``
    — this supports mapping non-pre-aggregated tuples into pre-aggregated
    schemas via the *pseudogroup* mechanism.
    """

    source: Schema
    target: Schema
    fill_value: object = None

    def __post_init__(self) -> None:
        mapping: list[int] = []
        missing: list[int] = []
        for pos, attr in enumerate(self.target.attributes):
            if attr.name in self.source:
                mapping.append(self.source.position(attr.name))
            else:
                mapping.append(-1)
                missing.append(pos)
        object.__setattr__(self, "_mapping", tuple(mapping))
        object.__setattr__(self, "_missing", tuple(missing))
        # Fast path: when every target attribute exists in the source the
        # gather is a pure positional permutation, which operator.itemgetter
        # performs in C.  itemgetter's arity quirks (scalar result for one
        # index, no zero-index form) are normalized here so that `_getter`
        # always returns a tuple, exactly like the generic loop.
        getter = None
        if not missing:
            if len(mapping) >= 2:
                getter = operator.itemgetter(*mapping)
            elif len(mapping) == 1:
                single = operator.itemgetter(mapping[0])
                getter = lambda values, _g=single: (_g(values),)  # noqa: E731
            else:
                getter = lambda values: ()  # noqa: E731
        object.__setattr__(self, "_getter", getter)
        object.__setattr__(
            self,
            "_is_identity",
            len(self.source) == len(mapping) and mapping == list(range(len(mapping))),
        )

    @property
    def is_identity(self) -> bool:
        """True when source and target layouts already coincide.

        Requires equal arity: a target that is a strict prefix of the source
        still needs a projecting gather (``adapt_many`` short-circuits
        identity adapters by returning rows unchanged).
        """
        return self._is_identity  # type: ignore[attr-defined]

    @property
    def has_missing(self) -> bool:
        """True when some target attributes are absent from the source."""
        return bool(self._missing)  # type: ignore[attr-defined]

    def adapt(self, values: tuple) -> tuple:
        """Return ``values`` rearranged into the target schema's order."""
        getter = self._getter  # type: ignore[attr-defined]
        if getter is not None:
            return getter(values)
        mapping = self._mapping  # type: ignore[attr-defined]
        fill = self.fill_value
        return tuple(values[i] if i >= 0 else fill for i in mapping)

    # Adapters are applied like functions on hot paths; make that literal.
    __call__ = adapt

    def adapt_many(self, rows: Sequence[tuple]) -> list[tuple]:
        """Adapt a batch of tuples."""
        if self.is_identity:
            return list(rows)
        getter = self._getter  # type: ignore[attr-defined]
        if getter is not None:
            return list(map(getter, rows))
        return [self.adapt(row) for row in rows]


def validate_tuple(schema: Schema, values: tuple) -> None:
    """Raise :class:`SchemaError` when ``values`` does not match ``schema``.

    Only used on cold paths (loading relations, test assertions); the hot
    execution path trusts operator contracts.
    """
    if len(values) != len(schema):
        raise SchemaError(
            f"tuple arity {len(values)} does not match schema arity {len(schema)} "
            f"({schema.names})"
        )
