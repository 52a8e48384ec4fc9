"""Scalar expressions, predicates and aggregate specifications.

Expressions are small immutable trees that are *compiled* against a concrete
:class:`~repro.relational.schema.Schema` into plain Python callables taking a
value tuple.  Compilation resolves attribute names to positions once, so that
per-tuple evaluation is just indexing and comparison — important because the
execution engine evaluates predicates millions of times per benchmark run.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.relational.schema import Schema

# Comparison operator name -> function.
_COMPARATORS: dict[str, Callable[[object, object], bool]] = {
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class ExpressionError(ValueError):
    """Raised for malformed expressions (unknown operators, arity errors)."""


# ---------------------------------------------------------------------------
# Scalar expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttributeRef:
    """Reference to an attribute by name (optionally relation-qualified)."""

    name: str

    def compile(self, schema: Schema) -> Callable[[tuple], object]:
        pos = schema.position(self.name)
        return lambda row: row[pos]

    def attributes(self) -> set[str]:
        return {self.name}

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.name


@dataclass(frozen=True)
class Constant:
    """A literal value."""

    value: object

    def compile(self, schema: Schema) -> Callable[[tuple], object]:
        value = self.value
        return lambda row: value

    def attributes(self) -> set[str]:
        return set()

    def __str__(self) -> str:  # pragma: no cover
        return repr(self.value)


ScalarExpression = AttributeRef | Constant


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


class Predicate:
    """Base class for boolean predicates over a single tuple."""

    def compile(self, schema: Schema) -> Callable[[tuple], bool]:
        raise NotImplementedError

    def attributes(self) -> set[str]:
        raise NotImplementedError

    def estimated_selectivity(self) -> float:
        """Default selectivity guess used when no statistics exist.

        System-R style magic constants: equality 0.1, range 0.3, other 0.5.
        The optimizer overrides these when histograms are available.
        """
        return 0.5


@dataclass(frozen=True)
class TruePredicate(Predicate):
    """Predicate that accepts every tuple."""

    def compile(self, schema: Schema) -> Callable[[tuple], bool]:
        return lambda row: True

    def attributes(self) -> set[str]:
        return set()

    def estimated_selectivity(self) -> float:
        return 1.0

    def __str__(self) -> str:  # pragma: no cover
        return "TRUE"


@dataclass(frozen=True)
class Comparison(Predicate):
    """``left <op> right`` where both sides are scalar expressions."""

    left: ScalarExpression
    op: str
    right: ScalarExpression

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise ExpressionError(f"unknown comparison operator {self.op!r}")

    def compile(self, schema: Schema) -> Callable[[tuple], bool]:
        lhs = self.left.compile(schema)
        rhs = self.right.compile(schema)
        cmp = _COMPARATORS[self.op]
        return lambda row: cmp(lhs(row), rhs(row))

    def attributes(self) -> set[str]:
        return self.left.attributes() | self.right.attributes()

    def estimated_selectivity(self) -> float:
        if self.op in ("=", "=="):
            return 0.1
        if self.op in ("!=", "<>"):
            return 0.9
        return 0.3

    def __str__(self) -> str:  # pragma: no cover
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class BinaryPredicate(Predicate):
    """Arbitrary two-attribute predicate evaluated by a user callable."""

    left: str
    right: str
    fn: Callable[[object, object], bool]
    label: str = "custom"

    def compile(self, schema: Schema) -> Callable[[tuple], bool]:
        lpos = schema.position(self.left)
        rpos = schema.position(self.right)
        fn = self.fn
        return lambda row: fn(row[lpos], row[rpos])

    def attributes(self) -> set[str]:
        return {self.left, self.right}

    def __str__(self) -> str:  # pragma: no cover
        return f"{self.label}({self.left}, {self.right})"


@dataclass(frozen=True)
class Conjunction(Predicate):
    """AND of child predicates."""

    children: tuple[Predicate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))

    def compile(self, schema: Schema) -> Callable[[tuple], bool]:
        compiled = [c.compile(schema) for c in self.children]
        if not compiled:
            return lambda row: True
        return lambda row: all(fn(row) for fn in compiled)

    def attributes(self) -> set[str]:
        result: set[str] = set()
        for child in self.children:
            result |= child.attributes()
        return result

    def estimated_selectivity(self) -> float:
        sel = 1.0
        for child in self.children:
            sel *= child.estimated_selectivity()
        return sel

    def __str__(self) -> str:  # pragma: no cover
        return " AND ".join(str(c) for c in self.children) or "TRUE"


@dataclass(frozen=True)
class Disjunction(Predicate):
    """OR of child predicates."""

    children: tuple[Predicate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))

    def compile(self, schema: Schema) -> Callable[[tuple], bool]:
        compiled = [c.compile(schema) for c in self.children]
        if not compiled:
            return lambda row: False
        return lambda row: any(fn(row) for fn in compiled)

    def attributes(self) -> set[str]:
        result: set[str] = set()
        for child in self.children:
            result |= child.attributes()
        return result

    def estimated_selectivity(self) -> float:
        miss = 1.0
        for child in self.children:
            miss *= 1.0 - child.estimated_selectivity()
        return 1.0 - miss

    def __str__(self) -> str:  # pragma: no cover
        return " OR ".join(str(c) for c in self.children) or "FALSE"


@dataclass(frozen=True)
class Negation(Predicate):
    """NOT of a child predicate."""

    child: Predicate

    def compile(self, schema: Schema) -> Callable[[tuple], bool]:
        fn = self.child.compile(schema)
        return lambda row: not fn(row)

    def attributes(self) -> set[str]:
        return self.child.attributes()

    def estimated_selectivity(self) -> float:
        return 1.0 - self.child.estimated_selectivity()

    def __str__(self) -> str:  # pragma: no cover
        return f"NOT {self.child}"


def conjunction(predicates: Iterable[Predicate]) -> Predicate:
    """Combine predicates into a single AND, simplifying trivial cases."""
    preds = [p for p in predicates if not isinstance(p, TruePredicate)]
    if not preds:
        return TruePredicate()
    if len(preds) == 1:
        return preds[0]
    return Conjunction(tuple(preds))


# ---------------------------------------------------------------------------
# Join predicates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JoinPredicate:
    """An equi-join predicate ``left_relation.left_attr = right_relation.right_attr``.

    Join predicates are kept separate from generic predicates because both the
    optimizer (join-graph enumeration) and the adaptive executor (hash / merge
    key selection, state-structure key compatibility) need direct access to
    the two attribute names.
    """

    left_relation: str
    left_attr: str
    right_relation: str
    right_attr: str

    def relations(self) -> frozenset[str]:
        return frozenset((self.left_relation, self.right_relation))

    def connects(self, left_set: frozenset[str], right_set: frozenset[str]) -> bool:
        """True when the predicate joins a relation in each of the two sets."""
        return (
            self.left_relation in left_set and self.right_relation in right_set
        ) or (self.left_relation in right_set and self.right_relation in left_set)

    def __str__(self) -> str:  # pragma: no cover
        return (
            f"{self.left_relation}.{self.left_attr} = "
            f"{self.right_relation}.{self.right_attr}"
        )


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------

_AGG_FUNCTIONS = ("min", "max", "sum", "count", "avg")


@dataclass(frozen=True)
class Aggregate:
    """An aggregate term, e.g. ``max(c_num) AS max_children``.

    ``avg`` is decomposable per the paper (Section 2.2 footnote): it is
    pre-aggregated as (sum, count) pairs and finalized at the end.  The
    engine's aggregation operators handle that decomposition internally via
    :meth:`initial_state`, :meth:`merge_value`, :meth:`merge_partial` and
    :meth:`finalize`.
    """

    function: str
    attribute: str | None
    alias: str

    def __post_init__(self) -> None:
        if self.function not in _AGG_FUNCTIONS:
            raise ExpressionError(
                f"unsupported aggregate function {self.function!r}; "
                f"expected one of {_AGG_FUNCTIONS}"
            )
        if self.function != "count" and self.attribute is None:
            raise ExpressionError(f"aggregate {self.function!r} requires an attribute")

    # -- incremental aggregation protocol -------------------------------------

    def initial_state(self) -> object:
        if self.function == "count":
            return 0
        if self.function == "sum":
            return 0
        if self.function == "avg":
            return (0.0, 0)
        return None  # min / max start undefined

    def merge_value(self, state: object, value: object) -> object:
        """Fold a raw input value into the running aggregate state."""
        if self.function == "count":
            return state + 1
        if self.function == "sum":
            return state + value
        if self.function == "avg":
            total, count = state
            return (total + value, count + 1)
        if self.function == "min":
            return value if state is None or value < state else state
        # max
        return value if state is None or value > state else state

    def merge_partial(self, state: object, partial: object) -> object:
        """Fold a *partial aggregate* (produced by pre-aggregation) into state."""
        if self.function == "count":
            return state + partial
        if self.function == "sum":
            return state + partial
        if self.function == "avg":
            total, count = state
            ptotal, pcount = partial
            return (total + ptotal, count + pcount)
        if self.function == "min":
            return partial if state is None or (partial is not None and partial < state) else state
        return partial if state is None or (partial is not None and partial > state) else state

    def finalize(self, state: object) -> object:
        if self.function == "avg":
            total, count = state
            return total / count if count else None
        return state

    def singleton_partial(self, value: object) -> object:
        """Partial-aggregate value for a single raw value (pseudogroup)."""
        if self.function == "count":
            return 1
        if self.function == "avg":
            return (value, 1)
        return value

    def attributes(self) -> set[str]:
        return {self.attribute} if self.attribute else set()

    def __str__(self) -> str:  # pragma: no cover
        arg = self.attribute if self.attribute is not None else "*"
        return f"{self.function}({arg}) AS {self.alias}"


def validate_aggregates(aggregates: Sequence[Aggregate]) -> None:
    """Check alias uniqueness across a list of aggregate terms."""
    seen: set[str] = set()
    for agg in aggregates:
        if agg.alias in seen:
            raise ExpressionError(f"duplicate aggregate alias {agg.alias!r}")
        seen.add(agg.alias)
