"""Relational substrate: schemas, tuples, expressions, relations, SPJA queries.

This package provides the foundation the execution engine, the optimizer and
the adaptive-data-partitioning core are built on.  It intentionally mirrors
the decomposition described in the Tukwila papers: tuples are flat value
vectors, schemas map attribute names to positions, and *tuple adapters*
permute attributes when state structures created by one plan are reused by a
plan with a different physical attribute ordering (Section 3.2 of the paper).
"""

from repro.relational.schema import Attribute, Schema
from repro.relational.tuples import TupleAdapter
from repro.relational.relation import Relation
from repro.relational.expressions import (
    Aggregate,
    AttributeRef,
    BinaryPredicate,
    Comparison,
    Conjunction,
    Constant,
    Disjunction,
    JoinPredicate,
    Negation,
    Predicate,
    TruePredicate,
)
from repro.relational.algebra import AggregateSpec, SPJAQuery
from repro.relational.catalog import Catalog, TableStatistics

__all__ = [
    "Attribute",
    "Schema",
    "TupleAdapter",
    "Relation",
    "Aggregate",
    "AttributeRef",
    "BinaryPredicate",
    "Comparison",
    "Conjunction",
    "Constant",
    "Disjunction",
    "JoinPredicate",
    "Negation",
    "Predicate",
    "TruePredicate",
    "AggregateSpec",
    "SPJAQuery",
    "Catalog",
    "TableStatistics",
]
