"""Seeded random SPJA workload generation for differential-style corpora.

The workload generator behind the differential test harness
(``tests/differential.py``) and the suites that draw query shapes from the
same seeded population.

Everything here is deterministic per seed and draws only from an explicit
``random.Random`` instance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.relational.algebra import AggregateSpec, SPJAQuery
from repro.relational.catalog import Catalog
from repro.relational.expressions import (
    Aggregate,
    AttributeRef,
    Comparison,
    Constant,
    JoinPredicate,
)
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sources.network import BurstyNetworkModel
from repro.sources.remote import RemoteSource


@dataclass
class DifferentialWorkload:
    """One randomized database + query, plus how it should be served."""

    seed: int
    query: SPJAQuery
    relations: dict[str, Relation]
    remote: bool

    def sources(self) -> dict[str, object]:
        """Fresh source objects (remote ones get fresh deterministic links)."""
        if not self.remote:
            return dict(self.relations)
        return {
            name: RemoteSource(
                relation,
                BurstyNetworkModel(
                    burst_rate=50_000.0,
                    mean_burst_tuples=20,
                    mean_gap_seconds=0.002,
                    latency=0.001,
                    seed=self.seed * 101 + index,
                ),
            )
            for index, (name, relation) in enumerate(self.relations.items())
        }

    def catalog(self) -> Catalog:
        """Schemas only — the "no statistics" data-integration situation."""
        catalog = Catalog()
        for name, relation in self.relations.items():
            catalog.register(name, relation.schema)
        return catalog


def _random_relation_size(rng: random.Random) -> int:
    roll = rng.random()
    if roll < 0.06:
        return 0  # empty source
    if roll < 0.14:
        return rng.randint(1, 3)  # nearly empty
    return rng.randint(8, 90)


def generate_workload(seed: int, name_prefix: str = "") -> DifferentialWorkload:
    """Deterministically generate one randomized SPJA workload.

    The join graph is a random spanning tree (relation ``i`` references a
    random earlier relation through a foreign key with a small shared
    domain, so joins actually match), occasionally thickened with an extra
    equi-join predicate — which lands either on an existing join edge
    (exercising residual predicates) or between two other relations
    (exercising multi-predicate ``predicates_between`` splits).

    ``name_prefix`` namespaces the relation names (``w0_r1`` instead of
    ``r1``) so several workloads can coexist in one shared catalog / source
    pool — the serving differential scenario.  The RNG draws are independent
    of the prefix, so a prefixed workload carries exactly the same data and
    query shape as the unprefixed one for the same seed.
    """
    rng = random.Random(seed)

    def rel(i: int) -> str:
        return f"{name_prefix}r{i}"

    num_relations = rng.choice((1, 2, 2, 3, 3, 3, 4, 4, 5))
    domains = [rng.randint(4, 24) for _ in range(num_relations)]
    sizes = [_random_relation_size(rng) for _ in range(num_relations)]
    parents: list[int | None] = [None] + [
        rng.randrange(i) for i in range(1, num_relations)
    ]

    # Extra equi-join predicates: (child, target) pairs beyond the tree.
    extra_edges: list[tuple[int, int]] = []
    if num_relations >= 2 and rng.random() < 0.40:
        child = rng.randrange(1, num_relations)
        if rng.random() < 0.5:
            target = parents[child]  # doubles an existing edge -> residual
        else:
            target = rng.choice([j for j in range(num_relations) if j != child])
        assert target is not None
        extra_edges.append((child, target))

    relations: dict[str, Relation] = {}
    join_predicates: list[JoinPredicate] = []
    for i in range(num_relations):
        name = rel(i)
        attrs = [f"r{i}_pk"]
        parent = parents[i]
        if parent is not None:
            attrs.append(f"r{i}_fk")
        for child, target in extra_edges:
            if child == i:
                attrs.append(f"r{i}_x{target}")
        attrs.extend([f"r{i}_val", f"r{i}_cat"])
        schema = Schema.from_names(attrs, relation=name)
        rows = []
        for _ in range(sizes[i]):
            row = [rng.randrange(domains[i])]
            if parent is not None:
                row.append(rng.randrange(domains[parent]))
            for child, target in extra_edges:
                if child == i:
                    row.append(rng.randrange(domains[target]))
            row.append(rng.randrange(500))
            row.append(rng.randrange(6))
            rows.append(tuple(row))
        relations[name] = Relation(name, schema, rows)
        if parent is not None:
            join_predicates.append(
                JoinPredicate(name, f"r{i}_fk", rel(parent), f"r{parent}_pk")
            )
    for child, target in extra_edges:
        join_predicates.append(
            JoinPredicate(
                rel(child), f"r{child}_x{target}", rel(target), f"r{target}_pk"
            )
        )

    # Selections on up to two relations; occasionally unsatisfiable, so the
    # empty-stream paths of every engine get differential coverage too.
    selections = {}
    for i in range(num_relations):
        if rng.random() >= 0.45:
            continue
        if len(selections) == 2:
            break
        roll = rng.random()
        if roll < 0.1:
            predicate = Comparison(AttributeRef(f"r{i}_cat"), ">", Constant(99))
        else:
            op = rng.choice(("=", "<", ">=", "!="))
            predicate = Comparison(
                AttributeRef(f"r{i}_cat"), op, Constant(rng.randrange(6))
            )
        selections[rel(i)] = predicate

    aggregation = None
    if rng.random() < 0.5:
        group_pool = [f"r{i}_cat" for i in range(num_relations)] + [
            f"r{i}_pk" for i in range(num_relations)
        ]
        group_attrs = rng.sample(group_pool, rng.choice((1, 1, 2)))
        aggregates = []
        for index in range(rng.choice((1, 1, 2))):
            function = rng.choice(("sum", "count", "min", "max"))
            attribute = (
                None
                if function == "count"
                else f"r{rng.randrange(num_relations)}_val"
            )
            aggregates.append(Aggregate(function, attribute, f"agg{index}"))
        aggregation = AggregateSpec(tuple(group_attrs), tuple(aggregates))

    query = SPJAQuery(
        name=f"{name_prefix}diff_{seed}",
        relations=tuple(rel(i) for i in range(num_relations)),
        join_predicates=tuple(join_predicates),
        selections=selections,
        aggregation=aggregation,
    )
    remote = rng.random() < 0.25
    return DifferentialWorkload(seed, query, relations, remote)
