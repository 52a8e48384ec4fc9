"""Stitch-up planning and execution (Section 3.4).

After the sequential phases of corrective query processing have consumed all
source data, the answers still missing are exactly the join combinations that
mix partitions from *different* phases:

    R1^c1 ⋈ ... ⋈ Rm^cm   for every (c1..cm) that is not all-equal.

The stitch-up executor enumerates those combination vectors, skips the ones
on the exclusion list (the all-equal vectors, already produced by the phases
themselves) or with an empty partition, and evaluates each by

1. seeding from the largest *reusable intermediate result* registered in the
   state-structure registry (e.g. a prior phase's ``F⋈T`` hash table), and
2. joining in the remaining relations by probing their partition hash tables,
   re-hashing a structure when it is keyed on the wrong attribute
   ("stitch-up join", Section 3.4.3).

The report records the reuse statistics the paper publishes in Tables 1–2:
how many tuples were reused from prior phases and how many registered tuples
were never needed ("discarded").

**Order and accounting contract.**  Whatever engine mode the phases ran in,
every combination is evaluated by one generated nested loop, its *route*:
level 0 iterates the seed's scan, level *k* probes hop *k*'s keyed partition
(``b = get_k(<key>)``, ``if b is None: continue``, ``for m_k in b:``), and the
innermost body hands the row to the output.  No level concatenates anything:
every position of the joined layout is resolved, when the text is generated,
to the loop variable that holds it (``r0[3]``, ``m2[1]``) — the loop's locals
are the paper's "vector of pointers into value containers" (Section 3.2), so
no joined tuple is ever built.  The innermost body folds straight into the
shared group-by (the accumulator's own key/update lines, reading the loop
variables through the canonical-layout permutation) when the group-by can
specialise; otherwise — SPJ output, partial-aggregate input, an attribute the
layout lacks — it builds the output-layout tuple once, already permuted, and
the combination's list goes to ``extend`` / ``accumulate_batch`` in one call.
Two things are fixed:

* *Order.*  Combinations run in ``itertools.product`` order over the query's
  relation list; inside one, a nested loop *is* seed-scan order × bucket
  order, with a rejected residual candidate only dropping out.  That is the
  order the tuple-at-a-time oracle produces, so the shared group-by folds the
  same sequence and float sums do not move by a bit.
* *Charges.*  The loop charges nothing for the joins.  It returns per-level
  tallies — survivors ``n_k`` of every hop and, on hops with residual
  predicates, candidates ``c_k``, bumped by ``len(bucket)`` per probe where
  no residual can reject — and the combination is charged once from them (the
  deferred-charging invariant of ``engine/cost.py``): with ``n_0 = len(seed)``,
  ``hash_probes += n_0 + … + n_(K-1)`` (hop *k* probes once per row that
  reaches it), ``predicate_evals += len(residuals_k) * c_k`` (every residual
  on every candidate, rejected or not), ``tuple_copies += n_0 + … + n_K`` and
  ``tuples_output += n_K``; the group-by's own ``aggregate_updates`` are
  charged once per combination too, from ``n_K`` by the inlined fold or by
  ``accumulate_batch``.  ``tuple_copies`` keeps its meaning: it is the copies
  the paper's cost model charges a join for its output, *simulated* work that
  prices the plan, whether or not this implementation performs them.  A hop's
  partition is opened — marked reused and, when keyed on the wrong attribute,
  re-keyed for ``hash_inserts += len(partition)``, once per (structure,
  attribute) — by the first row that reaches its level, so a hop no row reaches
  leaves its partition untouched.  The clock is charged once, at the end of
  ``run``, and nothing reads it before.

Cached for the run: re-keyed partitions, and per seed entry the route — join
order and the generated loop follow from the seed's layout alone.  The
generated text contains positions only, never object identities, so equal
route shapes share one code object (``engine.compiled.bind_generated``) across
executors, sessions, rounds and workers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.engine.compiled import bind_generated
from repro.engine.cost import CostModel, ExecutionMetrics, SimulatedClock
from repro.engine.operators.aggregate import GroupAccumulator, _tuple_display
from repro.engine.state.hash_table import HashTableState
from repro.engine.state.registry import RegistryEntry, StateRegistry
from repro.relational.algebra import QueryError, SPJAQuery
from repro.relational.schema import Schema
from repro.relational.tuples import TupleAdapter

#: CPython compiles at most 20 statically nested blocks, and a route is one
#: ``for`` per hop inside the seed's
_MAX_NESTED_LOOPS = 20


@dataclass
class StitchUpReport:
    """Accounting for one stitch-up phase."""

    num_phases: int
    combinations_total: int = 0
    combinations_excluded: int = 0
    combinations_skipped_empty: int = 0
    combinations_evaluated: int = 0
    reused_tuples: int = 0
    discarded_tuples: int = 0
    output_count: int = 0
    work_units: float = 0.0
    simulated_seconds: float = 0.0
    exclusion_list: list[tuple[int, ...]] = field(default_factory=list)

    def as_dict(self) -> dict[str, object]:
        return {
            "num_phases": self.num_phases,
            "combinations_total": self.combinations_total,
            "combinations_excluded": self.combinations_excluded,
            "combinations_skipped_empty": self.combinations_skipped_empty,
            "combinations_evaluated": self.combinations_evaluated,
            "reused_tuples": self.reused_tuples,
            "discarded_tuples": self.discarded_tuples,
            "output_count": self.output_count,
            "work_units": self.work_units,
            "simulated_seconds": self.simulated_seconds,
        }


@dataclass(frozen=True)
class _Hop:
    """One probe join of a route.  Values are read through the loop variables
    of the levels above: ``r0[i]`` of the seed row, ``m<k>[j]`` of hop *k*'s match."""

    relation: str
    partition_attr: str  # the attribute the partition must be keyed on
    probe: str  # where the levels above carry the matching value
    residuals: tuple[tuple[str, str], ...]  # further predicates, as pairs of values


@dataclass(frozen=True)
class _Route:
    """How the combinations seeded from one entry are evaluated.  There is at
    least one hop: a registered structure is an input of some phase's join, so
    it never spans a whole combination."""

    hops: tuple[_Hop, ...]
    #: ``loop(seed rows, open hop) -> (survivors per hop, residual candidates
    #: per hop)``; hands every produced row to the output on the way
    loop: Callable[[list[tuple], Callable[[int], Callable]], tuple[tuple, tuple]]


def _loop_source(
    hops: Sequence[_Hop], params: str, prologue: Sequence[str],
    body: Sequence[str], epilogue: Sequence[str],
) -> str:
    """Text of a route: one loop per level around ``body``, tallies returned."""
    levels = range(1, len(hops) + 1)
    survivors = [f"n{k}" for k in levels]
    candidates = [f"c{k}" if hop.residuals else "0" for k, hop in zip(levels, hops)]
    tallies = survivors + [name for name in candidates if name != "0"]
    lines = [
        f"def _route(rows, _open{params}):",
        "    " + " = ".join(tallies) + " = 0",
        "    " + " = ".join(f"g{k}" for k in levels) + " = None",
    ]
    lines.extend("    " + line for line in prologue)
    lines.append("    for r0 in rows:")
    for k, hop in zip(levels, hops):
        pad = "    " * (k + 1)
        lines += [
            f"{pad}if g{k} is None:",
            f"{pad}    g{k} = _open({k - 1})",
            f"{pad}b{k} = g{k}({hop.probe})",
            f"{pad}if b{k} is None:",
            f"{pad}    continue",
            f"{pad}{'c' if hop.residuals else 'n'}{k} += len(b{k})",
            f"{pad}for m{k} in b{k}:",
        ]
        if hop.residuals:
            rejected = " or ".join(f"{a} != {b}" for a, b in hop.residuals)
            lines += [
                f"{pad}    if {rejected}:",
                f"{pad}        continue",
                f"{pad}    n{k} += 1",
            ]
    pad = "    " * (len(hops) + 2)
    lines.extend(pad + line for line in body)
    lines.extend("    " + line for line in epilogue)
    lines.append(f"    return {_tuple_display(survivors)}, {_tuple_display(candidates)}")
    return "\n".join(lines) + "\n"


class StitchUpExecutor:
    """Evaluates the cross-phase join combinations at the end of execution."""

    def __init__(
        self,
        query: SPJAQuery,
        registry: StateRegistry,
        num_phases: int,
        output_schema: Schema,
        output: GroupAccumulator | list[tuple],
        metrics: ExecutionMetrics | None = None,
        clock: SimulatedClock | None = None,
        cost_model: CostModel | None = None,
    ) -> None:
        """``output`` is the query's shared group-by, or for an SPJ query the
        list collecting its answers; rows reach it laid out as ``output_schema``."""
        self.query = query
        self.registry = registry
        self.num_phases = num_phases
        self.output_schema = output_schema
        self.output = output
        self.cost_model = cost_model or CostModel()
        self.metrics = metrics if metrics is not None else ExecutionMetrics()
        self.clock = clock if clock is not None else SimulatedClock(self.cost_model)
        self._touched_entries: set[int] = set()
        self._rehash_cache: dict[tuple[int, str], HashTableState] = {}
        self._routes: dict[int, _Route] = {}

    # -- public API -----------------------------------------------------------------

    def run(self) -> StitchUpReport:
        """Evaluate all cross-phase combinations and hand their rows to the output."""
        relations = list(self.query.relations)
        report = StitchUpReport(num_phases=self.num_phases)
        start_seconds = self.clock.now
        start_work = self.metrics.work(self.cost_model)

        if self.num_phases <= 1:
            report.discarded_tuples = self._untouched_tuples()
            return report

        partitions = {
            relation: self.registry.base_partitions(relation) for relation in relations
        }
        intermediates = self.registry.intermediate_entries()

        for combo in itertools.product(range(self.num_phases), repeat=len(relations)):
            report.combinations_total += 1
            if len(set(combo)) == 1:
                # Exclusion list: matching-superscript combinations were
                # already produced by the phase plans themselves.
                report.combinations_excluded += 1
                report.exclusion_list.append(combo)
                continue
            entries = {
                relation: partitions[relation].get(phase)
                for relation, phase in zip(relations, combo)
            }
            if any(entry is None or not entry.cardinality for entry in entries.values()):
                report.combinations_skipped_empty += 1
                continue
            report.combinations_evaluated += 1
            report.output_count += self._evaluate_combination(
                frozenset(zip(relations, combo)), entries, intermediates
            )

        self._charge_clock(start_work)
        report.reused_tuples = self._touched_tuples()
        report.discarded_tuples = self._untouched_tuples()
        report.work_units = self.metrics.work(self.cost_model) - start_work
        report.simulated_seconds = self.clock.now - start_seconds
        return report

    # -- combination evaluation --------------------------------------------------------

    def _evaluate_combination(
        self,
        pairs: frozenset[tuple[str, int]],
        entries: dict[str, RegistryEntry],
        intermediates: Sequence[RegistryEntry],
    ) -> int:
        seed = self._best_seed(pairs, entries, intermediates)
        self._mark_touched(seed)
        route = self._route(seed, entries)

        def open_hop(index: int) -> Callable:
            """Called by the first row to reach the hop: its partition's buckets."""
            hop = route.hops[index]
            entry = entries[hop.relation]
            self._mark_touched(entry)
            return self._keyed_table(entry, hop.partition_attr).bucket_map().get

        rows = list(seed.structure.scan())
        survivors, candidates = route.loop(rows, open_hop)
        reached = (len(rows), *survivors)  # rows per level, the seed's first
        produced = reached[-1]
        metrics = self.metrics
        metrics.hash_probes += sum(reached) - produced
        metrics.predicate_evals += sum(
            len(hop.residuals) * count for hop, count in zip(route.hops, candidates)
        )
        metrics.tuple_copies += sum(reached)
        metrics.tuples_output += produced
        return produced

    def _best_seed(
        self,
        pairs: frozenset[tuple[str, int]],
        entries: dict[str, RegistryEntry],
        intermediates: Sequence[RegistryEntry],
    ) -> RegistryEntry:
        """Largest reusable intermediate covered by this combination, else the
        smallest matching base partition."""
        best: RegistryEntry | None = None
        for entry in intermediates:
            if entry.signature <= pairs:
                if best is None or len(entry.signature) > len(best.signature) or (
                    len(entry.signature) == len(best.signature)
                    and entry.cardinality < best.cardinality
                ):
                    best = entry
        if best is not None:
            return best
        return min(entries.values(), key=lambda e: e.cardinality)

    def _route(self, seed: RegistryEntry, entries: dict[str, RegistryEntry]) -> _Route:
        """Hops and generated loop for the combinations seeded from ``seed``.

        Join order, attribute positions and the final layout follow from the
        seed's layout alone (a relation's partitions have one schema in every
        phase), so they are resolved for the first such combination and
        reused by the rest.
        """
        route = self._routes.get(id(seed))
        if route is not None:
            return route
        schema = seed.structure.schema
        covered = set(seed.relations)
        remaining = [relation for relation in entries if relation not in covered]
        if len(remaining) >= _MAX_NESTED_LOOPS:
            raise QueryError(
                f"stitch-up of {self.query.name!r}: a route of {len(remaining)} hops "
                f"nests {len(remaining) + 1} loops, and CPython compiles at most "
                f"{_MAX_NESTED_LOOPS} nested blocks"
            )
        # the loop variable holding each position of the joined layout
        values = [f"r0[{i}]" for i in range(len(schema))]
        hops: list[_Hop] = []
        while remaining:
            for relation in remaining:
                predicates = self.query.predicates_between(
                    frozenset(covered), frozenset((relation,))
                )
                if predicates:
                    break
            else:
                combination = sorted(
                    pair for entry in entries.values() for pair in entry.signature
                )
                raise QueryError(
                    f"stitch-up of {self.query.name!r}, combination {combination}: "
                    f"no join predicate connects {remaining} to {sorted(covered)}"
                )
            remaining.remove(relation)
            partition = entries[relation].structure.schema
            joined = schema.concat(partition)
            values += [f"m{len(hops) + 1}[{i}]" for i in range(len(partition))]
            # (partition attribute, attribute of the levels above) per predicate
            attrs = [
                (p.left_attr, p.right_attr)
                if p.left_relation == relation
                else (p.right_attr, p.left_attr)
                for p in predicates
            ]
            hops.append(
                _Hop(
                    relation,
                    partition_attr=attrs[0][0],
                    probe=values[schema.position(attrs[0][1])],
                    residuals=tuple(
                        (values[joined.position(above)], values[joined.position(own)])
                        for own, above in attrs[1:]
                    ),
                )
            )
            schema = joined
            covered.add(relation)
        route = self._routes[id(seed)] = _Route(tuple(hops), self._loop(hops, schema, values))
        return route

    def _loop(self, hops: Sequence[_Hop], schema: Schema, values: Sequence[str]):
        """Generate a route's loop; rows laid out as ``schema`` reach the output."""
        mapping = TupleAdapter(schema, self.output_schema)._mapping  # type: ignore[attr-defined]
        output = self.output
        produced = f"n{len(hops)}"
        fold = None
        if isinstance(output, GroupAccumulator):
            fold = output._fold_lines(
                lambda pos: values[mapping[pos]] if mapping[pos] >= 0 else None
            )
        if fold is not None:
            # The group-by's own fold, reading the loop variables in place.
            bindings = {"_groups": output._groups, "_metrics": output.metrics}
            src = _loop_source(
                hops,
                ", _groups=_groups, _get=_groups.get, _metrics=_metrics",
                (),
                fold,
                (f"_metrics.aggregate_updates += {produced} * {len(output.aggregates)}",),
            )
        else:
            # The output-layout tuple, built once and already permuted.
            deliver = (
                output.accumulate_batch
                if isinstance(output, GroupAccumulator)
                else output.extend
            )
            bindings = {"_deliver": deliver}
            row = _tuple_display([values[q] if q >= 0 else "None" for q in mapping])
            src = _loop_source(
                hops,
                ", _deliver=_deliver",
                ("out = []", "_emit = out.append"),
                (f"_emit({row})",),
                ("_deliver(out)",),
            )
        return bind_generated(src, bindings)

    def _keyed_table(self, entry: RegistryEntry, attribute: str) -> HashTableState:
        """Return the partition keyed on ``attribute``, re-hashing if needed."""
        structure = entry.structure
        if isinstance(structure, HashTableState) and structure.key == attribute:
            return structure
        cache_key = (id(structure), attribute)
        rehashed = self._rehash_cache.get(cache_key)
        if rehashed is None:
            rehashed = HashTableState(structure.schema, attribute)
            rehashed.insert_batch(list(structure.scan()))
            self.metrics.hash_inserts += len(rehashed)
            self._rehash_cache[cache_key] = rehashed
        return rehashed

    # -- accounting -----------------------------------------------------------------

    def _mark_touched(self, entry: RegistryEntry) -> None:
        self._touched_entries.add(id(entry))

    def _touched_tuples(self) -> int:
        return sum(
            entry.cardinality
            for entry in self.registry
            if id(entry) in self._touched_entries
        )

    def _untouched_tuples(self) -> int:
        return sum(
            entry.cardinality
            for entry in self.registry
            if id(entry) not in self._touched_entries
        )

    def _charge_clock(self, start_work: float) -> None:
        work = self.metrics.work(self.cost_model)
        if work > start_work:
            self.clock.charge(work, start_work)
