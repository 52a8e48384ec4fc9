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

**Order and accounting contract.**  Every combination is evaluated a set at a
time, whatever engine mode the phases ran in: the seed is scanned into a
list, each hop turns the whole working set into the next one, and the final
working set goes to the output in one call.  Two things are fixed:

* *Order.*  Combinations run in ``itertools.product`` order over the query's
  relation list; inside one, rows keep seed-scan order, matches of a row keep
  bucket order, and a rejected residual candidate only drops out.  That is
  the order a tuple-at-a-time nested loop produces, so the shared group-by
  folds the same sequence and float sums do not move by a bit.
* *Charges.*  Counters are charged once per step from batch tallies (the
  deferred-charging invariant of ``engine/cost.py``): a seed scan
  ``tuple_copies += len(seed)``; a hop ``hash_probes += len(rows)``,
  ``predicate_evals += len(residuals) * candidates`` (every residual on every
  candidate, rejected or not) and ``tuple_copies += len(output)``; a re-key
  ``hash_inserts += len(partition)``, once per (structure, attribute); the
  hand-off ``tuples_output += len(rows)`` plus the group-by's own
  ``aggregate_updates``.  The clock is charged once, at the end of ``run``,
  and nothing reads it before.

Cached for the run: re-keyed partitions, and per seed entry the *route* —
join order, attribute positions and the output sink for the final layout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.engine.compiled import fused_output_sink
from repro.engine.cost import CostModel, ExecutionMetrics, SimulatedClock
from repro.engine.operators.aggregate import GroupAccumulator
from repro.engine.state.hash_table import HashTableState
from repro.engine.state.registry import RegistryEntry, StateRegistry
from repro.relational.algebra import QueryError, SPJAQuery
from repro.relational.schema import Schema
from repro.relational.tuples import TupleAdapter

#: what a finished working set is handed to, a whole combination at a time
BatchSink = Callable[[list[tuple]], None]


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
    """One probe join of a route, with every name resolved to a position."""

    relation: str
    partition_attr: str  # the attribute the partition must be keyed on
    probe_pos: int  # where the working set carries the matching value
    residuals: tuple[tuple[int, int], ...]  # further predicates, as joined-row positions


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
        self._routes: dict[int, tuple[list[_Hop], BatchSink]] = {}

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
        hops, sink = self._route(seed, entries)

        metrics = self.metrics
        rows = list(seed.structure.scan())
        metrics.tuple_copies += len(rows)
        for hop in hops:
            if not rows:
                return 0
            entry = entries[hop.relation]
            self._mark_touched(entry)
            table = self._keyed_table(entry, hop.partition_attr)
            rows = self._probe_join(rows, hop, table)
        if rows:
            metrics.tuples_output += len(rows)
            sink(rows)
        return len(rows)

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

    def _route(
        self, seed: RegistryEntry, entries: dict[str, RegistryEntry]
    ) -> tuple[list[_Hop], BatchSink]:
        """Hops and output sink for the combinations seeded from ``seed``.

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
            joined = schema.concat(entries[relation].structure.schema)
            # (partition attribute, working-set attribute) per predicate
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
                    probe_pos=schema.position(attrs[0][1]),
                    residuals=tuple(
                        (joined.position(current), joined.position(partition))
                        for partition, current in attrs[1:]
                    ),
                )
            )
            schema = joined
            covered.add(relation)
        route = self._routes[id(seed)] = (hops, self._sink(schema))
        return route

    def _sink(self, schema: Schema) -> BatchSink:
        """Batch hand-off of working sets laid out as ``schema`` to the output."""
        adapter = TupleAdapter(schema, self.output_schema)
        output = self.output
        if isinstance(output, GroupAccumulator):
            fold = fused_output_sink(output, adapter)
            if fold is not None:
                return fold
            deliver = output.accumulate_batch
        else:
            deliver = output.extend
        if adapter.is_identity:
            return deliver
        return lambda rows: deliver(adapter.adapt_many(rows))

    def _probe_join(self, rows: list[tuple], hop: _Hop, table: HashTableState) -> list[tuple]:
        """Join the working set with one keyed partition; one charge per counter."""
        get = table.bucket_map().get
        pos = hop.probe_pos
        output = [row + match for row in rows for match in get(row[pos], ())]
        metrics = self.metrics
        metrics.hash_probes += len(rows)
        if hop.residuals:
            # Every residual is charged on every candidate, rejected or not.
            metrics.predicate_evals += len(hop.residuals) * len(output)
            for left, right in hop.residuals:
                output = [row for row in output if row[left] == row[right]]
        metrics.tuple_copies += len(output)
        return output

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
        delta = self.metrics.work(self.cost_model) - start_work
        if delta > 0:
            self.clock.charge(delta)
