"""State structure registry.

Section 3.4.2: "Each plan registers its state structures in a state structure
registry that records the plan ID, the expression, and the cardinality of the
expression."  The stitch-up planner consults the registry to decide which
intermediate results can be reused and builds the *exclusion list* of
combinations that must not be recomputed.

An expression is identified by its **signature**: the set of
``(relation, phase)`` pairs whose data it contains.  For example the hash
table holding the phase-0 result of ``orders ⋈ customer`` has the signature
``{("orders", 0), ("customer", 0)}``, and the phase-1 buffer of the bare
``lineitem`` partition has ``{("lineitem", 1)}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.engine.state.base import StateStructure

#: Signature type: which (relation, phase) partitions an expression covers.
Signature = frozenset


def expression_signature(pairs: Iterable[tuple[str, int]]) -> Signature:
    """Build a signature from ``(relation_name, phase_id)`` pairs."""
    return frozenset(pairs)


@dataclass
class RegistryEntry:
    """One registered state structure."""

    signature: Signature
    structure: StateStructure
    plan_id: int
    description: str = ""

    @property
    def cardinality(self) -> int:
        return len(self.structure)

    @property
    def relations(self) -> frozenset[str]:
        return frozenset(rel for rel, _phase in self.signature)

    @property
    def phases(self) -> frozenset[int]:
        return frozenset(phase for _rel, phase in self.signature)


class StateRegistry:
    """Registry of all state structures produced during a multi-phase execution."""

    def __init__(self) -> None:
        self._entries: dict[Signature, RegistryEntry] = {}

    def register(
        self,
        signature: Signature,
        structure: StateStructure,
        plan_id: int,
        description: str = "",
    ) -> RegistryEntry:
        """Register a structure; a later registration replaces an earlier one
        with the same signature only if it holds at least as many tuples."""
        existing = self._entries.get(signature)
        entry = RegistryEntry(signature, structure, plan_id, description)
        if existing is None or len(structure) >= existing.cardinality:
            self._entries[signature] = entry
        return self._entries[signature]

    def __contains__(self, signature: Signature) -> bool:
        return signature in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[RegistryEntry]:
        return iter(self._entries.values())

    def get(self, signature: Signature) -> RegistryEntry | None:
        return self._entries.get(signature)

    def lookup(self, signature: Signature) -> RegistryEntry:
        entry = self._entries.get(signature)
        if entry is None:
            raise KeyError(f"no state structure registered for {set(signature)}")
        return entry

    def base_partitions(self, relation: str) -> dict[int, RegistryEntry]:
        """All single-relation partitions of ``relation``, keyed by phase."""
        result: dict[int, RegistryEntry] = {}
        for entry in self._entries.values():
            if len(entry.signature) == 1:
                (rel, phase), = entry.signature
                if rel == relation:
                    result[phase] = entry
        return result

    def intermediate_entries(self) -> list[RegistryEntry]:
        """Entries covering more than one relation (join intermediates)."""
        return [e for e in self._entries.values() if len(e.signature) > 1]

    def describe(self) -> list[dict[str, object]]:
        """Summary rows for reports and debugging."""
        return [
            {
                "signature": sorted(entry.signature),
                "plan_id": entry.plan_id,
                "cardinality": entry.cardinality,
                "structure": type(entry.structure).__name__,
                "description": entry.description,
            }
            for entry in self._entries.values()
        ]
