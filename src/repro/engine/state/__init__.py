"""State structures: the data stores behind stateful operators.

Following Section 3.1 of the paper, join and aggregation operators are split
into an *iterator module* (how tuples are produced/consumed) and a *state
structure* (where the tuples live).  The state structures can be shared
across operators belonging to different adaptive-data-partitioning plans,
which is what allows the stitch-up phase to reuse intermediate results
instead of recomputing them.

Two of Tukwila's structures are implemented, the two the engine builds: the
hash table (:class:`HashTableState`, both inputs of every symmetric hash
join) and the sorted run (:class:`SortedRunState`, both inputs of the
order-adaptive merge join).  The registry records every structure a phase
leaves behind for stitch-up.
"""

from repro.engine.state.base import StateStructure
from repro.engine.state.hash_table import HashTableState
from repro.engine.state.sorted_run import SortedRunState
from repro.engine.state.registry import StateRegistry, RegistryEntry, expression_signature

__all__ = [
    "StateStructure",
    "HashTableState",
    "SortedRunState",
    "StateRegistry",
    "RegistryEntry",
    "expression_signature",
]
