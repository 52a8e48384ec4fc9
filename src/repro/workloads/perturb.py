"""Dataset perturbations used by the order-exploitation experiments.

Figure 5 evaluates the complementary join over data that is fully ordered and
over "versions of the data in which we randomly swapped 1%, 10%, or 50% of
the data".  :func:`reorder_fraction` reproduces that perturbation
deterministically.
"""

from __future__ import annotations

import random

from repro.relational.relation import Relation


def reorder_fraction(
    relation: Relation,
    fraction: float,
    seed: int = 0,
    name: str | None = None,
) -> Relation:
    """Return a copy of ``relation`` with ``fraction`` of its rows displaced.

    ``fraction`` of the row positions are selected at random and the rows at
    those positions are permuted among themselves; the remaining rows stay in
    place.  ``fraction == 0`` returns an identical copy; ``fraction == 1``
    shuffles the whole relation.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    rows = list(relation.rows)
    count = int(round(len(rows) * fraction))
    if count >= 2:
        rng = random.Random(seed)
        positions = rng.sample(range(len(rows)), count)
        shuffled = [rows[p] for p in positions]
        rng.shuffle(shuffled)
        for position, row in zip(positions, shuffled):
            rows[position] = row
    return Relation(name or f"{relation.name}_reordered", relation.schema, rows)
