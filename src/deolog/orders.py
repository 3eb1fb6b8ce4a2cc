"""Utility-order machinery: satisfiability of rank-comparison constraint
sets, and exhaustive enumeration of weak orders (the brute-force oracle).
"""

from __future__ import annotations

import math
from collections.abc import Hashable
from typing import NamedTuple


class ComparisonAtom(NamedTuple):
    """rank(left) >= rank(right), or strictly > when strict. The sides are
    worlds, or any hashable names for them."""
    left: Hashable
    right: Hashable
    strict: bool = False


def solve_order_constraints(atoms) -> dict | None:
    """Integer ranks satisfying every comparison atom of a sequence, or
    None.

    Each atom is an edge left -> right of weight 1 if strict, else 0; a
    world's rank is the weight of the heaviest path leaving it (0 for a
    sink), the least ranks that satisfy every atom. They are found by
    label-correcting relaxation from all-zero ranks. A constraint set is
    unsatisfiable exactly when some cycle contains a strict edge; then ranks
    grow without bound, and the search stops once one exceeds the number of
    strict edges, which no path's weight can. Worlds are returned in order
    of first mention.
    """
    rank = {}
    strict_edges = 0
    for left, right, strict in atoms:
        rank[left] = rank[right] = 0
        strict_edges += strict
    changed = True
    while changed:
        changed = False
        for left, right, strict in atoms:
            alt = rank[right] + strict
            if alt > rank[left]:
                if alt > strict_edges:
                    return None
                rank[left] = alt
                changed = True
    return rank


def _ordered_partitions(items):
    if not items:
        yield []
        return
    first = items[0]
    for parts in _ordered_partitions(items[1:]):
        for i in range(len(parts)):
            yield parts[:i] + [[first] + parts[i]] + parts[i + 1:]
        for i in range(len(parts) + 1):
            yield parts[:i] + [[first]] + parts[i:]


def bruteforce_weak_orders(items):
    """Yield every weak order on the given items exactly once, as canonical
    surjective rank maps onto {0..m} (earlier blocks rank higher), in an
    order fixed by the order the items are given in. The engine ranks world
    indices, range(n); callers bound the items, as the engine does by
    ORACLE_WORLD_CAP."""
    for blocks in _ordered_partitions(list(items)):
        top = len(blocks) - 1
        yield {w: top - i for i, block in enumerate(blocks) for w in block}


def ordered_bell(n: int) -> int:
    """Number of weak orders on n elements, by the standard recurrence."""
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(math.comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]
