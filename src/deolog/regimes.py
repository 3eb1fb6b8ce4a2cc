"""Selection regimes: delta-based selection, weightings, weighted distance,
weight classes, and finite enumeration of weight orders.

A weighting assigns a positive weight to each variable; distance between
worlds is the weight-sum over their symmetric difference. Weighted selection
picks distance minimizers; delta selection picks subset-minimal differences.
Every weighted choice is a delta choice (the weights are positive).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .models import World, symmetric_difference


@dataclass(frozen=True)
class WeightClass:
    """Strict pairwise constraints weight(heavier) > weight(lighter)."""
    constraints: tuple = ()   # of (heavier, lighter) variable pairs

    def variables(self):
        out = set()
        for a, b in self.constraints:
            out.add(a)
            out.add(b)
        return out

    def is_satisfiable(self) -> bool:
        """False iff the constraint graph has a cycle (empty class)."""
        import graphlib
        graph = {}
        for a, b in self.constraints:
            graph.setdefault(a, set()).add(b)
        try:
            graphlib.TopologicalSorter(graph).prepare()
        except graphlib.CycleError:
            return False
        return True

    def admits(self, weighting) -> bool:
        return all(weighting[a] > weighting[b] for a, b in self.constraints)

    @classmethod
    def parse(cls, text: str) -> "WeightClass":
        """Parse comma-separated 'a>b' atoms, e.g. 'q>p,q>r'."""
        constraints = []
        text = text.strip()
        if text:
            for atom in text.split(","):
                parts = atom.split(">")
                if len(parts) != 2 or not all(p.strip() for p in parts):
                    raise ValueError(f"malformed weight constraint {atom!r}")
                constraints.append((parts[0].strip(), parts[1].strip()))
        return cls(tuple(constraints))

    def __str__(self):
        return ",".join(f"{a}>{b}" for a, b in self.constraints)


DEFAULT_GRID = tuple(range(1, 10))


def check_grid(grid) -> tuple:
    """The grid as a tuple, if it is a non-empty set of positive weights."""
    grid = tuple(grid)
    if not grid:
        raise ValueError("weight grid is empty")
    if min(grid) <= 0:
        raise ValueError("weights on the grid must be positive")
    return grid


def _check_extra_variables(count):
    if count < 0:
        raise ValueError("the number of extra variables must be at least 0")


@dataclass(frozen=True)
class BasicRegime:
    max_worlds: int = 4

    def __post_init__(self):
        if self.max_worlds < 1:
            raise ValueError("the world bound must be at least 1")


@dataclass(frozen=True)
class DeltaRegime:
    extra_variables: int = 0

    def __post_init__(self):
        _check_extra_variables(self.extra_variables)


@dataclass(frozen=True)
class WeightedRegime:
    weight_class: WeightClass = WeightClass()
    grid: tuple = DEFAULT_GRID
    extra_variables: int = 0

    def __post_init__(self):
        check_grid(self.grid)
        _check_extra_variables(self.extra_variables)


def check_weighting(weighting, universe):
    for v in universe:
        if v not in weighting:
            raise ValueError(f"weighting undefined on variable {v}")
        if weighting[v] <= 0:
            raise ValueError(f"weight of {v} must be positive")


def delta_minimal(w: World, prop: frozenset) -> frozenset:
    """Worlds of prop whose symmetric difference with w is subset-minimal."""
    if not prop:
        raise ValueError("empty proposition")
    diffs = {w1: symmetric_difference(w, w1) for w1 in prop}
    return frozenset(w1 for w1, d1 in diffs.items()
                     if not any(d2 < d1 for d2 in diffs.values()))


def delta_admits(w: World, prop: frozenset, pick: World) -> bool:
    """Whether a pick in prop is in delta_minimal(w, prop), in one pass over
    prop: no member differs from w by a proper subset of pick's difference."""
    members = w.members
    d = members ^ pick.members
    for x in prop:
        if members ^ x.members < d:
            return False
    return True


def weighted_distance(weighting, w0: World, w1: World):
    """The sum of the weights of the variables on which w0 and w1 differ."""
    return sum(weighting[v] for v in symmetric_difference(w0, w1))


def p_nearest(weighting, w: World, prop: frozenset) -> frozenset:
    """Distance minimizers of prop relative to w under the weighting."""
    if not prop:
        raise ValueError("empty proposition")
    dist = {w1: weighted_distance(weighting, w, w1) for w1 in prop}
    best = min(dist.values())
    return frozenset(w1 for w1 in prop if dist[w1] == best)


def nearest_admits(weighting, w: World, prop: frozenset, pick: World) -> bool:
    """Whether a pick in prop is in p_nearest(weighting, w, prop), in one
    pass over prop: no member is nearer to w than pick."""
    d = weighted_distance(weighting, w, pick)
    return not any(weighted_distance(weighting, w, x) < d for x in prop)


def forced_choice(w: World, prop: frozenset) -> World | None:
    """The member of prop whose difference with w is a subset of every other
    member's difference, if one exists. Such a pick is nearest under every
    weighting."""
    if not prop:
        raise ValueError("empty proposition")
    for w1 in sorted(prop, key=lambda x: x.name):
        d1 = symmetric_difference(w, w1)
        if all(d1 <= symmetric_difference(w, w2) for w2 in prop):
            return w1
    return None


def _subset_sum_signature(universe, weighting):
    """Dense ranks of the 2^n subset weight-sums, in fixed subset order.
    Two weightings with equal signatures induce the same weak order on every
    comparison the semantics can observe."""
    sums = []
    for r in range(len(universe) + 1):
        for combo in itertools.combinations(universe, r):
            sums.append(sum(weighting[v] for v in combo))
    order = {s: i for i, s in enumerate(sorted(set(sums)))}
    return tuple(order[s] for s in sums)


def enumerate_weight_orders(universe, weight_class: WeightClass,
                            grid=DEFAULT_GRID) -> list[dict]:
    """All weightings over the grid satisfying the class, deduplicated so no
    two returned weightings induce the same weak order on subset sums.

    Returns an empty list when the class is unsatisfiable on the grid.
    """
    universe = tuple(universe)
    if not weight_class.is_satisfiable():
        return []
    unknown = weight_class.variables() - set(universe)
    if unknown:
        raise ValueError(
            "weight class mentions variables outside the universe: "
            + ", ".join(sorted(unknown)))
    seen = set()
    out = []
    for values in itertools.product(grid, repeat=len(universe)):
        weighting = dict(zip(universe, values))
        if not weight_class.admits(weighting):
            continue
        sig = _subset_sum_signature(universe, weighting)
        if sig in seen:
            continue
        seen.add(sig)
        out.append(weighting)
    return out
