"""Selection regimes: weight classes, the regime objects, every selection
policy, and finite enumeration of weight orders.

A weighting gives each variable a positive weight, and the distance between
two worlds is the weight-sum over their symmetric difference. Weighted
selection picks distance minimizers, delta selection subset-minimal
differences (so every weighted pick is a delta pick), and forced selection
the member whose difference is a subset of every other member's, which is
nearest under every weighting.

Each policy is defined here once per representation. Over Worlds, the
reference: delta_admits (which delta_minimal filters by), p_nearest and
forced_choice, reading frozensets of Worlds as a Model's selection table
does. Over valuation ints, for the search: admissible_basic, _delta, _forced
and _weighted map (frame valuations, world index, cell mask) to the indices
of the cell's admissible picks, ascending. There a frame is a sequence of
valuation ints, bit n-1-i standing for the i-th variable of the sorted
universe, and a cell is a mask over the frame's world indices.

The World policies are not adapters over the mask ones: the tests compare
the two, and the benchmark checks the engine's picks against forced_choice
and p_nearest. models.validate_model checks delta picks with the one-pass
delta_admits, measured about seven times faster than admissible_delta's set;
so delta_minimal is built on delta_admits. The engine keeps the World
policies bound by name for the benchmark's tracer.
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
    """Positive weights on exactly the universe's variables, or ValueError."""
    for v in universe:
        if v not in weighting:
            raise ValueError(f"weighting undefined on variable {v}")
        if weighting[v] <= 0:
            raise ValueError(f"weight of {v} must be positive")
    unknown = set(weighting).difference(universe)
    if unknown:
        raise ValueError("weighting mentions variables outside the "
                         "universe: " + ", ".join(sorted(unknown)))


# --- Selection over Worlds, the reference ------------------------------------

def delta_admits(w: World, prop: frozenset, pick: World) -> bool:
    """Whether a pick in prop is difference-minimal in it, in one pass over
    prop: no member differs from w by a proper subset of pick's difference."""
    members = w.members
    d = members ^ pick.members
    for x in prop:
        if members ^ x.members < d:
            return False
    return True


def delta_minimal(w: World, prop: frozenset) -> frozenset:
    """Worlds of prop whose symmetric difference with w is subset-minimal."""
    if not prop:
        raise ValueError("empty proposition")
    return frozenset(x for x in prop if delta_admits(w, prop, x))


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


# --- Selection over valuation ints, for the search ---------------------------

def _bits(mask):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def admissible_basic(vals, x, cell):
    return tuple(_bits(cell))


def admissible_delta(vals, x, cell):
    """The members whose difference with world x is subset-minimal."""
    base = vals[x]
    diffs = [(vals[j] ^ base, j) for j in _bits(cell)]
    # a difference is minimal when no smaller minimal one is a subset of it
    minimal = []
    for d in sorted({d for d, _ in diffs}, key=int.bit_count):
        if all(e & ~d for e in minimal):
            minimal.append(d)
    minimal = set(minimal)
    return tuple(j for d, j in diffs if d in minimal)


def admissible_forced(vals, x, cell):
    """The first member whose difference with world x is a subset of every
    other member's, that is, equals their intersection; such a pick is
    nearest under every weighting."""
    base = vals[x]
    common = -1
    for j in _bits(cell):
        common &= vals[j] ^ base
    for j in _bits(cell):
        if vals[j] ^ base == common:
            return (j,)
    return ()


def admissible_weighted(weighting):
    """The nearest members under the weighting, whose distances are read off
    one table of the subset sums of its weights, over the weighting's
    variables in sorted order: the universe of every frame searched with
    it."""
    table = subset_sums([weighting[v] for v in sorted(weighting, reverse=True)])

    def policy(vals, x, cell):
        base = vals[x]
        dist = [(table[vals[j] ^ base], j) for j in _bits(cell)]
        best = min(dist)[0]
        return tuple(j for d, j in dist if d == best)
    return policy


def subset_sums(weights) -> list:
    """The 2^n subset sums of a sequence of n weights: entry d is the sum of
    the weights[i] whose bit 1 << i is set in d. Built by doubling, each sum
    one addition: sums[d | 1 << i] = sums[d] + weights[i] for d < 1 << i."""
    sums = [0]
    for weight in weights:
        sums += [s + weight for s in sums]
    return sums


def _subset_sum_signature(weights):
    """Dense ranks of the 2^n subset weight-sums, in fixed subset order.
    Two weightings with equal signatures induce the same weak order on every
    comparison the semantics can observe."""
    sums = subset_sums(weights)
    order = {s: i for i, s in enumerate(sorted(set(sums)))}
    return tuple(map(order.__getitem__, sums))


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
        sig = _subset_sum_signature(values)
        if sig in seen:
            continue
        seen.add(sig)
        out.append(weighting)
    return out
