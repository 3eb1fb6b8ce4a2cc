"""Worlds, propositions, models, and the denotation function.

A world is a named valuation: the set of variables true at it. A proposition
is a set of worlds. Models bundle worlds, a utility ranking, and a partial
selection table keyed by (world, proposition) pairs; selection cells are
keyed by proposition *value*, so syntactically distinct operands with equal
denotations share one cell.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .syntax import Formula, Var, Not, And, PrefWeak

MAX_UNIVERSE = 12


class World(NamedTuple):
    """A named valuation. name is unique within a model; members is the set
    of variables true at the world. A tuple, so it hashes in C: selection
    cells are keyed by (world, proposition)."""
    name: str
    members: frozenset

    def __repr__(self):
        return f"World({self.name})"


def bitstring(universe, members) -> str:
    return "".join("1" if v in members else "0" for v in universe)


def world_from_members(universe, members) -> World:
    members = frozenset(members)
    return World(bitstring(universe, members), members)


def make_worlds(universe, valuations) -> tuple[World, ...]:
    """Build worlds from an iterable of valuations, disambiguating repeated
    valuations with a #k name suffix (basic models may repeat valuations)."""
    counts = {}
    out = []
    for val in valuations:
        val = frozenset(val)
        base = bitstring(universe, val)
        k = counts.get(base, 0)
        counts[base] = k + 1
        out.append(World(base if k == 0 else f"{base}#{k}", val))
    return tuple(out)


def powerset_worlds(universe) -> tuple[World, ...]:
    """All 2^n worlds over a variable universe, in bit-string counting order
    (sorted universe = bit positions, leftmost = first variable)."""
    universe = tuple(universe)
    if not universe:
        raise ValueError("universe must be nonempty")
    if len(universe) > MAX_UNIVERSE:
        raise ValueError(
            f"universe of {len(universe)} variables exceeds cap {MAX_UNIVERSE}")
    worlds = []
    for bits in itertools.product("01", repeat=len(universe)):
        members = frozenset(v for v, b in zip(universe, bits) if b == "1")
        worlds.append(World("".join(bits), members))
    return tuple(worlds)


def symmetric_difference(w0: World, w1: World) -> frozenset:
    return w0.members ^ w1.members


class MissingSelectionError(Exception):
    """Raised when evaluation needs an undefined selection cell."""

    def __init__(self, world, proposition):
        self.world = world
        self.proposition = proposition
        names = ",".join(sorted(w.name for w in proposition))
        super().__init__(
            f"no selection defined at world {world.name} "
            f"for proposition {{{names}}}")


@dataclass
class Model:
    """A model: worlds with utilities, truth by membership, and a partial
    selection table. mode is 'basic' or 'delta'; delta models range over the
    full power set of the universe with delta-based selection.

    Treat instances as immutable after validate(); evaluation never mutates
    the model.
    """
    universe: tuple
    worlds: tuple
    utility: dict          # World -> int rank
    selection: dict        # (World, frozenset[World]) -> World
    mode: str = "basic"
    weights: dict | None = None   # variable -> positive weight, optional

    def __post_init__(self):
        self.universe = tuple(self.universe)
        self.worlds = tuple(self.worlds)
        self._by_name = {w.name: w for w in self.worlds}

    def world(self, name: str) -> World:
        return self._by_name[name]


class Evaluator:
    """Shared-memo evaluator for core formulas over one model.

    A formula is an int mask over the indices of model.worlds, evaluated
    only at the worlds asked for: And reads its right operand where its left
    one holds, and a preference node denotes its operands everywhere but
    reads its cells only at the asked worlds. Nodes are memoised by id.

    selector, if given, is called as selector(world, proposition) to supply a
    pick for a missing cell; it may record its choice. Without a selector,
    missing cells raise MissingSelectionError. The order of the selector
    calls is not part of the contract.
    """

    def __init__(self, model: Model, selector=None):
        self.model = model
        self.selector = selector
        self._index = {w: j for j, w in enumerate(model.worlds)}
        self._vars = {}      # variable -> mask of the worlds it is true at
        for w, j in self._index.items():
            for v in w.members:
                self._vars[v] = self._vars.get(v, 0) | 1 << j
        self._props = {}     # mask -> frozenset of its worlds
        # id(node) -> (node, mask asked at, mask true at): holding the node
        # keeps its id from being reused while the evaluator lives
        self._memo = {}

    def _select(self, w, prop):
        try:
            return self.model.selection[(w, prop)]
        except KeyError:
            if self.selector is None:
                raise MissingSelectionError(w, prop) from None
            return self.selector(w, prop)

    def _mask(self, f: Formula, want: int) -> int:
        """The mask of the worlds in want at which f holds."""
        if isinstance(f, Var):
            return self._vars.get(f.name, 0) & want
        _, asked, true = self._memo.get(id(f), (f, 0, 0))
        todo = want & ~asked
        if todo:
            if isinstance(f, Not):
                true |= todo & ~self._mask(f.child, todo)
            elif isinstance(f, And):
                true |= self._mask(f.right, self._mask(f.left, todo))
            elif isinstance(f, PrefWeak):
                a, b = self.denote(f.left), self.denote(f.right)
                if a and a == b:
                    true |= todo  # both sides read the same selection cell
                elif a and b:     # an empty side is existential import
                    u = self.model.utility
                    for w, j in self._index.items():
                        if todo >> j & 1 and u[self._select(w, a)] >= \
                                u[self._select(w, b)]:
                            true |= 1 << j
            else:
                raise TypeError(f"not a core formula: {f!r}")
            self._memo[id(f)] = (f, asked | todo, true)
        return true & want

    def holds_at(self, f: Formula, w: World) -> bool:
        return bool(self._mask(f, 1 << self._index[w]))

    def denote(self, f: Formula) -> frozenset:
        mask = self._mask(f, (1 << len(self._index)) - 1)
        prop = self._props.get(mask)
        if prop is None:
            prop = self._props[mask] = frozenset(
                w for w, j in self._index.items() if mask >> j & 1)
        return prop


def denote(model: Model, f: Formula) -> frozenset:
    """The proposition expressed by core formula f in model."""
    return Evaluator(model).denote(f)


def holds_at(model: Model, f: Formula, w: World) -> bool:
    """Membership of w in the denotation of f; only consults selection cells
    reachable from w (plus all cells of nested preference operands)."""
    return Evaluator(model).holds_at(f, w)


def validate_model(model: Model) -> list[str]:
    """Check every model invariant; returns a list of violation messages
    (empty = ok).

    The universe must not repeat a variable. Worlds need unique names,
    declared variables and a utility rank. Each selection cell must sit at a
    known world, name a nonempty set of known worlds and pick one of them. A
    delta model ranges over the full power set of its universe and picks
    difference-minimally (regimes.delta_admits).
    Weights, when given, must be positive on exactly the variables of the
    universe (regimes.check_weighting), and every pick must then be nearest
    under them (regimes.p_nearest). Each cell is checked in time linear in
    its size, so the check is linear in the size of the table.
    """
    from .regimes import check_weighting, delta_admits, p_nearest

    problems = []
    if not model.worlds:
        problems.append("model has no worlds")
        return problems
    universe = model.universe
    declared = set(universe)
    if len(declared) != len(universe):
        problems.append("universe repeats variables: " + ", ".join(
            sorted({v for v in universe if universe.count(v) > 1})))
    names = [w.name for w in model.worlds]
    if len(set(names)) != len(names):
        problems.append("world names are not unique")
    # weights are read only on cells of known worlds over declared variables
    weights = model.weights
    for w in model.worlds:
        if not w.members <= declared:
            problems.append(f"world {w.name} mentions undeclared variables")
            weights = None
    for w in model.worlds:
        if w not in model.utility:
            problems.append(f"no utility rank for world {w.name}")
    delta = model.mode == "delta"
    weight_problems = []
    if model.weights is not None:
        try:
            check_weighting(model.weights, universe)
        except ValueError as exc:
            weight_problems.append(f"invalid weights: {exc}")
            weights = None
    delta_problems = []
    world_set = set(model.worlds)
    for (w, prop), pick in model.selection.items():
        known = w in world_set
        if not known:
            problems.append(f"selection at unknown world {w.name}")
        if not prop:
            problems.append(f"selection cell at {w.name} has empty proposition")
            continue
        if not prop <= world_set:
            known = False
            problems.append(
                f"selection cell at {w.name} mentions unknown worlds")
        if pick not in prop:
            problems.append(
                f"selection at {w.name} picks {pick.name}, which is outside "
                "the cell's proposition")
            continue
        if delta and not delta_admits(w, prop, pick):
            delta_problems.append(
                f"selection at {w.name} is not delta-based: pick "
                f"{pick.name} is not difference-minimal in its cell")
        if weights is not None and known and \
                pick not in p_nearest(weights, w, prop):
            weight_problems.append(
                f"selection at {w.name} is not nearest under the weights: "
                f"pick {pick.name} is not at minimal weighted distance in "
                "its cell")
    if delta:
        if world_set != set(powerset_worlds(universe)):
            problems.append(
                "delta model's worlds are not the full power set of the "
                "universe")
        problems.extend(delta_problems)
    elif model.mode != "basic":
        problems.append(f"unknown mode {model.mode!r}")
    problems.extend(weight_problems)
    return problems
