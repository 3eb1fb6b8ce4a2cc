"""Entailment, validity and satisfiability in the three regimes, with
countermodel search.

A sequent premises |- conclusion is refuted by a model and a witness world
satisfying every premise but not the conclusion, so every decision reduces to
bounded satisfiability of the goal formula premises & ~conclusion: check and
satisfiable hand their goal to one search, _find, which tries the rungs of
the regime's retry ladder in order and stops at the first model. The ladder
of basic is its frames, up to max_worlds worlds; of delta, the goal's
variables plus e, e+1 and e+2 fresh ones, e being the regime's extra
variables (the base rung); of weighted, those rungs with forced picks, which
are nearest under every weighting, then each weighting on the base rung. One
helper, _per_weighting, searches a frame once per weighting: the weighted
regime takes the first model found under any weighting, and
check_forall_weights_invalidity, rung by rung, asks for a model under every
weighting. A budget (ORACLE_WORLD_CAP worlds, models.MAX_UNIVERSE variables)
raises BudgetExceeded in a rung; _budgeted alone catches it, for _find and
for the rungs of check_forall_weights_invalidity. With the base rung cut, no
model means qualified-valid to check and unknown to satisfiable. The only
option of a decision is strict_def7, the reading of P the goal is built
with.

Two backends find falsifying utilities: a rank-constraint solver (exact for
modal depth <= 1, where preference operands denote fixed propositions) and
exhaustive weak-order enumeration (any depth). The goal's modal depth alone
chooses between them. Every countermodel is re-verified by direct evaluation
before it is reported.

Each decision compiles its goal once into a Goal: a flat program over the
goal's distinct subformulas, with its modal depth, variables, preference
atoms and backend, compiled in time linear in the distinct nodes even where
desugaring shares operands. Both backends evaluate it on int bitmasks (see
Goal), and the rank solver visits only the truth assignments of the free
preference atoms that satisfy the goal at a world.

Under one assignment, the rank constraints of a combination of picks are
satisfiable exactly when those of its pattern are: the pattern relabels the
picked worlds by first occurrence, so it keeps only which cells pick the same
world, and renaming worlds injectively keeps every cycle and strict edge. So
the rank solver decides each (cell sides, pattern, assignment) once per Goal,
in ascending order of assignments and none past the first that some pattern
of the world allows. It skips the assignments no pattern allows, and under
the others walks the combinations in order, solving only those whose pattern
is satisfiable. It finds the same ranks and model as solving every
combination would.

A basic frame is a multiset of valuations, and swapping two worlds of one
valuation maps the frame to itself: every admissibility policy reads only
the valuation of the world it picks at, and admissible_basic not even that.
So each frame is searched only up to those swaps. The rank solver searches
one row per valuation, the first world that has it, and memoises a row's
patterns per frame. The oracle takes the weak orders in enumeration order
and searches only the first of each orbit: it skips an order when an
earlier one gave the worlds of each valuation the same multiset of ranks,
single worlds included. A model at any member of an orbit, or at any row of
a valuation, maps to one at the first, which is searched earlier, so the
first model found is the one a search of every case would find.

At depth <= 1, what the rank solver reads off a frame before its pick walk
depends only on the frame's set of valuations: the operands (one denotation
over all valuations per Goal and universe, cut to the set), the atoms fixed
by existential import or equal cells and the free ones, the cells as masks
over valuations with their sides, and each row's satisfying assignments.
_cells_of derives it once per Goal and set, a mask over the 2^n valuations,
and every frame over the set maps its cells to world indices; on the power
set, where world j has valuation j, they are the same masks, so every
weighting of a rung shares one. find_countermodel_basic decides once per set
whether any frame over it can hold a model, and skips every frame over a set
that cannot. Two facts make the skip exact. Repeats only add patterns: rows,
cells and satisfying assignments stay, and every pick of a frame is still a
pick once a valuation is repeated. And the pattern in which every cell
picks a world of its own relaxes all the others, since ranks solving any
pattern's constraints give each cell the rank of its pick. So when that
pattern is orderable under no assignment satisfying some row of the set
(Goal.first_allowed, on the same memo as the pick walk), no pattern of any
frame over the set is, and the solver would return None on each of them.
The other frames are searched as before, so the first model is unchanged.

The oracle decides per mask the last atom that reads a selection cell. Once
no later atom reads a cell (Goal.later_cells), the rest of the goal depends
only on the mask the atom denotes, and the picks of each world make the atom
true there, false, or either. So the atom's masks are forced | S for every
subset S of either. Per frame, the oracle memoises whether one of them
satisfies the goal somewhere, keyed by the atom, forced, either and the slots
below the atom, and walks the atom's pick branches only when one does: the
walk, and so the first model and its selection, is unchanged.

Frames are sequences of valuation ints, as in regimes: a basic frame is a
sorted combination of valuations, the power set range(2^n). The mask
policies of regimes give a cell's admissible picks, and utilities are rank
lists over world indices: the solver's ranks, or the oracle's weak orders on
range(n), in index order. That is the worlds' name order on the power set
and on every basic frame with at most ten worlds of one valuation
(make_worlds' "#10" sorts before "#2"), so there the first model found is
the one a search over World objects by name finds. Worlds are built only in
_model, for a model about to be reported.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

from . import syntax
from .syntax import (And, Formula, Not, PrefWeak, Var, desugar, parse,
                     top_variable)
from .models import (MAX_UNIVERSE, Model, World, holds_at, make_worlds,
                     powerset_worlds)
from .orders import ComparisonAtom, bruteforce_weak_orders, \
    solve_order_constraints
from .regimes import (DEFAULT_GRID, BasicRegime, DeltaRegime, WeightClass,
                      WeightedRegime, _bits, admissible_basic,
                      admissible_delta, admissible_forced,
                      admissible_weighted, check_grid,
                      enumerate_weight_orders)
# unused in the search; benchmarks/tracer.py counts calls by these names
from .regimes import delta_minimal, forced_choice, p_nearest  # noqa: F401

# the most worlds the weak-order oracle enumerates orders on
ORACLE_WORLD_CAP = 6
# rungs of the retry ladder: the base rung, then one and two more fresh
# variables
LADDER_RUNGS = 3


class BudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class Sequent:
    premises: tuple
    conclusion: Formula

    @classmethod
    def parse(cls, text: str) -> "Sequent":
        if "|-" not in text:
            raise ValueError("sequent must contain '|-'")
        left, right = text.split("|-", 1)
        premises = tuple(parse(p) for p in left.split(";") if p.strip())
        return cls(premises, parse(right))

    def goal(self, strict_def7=False) -> Formula:
        """Core formula satisfied exactly where the sequent is refuted."""
        return _conjoin([*self.premises, Not(self.conclusion)], strict_def7)

    def __str__(self):
        left = " ; ".join(syntax.pretty(p) for p in self.premises)
        return f"{left} |- {syntax.pretty(self.conclusion)}".strip()


def _conjoin(formulas, strict_def7) -> Formula:
    """The core conjunction of the surface formulas, left-nested, with T and
    F lowered over the same variable in all of them."""
    top = top_variable(*formulas)
    return functools.reduce(And, [desugar(f, top, strict_def7)
                                  for f in formulas])


@dataclass
class Verdict:
    kind: str                  # valid | qualified-valid | invalid | sat | unsat | unknown
    fingerprint: dict
    countermodel: Model | None = None
    witness: World | None = None
    weight_robust: bool | None = None
    weighting: dict | None = None
    strategy: str | None = None
    detail: str | None = None

    def exit_code(self):
        if self.kind in ("valid", "qualified-valid", "sat"):
            return 0
        if self.kind in ("invalid", "unsat"):
            return 1
        return 2


# --- Compiled goals ------------------------------------------------------------

_VAR, _NOT, _AND, _PREF = range(4)
_OPCODES = {Var: _VAR, Not: _NOT, And: _AND, PrefWeak: _PREF}


class Goal:
    """A core goal formula compiled once per decision.

    Every distinct subformula gets a slot, children before parents, so the
    preference atoms come innermost first. A proposition is an int bitmask:
    over world indices in the oracle, over truth assignments of the free
    preference atoms in the rank solver. run() is the one evaluator both
    backends use: the caller fills the variable and preference slots, run()
    fills the Not and And slots.
    """

    def __init__(self, formula: Formula):
        self.formula = formula
        # op -> slot: equal subformulas compile to equal ops, so they share
        # a slot without comparing trees
        slots = {}
        code = []

        def compile_node(f, operands):
            kind = _OPCODES.get(type(f))
            if kind is None:
                raise TypeError(f"not a core formula: {f!r}")
            if kind == _VAR:
                op = (_VAR, f.name, None)
            elif kind == _NOT:
                op = (_NOT, operands[0], None)
            else:
                op = (kind, *operands)
            slot = slots.get(op)
            if slot is None:
                slots[op] = slot = len(code)
                code.append(op)
            return slot

        self.root = syntax.fold(formula, compile_node)
        self.code = code
        # modal depth of each slot; children come first
        depths = []
        for kind, a, b in code:
            if kind == _VAR:
                depths.append(0)
            elif kind == _NOT:
                depths.append(depths[a])
            else:
                depths.append(max(depths[a], depths[b]) + (kind == _PREF))
        self.depth = depths[self.root]
        self.backend = "solver" if self.depth <= 1 else "oracle"
        self.var_slots = [(i, op[1]) for i, op in enumerate(code)
                          if op[0] == _VAR]
        self.variables = sorted(name for _, name in self.var_slots)
        # (slot, left operand slot, right operand slot), innermost first
        self.atoms = [(i, op[1], op[2]) for i, op in enumerate(code)
                      if op[0] == _PREF]
        # whether any later atom can consume selection cells: atoms
        # comparing a formula with itself (the box/diamond shape) never
        # pick from a cell
        self.later_cells = [any(l != r for _, l, r in self.atoms[i + 1:])
                            for i in range(len(self.atoms))]
        # cell sides -> {pick pattern -> (mask of the assignments decided,
        # mask of those under which its rank constraints are satisfiable)},
        # filled by the rank solver. Frames of one goal may merge the cells
        # of two atoms or not, so the same pattern can stand for different
        # constraints under other sides.
        self.orderable = {}
        # (each atom fixed true, fixed false or free, the row's truth over
        # the goal's variables) -> the mask of the free atoms' assignments
        # satisfying the goal there, filled by the rank solver
        self.satisfying = {}
        # universe -> the slot array of the goal's operands over its power
        # set, and (universe, valuation set) -> the _Cells of the set, both
        # filled by _cells_of for the rank solver
        self.denotations = {}
        self.cells = {}
        # basic frame's set of valuations -> whether some frame over it can
        # hold a model, filled by find_countermodel_basic
        self.basic_sets = {}

    @classmethod
    def of(cls, goal) -> "Goal":
        return goal if isinstance(goal, Goal) else cls(goal)

    def slots(self, truth) -> list:
        """A slot array with each variable slot set to truth[name]."""
        values = [0] * len(self.code)
        for slot, name in self.var_slots:
            values[slot] = truth[name]
        return values

    def run(self, values, full, start=0, stop=None):
        """Evaluate the Not and And slots in [start, stop); full is the mask
        of everything. Variable and preference slots are read as set."""
        code = self.code
        for i in range(start, len(code) if stop is None else stop):
            kind, a, b = code[i]
            if kind == _NOT:
                values[i] = full ^ values[a]
            elif kind == _AND:
                values[i] = values[a] & values[b]

    def first_allowed(self, sides, pattern, assignments):
        """The lowest assignment in the mask assignments under which some
        utility gives the free atoms their truth values when cells of the
        given sides pick as pattern says, as a one-bit mask, or 0: the
        answer of every combination of picks with that pattern. Assignments
        are decided in ascending order, and none above that one."""
        decided = self.orderable.setdefault(sides, {})
        done, ok = decided.get(pattern, (0, 0))
        todo = assignments & ~done
        if todo:
            while todo and not ok & assignments & ((todo & -todo) - 1):
                low = todo & -todo
                todo ^= low
                done |= low
                if solve_order_constraints(_rank_constraints(
                        sides, low.bit_length() - 1, pattern)) is not None:
                    ok |= low
            decided[pattern] = (done, ok)
        allowed = ok & assignments
        return allowed & -allowed


def _variable_masks(universe, vals, names):
    """Each named variable's mask over the frame's world indices."""
    n = len(universe)
    masks = {}
    for name in names:
        bit = 1 << (n - 1 - universe.index(name))
        masks[name] = sum(1 << j for j, val in enumerate(vals) if val & bit)
    return masks


def _powerset(universe):
    """The power-set frame: world j has valuation j, in the order and with
    the names of powerset_worlds."""
    return range(1 << len(universe))


def _model(universe, vals, rank, selection, mode, weights):
    """The Model of a frame's rank list and of a selection keyed by (world
    index, cell mask) to pick index, with one frozenset of worlds per
    distinct cell. Its worlds are the power set for a delta model, else
    make_worlds of the valuations."""
    if mode == "delta":
        worlds = powerset_worlds(universe)
    else:
        n = len(universe)
        worlds = make_worlds(universe, [
            [v for i, v in enumerate(universe) if val >> (n - 1 - i) & 1]
            for val in vals])
    props = {}
    for _, mask in selection:
        if mask not in props:
            props[mask] = frozenset(worlds[j] for j in _bits(mask))
    return Model(universe, worlds, dict(zip(worlds, rank)),
                 {(worlds[at], props[mask]): worlds[j]
                  for (at, mask), j in selection.items()}, mode, weights)


def _assignment_masks(k):
    """For each of k free atoms, the mask over the 2^k assignments (numbered
    in itertools.product((False, True), repeat=k) order) where it is true."""
    size = 1 << k
    masks = []
    for i in range(k):
        half = 1 << (k - 1 - i)
        mask, width = ((1 << half) - 1) << half, 2 * half
        while width < size:
            mask |= mask << width
            width *= 2
        masks.append(mask)
    return masks


def _pattern(combo):
    """The picks of a combination relabelled by first occurrence: which
    cells pick the same world, and nothing else."""
    return tuple(map(list(dict.fromkeys(combo)).index, combo))


def _rank_constraints(sides, t, combo):
    """The comparison atoms that give each free atom its truth value in
    assignment t, the first atom being its highest bit: left pick >= right
    pick where true, else right pick > left pick."""
    k = len(sides)
    return [ComparisonAtom(combo[li], combo[ri], False)
            if t >> (k - 1 - i) & 1
            else ComparisonAtom(combo[ri], combo[li], True)
            for i, (li, ri) in enumerate(sides)]


# --- Search over a fixed world frame -----------------------------------------

def _orbit_orders(vals):
    """The rank lists over world indices of the weak orders of
    bruteforce_weak_orders(range(n)), in its order, that are the first of
    their orbit under permutations of same-valuation worlds: those that give
    the worlds of each valuation a multiset of ranks no earlier order gave
    them. Every valuation counts, single worlds too."""
    n = len(vals)
    ranks = ([order[j] for j in range(n)]
             for order in bruteforce_weak_orders(range(n)))
    if len(set(vals)) == n:
        # every orbit is one order, as in every delta frame: keys would
        # only cost time
        yield from ranks
        return
    seen = set()
    for rank in ranks:
        # the sorted (valuation, rank) pairs: each valuation's multiset
        key = tuple(sorted(zip(vals, rank)))
        if key not in seen:
            seen.add(key)
            yield rank


class _Cells(NamedTuple):
    """What a depth <= 1 goal reads off a frame's set of valuations, which
    repeating a valuation does not change."""
    cells: tuple        # the free atoms' distinct operands, over valuations
    sides: tuple        # each free atom's (left, right) index into cells
    satisfying: dict    # valuation -> mask of the free atoms' assignments
                        # satisfying the goal at a world of that valuation
    assignments: int    # the union of the satisfying masks


def _cells_of(goal, universe, valset):
    """The _Cells of a set of valuations of the universe, given as a mask
    over its 2^n valuations; derived once per goal and set."""
    key = (universe, valset)
    got = goal.cells.get(key)
    if got is not None:
        return got
    den = goal.denotations.get(universe)
    if den is None:
        # operands of a depth <= 1 goal contain no atom, so the atom slots
        # may stay 0 while the operands are evaluated over the valuations
        every = _powerset(universe)
        den = goal.denotations[universe] = goal.slots(
            _variable_masks(universe, every, goal.variables))
        goal.run(den, (1 << len(every)) - 1)
    fixed = {}
    free = []
    for slot, l, r in goal.atoms:
        left, right = den[l] & valset, den[r] & valset
        if not left or not right:
            fixed[slot] = False      # existential import
        elif left == right:
            fixed[slot] = True       # one cell on both sides
        else:
            free.append((slot, left, right))
    k = len(free)
    everything = (1 << (1 << k)) - 1
    truth = {}
    for (slot, _, _), mask in zip(free, _assignment_masks(k)):
        truth[slot] = mask
    for slot, value in fixed.items():
        truth[slot] = everything if value else 0
    cells = []
    for _, left, right in free:
        for cell in (left, right):
            if cell not in cells:
                cells.append(cell)
    sides = tuple((cells.index(left), cells.index(right))
                  for _, left, right in free)
    status = tuple(fixed.get(slot) for slot, _, _ in goal.atoms)
    n = len(universe)
    var_bits = [(name, 1 << (n - 1 - universe.index(name)))
                for name in goal.variables]
    satisfying = {}
    assignments = 0
    for val in _bits(valset):
        # the row's truth over the goal's variables
        row = tuple(val & bit != 0 for _, bit in var_bits)
        mask = goal.satisfying.get((status, row))
        if mask is None:
            values = goal.slots({name: everything if true else 0
                                 for (name, _), true in zip(var_bits, row)})
            for slot, value in truth.items():
                values[slot] = value
            goal.run(values, everything)
            mask = goal.satisfying[(status, row)] = values[goal.root]
        satisfying[val] = mask
        assignments |= mask
    got = goal.cells[key] = _Cells(tuple(cells), sides, satisfying,
                                   assignments)
    return got


def _can_hold(goal, universe, valset):
    """Whether some basic frame over the set of valuations, repeating them
    any number of times, can hold a model of the goal: only if some row's
    satisfying assignment lets every cell pick a world of its own, whose
    rank constraints relax those of every other pattern."""
    structure = _cells_of(goal, universe, valset)
    return goal.first_allowed(structure.sides,
                              tuple(range(len(structure.cells))),
                              structure.assignments) != 0


def _solver_search(universe, vals, goal, admissible, mode, weights=None):
    """Depth <= 1 backend: preference operands denote fixed propositions, so
    a falsifying utility is a solution of rank comparisons among the picked
    worlds of the witness row."""
    if vals == _powerset(universe):
        # world j has valuation j, so valuation masks are world masks
        structure = _cells_of(goal, universe, (1 << len(vals)) - 1)
        cells = structure.cells
        rows = enumerate(vals)
    else:
        # valuation -> the mask of the worlds that have it, in frame order
        worlds_of = {}
        for j, val in enumerate(vals):
            worlds_of[val] = worlds_of.get(val, 0) | 1 << j
        structure = _cells_of(goal, universe,
                              sum(1 << val for val in worlds_of))
        cells = tuple(sum(worlds_of[val] for val in _bits(cell))
                      for cell in structure.cells)
        # one row per valuation, the first world that has it
        rows = [((mask & -mask).bit_length() - 1, val)
                for val, mask in worlds_of.items()]
    sides = structure.sides
    # a row's pick-index lists -> its set of patterns; in a basic frame every
    # row has the same lists
    patterns_of = {}
    for x, val in rows:
        satisfying = structure.satisfying[val]
        if not satisfying:
            continue
        pick_lists = tuple(admissible(vals, x, cell) for cell in cells)
        if not all(pick_lists):
            continue
        patterns = patterns_of.get(pick_lists)
        if patterns is None:
            patterns = patterns_of[pick_lists] = set(
                map(_pattern, itertools.product(*pick_lists)))
        remaining = satisfying
        while remaining:
            # the lowest remaining assignment some pattern allows (best),
            # and each pattern's lowest up to the best found before it
            best, limit, firsts = 0, remaining, {}
            for pattern in patterns:
                first = firsts[pattern] = goal.first_allowed(sides, pattern,
                                                             limit)
                if first:
                    best, limit = first, remaining & ((first << 1) - 1)
            if not best:
                break
            remaining &= ~((best << 1) - 1)
            t = best.bit_length() - 1
            for combo in itertools.product(*pick_lists):
                if firsts[_pattern(combo)] != best:
                    continue
                ranks = solve_order_constraints(
                    _rank_constraints(sides, t, combo))
                model = _model(universe, vals,
                               [ranks.get(j, 0) for j in range(len(vals))],
                               {(x, cell): j for cell, j in zip(cells, combo)},
                               mode, weights)
                if holds_at(model, goal.formula, model.worlds[x]):
                    return model, model.worlds[x]
    return None


def _submasks(mask):
    """Every mask whose bits are a subset of mask's, mask first."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def _oracle_search(universe, vals, goal, admissible, mode, weights=None):
    """Any-depth backend: enumerate weak orders on the worlds, then resolve
    preference atoms stratum by stratum (innermost operands first), branching
    over admissible picks for each selection cell as it arises."""
    n = len(vals)
    if n > ORACLE_WORLD_CAP:
        raise BudgetExceeded(
            f"{n} worlds exceeds oracle cap {ORACLE_WORLD_CAP}")
    full = (1 << n) - 1
    atoms = goal.atoms
    values = goal.slots(_variable_masks(universe, vals, goal.variables))
    admissible_picks = {}
    # (atom, forced mask, either mask, slots below the atom) -> whether some
    # mask the atom can take there satisfies the goal somewhere
    rests = {}

    def picks(j, mask):
        """Indices of the admissible picks at world j from the cell mask;
        the policies are pure, so each cell is asked once per frame."""
        got = admissible_picks.get((j, mask))
        if got is None:
            got = admissible_picks[(j, mask)] = admissible(vals, j, mask)
        return got

    # the selection under construction maps (world index, cell mask) to the
    # index of the picked world
    def finish(rank, selection):
        goal.run(values, full, atoms[-1][0] + 1 if atoms else 0)
        model = None
        for j in _bits(values[goal.root]):
            if model is None:
                model = _model(universe, vals, rank, selection, mode, weights)
            world = model.worlds[j]
            if holds_at(model, goal.formula, world):  # re-verification
                return model, world
        return None

    def rest_holds(i, mask):
        """Whether the goal's root is nonempty when atom i denotes mask and
        every later atom compares a slot with itself."""
        slot = atoms[i][0]
        values[slot] = mask
        for next_slot, l, _ in atoms[i + 1:]:
            goal.run(values, full, slot + 1, next_slot)
            values[next_slot] = full if values[l] else 0
            slot = next_slot
        goal.run(values, full, slot + 1)
        return values[goal.root] != 0

    def assign_atom(i, rank, selection):
        if i == len(atoms):
            return finish(rank, selection)
        slot, l, r = atoms[i]
        # operands only read slots below this atom, and deeper atoms only
        # write slots above it
        goal.run(values, full, atoms[i - 1][0] + 1 if i else 0, slot)
        left, right = values[l], values[r]
        if not left or not right or left == right:
            # existential import, or one cell read on both sides
            values[slot] = full if (left and left == right) else 0
            return assign_atom(i + 1, rank, selection)
        later = goal.later_cells[i]
        if not later:
            # no later atom reads a cell, so the rest of the goal depends
            # only on this atom's mask: forced | S for a subset S of either
            forced = either = 0
            for j in range(n):
                lefts, rights = [
                    (selection[cell],) if cell in selection else picks(*cell)
                    for cell in ((j, left), (j, right))]
                truths = {rank[xl] >= rank[xr]
                          for xl in lefts for xr in rights}
                if not truths:
                    return None
                if len(truths) == 2:
                    either |= 1 << j
                elif True in truths:
                    forced |= 1 << j
            key = (i, forced, either, tuple(values[:slot]))
            holds = rests.get(key)
            if holds is None:
                holds = rests[key] = any(rest_holds(i, forced | sub)
                                         for sub in _submasks(either))
            if not holds:
                return None

        def per_world(j, members):
            if j == n:
                values[slot] = members
                return assign_atom(i + 1, rank, selection)
            picked = []
            for cell in ((j, left), (j, right)):
                if cell in selection:
                    picked.append(((selection[cell],), False))
                else:
                    picked.append((picks(*cell), True))
            (lefts, new_l), (rights, new_r) = picked
            # equal-rank picks are interchangeable: dedupe branches by rank,
            # or by truth value alone once no later atom can reuse a cell
            seen = set()
            for xl in lefts:
                for xr in rights:
                    ranks = (rank[xl], rank[xr])
                    key = ranks if later else ranks[0] >= ranks[1]
                    if key in seen:
                        continue
                    seen.add(key)
                    if new_l:
                        selection[(j, left)] = xl
                    if new_r:
                        selection[(j, right)] = xr
                    found = per_world(j + 1, members | (1 << j)
                                      if ranks[0] >= ranks[1] else members)
                    if new_l:
                        del selection[(j, left)]
                    if new_r:
                        del selection[(j, right)]
                    if found:
                        return found
            return None

        return per_world(0, 0)

    for rank in _orbit_orders(vals):
        found = assign_atom(0, rank, {})
        if found:
            return found
    return None


def _search_worlds(universe, vals, goal, admissible, mode, weights=None):
    search = _solver_search if goal.backend == "solver" else _oracle_search
    return search(universe, vals, goal, admissible, mode, weights)


# --- Regime searchers --------------------------------------------------------

def find_countermodel_basic(goal, max_worlds):
    """Search basic models: any world multiset over the goal's variables (up
    to max_worlds worlds, valuations may repeat), any selection, any
    utility."""
    goal = Goal.of(goal)
    universe = tuple(goal.variables)
    solver = goal.backend == "solver"
    for count in range(1, max_worlds + 1):
        for vals in itertools.combinations_with_replacement(
                _powerset(universe), count):
            if solver:
                valset = frozenset(vals)
                can_hold = goal.basic_sets.get(valset)
                if can_hold is None:
                    can_hold = goal.basic_sets[valset] = _can_hold(
                        goal, universe, sum(1 << val for val in valset))
                if not can_hold:
                    continue
            found = _search_worlds(universe, vals, goal, admissible_basic,
                                   "basic")
            if found:
                return found
    return None


def _fresh_variables(base, count):
    out = []
    i = 0
    while len(out) < count:
        name = f"_x{i}"
        if name not in base:
            out.append(name)
        i += 1
    return out


def _delta_universe(base_vars, extra):
    universe = sorted(set(base_vars) | set(_fresh_variables(base_vars, extra)))
    if len(universe) > MAX_UNIVERSE:
        raise BudgetExceeded(
            f"universe of {len(universe)} variables exceeds cap "
            f"{MAX_UNIVERSE}")
    return tuple(universe)


def find_countermodel_delta(goal, extra_vars=0, admissible=admissible_delta):
    """Search delta models over the goal's variables plus extra_vars fresh
    ones (power-set worlds, delta-based selection, free utility)."""
    goal = Goal.of(goal)
    universe = _delta_universe(goal.variables, extra_vars)
    return _search_worlds(universe, _powerset(universe), goal, admissible,
                          "delta")


def _per_weighting(goal, universe, weightings, every=False):
    """Search the power-set frame of the universe once per weighting, with
    the weighting's nearest picks. Returns the first (model, world) found,
    or with every=True that of the first weighting when every weighting has
    one, else None."""
    vals = _powerset(universe)
    first = None
    for weighting in weightings:
        found = _search_worlds(universe, vals, goal,
                               admissible_weighted(weighting), "delta",
                               weighting)
        if found and not every:
            return found
        if every and not found:
            return None
        first = first or found
    return first


# --- The retry ladder --------------------------------------------------------

def _budgeted(search, *args):
    """(search(*args), True), or (None, False) when a budget cuts it."""
    try:
        return search(*args), True
    except BudgetExceeded:
        return None, False


def _delta_ladder(goal, base_extra, admissible):
    """Search the delta rungs of the retry ladder in order. Returns the first
    (model, world) found or None, and the extra-variable counts of the rungs
    searched to the end."""
    searched = []
    for extra in range(base_extra, base_extra + LADDER_RUNGS):
        found, done = _budgeted(find_countermodel_delta, goal, extra,
                                admissible)
        if done:
            searched.append(extra)
        if found:
            return found, searched
    return None, searched


class _Search(NamedTuple):
    found: tuple | None     # the first (model, world) satisfying the goal
    fingerprint: dict       # the bounds searched
    fields: dict            # strategy, weight_robust, weighting of the model
    complete: bool          # whether the base rung was searched to the end
    bounded: bool = False   # a complete search proves only its bound
    # the note of a verdict whose base rung a budget cut
    cut_note: str = "budget exceeded before the base search"

    def verdict(self, found, none, cut) -> Verdict:
        """A verdict of kind found if a model was found, else of kind cut if
        a budget cut the base rung, else of kind none."""
        if self.found:
            return Verdict(found, self.fingerprint, *self.found, **self.fields)
        if not self.complete:
            return Verdict(cut, self.fingerprint, detail=self.cut_note)
        return Verdict(none, self.fingerprint)


def _find(goal, regime) -> _Search:
    """Search the regime's retry ladder for a model and a world satisfying
    the goal, going on to the next rung when a budget cuts one."""
    if isinstance(regime, BasicRegime):
        found, complete = _budgeted(find_countermodel_basic, goal,
                                    regime.max_worlds)
        # no small-model bound is known for the basic regime. Frames come
        # in ascending size, and only the oracle cap cuts one, so a cut
        # search has searched every frame up to the cap.
        return _Search(found, {"regime": "basic",
                               "max_worlds": regime.max_worlds},
                       {}, complete, bounded=True,
                       cut_note=f"frames of up to {ORACLE_WORLD_CAP} worlds "
                                f"searched; the oracle cap of "
                                f"{ORACLE_WORLD_CAP} worlds cut the larger "
                                f"frames")
    if isinstance(regime, DeltaRegime):
        base = regime.extra_variables
        found, searched = _delta_ladder(goal, base, admissible_delta)
        return _Search(found, {"regime": "delta", "extra_vars": base,
                               "extras_searched": searched},
                       {}, base in searched)
    if not isinstance(regime, WeightedRegime):
        raise TypeError(f"unknown regime {regime!r}")
    fingerprint = {"regime": "weighted", "class": str(regime.weight_class),
                   "grid": list(regime.grid),
                   "extra_vars": regime.extra_variables}
    universe, complete = _budgeted(
        _delta_universe, set(goal.variables) | regime.weight_class.variables(),
        regime.extra_variables)
    if not complete:
        return _Search(None, fingerprint, {}, False)
    weightings = enumerate_weight_orders(universe, regime.weight_class,
                                         regime.grid)
    if not weightings:
        raise ValueError("weight class unsatisfiable on the grid")
    fingerprint["weightings"] = len(weightings)
    # a forced-pick model satisfies the goal under every weighting
    found, _ = _delta_ladder(goal, regime.extra_variables, admissible_forced)
    if found:
        return _Search(found, fingerprint,
                       {"weight_robust": True, "strategy": "forced"}, True)
    found, complete = _budgeted(_per_weighting, goal, universe, weightings)
    fields = {"weight_robust": False, "weighting": found[0].weights,
              "strategy": "per-weighting"} if found else {}
    return _Search(found, fingerprint, fields, complete)


# --- Verdict-producing operations --------------------------------------------

def check(sequent: Sequent, regime, strict_def7=False) -> Verdict:
    """Decide the sequent in the given regime: a model and a world satisfying
    its goal refute it."""
    search = _find(Goal(sequent.goal(strict_def7)), regime)
    return search.verdict("invalid", "qualified-valid" if search.bounded
                          else "valid", "qualified-valid")


def satisfiable(formulas, regime, strict_def7=False) -> Verdict:
    """Search for a model of the regime and a world satisfying every given
    surface formula."""
    if not formulas:
        raise ValueError("satisfiable needs at least one formula")
    goal = Goal(_conjoin(formulas, strict_def7))
    return _find(goal, regime).verdict("sat", "unsat", "unknown")


def check_forall_weights_invalidity(sequent: Sequent, grid=None, extra_vars=0,
                                    strict_def7=False) -> Verdict:
    """Decide whether the sequent fails under *every* weighting: first via a
    single forced-pick countermodel, then (fallback) rung by rung of the
    retry ladder, one countermodel per weight-order representative of that
    rung's universe."""
    grid = DEFAULT_GRID if grid is None else check_grid(grid)
    goal = Goal(sequent.goal(strict_def7))
    found, _ = _delta_ladder(goal, extra_vars, admissible_forced)
    fingerprint = {"regime": "forall-weights", "grid": list(grid),
                   "extra_vars": extra_vars}
    if found:
        return Verdict("invalid", fingerprint, *found, weight_robust=True,
                       strategy="forced")
    for extra in range(extra_vars, extra_vars + LADDER_RUNGS):
        universe, fits = _budgeted(_delta_universe, goal.variables, extra)
        if not fits:
            continue
        weightings = enumerate_weight_orders(universe, WeightClass(), grid)
        fingerprint["weightings"] = len(weightings)
        found, _ = _budgeted(_per_weighting, goal, universe, weightings, True)
        if found:
            return Verdict("invalid", fingerprint, *found,
                           weight_robust=False, strategy="per-weighting")
    return Verdict("unknown", fingerprint,
                   detail="no rung of the ladder has a countermodel for "
                          "every weighting")
