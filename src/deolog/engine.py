"""Entailment, validity and satisfiability in the three regimes, with
countermodel search.

A sequent premises |- conclusion is refuted by a model and a witness world
satisfying every premise but not the conclusion, so every decision reduces to
bounded satisfiability of the goal formula premises & ~conclusion, balanced
with the first half of the conjuncts, rounded up, on the left, so that n
conjuncts add at most ceil(log2(n)) levels to the tallest (_conjoin); check and
satisfiable hand their goal to one search, _find, which tries the rungs of the
regime's retry ladder in order and stops at the first model. The ladder of
basic is its frames, up to max_worlds worlds; of delta, the goal's variables
plus e, e+1 and e+2 fresh ones, e being the regime's extra variables (the base
rung); of weighted, those rungs with forced picks, which are nearest under
every weighting, then each weighting on the base rung. _ladder is the one loop
over rungs. One helper, _weighted, runs both weighted decisions: it searches
the forced rungs before any weighting is enumerated, then rung by rung the
power-set frame once per weighting of the rung's universe. The weighted regime
searches the base rung for the first model under any weighting, and
check_forall_weights_invalidity every rung for a model under every weighting;
both fingerprints, like delta's, name the rungs searched to the end, with the
number of weightings of each. A budget (ORACLE_WORLD_CAP worlds,
models.MAX_UNIVERSE variables, regimes.MAX_WEIGHT_CANDIDATES candidate
weightings) raises BudgetExceeded in a rung, naming the number over the cap;
_budgeted alone catches it, and its message is the note of a cut search (a
ladder's first cut rung's). With the base rung cut, or in basic, whose frames
stop at max_worlds with no small-model bound known, no model means
qualified-valid to check and unknown to satisfiable. The only option of a
decision is strict_def7, the reading of P the goal is built with.

At modal depth <= 1 the ladder is one rung, the base rung, in every regime.
Every cell of such a goal is a Boolean combination of the goal's variables,
so a world's fresh variables never move it into or out of a cell. A delta,
forced or nearest pick at the witness x agrees with x on every fresh
variable: flipping one back keeps the pick in its cell and strictly shrinks
its difference from x, or its weight. So a model on an upper rung projects
onto the goal's variables (the utility of a valuation being that of its
extension by x's fresh part, the picks at x projected) as a model on the
base rung in which every atom has the same value at x, and the upper rungs
hold no model the base rung lacks. A depth <= 1 delta valid therefore holds
over every universe, not only up to two fresh variables.

Two backends find falsifying utilities: a rank-constraint solver (exact for
modal depth <= 1, where preference operands denote fixed propositions) and
exhaustive weak-order enumeration (any depth). The goal's modal depth alone
chooses between them. Both search world indices only; _search_worlds alone
builds the model and re-verifies it by direct evaluation, and a model that
fails raises AssertionError: a fault of the search, never a verdict.

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
and per row takes from Goal.allowed, for each pattern, the mask of the row's
satisfying assignments it allows. It walks the assignments some pattern
allows in ascending order, and under each the combinations in order, solving
only those whose pattern allows it. It finds the same ranks and model as
solving every combination would.

A basic frame is a multiset of valuations, and swapping two worlds of one
valuation maps the frame to itself: every admissibility policy reads only
the valuation of the world it picks at, and admissible_basic not even that.
So the oracle searches each frame only up to those swaps. It takes the weak
orders in enumeration order and searches only the first of each orbit: it
skips an order when an earlier one gave the worlds of each valuation the
same multiset of ranks, single worlds included. A model at any member of an
orbit maps to one at the first, which is searched earlier, so the first
model found is the one a search of every order would find. Those orbit
orders depend only on which worlds share a valuation, the frame's _pattern,
so Goal.orbits draws them once per pattern and decision, and only as far as
some frame's search reads them: a first model costs the orders before it.

At depth <= 1, what the rank solver reads off a frame before its pick walk
depends only on the frame's set of valuations: the operands (one denotation
over all valuations per Goal and universe, cut to the set), the atoms fixed
by existential import or equal cells and the free ones, the cells as masks
over valuations with their sides, and each row's satisfying assignments.
_cells_of derives it once per Goal and set, a mask over the 2^n valuations,
and every frame over the set maps its cells to world indices, so every
weighting of a rung shares the power set's. find_countermodel_basic decides
once per set whether any frame over it can hold a model, and skips every
frame over a set that cannot. Two facts make the skip exact. Repeats only
add patterns: rows, cells and satisfying assignments stay, and every pick of
a frame is still a pick once a valuation is repeated. And the pattern in
which every cell picks a world of its own relaxes all the others, since
ranks solving any pattern's constraints give each cell the rank of its pick.
So when that pattern is orderable under no assignment satisfying some row of
the set (Goal.allowed, on the same memo as the pick walk), no pattern of any
frame over the set is, and the solver would return None on each of them. The
other frames are searched as before, so the first model is unchanged. Frames
of 2^n worlds decide every set, so once none of those sets can hold a model,
the search stops.

The oracle decides per mask the last atom that reads a selection cell,
Goal.last_reader. No later atom reads a cell, so the rest of the goal depends
only on the mask the atom denotes, and the picks of each world make the atom
true there, false, or either. So the atom's masks are forced | S for every
subset S of either. Per frame, the oracle memoises whether one of them
satisfies the goal somewhere, keyed by forced, either and the slots below the
atom, deciding each mask by the walk from the next atom, which reads no cell.
It walks the atom's pick branches only when one does, so the first model and
its selection are unchanged. With no such atom no walk reads a rank, so the
first order of a frame decides it.

A world of any model gives each variable and preference slot a truth value,
and a preference atom with an operand that no assignment satisfies is false
at every world: the operand denotes the empty set in every model
(existential import). So when no truth assignment to those slots, such
atoms false, satisfies the root (Goal.skeleton_holds), the oracle refutes
every frame after its cap check, which keeps every cut, and a basic search
at depth <= 1, which no budget cuts, searches no frame.

Frames are sequences of valuation ints, as in regimes: a basic frame is a
sorted combination of valuations, the power set range(2^n). The mask
policies of regimes give a cell's admissible picks, and utilities are rank
lists over world indices: the solver's ranks, or the oracle's weak orders on
range(n), in index order. That is the worlds' name order on the power set
and on every basic frame with at most ten worlds of one valuation
(make_worlds' "#10" sorts before "#2"), so there the first model found is
the one a search over World objects by name finds. Worlds are built only in
_search_worlds, by make_worlds: on the power set, those of powerset_worlds.
"""

from __future__ import annotations

import copy
import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

from . import syntax
from .syntax import (And, Formula, Not, ParseError, PrefWeak, Var, desugar,
                     parse, top_variable)
from .models import MAX_UNIVERSE, Model, World, holds_at, make_worlds
from .orders import ComparisonAtom, bruteforce_weak_orders, \
    solve_order_constraints
from .regimes import (DEFAULT_GRID, MAX_WEIGHT_CANDIDATES, BasicRegime,
                      DeltaRegime, WeightedRegime, _bits, admissible_basic,
                      admissible_delta, admissible_forced,
                      admissible_weighted, enumerate_weight_orders)
# unused in the search; benchmarks/tracer.py counts calls by these names
from .regimes import delta_minimal, forced_choice, p_nearest  # noqa: F401

# the most worlds the weak-order oracle enumerates orders on
ORACLE_WORLD_CAP = 6
# the most atoms a propositional skeleton is evaluated over: its masks have
# 2^k bits (Goal.skeleton_holds)
MAX_TAUTOLOGY_ATOMS = 20
# rungs of the retry ladder at modal depth >= 2: the base rung, then one and
# two more fresh variables
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
        return cls(tuple(parse_formulas(left)),
                   _parse_at(right, len(left) + len("|-")))

    def goal(self, strict_def7=False) -> Formula:
        """Core formula satisfied exactly where the sequent is refuted."""
        return _conjoin([*self.premises, Not(self.conclusion)], strict_def7)

    def __str__(self):
        left = " ; ".join(syntax.pretty(p) for p in self.premises)
        return f"{left} |- {syntax.pretty(self.conclusion)}".strip()


def parse_formulas(text: str) -> list:
    """The formulas of the ';'-separated list text; blank items are skipped.
    A ParseError's offset counts from the start of text."""
    formulas = []
    start = 0
    for item in text.split(";"):
        if item.strip():
            formulas.append(_parse_at(item, start))
        start += len(item) + len(";")
    return formulas


def _parse_at(text, start):
    """parse(text), where text starts at offset start of the input."""
    try:
        return parse(text)
    except ParseError as exc:
        raise exc.shifted(start) from None


def _conjoin(formulas, strict_def7) -> Formula:
    """The core conjunction of the surface formulas, balanced, with T and F
    lowered over the same variable in all of them."""
    top = top_variable(*formulas)

    def balanced(fs):
        if len(fs) == 1:
            return fs[0]
        half = (len(fs) + 1) // 2
        return And(balanced(fs[:half]), balanced(fs[half:]))
    return balanced([desugar(f, top, strict_def7) for f in formulas])


@dataclass
class Verdict:
    kind: str                  # valid | qualified-valid | invalid | sat | unsat | unknown
    fingerprint: dict
    countermodel: Model | None = None
    witness: World | None = None
    strategy: str | None = None    # forced | per-weighting, for weighted
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
        # each slot's modal depth, appended by the compile walk as it makes it
        depths = []

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
                depths.append(0 if kind == _VAR else
                              max(depths[operands[0]], depths[operands[-1]])
                              + (kind == _PREF))
            return slot

        self.root = syntax.fold(formula, compile_node)
        self.code = code
        self.depth = depths[self.root]
        self.backend = "solver" if self.depth <= 1 else "oracle"
        self.var_slots = [(i, op[1]) for i, op in enumerate(code)
                          if op[0] == _VAR]
        self.variables = sorted(name for _, name in self.var_slots)
        # (slot, left operand slot, right operand slot), innermost first
        self.atoms = [(i, op[1], op[2]) for i, op in enumerate(code)
                      if op[0] == _PREF]
        # the index of the last atom that can read selection cells, -1 if
        # none: atoms comparing a formula with itself (the box/diamond
        # shape) never pick from a cell
        self.last_reader = max((i for i, (_, l, r) in enumerate(self.atoms)
                                if l != r), default=-1)
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
        # a frame's _pattern -> a tee of _orbit_orders over it that keeps
        # every order its copies drew, filled by the oracle
        self.orbits = {}
        self.skeleton = None     # skeleton_holds(), memoised by the oracle

    def skeleton_holds(self) -> bool:
        """Whether the root holds under some truth assignment to the variable
        and preference slots, read as free atoms, an atom with an operand no
        assignment satisfies being false (existential import); if not, no
        world of any model satisfies the goal. True, untried, over
        MAX_TAUTOLOGY_ATOMS."""
        free = [i for i, op in enumerate(self.code) if op[0] in (_VAR, _PREF)]
        if len(free) > MAX_TAUTOLOGY_ATOMS:
            return True
        values = [0] * len(self.code)
        for slot, mask in zip(free, _assignment_masks(len(free))):
            values[slot] = mask
        full = (1 << (1 << len(free))) - 1
        start = 0
        for slot, l, r in self.atoms:
            self.run(values, full, start, slot)
            if not values[l] or not values[r]:
                # the operand denotes the empty set in every model
                values[slot] = 0
            start = slot
        self.run(values, full, start)
        return values[self.root] != 0

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

    def allowed(self, sides, pattern, assignments):
        """The mask of the assignments in the mask assignments under which
        some utility gives the free atoms their truth values when cells of
        the given sides pick as pattern says: the answer of every
        combination of picks with that pattern. Each assignment is decided
        once per Goal."""
        decided = self.orderable.setdefault(sides, {})
        done, ok = decided.get(pattern, (0, 0))
        todo = assignments & ~done
        if todo:
            for t in _bits(todo):
                if solve_order_constraints(
                        _rank_constraints(sides, t, pattern)) is not None:
                    ok |= 1 << t
            decided[pattern] = (done | todo, ok)
        return ok & assignments


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
    seen = set()
    for order in bruteforce_weak_orders(range(n)):
        rank = [order[j] for j in range(n)]
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
        # may stay 0 while the operands are evaluated over the valuations,
        # valuation j numbering its bits as assignment j does
        den = goal.denotations[universe] = goal.slots(
            dict(zip(universe, _assignment_masks(len(universe)))))
        goal.run(den, (1 << (1 << len(universe))) - 1)
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
    truth = {slot: everything * value for slot, value in fixed.items()}
    truth.update((slot, mask) for (slot, _, _), mask
                 in zip(free, _assignment_masks(k)))
    cells = list(dict.fromkeys(cell for _, left, right in free
                               for cell in (left, right)))
    sides = tuple((cells.index(left), cells.index(right))
                  for _, left, right in free)
    status = tuple(fixed.get(slot) for slot, _, _ in goal.atoms)
    satisfying = {}
    for val in _bits(valset):
        # the row's truth over the goal's variables, read off their masks
        row = tuple(den[slot] >> val & 1 for slot, _ in goal.var_slots)
        mask = goal.satisfying.get((status, row))
        if mask is None:
            values = goal.slots({name: everything * true for (_, name), true
                                 in zip(goal.var_slots, row)})
            for slot, value in truth.items():
                values[slot] = value
            goal.run(values, everything)
            mask = goal.satisfying[(status, row)] = values[goal.root]
        satisfying[val] = mask
    got = goal.cells[key] = _Cells(tuple(cells), sides, satisfying)
    return got


def _can_hold(goal, universe, valset):
    """Whether some basic frame over the set of valuations, repeating them
    any number of times, can hold a model of the goal: only if some row's
    satisfying assignment lets every cell pick a world of its own, whose
    rank constraints relax those of every other pattern."""
    structure = _cells_of(goal, universe, valset)
    return goal.allowed(structure.sides, tuple(range(len(structure.cells))),
                        functools.reduce(int.__or__,
                                         structure.satisfying.values())) != 0


def _solver_search(universe, vals, goal, admissible):
    """Depth <= 1 backend: preference operands denote fixed propositions, so
    a falsifying utility is a solution of rank comparisons among the picked
    worlds of the witness row. Returns the rank list, selection and witness
    index (see _search_worlds) of the first allowed combination, or None."""
    # valuation -> the mask of the worlds that have it
    worlds_of = {}
    for j, val in enumerate(vals):
        worlds_of[val] = worlds_of.get(val, 0) | 1 << j
    structure = _cells_of(goal, universe, sum(1 << val for val in worlds_of))
    cells = tuple(sum(worlds_of[val] for val in _bits(cell))
                  for cell in structure.cells)
    sides = structure.sides
    for x, val in enumerate(vals):
        satisfying = structure.satisfying[val]
        if not satisfying:
            continue
        pick_lists = tuple(admissible(vals, x, cell) for cell in cells)
        if not all(pick_lists):
            continue
        allowed = {pattern: goal.allowed(sides, pattern, satisfying)
                   for pattern in set(map(_pattern,
                                          itertools.product(*pick_lists)))}
        for t in _bits(functools.reduce(int.__or__, allowed.values())):
            for combo in itertools.product(*pick_lists):
                if not allowed[_pattern(combo)] >> t & 1:
                    continue
                ranks = solve_order_constraints(
                    _rank_constraints(sides, t, combo))
                return ([ranks.get(j, 0) for j in range(len(vals))],
                        {(x, cell): j for cell, j in zip(cells, combo)}, x)
    return None


def _submasks(mask):
    """Every mask whose bits are a subset of mask's, mask first."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def _check_oracle_cap(n):
    if n > ORACLE_WORLD_CAP:
        raise BudgetExceeded(
            f"{n} worlds exceeds oracle cap {ORACLE_WORLD_CAP}")


def _oracle_search(universe, vals, goal, admissible):
    """Any-depth backend: enumerate weak orders on the worlds, then resolve
    preference atoms stratum by stratum (innermost operands first), branching
    over admissible picks for each selection cell as it arises. Returns the
    rank list, selection and lowest world of the first nonempty goal mask,
    or None."""
    n = len(vals)
    _check_oracle_cap(n)
    if goal.skeleton is None:
        goal.skeleton = goal.skeleton_holds()
    if not goal.skeleton:
        return None
    full = (1 << n) - 1
    atoms = goal.atoms
    values = goal.slots(_variable_masks(universe, vals, goal.variables))
    # (world index, cell mask) -> indices of the admissible picks: the
    # policies are pure, so each cell is asked once per frame
    picks = functools.cache(functools.partial(admissible, vals))
    # (forced mask, either mask, slots below atom last_reader) -> whether
    # some mask that atom can take there satisfies the goal somewhere
    rests = {}

    # the selection under construction maps (world index, cell mask) to the
    # index of the picked world
    def assign_atom(i, rank, selection):
        if i == len(atoms):
            goal.run(values, full, atoms[-1][0] + 1 if atoms else 0)
            root = values[goal.root]
            return (rank, dict(selection), (root & -root).bit_length() - 1) \
                if root else None
        slot, l, r = atoms[i]
        # operands only read slots below this atom, and deeper atoms only
        # write slots above it
        goal.run(values, full, atoms[i - 1][0] + 1 if i else 0, slot)
        left, right = values[l], values[r]
        if not left or not right or left == right:
            # existential import, or one cell read on both sides
            values[slot] = full if (left and left == right) else 0
            return assign_atom(i + 1, rank, selection)
        # each world's picks; a cell an earlier atom read keeps its pick
        options = [[(selection[cell],) if cell in selection else picks(*cell)
                    for cell in ((j, left), (j, right))] for j in range(n)]
        if i == goal.last_reader:
            # no later atom reads a cell, so the rest of the goal depends
            # only on this atom's mask: forced | S for a subset S of either
            forced = either = 0
            for j, (lefts, rights) in enumerate(options):
                truths = {rank[xl] >= rank[xr]
                          for xl in lefts for xr in rights}
                if not truths:
                    return None
                if len(truths) == 2:
                    either |= 1 << j
                elif True in truths:
                    forced |= 1 << j
            key = (forced, either, tuple(values[:slot]))
            if key not in rests:
                # the walk from atom i + 1 reads no cell, only the mask
                rests[key] = False
                for sub in _submasks(either):
                    values[slot] = forced | sub
                    if assign_atom(i + 1, rank, selection):
                        rests[key] = True
                        break
            if not rests[key]:
                return None
        # each world's branches (left pick, right pick, its bit if the atom
        # holds). Equal-rank picks are interchangeable: dedupe them by rank
        branches = []
        for j, (lefts, rights) in enumerate(options):
            by_key = {}
            for xl in lefts:
                for xr in rights:
                    ranks = (rank[xl], rank[xr])
                    by_key.setdefault(ranks, (xl, xr,
                                              (ranks[0] >= ranks[1]) << j))
            if not by_key:
                return None
            branches.append(list(by_key.values()))
        # the worlds' branches in nested order, the last world's innermost,
        # recursing once per atom rather than once per world
        cells = [((j, left), (j, right)) for j in range(n)]
        added = [cell for pair in cells for cell in pair
                 if cell not in selection]
        for combo in itertools.product(*branches):
            members = 0
            for (cell_l, cell_r), (xl, xr, bit) in zip(cells, combo):
                selection[cell_l] = xl
                selection[cell_r] = xr
                members |= bit
            values[slot] = members
            found = assign_atom(i + 1, rank, selection)
            if found:
                return found
        for cell in added:
            del selection[cell]
        return None

    shape = _pattern(vals)
    orders = goal.orbits.get(shape)
    if orders is None:
        orders = goal.orbits[shape] = itertools.tee(_orbit_orders(shape), 1)[0]
    for rank in copy.copy(orders):
        found = assign_atom(0, rank, {})
        if found or goal.last_reader < 0:    # no walk reads a rank
            return found
    return None


def _search_worlds(universe, vals, goal, admissible, mode, weights=None):
    """The first model of the goal on the frame and its witness world, or
    None. The engine builds models only here, from the backend's rank list,
    selection keyed by (world index, cell mask) to pick index and witness
    index, and re-verifies each: a failure raises AssertionError."""
    search = _solver_search if goal.backend == "solver" else _oracle_search
    found = search(universe, vals, goal, admissible)
    if found is None:
        return None
    rank, selection, x = found
    masks = _variable_masks(universe, vals, universe)
    worlds = make_worlds(universe, [[v for v in universe if masks[v] >> j & 1]
                                    for j in range(len(vals))])
    props = {mask: frozenset(worlds[j] for j in _bits(mask))
             for mask in {mask for _, mask in selection}}
    model = Model(universe, worlds, dict(zip(worlds, rank)),
                  {(worlds[at], props[mask]): worlds[j]
                   for (at, mask), j in selection.items()}, mode, weights)
    if not holds_at(model, goal.formula, worlds[x]):
        raise AssertionError(f"{goal.backend} model fails re-verification")
    return model, worlds[x]


# --- Regime searchers --------------------------------------------------------

def find_countermodel_basic(goal, max_worlds):
    """Search basic models: any world multiset over the goal's variables (up
    to max_worlds worlds, valuations may repeat), any selection, any
    utility."""
    goal = Goal.of(goal)
    universe = tuple(goal.variables)
    solver = goal.backend == "solver"
    if solver and not goal.skeleton_holds():   # no world satisfies the goal
        return None
    # set of valuations -> whether some frame over it can hold a model
    can_hold = {}
    for count in range(1, max_worlds + 1):
        for vals in itertools.combinations_with_replacement(
                _powerset(universe), count):
            if solver:
                valset = frozenset(vals)
                if valset not in can_hold:
                    can_hold[valset] = _can_hold(
                        goal, universe, sum(1 << val for val in valset))
                if not can_hold[valset]:
                    continue
            found = _search_worlds(universe, vals, goal, admissible_basic,
                                   "basic")
            if found:
                return found
        if (solver and count == 1 << len(universe)
                and not any(can_hold.values())):
            # every set of valuations is decided, and none can hold a model
            return None
    return None


def _delta_universe(base_vars, extra):
    """The base variables and the first extra of _x0, _x1, ... not among
    them, sorted."""
    fresh = (name for name in map("_x{}".format, itertools.count())
             if name not in base_vars)
    universe = sorted({*base_vars, *itertools.islice(fresh, extra)})
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


# --- The retry ladder --------------------------------------------------------

def _budgeted(search, *args):
    """(search(*args), None), or (None, the note) when a budget cuts it."""
    try:
        return search(*args), None
    except BudgetExceeded as exc:
        return None, f"budget exceeded: {exc}"


def _ladder(search, goal, base, rungs=LADDER_RUNGS):
    """Search rungs rungs of the goal's retry ladder in order from base,
    search(extra) searching the rung with extra fresh variables; at modal
    depth <= 1 only the base rung, since no upper rung has a model the base
    rung lacks. Returns the first (model, world) found or None, the
    extra-variable counts of the rungs searched to the end, and the note of
    the first rung cut or None."""
    searched, cut = [], None
    for extra in range(base, base + (1 if goal.depth <= 1 else rungs)):
        found, note = _budgeted(search, extra)
        if note is None:
            searched.append(extra)
        cut = cut or note
        if found:
            break
    return found, searched, cut


class _Search(NamedTuple):
    found: tuple | None     # the first (model, world) satisfying the goal
    fingerprint: dict       # the bounds searched
    strategy: str | None    # the strategy of a weighted model
    complete: bool          # whether finding no model proves there is none
    cut_note: str | None    # the detail of a verdict of kind cut

    def verdict(self, found, none, cut) -> Verdict:
        """A verdict of kind found if a model was found, else of kind none
        if the search is complete, else of kind cut, with cut_note."""
        if self.found:
            return Verdict(found, self.fingerprint, *self.found,
                           strategy=self.strategy)
        if self.complete:
            return Verdict(none, self.fingerprint)
        return Verdict(cut, self.fingerprint, detail=self.cut_note)


def _weighted(goal, regime, fingerprint, every):
    """Search the forced ladder from the regime's base rung; only if it has
    no model, search the base rung (with every=True, LADDER_RUNGS rungs)
    once per weighting of the class on the grid over the rung's universe
    (the goal's and the class's variables and the fresh ones), with that
    weighting's nearest picks. A rung's model is the first found under any
    weighting, or with every=True that of its first weighting when every
    weighting has a model, each re-verified. The fingerprint then gains the
    rungs searched to the end and the number of weightings of each."""
    base = regime.extra_variables
    # a forced-pick model satisfies the goal under every weighting
    found, _, _ = _ladder(
        lambda extra: find_countermodel_delta(goal, extra, admissible_forced),
        goal, base)
    if found:
        return _Search(found, fingerprint, "forced", True, None)

    # extra -> the number of weightings of that rung's universe
    counts = {}

    def per_weighting(extra):
        universe = _delta_universe(
            set(goal.variables) | regime.weight_class.variables(), extra)
        vals = _powerset(universe)
        if goal.backend == "oracle":  # every weighting's search would be cut
            _check_oracle_cap(len(vals))
        candidates = len(regime.grid) ** len(universe)
        if candidates > MAX_WEIGHT_CANDIDATES:
            raise BudgetExceeded(f"{candidates} candidate weightings exceed "
                                 f"cap {MAX_WEIGHT_CANDIDATES}")
        weightings = enumerate_weight_orders(universe, regime.weight_class,
                                             regime.grid)
        counts[extra] = len(weightings)
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

    found, searched, cut = _ladder(per_weighting, goal, base,
                                   LADDER_RUNGS if every else 1)
    fingerprint["extras_searched"] = searched
    fingerprint["weightings"] = [counts[extra] for extra in searched]
    return _Search(found, fingerprint, "per-weighting", base in searched, cut)


def _find(goal, regime) -> _Search:
    """Search the regime's retry ladder for a model and a world satisfying
    the goal, going on to the next rung when a budget cuts one."""
    if isinstance(regime, BasicRegime):
        # no small-model bound is known, so no basic search is complete
        found, cut = _budgeted(find_countermodel_basic, goal,
                               regime.max_worlds)
        return _Search(found, {"regime": "basic",
                               "max_worlds": regime.max_worlds},
                       None, False, cut)
    if isinstance(regime, DeltaRegime):
        base = regime.extra_variables
        found, searched, cut = _ladder(
            lambda extra: find_countermodel_delta(goal, extra), goal, base)
        return _Search(found, {"regime": "delta", "extra_vars": base,
                               "extras_searched": searched},
                       None, base in searched, cut)
    if not isinstance(regime, WeightedRegime):
        raise TypeError(f"unknown regime {regime!r}")
    return _weighted(goal, regime,
                     {"regime": "weighted", "class": str(regime.weight_class),
                      "grid": list(regime.grid),
                      "extra_vars": regime.extra_variables}, every=False)


# --- Verdict-producing operations --------------------------------------------

def check(sequent: Sequent, regime, strict_def7=False) -> Verdict:
    """Decide the sequent in the given regime: a model and a world satisfying
    its goal refute it."""
    return _find(Goal(sequent.goal(strict_def7)), regime).verdict(
        "invalid", "valid", "qualified-valid")


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
    regime = WeightedRegime(grid=DEFAULT_GRID if grid is None else grid,
                            extra_variables=extra_vars)
    search = _weighted(Goal(sequent.goal(strict_def7)), regime,
                       {"regime": "forall-weights", "grid": list(regime.grid),
                        "extra_vars": extra_vars}, every=True)
    # finding no rung with a model under every weighting proves nothing
    return search._replace(
        complete=False, cut_note="no rung of the ladder has a countermodel "
                                 "for every weighting").verdict(
        "invalid", "unknown", "unknown")
