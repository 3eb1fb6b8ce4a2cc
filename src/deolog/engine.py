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
atoms and backend. Compiling visits each node object once and gives each
distinct (operator, operand slots) its slot, so it takes time linear in the
distinct nodes even where desugaring shares operands. Both backends evaluate
it on int bitmasks. The oracle reads a proposition as a mask over the frame's
world indices; the rank solver reads the goal at one world as a mask over the
truth assignments of the free preference atoms and visits only the
assignments that satisfy it.

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
satisfying assignments per Goal and its patterns per frame. The oracle
takes the weak orders in enumeration order and searches only the first of
each orbit: it skips an order when an earlier one gave the worlds of each
valuation the same multiset of ranks, single worlds included. A model at
any member of an orbit, or at any row of a valuation, maps to one at the
first, which is searched earlier, so the first model found is the one a
search of every case would find.

Masks become frozensets of worlds only to key selection cells, to call the
admissibility policies and to build the reported Model.
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
                      WeightedRegime, check_grid, delta_minimal,
                      enumerate_weight_orders, forced_choice, p_nearest)

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


# --- Admissible-pick policies ------------------------------------------------

def _by_name(worlds):
    return tuple(sorted(worlds, key=lambda w: w.name))


def admissible_basic(w, prop):
    return _by_name(prop)


def admissible_delta(w, prop):
    return _by_name(delta_minimal(w, prop))


def admissible_weighted(weighting):
    def policy(w, prop):
        return _by_name(p_nearest(weighting, w, prop))
    return policy


def admissible_forced(w, prop):
    pick = forced_choice(w, prop)
    return (pick,) if pick is not None else ()


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
        # (each atom fixed true, fixed false or free, a row's valuation) ->
        # the mask of the free atoms' assignments satisfying the goal there,
        # filled by the rank solver
        self.satisfying = {}

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


def _bits(mask):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _world_masks(worlds, names):
    return {v: sum(1 << j for j, w in enumerate(worlds) if v in w.members)
            for v in names}


class _Props:
    """Maps world-index masks to the frozensets that key selection cells,
    building each frozenset once per frame."""

    def __init__(self, worlds):
        self.worlds = worlds
        self.cache = {}

    def __call__(self, mask):
        prop = self.cache.get(mask)
        if prop is None:
            prop = frozenset(self.worlds[j] for j in _bits(mask))
            self.cache[mask] = prop
        return prop


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

def _rows(worlds):
    """The first world of each valuation, in frame order."""
    rows = {}
    for w in worlds:
        rows.setdefault(w.members, w)
    return rows.values()


def _orbit_orders(worlds):
    """The weak orders of bruteforce_weak_orders(worlds), in its order, that
    are the first of their orbit under permutations of same-valuation
    worlds: those that give the worlds of each valuation a multiset of ranks
    no earlier order gave them. Every valuation counts, single worlds too."""
    groups = {}
    for w in worlds:
        groups.setdefault(w.members, []).append(w)
    if len(groups) == len(worlds):
        # every orbit is one order, as in every delta frame: keys would
        # only cost time
        yield from bruteforce_weak_orders(worlds)
        return
    groups = list(groups.values())
    seen = set()
    for utility in bruteforce_weak_orders(worlds):
        key = tuple(tuple(sorted(utility[w] for w in group))
                    for group in groups)
        if key not in seen:
            seen.add(key)
            yield utility


def _solver_search(universe, worlds, goal, admissible, mode, weights=None):
    """Depth <= 1 backend: preference operands denote fixed propositions, so
    a falsifying utility is a solution of rank comparisons among the picked
    worlds of the witness row."""
    # operands of a depth <= 1 goal contain no atom, so the atom slots may
    # stay 0 while the operands are evaluated over the worlds
    den = goal.slots(_world_masks(worlds, goal.variables))
    goal.run(den, (1 << len(worlds)) - 1)
    prop = _Props(worlds)
    fixed = {}
    free = []
    for slot, l, r in goal.atoms:
        left, right = den[l], den[r]
        if not left or not right:
            fixed[slot] = False      # existential import
        elif left == right:
            fixed[slot] = True       # one cell on both sides
        else:
            free.append((slot, prop(left), prop(right)))
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
    index = {w: j for j, w in enumerate(worlds)}
    decided = goal.orderable.setdefault(sides, {})
    status = tuple(fixed.get(slot) for slot, _, _ in goal.atoms)
    satisfying_at = goal.satisfying
    # a row's pick-index lists -> its set of patterns; in a basic frame every
    # row has the same lists
    patterns_of = {}

    def first_allowed(pattern, assignments):
        """The lowest assignment in the mask assignments under which some
        utility gives the free atoms their truth values when the cells pick
        as pattern says, as a one-bit mask, or 0: the answer of every
        combination of picks with that pattern. Assignments are decided in
        ascending order, and none above that one."""
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

    for w in _rows(worlds):
        satisfying = satisfying_at.get((status, w.members))
        if satisfying is None:
            values = goal.slots({v: everything if v in w.members else 0
                                 for v in goal.variables})
            for slot, mask in truth.items():
                values[slot] = mask
            goal.run(values, everything)
            satisfying = satisfying_at[(status, w.members)] = \
                values[goal.root]
        if not satisfying:
            continue
        pick_lists = [admissible(w, cell) for cell in cells]
        if any(not picks for picks in pick_lists):
            continue
        # the solver ranks world indices, which hash cheaply
        pick_lists = tuple(tuple(index[x] for x in picks)
                           for picks in pick_lists)
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
                first = firsts[pattern] = first_allowed(pattern, limit)
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
                utility = {w2: ranks.get(j, 0) for j, w2 in enumerate(worlds)}
                selection = {(w, cell): worlds[j]
                             for cell, j in zip(cells, combo)}
                model = Model(universe, worlds, utility, selection, mode,
                              weights)
                if holds_at(model, goal.formula, w):
                    return model, w
    return None


def _oracle_search(universe, worlds, goal, admissible, mode, weights=None):
    """Any-depth backend: enumerate weak orders on the worlds, then resolve
    preference atoms stratum by stratum (innermost operands first), branching
    over admissible picks for each selection cell as it arises."""
    if len(worlds) > ORACLE_WORLD_CAP:
        raise BudgetExceeded(
            f"{len(worlds)} worlds exceeds oracle cap {ORACLE_WORLD_CAP}")
    n = len(worlds)
    full = (1 << n) - 1
    atoms = goal.atoms
    values = goal.slots(_world_masks(worlds, goal.variables))
    prop = _Props(worlds)
    index = {w: j for j, w in enumerate(worlds)}
    admissible_picks = {}

    def picks(j, mask):
        """Indices of the admissible picks at world j from the cell mask;
        the policies are pure, so each cell is asked once per frame."""
        got = admissible_picks.get((j, mask))
        if got is None:
            got = tuple(index[x] for x in admissible(worlds[j], prop(mask)))
            admissible_picks[(j, mask)] = got
        return got

    # the selection under construction maps (world index, cell mask) to the
    # index of the picked world
    def finish(utility, selection):
        goal.run(values, full, atoms[-1][0] + 1 if atoms else 0)
        for j in _bits(values[goal.root]):
            w = worlds[j]
            model = Model(universe, worlds, utility,
                          {(worlds[at], prop(mask)): worlds[x]
                           for (at, mask), x in selection.items()},
                          mode, weights)
            if holds_at(model, goal.formula, w):   # mandatory re-verification
                return model, w
        return None

    def assign_atom(i, utility, rank, selection):
        if i == len(atoms):
            return finish(utility, selection)
        slot, l, r = atoms[i]
        # operands only read slots below this atom, and deeper atoms only
        # write slots above it
        goal.run(values, full, atoms[i - 1][0] + 1 if i else 0, slot)
        left, right = values[l], values[r]
        if not left or not right or left == right:
            # existential import, or one cell read on both sides
            values[slot] = full if (left and left == right) else 0
            return assign_atom(i + 1, utility, rank, selection)
        later = goal.later_cells[i]

        def per_world(j, members):
            if j == n:
                values[slot] = members
                return assign_atom(i + 1, utility, rank, selection)
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

    for utility in _orbit_orders(worlds):
        found = assign_atom(0, utility, [utility[w] for w in worlds], {})
        if found:
            return found
    return None


def _search_worlds(universe, worlds, goal, admissible, mode, weights=None):
    search = _solver_search if goal.backend == "solver" else _oracle_search
    return search(universe, worlds, goal, admissible, mode, weights)


# --- Regime searchers --------------------------------------------------------

def find_countermodel_basic(goal, max_worlds):
    """Search basic models: any world multiset over the goal's variables (up
    to max_worlds worlds, valuations may repeat), any selection, any
    utility."""
    goal = Goal.of(goal)
    universe = tuple(goal.variables)
    valuations = [w.members for w in powerset_worlds(universe)]
    for count in range(1, max_worlds + 1):
        for combo in itertools.combinations_with_replacement(
                valuations, count):
            worlds = make_worlds(universe, combo)
            found = _search_worlds(universe, worlds, goal, admissible_basic,
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
    worlds = powerset_worlds(universe)
    return _search_worlds(universe, worlds, goal, admissible, "delta")


def _per_weighting(goal, universe, weightings, every=False):
    """Search the power-set frame of the universe once per weighting, with
    the weighting's nearest picks. Returns the first (model, world) found,
    or with every=True that of the first weighting when every weighting has
    one, else None."""
    worlds = powerset_worlds(universe)
    first = None
    for weighting in weightings:
        found = _search_worlds(universe, worlds, goal,
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
