import itertools
import pathlib
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import deolog
from deolog import engine
from deolog.syntax import (And, Diamond, Not, Oblig, Or, Perm, PrefWeak, Var,
                           desugar, modal_depth, parse, variables)
from deolog.models import (MAX_UNIVERSE, Evaluator, Model, holds_at,
                           make_worlds, powerset_worlds)
from deolog.orders import (ComparisonAtom, bruteforce_weak_orders,
                           solve_order_constraints)
from deolog import regimes
from deolog.regimes import (BasicRegime, DeltaRegime, WeightClass,
                            WeightedRegime, _bits, admissible_basic,
                            admissible_delta, admissible_forced,
                            admissible_weighted, delta_minimal,
                            forced_choice, p_nearest)
from deolog.engine import (_AND, _NOT, _PREF, ORACLE_WORLD_CAP,
                           BudgetExceeded, Goal, Sequent, _assignment_masks,
                           _can_hold, _model, _oracle_search,
                           _orbit_orders, _powerset, _solver_search,
                           _variable_masks, check,
                           check_forall_weights_invalidity,
                           find_countermodel_basic, find_countermodel_delta,
                           satisfiable)
from deolog.documents import load_derivation, model_to_doc
from deolog.proofs import check_derivation

BASIC4 = BasicRegime(4)
DELTA0 = DeltaRegime(0)


def _refutes(verdict, text):
    goal = Sequent.parse(text).goal()
    return holds_at(verdict.countermodel, goal, verdict.witness)


class TestSequent:
    def test_parse(self):
        s = Sequent.parse("O p ; q |- O q")
        assert s.premises == (parse("O p"), parse("q"))
        assert s.conclusion == parse("O q")

    def test_parse_empty_left(self):
        assert Sequent.parse("|- O p").premises == ()

    def test_parse_requires_turnstile(self):
        with pytest.raises(ValueError):
            Sequent.parse("O p")

    def test_str_roundtrip(self):
        s = Sequent.parse("O p ; ~q |- p >= q")
        assert Sequent.parse(str(s)) == s


class TestCheck:
    def test_identity_every_regime(self):
        s = Sequent.parse("O p |- O p")
        assert check(s, DELTA0).kind == "valid"
        assert check(s, BASIC4).kind == "qualified-valid"
        assert check(s, WeightedRegime()).kind == "valid"

    def test_delta_validity_fingerprint(self):
        v = check(Sequent.parse("O p ; ~p > ~q |- O q"), DELTA0)
        assert v.kind == "valid"
        assert v.fingerprint["extra_vars"] == 0
        assert v.exit_code() == 0

    def test_delta_invalidity(self):
        text = "O p |- O(p & q) | O(p & ~q)"
        v = check(Sequent.parse(text), DELTA0)
        assert v.kind == "invalid"
        assert v.exit_code() == 1
        assert _refutes(v, text)

    def test_depth_two_invalidity(self):
        text = "O O p |- O p"
        v = check(Sequent.parse(text), DELTA0)
        assert v.kind == "invalid"
        assert _refutes(v, text)

    def test_basic_invalidity(self):
        v = check(Sequent.parse("|- p"), BASIC4)
        assert v.kind == "invalid"
        assert len(v.countermodel.worlds) == 1

    def test_weighted_validity_with_class(self):
        regime = WeightedRegime(WeightClass.parse("q>p,q>r"))
        v = check(Sequent.parse("O(p | q) ; ~q |- O p"), regime)
        assert v.kind == "valid"
        assert v.fingerprint["grid"] == list(range(1, 10))

    def test_weighted_invalid_without_class(self):
        # valid under the q-heavy class, falsifiable with a free weighting
        text = "O p |- O(p & q) | O(p & ~q)"
        heavy = WeightedRegime(WeightClass.parse("q>p,q>r"))
        assert check(Sequent.parse(text), heavy).kind == "valid"
        v = check(Sequent.parse(text), WeightedRegime())
        assert v.kind == "invalid"
        assert _refutes(v, text)

    def test_weight_robust_countermodel_shape(self):
        text = "O(p -> q) |- O p -> O q"
        v = check(Sequent.parse(text), WeightedRegime())
        assert v.kind == "invalid"
        assert v.weight_robust is True
        assert v.strategy == "forced"
        assert _refutes(v, text)
        m = v.countermodel
        u = lambda name: m.utility[m.world(name)]
        assert u("11") > u("01") > u("10")
        assert u("00") == max(u(w.name) for w in m.worlds)

    def test_determinism(self):
        text = "C(p,q) ; C(r,q) |- C(p | r, q)"
        a = check(Sequent.parse(text), DELTA0)
        b = check(Sequent.parse(text), DELTA0)
        assert model_to_doc(a.countermodel) == model_to_doc(b.countermodel)
        assert a.witness.name == b.witness.name

    def test_regime_monotonicity_spot(self):
        for text in ("O p ; ~p > ~q |- O q", "C(p,q) ; p |- O q",
                     "O p |- P p"):
            s = Sequent.parse(text)
            if check(s, DELTA0).kind == "valid":
                assert check(s, WeightedRegime()).kind != "invalid"
            if check(s, BASIC4).kind == "qualified-valid":
                assert check(s, DELTA0).kind != "invalid"


class TestForallWeights:
    def test_robust_item(self):
        text = "O(p & q) |- O q"
        v = check_forall_weights_invalidity(Sequent.parse(text))
        assert v.kind == "invalid"
        assert v.weight_robust is True
        # a forced pick is nearest under every weighting
        for (w, prop), pick in v.countermodel.selection.items():
            assert pick == forced_choice(w, prop)
        assert _refutes(v, text)

    def test_validity_formula_item(self):
        v = check_forall_weights_invalidity(Sequent.parse("|- O(O p -> p)"))
        assert v.kind == "invalid"

    def test_nested_permission_item(self):
        v = check_forall_weights_invalidity(Sequent.parse("P p |- P O p"))
        assert v.kind == "invalid"

    def test_ladder_rungs_weigh_their_own_universe(self):
        # the rungs with fresh variables used to be searched with weightings
        # of the base universe, which raised KeyError: '_x0'
        v = check_forall_weights_invalidity(
            Sequent.parse("O p |- O(p & q) | O(p & ~q)"), grid=(1, 2, 3))
        assert v.kind in ("invalid", "unknown")
        m = v.countermodel
        if m is not None and m.weights is not None:
            assert all(m.weights[x] > 0 for x in m.universe)
            for (w, prop), pick in m.selection.items():
                assert pick in p_nearest(m.weights, w, prop)

    @pytest.mark.parametrize("grid", [(), (0, 1, 2), (-1, 1)])
    def test_grid_must_be_positive(self, grid):
        with pytest.raises(ValueError):
            check_forall_weights_invalidity(Sequent.parse("O p |- O q"),
                                            grid=grid)


class TestSatisfiable:
    def test_chisholm(self):
        from deolog.syntax import desugar
        fs = [parse(t) for t in ("O g", "C(g,t)", "C(~g,~t)", "~g")]
        v = satisfiable(fs, DELTA0)
        assert v.kind == "sat"
        for f in fs:
            assert holds_at(v.countermodel, desugar(f, "g"), v.witness)

    def test_contradiction(self):
        v = satisfiable([parse("p & ~p")], DELTA0)
        assert v.kind == "unsat"
        assert v.exit_code() == 1

    def test_oblig_top(self):
        assert satisfiable([parse("O T")], DELTA0).kind == "unsat"
        assert satisfiable([parse("O T")], BASIC4).kind == "unsat"

    def test_perm_bot(self):
        assert satisfiable([parse("P F")], BASIC4).kind == "unsat"


class TestStrictDef7:
    def test_perm_top_flips(self):
        default = check(Sequent.parse("|- ~(P T)"), BASIC4)
        assert default.kind == "qualified-valid"
        strict = check(Sequent.parse("|- P T"), BASIC4, strict_def7=True)
        assert strict.kind == "qualified-valid"

    def test_contingent_operands_agree(self):
        # both readings of P coincide away from T/F operands
        s = Sequent.parse("O p |- P p")
        assert check(s, BASIC4).kind == "qualified-valid"
        assert check(s, BASIC4, strict_def7=True).kind == "qualified-valid"


class TestBudgets:
    def test_variable_cap(self):
        # p and MAX_UNIVERSE more variables: no rung's universe fits
        names = " & ".join(f"v{i}" for i in range(MAX_UNIVERSE))
        v = check(Sequent.parse(f"O p ; {names} |- O p"), DELTA0)
        assert v.kind == "qualified-valid"
        assert v.fingerprint["extras_searched"] == []
        assert v.detail is not None
        assert v.exit_code() == 0

    def test_oracle_world_cap(self):
        with pytest.raises(BudgetExceeded):
            find_countermodel_delta(
                Sequent.parse("O O p ; q & r |- O p").goal(), 0)

    def test_basic_cap_note_names_the_frames_searched(self):
        v = check(Sequent.parse("|- [][]p -> []p"), BasicRegime(7))
        assert v.kind == "qualified-valid" and v.exit_code() == 0
        assert v.detail == (
            f"frames of up to {ORACLE_WORLD_CAP} worlds searched; the oracle "
            f"cap of {ORACLE_WORLD_CAP} worlds cut the larger frames")
        assert check(Sequent.parse("|- [][]p -> []p"),
                     BasicRegime(ORACLE_WORLD_CAP)).detail is None

    def test_basic_search_none_when_valid(self):
        assert find_countermodel_basic(
            Sequent.parse("|- ~(O p & O ~p)").goal(), 4) is None


# --- One search for check and satisfiable ------------------------------------

def _depth2(names):
    """Surface formulas of modal depth at most 2 over the given variables."""
    def wrap(kids):
        return st.one_of(st.builds(Not, kids), st.builds(And, kids, kids),
                         st.builds(Or, kids, kids), st.builds(Oblig, kids),
                         st.builds(Perm, kids), st.builds(Diamond, kids))
    return st.recursive(st.sampled_from([Var(n) for n in names]), wrap,
                        max_leaves=4).filter(
        lambda f: modal_depth(desugar(f)) <= 2)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(premises=st.lists(_depth2(("p", "q")), max_size=2),
       conclusion=_depth2(("p", "q")),
       regime=st.sampled_from([BasicRegime(2), DELTA0, WeightedRegime()]))
def test_invalid_exactly_when_goal_satisfiable(premises, conclusion, regime):
    checked = check(Sequent(tuple(premises), conclusion), regime)
    sat = satisfiable(premises + [Not(conclusion)], regime)
    assert (checked.kind == "invalid") == (sat.kind == "sat")
    assert checked.fingerprint == sat.fingerprint


class TestGoal:
    def test_atoms_innermost_first(self):
        goal = Goal(desugar(parse("O O p")))
        built = []
        for kind, a, b in goal.code:
            built.append(Not(built[a]) if kind == _NOT else
                         And(built[a], built[b]) if kind == _AND else
                         PrefWeak(built[a], built[b]) if kind == _PREF else
                         Var(a))
        assert built[goal.root] == goal.formula
        atoms = [built[slot] for slot, _, _ in goal.atoms]
        depths = [modal_depth(a) for a in atoms]
        assert depths == sorted(depths)
        assert len(atoms) == len(set(atoms))


# --- The compiled bitmask evaluator -------------------------------------------

def _core_formulas(names):
    return st.recursive(
        st.sampled_from([Var(n) for n in names]),
        lambda kids: st.one_of(st.builds(Not, kids),
                               st.builds(And, kids, kids),
                               st.builds(PrefWeak, kids, kids)),
        max_leaves=10)


def _filled_delta_model(universe, rng):
    """A random delta model whose selection has a delta-based pick in every
    cell."""
    worlds = powerset_worlds(universe)
    utility = {w: rng.randrange(len(worlds)) for w in worlds}
    selection = {}
    for size in range(1, len(worlds) + 1):
        for members in itertools.combinations(worlds, size):
            prop = frozenset(members)
            for w in worlds:
                selection[(w, prop)] = rng.choice(sorted(
                    delta_minimal(w, prop), key=lambda x: x.name))
    return Model(universe, worlds, utility, selection, "delta")


def _goal_mask(goal, model):
    """The compiled goal's mask over the model's worlds, resolving each
    preference atom from the model's utility and selection."""
    worlds = model.worlds
    full = (1 << len(worlds)) - 1
    values = goal.slots({v: sum(1 << j for j, w in enumerate(worlds)
                                if v in w.members)
                         for v in goal.variables})

    def prop(mask):
        return frozenset(w for j, w in enumerate(worlds) if mask >> j & 1)

    start = 0
    for slot, l, r in goal.atoms:
        goal.run(values, full, start, slot)
        left, right = values[l], values[r]
        if not left or not right:
            values[slot] = 0
        elif left == right:
            values[slot] = full
        else:
            u, pick = model.utility, model.selection
            values[slot] = sum(
                1 << j for j, w in enumerate(worlds)
                if u[pick[(w, prop(left))]] >= u[pick[(w, prop(right))]])
        start = slot + 1
    goal.run(values, full, start)
    return values[goal.root]


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(formula=_core_formulas(("p", "q")), seed=st.integers(0, 2 ** 32),
       three=st.booleans())
def test_bitmask_evaluator_agrees_with_holds_at(formula, seed, three):
    universe = ("p", "q", "r") if three else ("p", "q")
    model = _filled_delta_model(universe, random.Random(seed))
    goal = Goal(formula)
    assert goal.depth == modal_depth(formula)
    assert goal.variables == variables(formula)
    mask = _goal_mask(goal, model)
    ev = Evaluator(model)
    assert [bool(mask >> j & 1) for j in range(len(model.worlds))] == \
        [ev.holds_at(formula, w) for w in model.worlds]


# --- Rank-solver rows decided once per pick pattern ---------------------------

def _per_combination_search(universe, vals, goal, admissible, mode,
                            weights=None):
    """The rank solver as it was before pick patterns: every pick
    combination of every satisfying assignment solved on its own."""
    den = goal.slots(_variable_masks(universe, vals, goal.variables))
    goal.run(den, (1 << len(vals)) - 1)
    fixed = {}
    free = []
    for slot, l, r in goal.atoms:
        left, right = den[l], den[r]
        if not left or not right:
            fixed[slot] = False
        elif left == right:
            fixed[slot] = True
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
    sides = [(cells.index(left), cells.index(right)) for _, left, right in free]
    for x, val in enumerate(vals):
        values = goal.slots({v: everything if true else 0 for v, true in
                             _variable_masks(universe, (val,),
                                             goal.variables).items()})
        for slot, mask in truth.items():
            values[slot] = mask
        goal.run(values, everything)
        satisfying = values[goal.root]
        if not satisfying:
            continue
        pick_lists = [admissible(vals, x, cell) for cell in cells]
        if any(not picks for picks in pick_lists):
            continue
        for t in _bits(satisfying):
            bits = [(t >> (k - 1 - i)) & 1 for i in range(k)]
            for combo in itertools.product(*pick_lists):
                constraints = [
                    ComparisonAtom(combo[li], combo[ri], False) if value
                    else ComparisonAtom(combo[ri], combo[li], True)
                    for (li, ri), value in zip(sides, bits)]
                ranks = solve_order_constraints(constraints)
                if ranks is None:
                    continue
                rank = [ranks.get(j, 0) for j in range(len(vals))]
                selection = {(x, cell): j for cell, j in zip(cells, combo)}
                model = _model(universe, vals, rank, selection, mode, weights)
                if holds_at(model, goal.formula, model.worlds[x]):
                    return model, model.worlds[x]
    return None


def _depth1(names):
    """Core formulas of modal depth at most 1 over the given variables."""
    def boolean(leaves):
        return st.recursive(leaves, lambda kids: st.one_of(
            st.builds(Not, kids), st.builds(And, kids, kids)), max_leaves=4)
    props = boolean(st.sampled_from([Var(n) for n in names]))
    return boolean(st.one_of(props, st.builds(PrefWeak, props, props)))


PQ = ("p", "q")
# every basic frame over {p, q} of up to three worlds
BASIC_FRAMES = [vals for count in (1, 2, 3)
                for vals in itertools.combinations_with_replacement(
                    _powerset(PQ), count)]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(formula=_depth1(PQ),
       policy=st.sampled_from(["basic", "delta", "weighted"]),
       weights=st.tuples(st.integers(1, 3), st.integers(1, 3)))
# the two atoms share a cell in some frames and not in others, so the
# memo must tell their cell sides apart
@example(formula=Not(And(PrefWeak(Var("p"), Var("q")),
                         PrefWeak(Not(Var("p")), Var("p")))),
         policy="basic", weights=(1, 1))
# a pattern allowed only under a later assignment precedes, in pick order,
# the first combination allowed under the earliest one
@example(formula=Not(And(PrefWeak(Var("p"), Not(Var("q"))),
                         PrefWeak(Var("p"), Var("q")))),
         policy="basic", weights=(1, 1))
def test_pattern_search_matches_per_combination(formula, policy, weights):
    goal = Goal(formula)
    weighting = dict(zip(PQ, weights))
    if policy == "basic":
        # one Goal over every frame, so its pattern memo outlives a frame
        runs = [(frame, admissible_basic, "basic", None)
                for frame in BASIC_FRAMES]
    elif policy == "delta":
        runs = [(_powerset(PQ), admissible_delta, "delta", None)]
    else:
        runs = [(_powerset(PQ), admissible_weighted(weighting),
                 "delta", weighting)]
    for vals, admissible, mode, model_weights in runs:
        args = (PQ, vals, goal, admissible, mode, model_weights)
        assert _solver_search(*args) == _per_combination_search(*args)


def test_ax3_commute_prunes_solver_calls(monkeypatch):
    path = pathlib.Path(deolog.__file__).parent / "derivations" / \
        "ax3-commute.json"
    theorem = check_derivation(load_derivation(str(path))).theorem
    calls = []

    def counted(atoms):
        calls.append(atoms)
        return solve_order_constraints(atoms)

    monkeypatch.setattr(engine, "solve_order_constraints", counted)
    assert check(Sequent((), theorem), BASIC4).kind == "qualified-valid"
    # one solve per pick combination made 32 136 calls
    assert len(calls) <= 1000


# --- Basic frames searched up to the symmetry of repeated valuations ----------

def _every_order(vals):
    """The oracle's weak-order loop before orbits: every order searched."""
    n = len(vals)
    for order in engine.bruteforce_weak_orders(range(n)):
        yield [order[j] for j in range(n)]


# the valuations over {p, q} as frame ints: bit 1 is p, bit 0 is q
VALUATIONS = list(_powerset(PQ))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(formula=_core_formulas(PQ),
       frame=st.lists(st.sampled_from(VALUATIONS), min_size=1, max_size=3)
       .flatmap(lambda vals: st.permutations(vals + [vals[0]])))
# orbits keyed by the repeated group alone merge orders that differ in the
# rank of the single world, and miss the first model
@example(formula=Sequent.parse("O O q |- O q").goal(), frame=[0, 0, 1])
def test_symmetric_search_matches_every_row_and_order(formula, frame):
    goal = Goal(formula)
    args = (PQ, tuple(frame), goal, admissible_basic, "basic")
    if goal.depth <= 1:
        # the reference searches every row, each on its own
        assert _solver_search(*args) == _per_combination_search(*args)
    # the oracle searches goals of any depth, in time growing with the atoms
    if len(goal.atoms) <= 4:
        found = _oracle_search(*args)
        with mock.patch.object(engine, "_orbit_orders", _every_order):
            assert found == _oracle_search(*args)


def test_t_pref_searches_one_weak_order_per_orbit(monkeypatch):
    path = pathlib.Path(deolog.__file__).parent / "derivations" / "t-pref.json"
    theorem = check_derivation(load_derivation(str(path))).theorem
    generated, searched, built = [], [], []

    def counted(wrapped, into):
        def orders(items):
            for order in wrapped(items):
                into.append(order)
                yield order
        return orders

    def counted_worlds(*args):
        built.append(args)
        return make_worlds(*args)

    monkeypatch.setattr(engine, "bruteforce_weak_orders",
                        counted(engine.bruteforce_weak_orders, generated))
    monkeypatch.setattr(engine, "_orbit_orders",
                        counted(engine._orbit_orders, searched))
    monkeypatch.setattr(engine, "make_worlds", counted_worlds)
    assert check(Sequent((), theorem), BASIC4).kind == "qualified-valid"
    assert (len(searched), len(generated)) == (1225, 2919)
    # the oracle searches world indices and refutes every frame, so it
    # builds no worlds: building each frame's worlds made 69 calls
    assert built == []


def _frame_worlds(universe, vals, mode):
    """The World objects a model of the frame has."""
    return _model(universe, vals, [0] * len(vals), {}, mode, None).worlds


def _world_orbit_orders(worlds):
    """_orbit_orders as it was on World objects: the weak orders of the
    worlds in name order that are the first of their orbit, keyed by each
    valuation's group of worlds."""
    groups = {}
    for w in worlds:
        groups.setdefault(w.members, []).append(w)
    ordered = sorted(worlds, key=lambda w: w.name)
    if len(groups) == len(worlds):
        yield from bruteforce_weak_orders(ordered)
        return
    groups = list(groups.values())
    seen = set()
    for utility in bruteforce_weak_orders(ordered):
        key = tuple(tuple(sorted(utility[w] for w in group))
                    for group in groups)
        if key not in seen:
            seen.add(key)
            yield utility


def test_orbit_orders_match_the_world_keyed_orbits():
    frames = [vals for count in range(1, ORACLE_WORLD_CAP + 1)
              for vals in itertools.combinations_with_replacement(
                  _powerset(PQ), count)]
    assert len(frames) == 209
    for vals in frames:
        worlds = _frame_worlds(PQ, vals, "basic")
        assert list(_orbit_orders(vals)) == [
            [utility[w] for w in worlds]
            for utility in _world_orbit_orders(worlds)], vals


def test_solver_searches_one_row_per_valuation():
    # worlds 00, 00#1, 01 and 01#1
    vals = (0, 0, 1, 1)
    rows = []

    def no_picks(vals, x, cell):
        rows.append(x)
        return ()

    goal = Goal(Not(PrefWeak(Var("q"), Not(Var("q")))))
    assert _solver_search(PQ, vals, goal, no_picks, "basic") is None
    # both cells are asked at each row searched: worlds 00 and 01
    assert rows == [0, 0, 2, 2]


# --- Basic valuation sets decided once ---------------------------------------

PQR = ("p", "q", "r")


def _every_basic_frame(goal, max_worlds):
    """find_countermodel_basic without its set decisions: the rank solver on
    every frame, in order."""
    universe = tuple(goal.variables)
    for count in range(1, max_worlds + 1):
        for vals in itertools.combinations_with_replacement(
                _powerset(universe), count):
            found = _solver_search(universe, vals, goal, admissible_basic,
                                   "basic")
            if found:
                return found
    return None


def _props(names):
    return st.recursive(st.sampled_from([Var(n) for n in names]),
                        lambda kids: st.one_of(st.builds(Not, kids),
                                               st.builds(And, kids, kids)),
                        max_leaves=3)


def _transitivity(names):
    """a >= b & b >= c & ~(a >= c) for propositions a, b, c: no basic frame
    holds a model unless a cell is empty or two coincide."""
    props = _props(names)
    return st.builds(lambda a, b, c: And(And(PrefWeak(a, b), PrefWeak(b, c)),
                                         Not(PrefWeak(a, c))),
                     props, props, props)


def _strict(names):
    """a >= a & b >= b & ~(a >= b), a depth <= 1 goal conjoined: the cells
    of a and b are nonempty, and their picks differ in every model."""
    props = _props(names)
    return st.builds(lambda a, b, f: And(And(PrefWeak(a, a), PrefWeak(b, b)),
                                         And(Not(PrefWeak(a, b)), f)),
                     props, props, _depth1(names))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(formula=st.one_of(_depth1(PQR), _transitivity(PQR), _strict(PQR)),
       max_worlds=st.integers(1, 4))
def test_set_decisions_keep_the_first_basic_model(formula, max_worlds):
    found = find_countermodel_basic(Goal(formula), max_worlds)
    expected = _every_basic_frame(Goal(formula), max_worlds)
    assert (found is None) == (expected is None)
    if found:
        assert (model_to_doc(found[0]), found[1]) == \
            (model_to_doc(expected[0]), expected[1])


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(formula=_depth1(PQR),
       frame=st.lists(st.integers(0, 7), min_size=1, max_size=4),
       repeat=st.integers(0, 3))
def test_repeating_a_valuation_keeps_a_model(formula, frame, repeat):
    goal = Goal(formula)
    vals = tuple(sorted(frame))
    if _solver_search(PQR, vals, goal, admissible_basic, "basic") is None:
        return
    repeated = tuple(sorted(vals + (vals[repeat % len(vals)],)))
    assert _solver_search(PQR, repeated, goal, admissible_basic,
                          "basic") is not None


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(formula=st.one_of(_depth1(PQR), _transitivity(PQR)),
       valset=st.integers(1, 255))
@example(formula=Sequent.parse("p >= q ; q >= r |- p >= r").goal(),
         valset=255)
def test_no_frame_over_a_hopeless_set_has_a_model(formula, valset):
    goal = Goal(formula)
    if _can_hold(goal, PQR, valset):
        return
    vals = tuple(_bits(valset))
    # every frame over the set with up to two repeats, searched afresh
    for extra in range(3):
        for repeats in itertools.combinations_with_replacement(vals, extra):
            frame = tuple(sorted(vals + repeats))
            assert _solver_search(PQR, frame, Goal(formula),
                                  admissible_basic, "basic") is None


def test_s23_2_searches_no_basic_frame(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[1])
        return _solver_search(*args)

    monkeypatch.setattr(engine, "_solver_search", counted)
    sequent = Sequent.parse("p >= q ; q >= r |- p >= r")
    assert check(sequent, BASIC4).kind == "qualified-valid"
    # every set of valuations is decided hopeless: all 494 frames were
    # searched before
    assert calls == []


@pytest.mark.parametrize("sequent", [
    Sequent.parse("p >= q ; q >= r |- p >= r"),
    Sequent((), check_derivation(load_derivation(str(
        pathlib.Path(deolog.__file__).parent / "derivations" /
        "ax3-commute.json"))).theorem)],
    ids=["S23.2", "ax3-commute"])
def test_eleven_world_basic_search_skips_hopeless_sets(sequent):
    # searching each of the 75 581 frames took about 22 s for S23.2
    assert check(sequent, BasicRegime(11)).kind == "qualified-valid"


# --- Frames as valuation ints ---------------------------------------------------

def _frames(max_vars, max_basic_worlds):
    """(universe, frame, mode): power sets of 1 to max_vars variables, and
    sorted basic frames with a repeated valuation, whose index order is
    their worlds' name order."""
    def of_universe(n):
        universe = ("p", "q", "r", "s")[:n]
        power = st.just((universe, tuple(_powerset(universe)), "delta"))
        basic = st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                         max_size=max_basic_worlds - 1).map(
            lambda vals: (universe, tuple(sorted(vals + vals[:1])), "basic"))
        return st.one_of(power, basic)
    return st.integers(1, max_vars).flatmap(of_universe)


@st.composite
def _cells(draw):
    universe, vals, mode = draw(_frames(4, 6))
    x = draw(st.integers(0, len(vals) - 1))
    cell = draw(st.integers(1, (1 << len(vals)) - 1))
    weights = draw(st.tuples(*[st.integers(1, 9) for _ in universe]))
    return universe, vals, mode, x, cell, dict(zip(universe, weights))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(case=_cells())
def test_mask_policies_match_world_policies(case):
    universe, vals, mode, x, cell, weighting = case
    worlds = _frame_worlds(universe, vals, mode)
    assert [w.name for w in worlds] == sorted(w.name for w in worlds)
    w, prop = worlds[x], frozenset(worlds[j] for j in _bits(cell))

    def indices(answer):
        """The indices of the worlds of a World policy's answer, sorted by
        name."""
        return tuple(worlds.index(v) for v in
                     sorted(answer, key=lambda v: v.name))

    assert admissible_basic(vals, x, cell) == indices(prop)
    assert admissible_delta(vals, x, cell) == indices(delta_minimal(w, prop))
    forced = forced_choice(w, prop)
    assert admissible_forced(vals, x, cell) == \
        (indices([forced]) if forced is not None else ())
    assert admissible_weighted(weighting)(vals, x, cell) == \
        indices(p_nearest(weighting, w, prop))


def test_engine_searches_with_the_regimes_policies():
    """Each mask policy is defined once, in regimes, and the engine's names
    are bound to those definitions."""
    for name in ("admissible_basic", "admissible_delta", "admissible_forced",
                 "admissible_weighted", "_bits"):
        assert getattr(engine, name) is getattr(regimes, name)


def _unmemoised_oracle_search(universe, vals, goal, admissible, mode,
                              weights=None):
    """The oracle before its last cell-reading atom was decided per mask:
    every pick branch of every atom walked."""
    n = len(vals)
    full = (1 << n) - 1
    atoms = goal.atoms
    values = goal.slots(_variable_masks(universe, vals, goal.variables))

    def finish(rank, selection):
        goal.run(values, full, atoms[-1][0] + 1 if atoms else 0)
        for j in _bits(values[goal.root]):
            model = _model(universe, vals, rank, selection, mode, weights)
            if holds_at(model, goal.formula, model.worlds[j]):
                return model, model.worlds[j]
        return None

    def assign_atom(i, rank, selection):
        if i == len(atoms):
            return finish(rank, selection)
        slot, l, r = atoms[i]
        goal.run(values, full, atoms[i - 1][0] + 1 if i else 0, slot)
        left, right = values[l], values[r]
        if not left or not right or left == right:
            values[slot] = full if (left and left == right) else 0
            return assign_atom(i + 1, rank, selection)
        later = goal.later_cells[i]

        def per_world(j, members):
            if j == n:
                values[slot] = members
                return assign_atom(i + 1, rank, selection)
            picked = []
            for cell in ((j, left), (j, right)):
                if cell in selection:
                    picked.append(((selection[cell],), False))
                else:
                    picked.append((admissible(vals, *cell), True))
            (lefts, new_l), (rights, new_r) = picked
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


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(formula=_core_formulas(PQ),
       frame=st.one_of(
           st.lists(st.sampled_from(VALUATIONS), min_size=1, max_size=4)
           .map(lambda vals: ("basic", tuple(sorted(vals)))),
           st.just(("delta", tuple(VALUATIONS)))))
@example(formula=Sequent.parse("O O p |- O p").goal(),
         frame=("delta", tuple(VALUATIONS)))
# the last atom reads fresh cells, so its truth is open at some worlds: the
# memo must try each of them false as well as true
@example(formula=Not(PrefWeak(Var("p"), Var("q"))),
         frame=("basic", tuple(VALUATIONS)))
# an earlier atom on other cells: the memo must tell its masks apart
@example(formula=And(PrefWeak(Var("p"), Not(Var("p"))),
                     Not(PrefWeak(Var("q"), Not(Var("q"))))),
         frame=("basic", (0, 1, 2)))
def test_memoised_oracle_finds_the_unmemoised_model(formula, frame):
    mode, vals = frame
    goal = Goal(formula)
    if len(goal.atoms) > 4:
        return
    admissible = admissible_basic if mode == "basic" else admissible_delta
    args = (PQ, vals, goal, admissible, mode)
    assert _oracle_search(*args) == _unmemoised_oracle_search(*args)


def test_qualified_valid_basic_check_builds_no_worlds(monkeypatch):
    built = []

    def counted(*args):
        built.append(args)
        return make_worlds(*args)

    monkeypatch.setattr(engine, "make_worlds", counted)
    verdict = check(Sequent.parse("p >= q ; q >= r |- p >= r"), BASIC4)
    assert verdict.kind == "qualified-valid"
    # no frame has a model, so none is built
    assert built == []
