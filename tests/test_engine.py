import copy
import functools
import itertools
import pathlib
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import deolog
from deolog import engine
from deolog.syntax import (And, Diamond, Not, Oblig, Or, Perm, PrefWeak, Var,
                           desugar, fold, modal_depth, parse, top_variable,
                           variables)
from deolog.models import (MAX_UNIVERSE, Evaluator, Model, holds_at,
                           make_worlds, powerset_worlds, validate_model,
                           world_from_members)
from deolog.orders import (ComparisonAtom, bruteforce_weak_orders,
                           solve_order_constraints)
from deolog import regimes
from deolog.regimes import (BasicRegime, DeltaRegime, WeightClass,
                            WeightedRegime, _bits, admissible_basic,
                            admissible_delta, admissible_forced,
                            admissible_weighted, delta_minimal,
                            forced_choice, p_nearest)
from deolog.engine import (_AND, _NOT, _PREF, _VAR, ORACLE_WORLD_CAP,
                           BudgetExceeded, Goal, Sequent, _assignment_masks,
                           _can_hold, _oracle_search,
                           _orbit_orders, _pattern, _powerset,
                           _rank_constraints, _search_worlds, _solver_search,
                           _variable_masks, check,
                           check_forall_weights_invalidity,
                           find_countermodel_basic, find_countermodel_delta,
                           satisfiable)
from deolog.documents import (dumps_model, loads_model, model_to_doc,
                              verdict_to_doc)
from deolog.proofs import check_derivation, load_derivation

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
        assert v.strategy == "forced"
        assert verdict_to_doc(v)["weightRobust"] is True
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
        assert (v.kind, v.strategy) == ("invalid", "forced")
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

    def test_per_weighting_fallback(self, monkeypatch):
        # no forced-pick model refutes it, so every weighting of the base
        # rung needs a countermodel of its own, and the engine re-verifies
        # each of the 3, not only the one reported
        calls = mock.Mock(wraps=holds_at)
        monkeypatch.setattr(engine, "holds_at", calls)
        text = "p ; q |- O(p & q)"
        v = check_forall_weights_invalidity(Sequent.parse(text))
        assert (v.kind, v.strategy) == ("invalid", "per-weighting")
        assert (v.fingerprint["weightings"], calls.call_count) == ([3], 3)
        m = v.countermodel
        assert m.universe == ("p", "q")
        assert m.weights == {"p": 1, "q": 1}
        for (w, prop), pick in m.selection.items():
            assert pick in p_nearest(m.weights, w, prop)
        assert _refutes(v, text)

    def test_unknown_keeps_its_note(self):
        # 8 worlds exceed the oracle cap on every rung
        v = check_forall_weights_invalidity(
            Sequent.parse("O O p ; q & r |- O p"))
        assert v.kind == "unknown" and v.countermodel is None
        assert v.detail == ("no rung of the ladder has a countermodel for "
                            "every weighting")

    def test_extra_vars_must_not_be_negative(self):
        # rung -1 used to be searched as the same universe as rung 0
        with pytest.raises(ValueError, match="at least 0"):
            check_forall_weights_invalidity(
                Sequent.parse("O p |- O(p & q) | O(p & ~q)"), extra_vars=-1)

    @pytest.mark.parametrize("text, grid, searched, weightings", [
        # depth 1: the base rung alone, not the 71 weightings of the last
        # rung searched
        ("O p |- O(p & q) | O(p & ~q)", (1, 2, 3), [0], [3]),
        # depth 2: the oracle cap cuts rungs 1 and 2, whose 1 375
        # weightings of rung 2 were reported
        ("O O (p & q) |- O (p & q)", None, [0], [3]),
        # 8 worlds exceed the oracle cap on every rung
        ("O O p ; q & r |- O p", None, [], []),
    ])
    def test_fingerprint_counts_the_rungs_searched(self, text, grid, searched,
                                                   weightings):
        v = check_forall_weights_invalidity(Sequent.parse(text), grid=grid)
        assert v.kind == "unknown"
        assert v.fingerprint["extras_searched"] == searched
        assert v.fingerprint["weightings"] == weightings

    def test_rung_over_the_oracle_cap_enumerates_no_weighting(
            self, monkeypatch):
        # 8, 16 and 32 worlds exceed the oracle cap: the 31 + 1 375 + 36 151
        # weightings of the three rungs used to be enumerated before each
        # rung's first search was cut
        calls = mock.Mock(wraps=regimes.enumerate_weight_orders)
        monkeypatch.setattr(engine, "enumerate_weight_orders", calls)
        sequent = Sequent.parse("O O p ; q & r |- O p")
        v = check_forall_weights_invalidity(sequent)
        assert (v.kind, v.countermodel) == ("unknown", None)
        assert v.fingerprint == {"regime": "forall-weights",
                                 "grid": list(range(1, 10)), "extra_vars": 0,
                                 "extras_searched": [], "weightings": []}
        v = check(sequent, WeightedRegime())
        assert (v.kind, v.detail) == \
            ("qualified-valid", "budget exceeded: 8 worlds exceeds oracle "
                                f"cap {ORACLE_WORLD_CAP}")
        assert (v.fingerprint["extras_searched"],
                v.fingerprint["weightings"]) == ([], [])
        assert calls.call_count == 0
        # rung 0 has 4 worlds, rungs 1 and 2 are cut unenumerated
        v = check_forall_weights_invalidity(
            Sequent.parse("O O (p & q) |- O (p & q)"))
        assert (v.fingerprint["extras_searched"],
                v.fingerprint["weightings"]) == ([0], [3])
        assert calls.call_count == 1

    @pytest.mark.parametrize("grid", [(), (0, 1, 2), (-1, 1)])
    def test_grid_must_be_positive(self, grid):
        with pytest.raises(ValueError):
            check_forall_weights_invalidity(Sequent.parse("O p |- O q"),
                                            grid=grid)


class TestWeightedSearch:
    def test_forced_settled_checks_enumerate_no_weighting(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a weighting was enumerated")
        monkeypatch.setattr(engine, "enumerate_weight_orders", refuse)
        v = check(Sequent.parse("O (p & q & r & s & t) |- O p"),
                  WeightedRegime())
        assert (v.kind, v.strategy) == ("invalid", "forced")
        assert "weightings" not in v.fingerprint

    def test_class_off_the_grid_is_refused(self):
        # p>q is satisfiable, but not by a weighting on the grid (1,), so no
        # weighted model exists, forced or not
        with pytest.raises(ValueError, match="needs 2 distinct weights"):
            WeightedRegime(WeightClass.parse("p>q"), (1,))


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
        # no small-model bound is known for basic: a bounded search proves
        # only that no frame of up to 4 worlds has a model
        assert satisfiable([parse("O T")], BASIC4).kind == "unknown"

    def test_perm_bot(self):
        assert satisfiable([parse("P F")], BASIC4).kind == "unknown"


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
            f"budget exceeded: {ORACLE_WORLD_CAP + 1} worlds exceeds oracle "
            f"cap {ORACLE_WORLD_CAP}")
        assert check(Sequent.parse("|- [][]p -> []p"),
                     BasicRegime(ORACLE_WORLD_CAP)).detail is None

    @pytest.mark.parametrize("text, note", [
        # p and MAX_UNIVERSE more variables: no rung's universe fits
        ("O p ; " + " & ".join(f"v{i}" for i in range(MAX_UNIVERSE))
         + " |- O p",
         f"universe of {MAX_UNIVERSE + 1} variables exceeds cap "
         f"{MAX_UNIVERSE}"),
        # depth 2 over three variables: the base rung's 8 worlds, the first
        # rung cut, not the 32 of the last
        ("O O p ; q & r |- O p",
         f"8 worlds exceeds oracle cap {ORACLE_WORLD_CAP}"),
    ], ids=["universe", "oracle"])
    def test_delta_note_names_the_cap_and_the_number_that_hit_it(self, text,
                                                                 note):
        # the notes of the oracle cap at Weighted and Basic{7} and of the
        # weightings cap are checked where those cuts are tested
        v = check(Sequent.parse(text), DELTA0)
        assert (v.kind, v.detail) == ("qualified-valid",
                                      "budget exceeded: " + note)

    def test_basic_skeleton_stop_searches_no_frame(self, monkeypatch):
        # no truth assignment to the atoms of O p satisfies O p & ~O p, so
        # no valuation set is decided
        calls = mock.Mock(wraps=_can_hold)
        monkeypatch.setattr(engine, "_can_hold", calls)
        v = check(Sequent.parse("O p ; a & b & c & d |- O p"), BASIC4)
        assert (v.kind, v.detail) == ("qualified-valid", None)
        assert calls.call_count == 0

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


@settings(max_examples=150)
@given(premises=st.lists(_depth2(("p", "q")), max_size=2),
       conclusion=_depth2(("p", "q")),
       regime=st.sampled_from([BasicRegime(2), DELTA0, WeightedRegime()]))
def test_invalid_exactly_when_goal_satisfiable(premises, conclusion, regime):
    checked = check(Sequent(tuple(premises), conclusion), regime)
    sat = satisfiable(premises + [Not(conclusion)], regime)
    assert (checked.kind == "invalid") == (sat.kind == "sat")
    assert checked.fingerprint == sat.fingerprint


# random goals are rarely refuted only per weighting: the two examples are
@settings(max_examples=100)
@given(premises=st.lists(_depth2(("p", "q")), max_size=2),
       conclusion=_depth2(("p", "q")))
@example(premises=[parse("O p")], conclusion=parse("O(p & q) | O(p & ~q)"))
@example(premises=[parse("p"), parse("q")], conclusion=parse("O(p & q)"))
def test_weighted_models_pass_their_certificate(premises, conclusion):
    sequent = Sequent(tuple(premises), conclusion)
    for v in (check(sequent, DELTA0), check(sequent, BASIC4),
              check(sequent, WeightedRegime()),
              check(sequent, WeightedRegime(WeightClass.parse("q>p"))),
              check_forall_weights_invalidity(sequent)):
        m = v.countermodel
        if m is None:
            continue
        assert validate_model(m) == []
        assert holds_at(m, sequent.goal(), v.witness)
        text = dumps_model(m)
        assert dumps_model(loads_model(text)) == text
        assert (m.weights is not None) == (v.strategy == "per-weighting")
        if v.strategy is None:
            continue
        for (w, prop), pick in m.selection.items():
            if v.strategy == "forced":
                assert pick == forced_choice(w, prop)
            else:
                assert v.strategy == "per-weighting"
                assert pick in p_nearest(m.weights, w, prop)


def _depth1_surface(names):
    """Surface formulas of modal depth at most 1 over the given variables."""
    def boolean(leaves):
        return st.recursive(leaves, lambda kids: st.one_of(
            st.builds(Not, kids), st.builds(And, kids, kids),
            st.builds(Or, kids, kids)), max_leaves=3)
    props = boolean(st.sampled_from([Var(n) for n in names]))
    return boolean(st.one_of(props, st.builds(Oblig, props),
                             st.builds(Perm, props), st.builds(Diamond, props),
                             st.builds(PrefWeak, props, props)))


@settings(max_examples=300)
@given(premises=st.lists(_depth1_surface(("p", "q")), max_size=2),
       conclusion=_depth1_surface(("p", "q")))
def test_delta_verdicts_carry_across_regimes(premises, conclusion):
    sequent = Sequent(tuple(premises), conclusion)
    delta = check(sequent, DELTA0).kind
    if delta == "valid":
        # Fact 1: nearest picks under any weighting are delta-based, so a
        # weighted countermodel is a delta one
        for weight_class in (WeightClass(), WeightClass.parse("q>p")):
            assert check(sequent, WeightedRegime(weight_class)).kind == "valid"
    else:
        # the power set over {p, q} is a basic frame of at most four worlds
        assert delta == "invalid"
        assert check(sequent, BASIC4).kind == "invalid"


def _delta_valid_is_weighted_valid(premises, conclusion, classes):
    # Fact 1 beyond modal depth 1 and beyond {p, q}
    sequent = Sequent(tuple(premises), conclusion)
    if check(sequent, DELTA0).kind == "valid":
        for text in classes:
            regime = WeightedRegime(WeightClass.parse(text))
            assert check(sequent, regime).kind == "valid"


# each example is refuted under weighted picks that are not delta picks
@settings(max_examples=80)
@given(premises=st.lists(_depth2(("p", "q")), max_size=2),
       conclusion=_depth2(("p", "q")))
@example(premises=[parse("O O ~p"), parse("~q"), parse("O (p | q)")],
         conclusion=parse("O(~p & q)"))
def test_depth2_delta_valid_is_weighted_valid(premises, conclusion):
    _delta_valid_is_weighted_valid(premises, conclusion, ("", "q>p"))


@settings(max_examples=80)
@given(premises=st.lists(_depth1_surface(("p", "q", "r")), max_size=2),
       conclusion=_depth1_surface(("p", "q", "r")))
@example(premises=[parse("O ~p"), parse("~q & r"), parse("O(p | q)")],
         conclusion=parse("O q"))
def test_three_variable_delta_valid_is_weighted_valid(premises, conclusion):
    _delta_valid_is_weighted_valid(premises, conclusion, ("", "q>p,q>r"))


# --- Every model re-verified at one boundary ---------------------------------

@pytest.mark.parametrize("text, regime", [
    ("p |- q", DELTA0),
    ("O O p |- O p", DELTA0),
    ("|- p", BASIC4),
    ("O(p & q) |- O q", WeightedRegime()),
], ids=["solver", "oracle", "basic", "weighted"])
def test_a_model_failing_re_verification_raises(monkeypatch, text, regime):
    sequent = Sequent.parse(text)
    assert check(sequent, regime).kind == "invalid"
    # a fault of the search: no model it finds satisfies the goal
    monkeypatch.setattr(engine, "holds_at", lambda *args: False)
    with pytest.raises(AssertionError, match="fails re-verification"):
        check(sequent, regime)


def _left_nested_goal(sequent):
    """The goal as it was built before goals were balanced."""
    formulas = [*sequent.premises, Not(sequent.conclusion)]
    top = top_variable(*formulas)
    return functools.reduce(And, [desugar(f, top) for f in formulas])


def _atom_ops(goal):
    """Each atom's operands as nested ops, free of slot numbers."""
    def expand(slot):
        kind, a, b = goal.code[slot]
        if kind == _VAR:
            return a
        return (kind, expand(a)) if kind == _NOT else \
            (kind, expand(a), expand(b))
    return [(expand(l), expand(r)) for _, l, r in goal.atoms]


@settings(max_examples=100)
@given(premises=st.lists(_depth2(("p", "q")), min_size=3, max_size=7),
       conclusion=_depth2(("p", "q")))
def test_balanced_goal_searches_as_the_left_nested_one(premises, conclusion):
    sequent = Sequent(tuple(premises), conclusion)
    balanced, nested = Goal(sequent.goal()), Goal(_left_nested_goal(sequent))
    assert _atom_ops(balanced) == _atom_ops(nested)
    a, b = (engine._find(goal, DELTA0).verdict("invalid", "valid",
                                               "qualified-valid")
            for goal in (balanced, nested))
    assert (a.kind, a.fingerprint) == (b.kind, b.fingerprint)
    if a.countermodel is not None:
        assert a.witness.name == b.witness.name
        assert model_to_doc(a.countermodel) == model_to_doc(b.countermodel)


def _height(f):
    return fold(f, lambda g, below: 1 + max(below, default=0))


def _conjuncts(f, count):
    """The leaves of the conjunction f of count conjuncts, left to right."""
    if count == 1:
        return [f]
    half = (count + 1) // 2
    return _conjuncts(f.left, half) + _conjuncts(f.right, count - half)


def test_goal_is_balanced_in_conjunct_order():
    for n in range(1, 40):
        formulas = [Var(f"v{i}") for i in range(n)]
        goal = engine._conjoin(formulas, False)
        assert _conjuncts(goal, n) == formulas
        assert _height(goal) == 1 + (n - 1).bit_length()
        if n <= 3:
            # the shape of every paper claim's goal, left-nested as before
            assert goal == functools.reduce(And, formulas)
    goal = Sequent.parse(" ; ".join(["p"] * 1500) + " |- q").goal()
    assert _height(goal) == 12


def _iff_chain(levels):
    f = "p"
    for _ in range(levels):
        f = f"(p <-> {f})"
    return f


@pytest.mark.parametrize("text, strict_def7, height, kinds", [
    # the tallest core a parse yields, then the tallest without strict_def7
    ("P " * 63 + "p", True, 444,
     ["invalid", "sat", "qualified-valid", "sat", "invalid", "sat"]),
    ("O " * 63 + "p", False, 319,
     ["invalid", "sat", "invalid", "unknown", "invalid", "sat"]),
    (_iff_chain(62), False, 311,
     ["invalid", "sat", "invalid", "sat", "invalid", "sat"]),
    (_iff_chain(63), False, 316,
     ["valid", "sat", "qualified-valid", "sat", "valid", "sat"]),
], ids=["P63-strict", "O63", "iff62", "iff63"])
def test_deepest_parseable_formulas_are_decided(text, strict_def7, height,
                                                kinds):
    # in this process, at the interpreter's default recursion limit: the
    # oracle used to recurse once per world and atom, and overflowed
    f = parse(text)
    assert _height(desugar(f, strict_def7=strict_def7)) == height
    observed = []
    for regime in (DELTA0, BasicRegime(2), WeightedRegime()):
        v = check(Sequent((), f), regime, strict_def7)
        observed += [v.kind, satisfiable([f], regime, strict_def7).kind]
        if v.countermodel is not None:
            assert validate_model(v.countermodel) == []
            assert holds_at(v.countermodel, Sequent((), f).goal(strict_def7),
                            v.witness)
    assert observed == kinds


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


@settings(max_examples=100)
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

def _frame_worlds(universe, vals):
    """The World objects a model of the frame has."""
    n = len(universe)
    return make_worlds(universe, [
        [v for i, v in enumerate(universe) if val >> (n - 1 - i) & 1]
        for val in vals])


def _holds(universe, vals, goal, rank, selection, x):
    """Whether a backend's rank list and selection, keyed by (world index,
    cell mask), make a model of the frame satisfying the goal at world x."""
    worlds = _frame_worlds(universe, vals)
    model = Model(universe, worlds, dict(zip(worlds, rank)),
                  {(worlds[at], frozenset(worlds[j] for j in _bits(mask))):
                   worlds[j] for (at, mask), j in selection.items()})
    return holds_at(model, goal.formula, worlds[x])


def _per_combination_search(universe, vals, goal, admissible):
    """The rank solver as it was before pick patterns: every pick
    combination of every satisfying assignment solved on its own, the first
    one whose model satisfies the goal returned as the backend returns it."""
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
                if _holds(universe, vals, goal, rank, selection, x):
                    return rank, selection, x
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


@settings(max_examples=150)
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
        runs = [(frame, admissible_basic) for frame in BASIC_FRAMES]
    elif policy == "delta":
        runs = [(_powerset(PQ), admissible_delta)]
    else:
        runs = [(_powerset(PQ), admissible_weighted(weighting))]
    for vals, admissible in runs:
        args = (PQ, vals, goal, admissible)
        assert _solver_search(*args) == _per_combination_search(*args)


def _sides_and_pattern(cells, k):
    """k free atoms' (left, right) cell indices among cells, and a pick
    pattern of the cells."""
    side = st.tuples(st.integers(0, cells - 1), st.integers(0, cells - 1))
    return st.tuples(
        st.lists(side.filter(lambda s: s[0] != s[1]), min_size=k,
                 max_size=k).map(tuple),
        st.lists(st.integers(0, cells - 1), min_size=cells,
                 max_size=cells).map(_pattern))


@settings(max_examples=150)
@given(data=st.data(), cells=st.integers(2, 4), k=st.integers(1, 3))
def test_allowed_is_the_mask_of_orderable_assignments(data, cells, k):
    # calls on one Goal share its memo: draw from two (sides, pattern)
    # pairs, so later calls find some assignments decided and others not
    pairs = data.draw(st.lists(_sides_and_pattern(cells, k), min_size=1,
                               max_size=2))
    goal = Goal(Var("p"))
    for _ in range(data.draw(st.integers(1, 5))):
        sides, pattern = data.draw(st.sampled_from(pairs))
        assignments = data.draw(st.integers(0, (1 << (1 << k)) - 1))
        expected = sum(1 << t for t in range(1 << k)
                       if assignments >> t & 1 and solve_order_constraints(
                           _rank_constraints(sides, t, pattern)) is not None)
        assert goal.allowed(sides, pattern, assignments) == expected


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


@settings(max_examples=100)
@given(formula=_core_formulas(PQ),
       frame=st.lists(st.sampled_from(VALUATIONS), min_size=1, max_size=3)
       .flatmap(lambda vals: st.permutations(vals + [vals[0]])))
# orbits keyed by the repeated group alone merge orders that differ in the
# rank of the single world, and miss the first model
@example(formula=Sequent.parse("O O q |- O q").goal(), frame=[0, 0, 1])
def test_symmetric_search_matches_every_row_and_order(formula, frame):
    goal = Goal(formula)
    args = (PQ, tuple(frame), goal, admissible_basic)
    if goal.depth <= 1:
        # the reference searches every row, each on its own
        assert _solver_search(*args) == _per_combination_search(*args)
    # the oracle searches goals of any depth, in time growing with the atoms
    if len(goal.atoms) <= 4:
        found = _oracle_search(*args)
        # a fresh Goal, since the first one holds the frame's orbit orders
        with mock.patch.object(engine, "_orbit_orders", _every_order):
            assert found == _oracle_search(PQ, tuple(frame), Goal(formula),
                                           admissible_basic)


def test_t_pref_searches_one_weak_order_per_orbit(monkeypatch):
    path = pathlib.Path(deolog.__file__).parent / "derivations" / "t-pref.json"
    theorem = check_derivation(load_derivation(str(path))).theorem
    generated, kept, built, frames = [], [], [], []

    def counted(wrapped, into):
        def orders(items):
            for order in wrapped(items):
                into.append(order)
                yield order
        return orders

    def counted_worlds(*args):
        built.append(args)
        return make_worlds(*args)

    def recorded_search(universe, vals, goal, *args):
        frames.append((vals, goal))
        return oracle_search(universe, vals, goal, *args)

    oracle_search = engine._oracle_search
    monkeypatch.setattr(engine, "bruteforce_weak_orders",
                        counted(engine.bruteforce_weak_orders, generated))
    monkeypatch.setattr(engine, "_orbit_orders",
                        counted(engine._orbit_orders, kept))
    monkeypatch.setattr(engine, "make_worlds", counted_worlds)
    monkeypatch.setattr(engine, "_oracle_search", recorded_search)
    assert check(Sequent((), theorem), BASIC4).kind == "qualified-valid"
    # every frame is refuted, so the oracle searches each order of its
    # shape: one order per orbit, 1 225 in all, where every weak order of
    # every frame would be 2 919
    assert sum(len(list(copy.copy(goal.orbits[_pattern(vals)])))
               for vals, goal in frames) == 1225
    # the orders of each frame shape are built once per decision: building
    # them once per frame made 2 919 orders and kept 1 225
    assert (len(kept), len(generated)) == (320, 659)
    # the oracle searches world indices and refutes every frame, so it
    # builds no worlds: building each frame's worlds made 69 calls
    assert built == []


@settings(max_examples=100)
@given(formula=_core_formulas(PQ))
# a diamond after the last atom comparing two formulas
@example(formula=Sequent.parse("p >= q |- <>p").goal())
def test_last_reader_is_the_last_atom_comparing_two_formulas(formula):
    goal = Goal(formula)
    count = len(goal.atoms)
    # an atom comes before last_reader exactly when a later atom compares
    # two formulas
    assert [i < goal.last_reader for i in range(count)] == \
        [any(l != r for _, l, r in goal.atoms[i + 1:]) for i in range(count)]


def test_box_diamond_goal_searches_one_weak_order_per_frame(monkeypatch):
    generated = []

    def counted(items):
        for order in bruteforce_weak_orders(items):
            generated.append(order)
            yield order

    sequent = Sequent.parse("|- <>p -> []<>p")
    assert Goal(sequent.goal()).last_reader == -1
    monkeypatch.setattr(engine, "bruteforce_weak_orders", counted)
    verdict = check(sequent, BASIC4)
    assert (verdict.kind, verdict.fingerprint) == \
        ("qualified-valid", {"regime": "basic", "max_worlds": 4})
    # no atom compares two formulas, so no walk reads a rank and the first
    # order of each frame decides it, where every orbit order would be 346
    assert len(generated) == 10


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
        worlds = _frame_worlds(PQ, vals)
        assert list(_orbit_orders(vals)) == [
            [utility[w] for w in worlds]
            for utility in _world_orbit_orders(worlds)], vals


def test_orbit_orders_depend_only_on_the_frame_pattern():
    # Goal.orbits keys a frame's orbit orders by its _pattern. The frames of
    # up to five worlds over the four valuations of {p, q}, in any world
    # order, have 74 of the 75 patterns of up to five worlds; the last, five
    # distinct valuations, keeps every weak order, as any frame of distinct
    # valuations does.
    frames = [vals for count in range(1, 6)
              for vals in itertools.product(VALUATIONS, repeat=count)]
    assert len(frames) == 1364
    by_pattern = {}
    for vals in frames:
        pattern = _pattern(vals)
        if pattern not in by_pattern:
            by_pattern[pattern] = list(_orbit_orders(pattern))
        assert list(_orbit_orders(vals)) == by_pattern[pattern], vals
    assert len(by_pattern) == 74
    distinct = tuple(range(5))
    assert list(_orbit_orders(distinct)) == list(_every_order(distinct))


@settings(max_examples=60)
@given(formula=_core_formulas(PQ))
def test_one_goal_searches_each_frame_as_a_fresh_goal_does(formula):
    # Goal.orbits outlives a frame: frames of other shapes must not share
    # their orders
    goal = Goal(formula)
    if len(goal.atoms) > 4:
        return
    for vals in BASIC_FRAMES:
        assert _oracle_search(PQ, vals, goal, admissible_basic) == \
            _oracle_search(PQ, vals, Goal(formula), admissible_basic)


def test_oracle_asks_its_policy_once_per_cell_and_frame():
    # the same (world, cell) pairs come up under each weak order the search
    # tries before its model
    goal = Goal(Sequent.parse("P O p |- O P p").goal())
    asked = []

    def policy(vals, j, mask):
        asked.append((j, mask))
        return admissible_basic(vals, j, mask)

    assert _oracle_search(("p",), (0, 0, 1, 1), goal, policy) is not None
    assert asked
    assert len(asked) == len(set(asked))


@pytest.mark.parametrize("count", range(1, 7))
def test_power_set_variable_masks_are_the_assignment_masks(count):
    # valuation j of the power set and assignment j number their bits alike
    universe = tuple("pqrstu"[:count])
    assert dict(zip(universe, _assignment_masks(count))) == \
        _variable_masks(universe, _powerset(universe), universe)


def test_solver_searches_every_world_as_a_row():
    # worlds 00, 00#1, 01 and 01#1
    vals = (0, 0, 1, 1)
    rows = []

    def no_picks(vals, x, cell):
        rows.append(x)
        return ()

    goal = Goal(Not(PrefWeak(Var("q"), Not(Var("q")))))
    assert _solver_search(PQ, vals, goal, no_picks) is None
    # both cells are asked at each row, in index order
    assert rows == [0, 0, 1, 1, 2, 2, 3, 3]


# --- Basic valuation sets decided once ---------------------------------------

PQR = ("p", "q", "r")


def _every_basic_frame(goal, max_worlds):
    """find_countermodel_basic without its set decisions: the rank solver on
    every frame, in order."""
    universe = tuple(goal.variables)
    for count in range(1, max_worlds + 1):
        for vals in itertools.combinations_with_replacement(
                _powerset(universe), count):
            found = _search_worlds(universe, vals, goal, admissible_basic,
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


@settings(max_examples=150)
@given(formula=st.one_of(_depth1(PQR), _transitivity(PQR), _strict(PQR)),
       max_worlds=st.integers(1, 4))
def test_set_decisions_keep_the_first_basic_model(formula, max_worlds):
    found = find_countermodel_basic(Goal(formula), max_worlds)
    expected = _every_basic_frame(Goal(formula), max_worlds)
    assert (found is None) == (expected is None)
    if found:
        assert (model_to_doc(found[0]), found[1]) == \
            (model_to_doc(expected[0]), expected[1])


@settings(max_examples=150)
@given(formula=_depth1(PQR),
       frame=st.lists(st.integers(0, 7), min_size=1, max_size=4),
       repeat=st.integers(0, 3))
def test_repeating_a_valuation_keeps_a_model(formula, frame, repeat):
    goal = Goal(formula)
    vals = tuple(sorted(frame))
    if _solver_search(PQR, vals, goal, admissible_basic) is None:
        return
    repeated = tuple(sorted(vals + (vals[repeat % len(vals)],)))
    assert _solver_search(PQR, repeated, goal, admissible_basic) is not None


@settings(max_examples=150)
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
                                  admissible_basic) is None


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
    """(universe, frame): power sets of 1 to max_vars variables, and sorted
    basic frames with a repeated valuation, whose index order is their
    worlds' name order."""
    def of_universe(n):
        universe = ("p", "q", "r", "s")[:n]
        power = st.just((universe, tuple(_powerset(universe))))
        basic = st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                         max_size=max_basic_worlds - 1).map(
            lambda vals: (universe, tuple(sorted(vals + vals[:1]))))
        return st.one_of(power, basic)
    return st.integers(1, max_vars).flatmap(of_universe)


@st.composite
def _cells(draw):
    universe, vals = draw(_frames(4, 6))
    x = draw(st.integers(0, len(vals) - 1))
    cell = draw(st.integers(1, (1 << len(vals)) - 1))
    weights = draw(st.tuples(*[st.integers(1, 9) for _ in universe]))
    return universe, vals, x, cell, dict(zip(universe, weights))


@settings(max_examples=300)
@given(case=_cells())
def test_mask_policies_match_world_policies(case):
    universe, vals, x, cell, weighting = case
    worlds = _frame_worlds(universe, vals)
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


@pytest.mark.parametrize("text", ["p |- q", "O O p |- O p"])
def test_delta_models_have_the_power_set_worlds(text):
    # the engine builds every model's worlds with make_worlds: on the power
    # set, the names and order of powerset_worlds
    model = check(Sequent.parse(text), DeltaRegime(1)).countermodel
    assert model.worlds == powerset_worlds(model.universe)


def test_engine_searches_with_the_regimes_policies():
    """Each mask policy is defined once, in regimes, and the engine's names
    are bound to those definitions."""
    for name in ("admissible_basic", "admissible_delta", "admissible_forced",
                 "admissible_weighted", "_bits"):
        assert getattr(engine, name) is getattr(regimes, name)


def _unmemoised_oracle_search(universe, vals, goal, admissible):
    """The oracle before its last cell-reading atom was decided per mask:
    every pick branch of every atom walked, and the first world of the
    goal's mask where its model satisfies the goal returned as the backend
    returns it."""
    n = len(vals)
    full = (1 << n) - 1
    atoms = goal.atoms
    values = goal.slots(_variable_masks(universe, vals, goal.variables))

    def finish(rank, selection):
        goal.run(values, full, atoms[-1][0] + 1 if atoms else 0)
        for j in _bits(values[goal.root]):
            if _holds(universe, vals, goal, rank, selection, j):
                return rank, dict(selection), j
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
        later = any(a != b for _, a, b in atoms[i + 1:])

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


@settings(max_examples=100)
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
# the last atom must hold at a world where its picks leave it open: the
# memo must try such worlds true, not only the forced ones
@example(formula=And(Not(PrefWeak(Var("q"), Not(Var("q")))),
                     PrefWeak(Var("p"), Not(Var("q")))),
         frame=("basic", (2, 3)))
def test_memoised_oracle_finds_the_unmemoised_model(formula, frame):
    policy, vals = frame
    goal = Goal(formula)
    if len(goal.atoms) > 4:
        return
    admissible = admissible_basic if policy == "basic" else admissible_delta
    args = (PQ, vals, goal, admissible)
    assert _oracle_search(*args) == _unmemoised_oracle_search(*args)


@pytest.mark.parametrize("text, vals", [
    # an atom that has tried all its branches leaves no pick behind for the
    # next branch of an earlier atom
    ("O P p ; ~q & P q |- O ~p", (0, 0, 3)),
    # a later atom reads the cells again, so picks of one truth value and
    # other ranks are branches of their own
    ("P O q |- (q >= p) & O q", (1, 1, 2, 3)),
])
def test_oracle_walks_the_branches_the_unmemoised_one_does(text, vals):
    args = (PQ, vals, Goal(Sequent.parse(text).goal()), admissible_basic)
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


# --- One ladder rung at modal depth <= 1 ---------------------------------------

def _projected(model, witness, names):
    """A delta model on an upper rung, over the goal's variables names plus
    fresh ones, projected onto names at its witness: each world has the
    utility of its extension by the witness's fresh variables, and each pick
    at the witness, its cell and the witness lose their fresh variables.
    Returns the model and the projected witness."""
    fresh = witness.members - set(names)

    def down(w):
        return world_from_members(names, w.members & set(names))

    worlds = powerset_worlds(names)
    utility = {w: model.utility[world_from_members(model.universe,
                                                   w.members | fresh)]
               for w in worlds}
    # a depth <= 1 model reads its cells only at the witness
    assert all(w == witness for w, _ in model.selection)
    selection = {(down(witness), frozenset(map(down, prop))): down(pick)
                 for (_, prop), pick in model.selection.items()}
    return Model(names, worlds, utility, selection, "delta"), down(witness)


@settings(max_examples=150)
@given(formula=_depth1(PQ))
def test_rung_one_adds_no_model_at_depth_one(formula):
    goal = Goal(formula)
    for admissible in (admissible_delta, admissible_forced):
        base = find_countermodel_delta(goal, 0, admissible)
        upper = find_countermodel_delta(goal, 1, admissible)
        assert (base is None) == (upper is None)
        if upper is None:
            continue
        model, witness = _projected(*upper, goal.variables)
        assert validate_model(model) == []
        assert holds_at(model, formula, witness)
        if admissible is admissible_forced:
            for (w, prop), pick in model.selection.items():
                assert pick == forced_choice(w, prop)


def test_depth_one_searches_the_base_rung_only(monkeypatch):
    rungs = []

    def recorded(goal, extra_vars=0, admissible=admissible_delta):
        rungs.append(extra_vars)
        return find_countermodel_delta(goal, extra_vars, admissible)

    monkeypatch.setattr(engine, "find_countermodel_delta", recorded)
    # the delta ladder, then the forced ladder of the weighted regime and of
    # forall-weights, each finding no model
    v = check(Sequent.parse("O p ; ~p > ~q |- O q"), DeltaRegime(1))
    assert (v.kind, v.fingerprint["extras_searched"], rungs) == \
        ("valid", [1], [1])
    rungs.clear()
    assert check(Sequent.parse("O p |- O(p & q) | O(p & ~q)"),
                 WeightedRegime()).kind == "invalid"
    assert rungs == [0]
    rungs.clear()
    v = check_forall_weights_invalidity(Sequent.parse("p ; q |- O(p & q)"))
    assert (v.kind, v.fingerprint["extras_searched"], rungs) == \
        ("invalid", [0], [0])
    # depth 2 keeps three rungs: O O p |- O p falls on rung 1
    rungs.clear()
    v = check(Sequent.parse("O O p |- O p"), DELTA0)
    assert (v.kind, v.fingerprint["extras_searched"], rungs) == \
        ("invalid", [0, 1], [0, 1])


# --- Pruning and budgets -----------------------------------------------------

def _drawing_weak_orders(monkeypatch):
    """The weak orders engine draws from bruteforce_weak_orders, recorded."""
    drawn = []

    def counted(items):
        for order in bruteforce_weak_orders(items):
            drawn.append(order)
            yield order
    monkeypatch.setattr(engine, "bruteforce_weak_orders", counted)
    return drawn


def test_propositional_contradiction_draws_no_weak_order(monkeypatch):
    # the first goal reads the atom O O (q & p) both ways, so no assignment
    # of its atoms satisfies it, and the oracle refutes each frame before
    # drawing an order: the 4-world frames' orders used to take about 30 s.
    # In the second, p > p is empty in every model, so its O atom is false
    # by existential import: Basic{5} used to take over 60 s
    drawn = _drawing_weak_orders(monkeypatch)
    for text, max_worlds in [("O O (q & p) |- O O (q & p)", 4),
                             ("O (p > p) |- (q > q) & (q > ~p)", 4),
                             ("O (p > p) |- (q > q) & (q > ~p)", 5)]:
        v = check(Sequent.parse(text), BasicRegime(max_worlds))
        assert (v.kind, v.fingerprint, v.detail) == \
            ("qualified-valid", {"regime": "basic", "max_worlds": max_worlds},
             None)
    assert drawn == []


@settings(max_examples=100)
@given(premises=st.lists(_depth2(PQ), max_size=2),
       conclusion=_depth2(PQ),
       regime=st.sampled_from([BasicRegime(2), DELTA0]))
@example(premises=[parse("O O (q & p)")], conclusion=parse("O O (q & p)"),
         regime=DELTA0)
@example(premises=[parse("P O p"), parse("~P O p")], conclusion=parse("q"),
         regime=BasicRegime(2))
@example(premises=[parse("O (p > p)")],
         conclusion=parse("(q > q) & (q > ~p)"), regime=BasicRegime(2))
def test_skeleton_prune_keeps_every_verdict(premises, conclusion, regime):
    sequent = Sequent(tuple(premises), conclusion)

    def outcome():
        v = check(sequent, regime)
        return (v.kind, v.fingerprint, v.detail,
                v.countermodel and model_to_doc(v.countermodel))
    pruned = outcome()
    with mock.patch.object(Goal, "skeleton_holds", lambda goal: True):
        assert outcome() == pruned


def test_first_model_draws_only_the_orders_before_it(monkeypatch):
    # rung 1's frame has 8 worlds, whose 545 835 weak orders were all drawn
    # before the first was searched
    monkeypatch.setattr(engine, "ORACLE_WORLD_CAP", 8)
    drawn = _drawing_weak_orders(monkeypatch)
    v = check(Sequent.parse("O O (p & q) |- O (p & q)"), DELTA0)
    assert (v.kind, v.fingerprint["extras_searched"]) == ("invalid", [0, 1])
    assert len(drawn) < 1000


def test_weightings_over_the_cap_are_not_enumerated(monkeypatch):
    calls = mock.Mock(wraps=regimes.enumerate_weight_orders)
    monkeypatch.setattr(engine, "enumerate_weight_orders", calls)
    # no forced model refutes it, and the 9^7 candidate weightings of its
    # seven variables exceed the cap, so its one rung is cut
    sequent = Sequent.parse("p ; q ; r ; s ; t ; u ; v |- O(p & q)")
    v = check(sequent, WeightedRegime())
    assert (v.kind, v.fingerprint["extras_searched"], v.detail) == \
        ("qualified-valid", [], f"budget exceeded: {9 ** 7} candidate "
                                f"weightings exceed cap "
                                f"{regimes.MAX_WEIGHT_CANDIDATES}")
    v = check_forall_weights_invalidity(sequent)
    assert (v.kind, v.fingerprint["extras_searched"]) == ("unknown", [])
    assert calls.call_count == 0
