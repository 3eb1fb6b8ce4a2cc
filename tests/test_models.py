import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from deolog.regimes import check_weighting, delta_minimal
from deolog.syntax import And, Not, PrefWeak, Var, desugar, parse
from deolog.models import (Evaluator, MissingSelectionError, Model, World,
                           denote, holds_at, make_worlds, powerset_worlds,
                           symmetric_difference, world_from_members,
                           validate_model)
from deolog.suite import fill_selector, random_delta_model

core = lambda text: desugar(parse(text), "p")


def _w(name, *members):
    return World(name, frozenset(members))


class TestWorlds:
    def test_symmetric_difference(self):
        assert symmetric_difference(_w("a", "p", "q"),
                                    _w("b", "q", "r")) == {"p", "r"}
        w = _w("a", "p")
        assert symmetric_difference(w, w) == frozenset()
        assert symmetric_difference(_w("a"), _w("b", "p")) == {"p"}

    def test_powerset_sizes(self):
        assert len(powerset_worlds(("p",))) == 2
        assert len(powerset_worlds(("p", "q"))) == 4
        assert len(powerset_worlds(("p", "q", "r"))) == 8

    def test_powerset_names_are_bitstrings(self):
        names = [w.name for w in powerset_worlds(("p", "q"))]
        assert names == ["00", "01", "10", "11"]
        w10 = powerset_worlds(("p", "q"))[2]
        assert w10.members == {"p"}

    def test_powerset_cap(self):
        with pytest.raises(ValueError):
            powerset_worlds(tuple(f"v{i}" for i in range(13)))
        with pytest.raises(ValueError):
            powerset_worlds(())

    def test_make_worlds_duplicate_suffix(self):
        worlds = make_worlds(("p",), [{"p"}, {"p"}, set()])
        assert [w.name for w in worlds] == ["1", "1#1", "0"]

    def test_world_from_members(self):
        assert world_from_members(("p", "q"), {"p"}).name == "10"

    def test_world_fields_repr_and_hash(self):
        w = World(name="a", members=frozenset({"p"}))
        assert (w.name, w.members) == ("a", {"p"})
        assert repr(w) == "World(a)"
        assert w == _w("a", "p") and hash(w) == hash(_w("a", "p"))
        assert w != _w("b", "p") and w != _w("a")
        with pytest.raises(AttributeError):
            w.name = "b"


class TestDenote:
    def test_appendix_oblig_implication(self, appendix_model):
        d = denote(appendix_model, core("O(p->q)"))
        assert appendix_model.world("01") in d

    def test_appendix_oblig_q_excludes_witness(self, appendix_model):
        d = denote(appendix_model, core("O q"))
        assert appendix_model.world("01") not in d

    def test_appendix_conjunction_at_witness(self, appendix_model):
        f = core("O(p->q) & O p & ~O q")
        assert holds_at(appendix_model, f, appendix_model.world("01"))

    def test_top_bot(self, appendix_model):
        assert denote(appendix_model, core("T")) == \
            frozenset(appendix_model.worlds)
        assert denote(appendix_model, core("F")) == frozenset()
        w = appendix_model.world("10")
        assert holds_at(appendix_model, core("T"), w)
        assert not holds_at(appendix_model, core("F"), w)

    def test_existential_import(self, appendix_model):
        assert denote(appendix_model, core("T >= F")) == frozenset()
        assert denote(appendix_model, core("F >= p")) == frozenset()
        assert denote(appendix_model, core("~(F >= p)")) == \
            frozenset(appendix_model.worlds)

    def test_reflexive_comparison_is_total(self, appendix_model):
        # nonempty operand: phi >= phi holds everywhere, no cell needed
        assert denote(appendix_model, core("p >= p")) == \
            frozenset(appendix_model.worlds)

    def test_missing_cell_error_identifies_cell(self, appendix_model):
        with pytest.raises(MissingSelectionError) as exc:
            denote(appendix_model, core("O p"))
        assert exc.value.world.name in ("00", "10", "11")

    def test_complement_intersection_laws(self):
        rng = random.Random(3)
        from deolog.suite import random_surface_formula
        for _ in range(200):
            model = random_delta_model(rng, ("p", "q"))
            ev = Evaluator(model, fill_selector(model, rng))
            f = desugar(random_surface_formula(rng, ["p", "q"], 2), "p")
            g = desugar(random_surface_formula(rng, ["p", "q"], 2), "p")
            everything = frozenset(model.worlds)
            assert ev.denote(Not(f)) == everything - ev.denote(f)
            assert ev.denote(And(f, g)) == ev.denote(f) & ev.denote(g)

    def test_world_level_transitivity(self):
        rng = random.Random(5)
        for _ in range(200):
            model = random_delta_model(rng, ("p", "q", "r"))
            ev = Evaluator(model, fill_selector(model, rng))
            f, g, h = Var("p"), Var("q"), Not(Var("r"))
            for w in model.worlds:
                if (ev.holds_at(PrefWeak(f, g), w)
                        and ev.holds_at(PrefWeak(g, h), w)):
                    assert ev.holds_at(PrefWeak(f, h), w)

    def test_value_keyed_cells(self):
        # syntactically distinct operands with one denotation share a cell
        rng = random.Random(8)
        model = random_delta_model(rng, ("p", "q"))
        ev = Evaluator(model, fill_selector(model, rng))
        a = core("(p & q) >= q")
        ev.denote(a)
        before = len(model.selection)
        ev2 = Evaluator(model)
        assert ev2.denote(core("(q & p) >= q")) == ev.denote(a)
        assert len(model.selection) == before


class TestValidate:
    def test_appendix_ok(self, appendix_model):
        assert validate_model(appendix_model) == []

    def test_pick_outside_cell(self, appendix_model):
        m = appendix_model
        bad = dict(m.selection)
        prop = frozenset({m.world("01"), m.world("11")})
        bad[(m.world("00"), prop)] = m.world("10")
        model = Model(m.universe, m.worlds, m.utility, bad, "delta")
        assert any("outside" in v for v in validate_model(model))

    def test_non_delta_based_pick(self):
        worlds = powerset_worlds(("p", "q"))
        by = {w.name: w for w in worlds}
        not_q = frozenset({by["00"], by["10"]})
        # from [pq], picking [p̄q̄] flips both variables; [pq̄] flips only q
        selection = {(by["11"], not_q): by["00"]}
        model = Model(("p", "q"), worlds,
                      {w: 0 for w in worlds}, selection, "delta")
        assert any("difference-minimal" in v for v in validate_model(model))

    def test_delta_needs_full_powerset(self):
        worlds = powerset_worlds(("p", "q"))[:3]
        model = Model(("p", "q"), worlds, {w: 0 for w in worlds}, {}, "delta")
        assert any("power set" in v for v in validate_model(model))

    def test_missing_utility_and_unknown_mode(self):
        worlds = powerset_worlds(("p",))
        model = Model(("p",), worlds, {worlds[0]: 0}, {}, "weird")
        problems = validate_model(model)
        assert any("utility" in v for v in problems)
        assert any("mode" in v for v in problems)

    def test_empty_delta_table_is_valid(self):
        worlds = powerset_worlds(("p",))
        model = Model(("p",), worlds, {w: 0 for w in worlds}, {}, "delta")
        assert validate_model(model) == []

    def test_no_worlds(self):
        assert validate_model(Model(("p",), (), {}, {})) == \
            ["model has no worlds"]

    def test_weighted_pick_must_be_nearest(self):
        worlds = powerset_worlds(("p", "q"))
        by = {w.name: w for w in worlds}
        cell = frozenset({by["01"], by["10"]})

        def picking(pick):
            return Model(("p", "q"), worlds, {w: 0 for w in worlds},
                         {(by["00"], cell): by[pick]}, "delta",
                         {"p": 1, "q": 3})
        # both picks are delta-based from 00; only 10 is nearest
        assert validate_model(picking("10")) == []
        assert validate_model(picking("01")) == [
            "selection at 00 is not nearest under the weights: pick 01 is "
            "not at minimal weighted distance in its cell"]

    def test_weights_must_be_positive_and_total(self):
        worlds = powerset_worlds(("p", "q"))
        for weights, problem in (({"p": 1, "q": 0}, "weight of q must be "
                                  "positive"),
                                 ({"q": 2}, "weighting undefined on "
                                  "variable p")):
            model = Model(("p", "q"), worlds, {w: 0 for w in worlds}, {},
                          "delta", weights)
            assert validate_model(model) == [f"invalid weights: {problem}"]

    def test_weights_outside_the_universe_are_invalid(self):
        worlds = powerset_worlds(("p", "q"))
        model = Model(("p", "q"), worlds, {w: 0 for w in worlds}, {},
                      "delta", {"p": 1, "q": 2, "r": -5, "s": 1})
        assert validate_model(model) == [
            "invalid weights: weighting mentions variables outside the "
            "universe: r, s"]

    def test_repeated_universe_variable_is_invalid(self):
        # a universe [p, p] makes 01, 10 and 11 all the world {p}; they pass
        # as the power set of that universe, so only the repeat is reported
        universe = ("p", "p")
        worlds = powerset_worlds(universe)
        assert len({w.members for w in worlds}) == 2
        model = Model(universe, worlds, {w: 0 for w in worlds}, {}, "delta")
        assert validate_model(model) == ["universe repeats variables: p"]

    def test_weights_skip_cells_of_unknown_worlds(self):
        worlds = powerset_worlds(("p",))
        stranger = _w("1x", "p", "x")
        cell = frozenset({worlds[0], stranger})
        model = Model(("p",), worlds, {w: 0 for w in worlds},
                      {(worlds[1], cell): worlds[0]}, "delta", {"p": 1})
        assert validate_model(model) == [
            "selection cell at 1 mentions unknown worlds"]



# --- validate_model against the delta_minimal check it replaced ---------------

def _reference_delta_minimal(w, prop):
    """regimes.delta_minimal as it was before it was built on delta_admits,
    which validate_model checks delta picks with."""
    if not prop:
        raise ValueError("empty proposition")
    diffs = {w1: symmetric_difference(w, w1) for w1 in prop}
    return frozenset(w1 for w1, d1 in diffs.items()
                     if not any(d2 < d1 for d2 in diffs.values()))


def _reference_weighted_distance(weighting, w0, w1):
    return sum(weighting[v] for v in symmetric_difference(w0, w1))


def _reference_p_nearest(weighting, w, prop):
    """regimes.p_nearest, copied, as validate_model checks weighted picks
    with it."""
    if not prop:
        raise ValueError("empty proposition")
    dist = {w1: _reference_weighted_distance(weighting, w, w1) for w1 in prop}
    best = min(dist.values())
    return frozenset(w1 for w1 in prop if dist[w1] == best)


def _reference_problems(model):
    """validate_model as it was before its one-pass cell checks: a delta pick
    is checked against the whole delta_minimal set of its cell, a weighted one
    against the whole p_nearest set, both copied here so that the reference
    does not share the code it checks."""
    problems = []
    names = [w.name for w in model.worlds]
    if len(set(names)) != len(names):
        problems.append("world names are not unique")
    for w in model.worlds:
        if not w.members <= set(model.universe):
            problems.append(f"world {w.name} mentions undeclared variables")
    for w in model.worlds:
        if w not in model.utility:
            problems.append(f"no utility rank for world {w.name}")
    world_set = set(model.worlds)
    for (w, prop), pick in model.selection.items():
        if w not in world_set:
            problems.append(f"selection at unknown world {w.name}")
        if not prop:
            problems.append(f"selection cell at {w.name} has empty proposition")
            continue
        if not prop <= world_set:
            problems.append(
                f"selection cell at {w.name} mentions unknown worlds")
        if pick not in prop:
            problems.append(
                f"selection at {w.name} picks {pick.name}, which is outside "
                "the cell's proposition")
    if world_set != set(powerset_worlds(model.universe)):
        problems.append(
            "delta model's worlds are not the full power set of the universe")
    for (w, prop), pick in model.selection.items():
        if pick in prop and pick not in _reference_delta_minimal(w, prop):
            problems.append(
                f"selection at {w.name} is not delta-based: pick "
                f"{pick.name} is not difference-minimal in its cell")
    if model.weights is not None:
        try:
            check_weighting(model.weights, model.universe)
        except ValueError as exc:
            return problems + [f"invalid weights: {exc}"]
        for (w, prop), pick in model.selection.items():
            if prop and pick in prop and \
                    pick not in _reference_p_nearest(model.weights, w,
                                                     prop):
                problems.append(
                    f"selection at {w.name} is not nearest under the "
                    f"weights: pick {pick.name} is not at minimal weighted "
                    "distance in its cell")
    return problems


def _messy_delta_model(universe, rng, stray, weights):
    """A delta model over some random cells; with probability stray a pick is
    any world rather than a delta-based one, so it may be outside its cell or
    not minimal in it."""
    worlds = powerset_worlds(universe)
    if rng.random() < 0.2:
        worlds = worlds[:-1]
    selection = {}
    for _ in range(rng.randrange(30)):
        prop = frozenset(rng.sample(worlds, rng.randrange(len(worlds) + 1)))
        w = rng.choice(worlds)
        if prop and rng.random() >= stray:
            pick = rng.choice(sorted(_reference_delta_minimal(w, prop),
                                     key=lambda x: x.name))
        else:
            pick = rng.choice(worlds)
        selection[(w, prop)] = pick
    utility = {w: rng.randrange(3) for w in worlds[1:]}
    return Model(universe, worlds, utility, selection, "delta", weights)


@settings(max_examples=200)
@given(seed=st.integers(0, 2 ** 32), size=st.integers(1, 3),
       stray=st.sampled_from([0.0, 0.2, 0.6]),
       weights=st.none() | st.dictionaries(
           st.sampled_from("pqr"), st.integers(-1, 4), min_size=1))
def test_validate_agrees_with_delta_minimal_reference(seed, size, stray,
                                                      weights):
    universe = ("p", "q", "r")[:size]
    model = _messy_delta_model(universe, random.Random(seed), stray, weights)
    assert validate_model(model) == _reference_problems(model)


# --- Evaluator against the tree walk it replaced ------------------------------

class _TreeWalk:
    """The evaluator as it was before world masks: it walks a core formula
    as a tree at one world, and memoises denotations by formula equality.
    Kept as the reference for Evaluator."""

    def __init__(self, model):
        self.model = model
        self.memo = {}

    def select(self, w, prop):
        try:
            return self.model.selection[(w, prop)]
        except KeyError:
            raise MissingSelectionError(w, prop) from None

    def holds_at(self, f, w):
        if isinstance(f, Var):
            return f.name in w.members
        if isinstance(f, Not):
            return not self.holds_at(f.child, w)
        if isinstance(f, And):
            return self.holds_at(f.left, w) and self.holds_at(f.right, w)
        a = self.denote(f.left)
        b = self.denote(f.right)
        if not a or not b:
            return False
        if a == b:
            return True
        u = self.model.utility
        return u[self.select(w, a)] >= u[self.select(w, b)]

    def denote(self, f):
        got = self.memo.get(f)
        if got is None:
            got = frozenset(w for w in self.model.worlds
                            if self.holds_at(f, w))
            self.memo[f] = got
        return got


def _core_formulas(names):
    """Core formulas, some sharing operand nodes as desugared > does."""
    return st.recursive(
        st.sampled_from([Var(n) for n in names]),
        lambda kids: st.one_of(
            st.builds(Not, kids), st.builds(And, kids, kids),
            st.builds(PrefWeak, kids, kids),
            st.builds(lambda a, b: And(PrefWeak(a, b), Not(PrefWeak(b, a))),
                      kids, kids)),
        max_leaves=10)


def _filled_delta_model(universe, rng, keep=1.0):
    """A random delta model with a delta-based pick in each cell, every cell
    kept with probability keep."""
    worlds = powerset_worlds(universe)
    utility = {w: rng.randrange(len(worlds)) for w in worlds}
    selection = {}
    for size in range(1, len(worlds) + 1):
        for members in itertools.combinations(worlds, size):
            prop = frozenset(members)
            for w in worlds:
                pick = rng.choice(sorted(delta_minimal(w, prop),
                                         key=lambda x: x.name))
                if rng.random() < keep:
                    selection[(w, prop)] = pick
    return Model(universe, worlds, utility, selection, "delta")


def _outcome(evaluate):
    """evaluate(), or None if it needs a missing cell."""
    try:
        return evaluate()
    except MissingSelectionError:
        return None


@settings(max_examples=150)
@given(formula=_core_formulas(("p", "q", "r")), seed=st.integers(0, 2 ** 32),
       three=st.booleans())
def test_evaluator_agrees_with_tree_walk(formula, seed, three):
    universe = ("p", "q", "r") if three else ("p", "q")
    model = _filled_delta_model(universe, random.Random(seed))
    expected = _TreeWalk(model).denote(formula)
    assert Evaluator(model).denote(formula) == expected
    # asking world by world first grows each node's asked mask
    ev = Evaluator(model)
    assert [ev.holds_at(formula, w) for w in model.worlds] == \
        [w in expected for w in model.worlds]
    assert ev.denote(formula) == expected


@settings(max_examples=150)
@given(formula=_core_formulas(("p", "q")), seed=st.integers(0, 2 ** 32),
       keep=st.sampled_from([0.3, 0.8, 0.95]))
def test_evaluator_needs_the_cells_the_tree_walk_needs(formula, seed, keep):
    model = _filled_delta_model(("p", "q"), random.Random(seed), keep)
    assert _outcome(lambda: Evaluator(model).denote(formula)) == \
        _outcome(lambda: _TreeWalk(model).denote(formula))
    for w in model.worlds:
        assert _outcome(lambda: Evaluator(model).holds_at(formula, w)) == \
            _outcome(lambda: _TreeWalk(model).holds_at(formula, w))


def test_one_evaluator_over_temporary_formulas():
    # each formula is dropped before the next is built, so a new node may
    # take a dropped node's address: the memo must not mistake one for the
    # other
    from deolog.suite import random_surface_formula
    rng = random.Random(21)
    model = _filled_delta_model(("p", "q"), rng)
    ev = Evaluator(model)
    for _ in range(300):
        f = desugar(random_surface_formula(rng, ["p", "q"], 2), "p")
        assert ev.denote(f) == Evaluator(model).denote(f)
