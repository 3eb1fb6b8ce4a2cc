import itertools
import random
from fractions import Fraction

import pytest

from deolog.models import Model, World, powerset_worlds, validate_model
from deolog.regimes import (DEFAULT_GRID, WeightClass, delta_minimal,
                            enumerate_weight_orders, forced_choice,
                            p_nearest, subset_sums, weighted_distance)


def _worlds(universe):
    return {w.name: w for w in powerset_worlds(universe)}


class TestDeltaMinimal:
    def test_two_incomparable_minima(self):
        by = _worlds(("p", "q"))
        prop = frozenset({by["01"], by["10"], by["11"]})
        assert delta_minimal(by["00"], prop) == {by["01"], by["10"]}

    def test_reflexive(self):
        by = _worlds(("p", "q"))
        prop = frozenset({by["00"], by["01"], by["11"]})
        for name in ("00", "01", "11"):
            assert delta_minimal(by[name], prop) == {by[name]}

    def test_drop_one_variable(self):
        by = _worlds(("p", "q", "r"))
        # worlds with p and without q: dropping just q wins
        prop = frozenset({by["100"], by["101"]})
        assert delta_minimal(by["110"], prop) == {by["100"]}

    def test_empty_proposition(self):
        by = _worlds(("p",))
        with pytest.raises(ValueError):
            delta_minimal(by["0"], frozenset())


class TestIsDeltaBased:
    """A delta model picks a difference-minimal world in every cell."""

    def test_appendix_model(self, appendix_model):
        assert all(pick in delta_minimal(w, prop)
                   for (w, prop), pick in appendix_model.selection.items())
        assert validate_model(appendix_model) == []

    def test_non_minimal_pick(self):
        by = _worlds(("p", "q"))
        worlds = tuple(by.values())
        prop = frozenset({by["00"], by["10"]})
        model = Model(("p", "q"), worlds, {w: 0 for w in worlds},
                      {(by["11"], prop): by["00"]}, "delta")
        assert by["00"] not in delta_minimal(by["11"], prop)
        assert validate_model(model) == [
            "selection at 11 is not delta-based: pick 00 is not "
            "difference-minimal in its cell"]


class TestWeightedDistance:
    def test_examples(self):
        by = _worlds(("p", "q", "r"))
        w = {"p": 1, "q": 2, "r": 4}
        assert weighted_distance(w, by["100"], by["010"]) == 3
        assert weighted_distance(w, by["011"], by["011"]) == 0
        assert weighted_distance(w, by["000"], by["111"]) == 7

    def test_fraction_weights_sum_exactly(self):
        # document weights are Fractions, and their sums must stay exact
        by = _worlds(("p", "q", "r"))
        w = {v: Fraction(1, 10) for v in ("p", "q", "r")}
        assert weighted_distance(w, by["000"], by["111"]) == Fraction(3, 10)

    def test_metric_laws(self):
        rng = random.Random(2)
        worlds = powerset_worlds(("p", "q", "r"))
        for _ in range(200):
            w = {v: Fraction(rng.randint(1, 9)) for v in ("p", "q", "r")}
            a, b, c = (rng.choice(worlds) for _ in range(3))
            assert weighted_distance(w, a, b) == weighted_distance(w, b, a)
            assert (weighted_distance(w, a, b) == 0) == (a == b)
            assert weighted_distance(w, a, c) <= \
                weighted_distance(w, a, b) + weighted_distance(w, b, c)


class TestPNearest:
    def test_lighter_variable_wins(self):
        by = _worlds(("p", "q"))
        prop = frozenset({by["10"], by["01"]})
        assert p_nearest({"p": 1, "q": 2}, by["00"], prop) == {by["10"]}

    def test_member_world(self):
        by = _worlds(("p", "q"))
        prop = frozenset({by["01"], by["11"]})
        assert p_nearest({"p": 3, "q": 1}, by["01"], prop) == {by["01"]}

    def test_refines_delta(self):
        rng = random.Random(4)
        worlds = powerset_worlds(("p", "q", "r"))
        for _ in range(300):
            weighting = {v: rng.randint(1, 9) for v in ("p", "q", "r")}
            w = rng.choice(worlds)
            prop = frozenset(rng.sample(worlds, rng.randint(1, 8)))
            assert p_nearest(weighting, w, prop) <= delta_minimal(w, prop)


class TestForcedChoice:
    def test_identity_pick(self, appendix_model):
        m = appendix_model
        imp = frozenset({m.world("00"), m.world("01"), m.world("11")})
        assert forced_choice(m.world("01"), imp) == m.world("01")

    def test_subset_dominance(self, appendix_model):
        m = appendix_model
        p = frozenset({m.world("10"), m.world("11")})
        assert forced_choice(m.world("01"), p) == m.world("11")

    def test_incomparable_differences(self):
        by = _worlds(("p", "q"))
        prop = frozenset({by["10"], by["01"]})
        assert forced_choice(by["00"], prop) is None

    def test_forced_is_nearest_everywhere(self):
        rng = random.Random(6)
        worlds = powerset_worlds(("p", "q", "r"))
        for _ in range(300):
            w = rng.choice(worlds)
            prop = frozenset(rng.sample(worlds, rng.randint(1, 8)))
            pick = forced_choice(w, prop)
            if pick is None:
                continue
            weighting = {v: rng.randint(1, 9) for v in ("p", "q", "r")}
            assert pick in p_nearest(weighting, w, prop)


class TestWeightClass:
    def test_parse_and_str(self):
        wc = WeightClass.parse("q>p, q>r")
        assert wc.constraints == (("q", "p"), ("q", "r"))
        assert str(wc) == "q>p,q>r"
        assert WeightClass.parse("").constraints == ()

    def test_parse_malformed(self):
        with pytest.raises(ValueError):
            WeightClass.parse("q>")
        with pytest.raises(ValueError):
            WeightClass.parse("q>p>r")

    def test_cycle_unsatisfiable(self):
        wc = WeightClass.parse("p>q,q>p")
        assert not wc.is_satisfiable()
        assert enumerate_weight_orders(("p", "q"), wc, (1, 2, 3)) == []

    def test_admits(self):
        wc = WeightClass.parse("q>p")
        assert wc.admits({"p": 1, "q": 2})
        assert not wc.admits({"p": 2, "q": 2})


class TestEnumerateWeightOrders:
    def test_two_variables_three_representatives(self):
        reps = enumerate_weight_orders(("p", "q"), WeightClass(), (1, 2))
        assert len(reps) == 3
        signs = {(r["p"] < r["q"], r["p"] == r["q"]) for r in reps}
        assert signs == {(True, False), (False, True), (False, False)}

    def test_class_splits_on_subset_sums(self):
        wc = WeightClass.parse("q>p,q>r")
        reps = enumerate_weight_orders(("p", "q", "r"), wc, DEFAULT_GRID)
        assert all(r["q"] > r["p"] and r["q"] > r["r"] for r in reps)
        assert any(r["p"] + r["r"] < r["q"] for r in reps)
        assert any(r["p"] + r["r"] > r["q"] for r in reps)

    def test_representative_count_stable_under_finer_grid(self):
        wc = WeightClass.parse("q>p,q>r")
        nine = enumerate_weight_orders(("p", "q", "r"), wc, DEFAULT_GRID)
        twelve = enumerate_weight_orders(("p", "q", "r"), wc,
                                         tuple(range(1, 13)))
        assert len(nine) == len(twelve)

    def test_unknown_class_variable(self):
        with pytest.raises(ValueError):
            enumerate_weight_orders(("p",), WeightClass.parse("q>p"), (1, 2))

    def test_weights_are_grid_values(self):
        reps = enumerate_weight_orders(("p",), WeightClass(), (1, 2))
        assert reps == [{"p": 1}]
        assert type(reps[0]["p"]) is int


def _summed_weight_orders(universe, weight_class, grid):
    """enumerate_weight_orders as it was, summing each subset's weights on
    its own."""
    seen = set()
    out = []
    for values in itertools.product(grid, repeat=len(universe)):
        weighting = dict(zip(universe, values))
        if not weight_class.admits(weighting):
            continue
        sums = [sum(weighting[v] for v in combo)
                for r in range(len(universe) + 1)
                for combo in itertools.combinations(universe, r)]
        order = {s: i for i, s in enumerate(sorted(set(sums)))}
        sig = tuple(order[s] for s in sums)
        if sig not in seen:
            seen.add(sig)
            out.append(weighting)
    return out


@pytest.mark.parametrize("universe, text, grid", [
    (("p", "q", "r"), "q>p,q>r", DEFAULT_GRID),
    (("p", "q", "r", "s"), "", (1, 2, 3, 5, 8)),
    (("a", "b"), "", (Fraction(1, 2), 1, Fraction(3, 2))),
    (("p",), "", DEFAULT_GRID),
])
def test_weight_orders_match_summing_each_subset(universe, text, grid):
    weight_class = WeightClass.parse(text)
    assert enumerate_weight_orders(universe, weight_class, grid) == \
        _summed_weight_orders(universe, weight_class, grid)


def test_subset_sums_index_weights_by_bit():
    assert subset_sums([1, 10, 100]) == [0, 1, 10, 11, 100, 101, 110, 111]
    assert subset_sums([]) == [0]
