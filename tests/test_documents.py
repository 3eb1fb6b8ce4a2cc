import json

import pytest
from hypothesis import given, settings, strategies as st

from deolog.documents import (dumps_model, format_verdict, load_model,
                              loads_model, model_from_doc, model_to_doc,
                              verdict_to_doc)
from deolog.engine import Sequent, check
from deolog.models import (holds_at, make_worlds, Model, powerset_worlds,
                           validate_model)
from deolog.regimes import DeltaRegime
from deolog.syntax import desugar, parse


class TestModelDocuments:
    def test_load_and_validate(self, appendix_path):
        model = load_model(appendix_path)
        assert validate_model(model) == []
        assert model.mode == "delta"
        assert model.utility[model.world("00")] == 4

    def test_byte_stable_roundtrip(self, appendix_path):
        text = appendix_path.read_text()
        assert dumps_model(loads_model(text)) == text

    def test_formula_cells_resolve_in_order(self):
        doc = {
            "universe": ["p", "q"],
            "worlds": ["00", "01", "10", "11"],
            "utility": {"00": 4, "01": 2, "10": 1, "11": 3},
            "selection": [
                {"at": "01", "of": "p -> q", "pick": "01"},
                {"at": "01", "of": "p & ~q", "pick": "10"},
            ],
            "mode": "delta",
        }
        model = model_from_doc(doc)
        assert len(model.selection) == 2
        imp = frozenset(model.world(n) for n in ("00", "01", "11"))
        assert model.selection[(model.world("01"), imp)] == model.world("01")

    def test_explicit_world_array_cells(self):
        doc = {
            "universe": ["p"],
            "worlds": ["0", "1"],
            "utility": {"0": 0, "1": 1},
            "selection": [{"at": "0", "of": ["0", "1"], "pick": "0"}],
            "mode": "delta",
        }
        model = model_from_doc(doc)
        prop = frozenset(model.worlds)
        assert model.selection[(model.world("0"), prop)] == model.world("0")

    def test_duplicate_valuation_suffix_names(self):
        worlds = make_worlds(("p",), [{"p"}, {"p"}, set()])
        model = Model(("p",), worlds,
                      {w: i for i, w in enumerate(worlds)}, {}, "basic")
        text = dumps_model(model)
        again = loads_model(text)
        assert sorted(w.name for w in again.worlds) == ["0", "1", "1#1"]
        assert again.world("1#1").members == {"p"}
        assert dumps_model(again) == text

    def test_weights_roundtrip(self):
        from fractions import Fraction
        worlds = make_worlds(("p",), [set(), {"p"}])
        model = Model(("p",), worlds, {w: 0 for w in worlds}, {}, "delta",
                      {"p": Fraction(3, 2)})
        again = loads_model(dumps_model(model))
        assert again.weights == {"p": Fraction(3, 2)}

    def test_bad_world_name(self):
        doc = {"universe": ["p"], "worlds": ["2"], "utility": {"2": 0},
               "mode": "basic"}
        with pytest.raises(ValueError):
            model_from_doc(doc)

    def test_canonical_key_order(self, appendix_path):
        doc = json.loads(appendix_path.read_text())
        assert list(doc) == ["universe", "worlds", "utility", "selection",
                             "mode"]


# --- dumps_model against json.dumps ---------------------------------------------

def _reference_dumps(model):
    return json.dumps(model_to_doc(model), indent=2) + "\n"


@st.composite
def _models(draw):
    """Basic models (repeated valuations get #k names) and delta models, with
    or without weights, over variables that need escaping too."""
    universe = draw(st.sampled_from([("p",), ("p", "q"), ("p", "q", "r"),
                                     ("\u00fc", 'a"b\\')]))
    mode = draw(st.sampled_from(["basic", "delta"]))
    if mode == "delta":
        worlds = powerset_worlds(universe)
    else:
        worlds = make_worlds(universe, draw(st.lists(
            st.sets(st.sampled_from(universe)), min_size=1, max_size=5)))
    utility = {w: draw(st.integers(-3, 20)) for w in worlds}
    some_world = st.sampled_from(worlds)
    selection = {
        (at, frozenset(prop)): pick for at, prop, pick in draw(st.lists(
            st.tuples(some_world, st.sets(some_world, min_size=1),
                      some_world), max_size=8))}
    weights = draw(st.none() | st.fixed_dictionaries({
        v: st.fractions(min_value=1, max_value=9, max_denominator=4)
        for v in universe}))
    return Model(universe, worlds, utility, selection, mode, weights)


@settings(max_examples=200)
@given(model=_models())
def test_dumps_model_is_json_dumps(model):
    text = dumps_model(model)
    assert text == _reference_dumps(model)
    assert dumps_model(loads_model(text)) == text


@settings(max_examples=100)
@given(model=_models(), formulas=st.lists(st.sampled_from(["T", "F"]),
                                          max_size=2))
def test_dumps_model_of_formula_and_unsorted_cells(model, formulas):
    doc = model_to_doc(model)
    for entry in doc["selection"]:
        entry["of"].reverse()
    # T names every world, F the empty cell
    doc["selection"] += [{"at": name, "of": text, "pick": name}
                         for text, name in zip(formulas, doc["worlds"])]
    again = model_from_doc(doc)
    assert dumps_model(again) == _reference_dumps(again)


def test_dumps_model_of_empty_selection():
    worlds = powerset_worlds(("p",))
    model = Model(("p",), worlds, {w: 0 for w in worlds}, {}, "delta")
    assert '"selection": [],' in dumps_model(model)
    assert dumps_model(model) == _reference_dumps(model)


class TestVerdictDocuments:
    def test_invalid_verdict_doc_reloads(self):
        text = "O p |- O(p & q) | O(p & ~q)"
        verdict = check(Sequent.parse(text), DeltaRegime(0))
        doc = verdict_to_doc(verdict)
        assert doc["verdict"] == "invalid"
        assert doc["witness"] == verdict.witness.name
        model = model_from_doc(doc["countermodel"])
        goal = Sequent.parse(text).goal()
        assert holds_at(model, goal, model.world(doc["witness"]))

    def test_valid_verdict_doc(self):
        verdict = check(Sequent.parse("O p |- P p"), DeltaRegime(0))
        doc = verdict_to_doc(verdict)
        assert doc["verdict"] == "valid"
        assert "countermodel" not in doc
        assert doc["fingerprint"]["extra_vars"] == 0

    def test_json_serializable(self):
        from deolog.regimes import WeightedRegime
        verdict = check(Sequent.parse("O(p & q) |- O q"), WeightedRegime())
        doc = verdict_to_doc(verdict)
        json.dumps(doc)   # must not raise
        assert doc["weightRobust"] is True

    def test_format_verdict_mentions_model(self):
        verdict = check(Sequent.parse("C(p,q) |- C(~q,~p)"), DeltaRegime(0))
        text = format_verdict(verdict)
        assert "verdict: invalid" in text
        assert "countermodel:" in text
        assert "witness:" in text
