import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from deolog.syntax import (And, Bot, Iff, Implies, Not, Or, Top, Var, parse)
from deolog import engine
from deolog.proofs import (MAX_TAUTOLOGY_ATOMS, SCHEMAS, MetaVar, Step,
                           apply_substitution, check_derivation,
                           is_tautology_instance, match_schema,
                           step_from_dict)


class TestMatchSchema:
    def test_transitivity_instance(self):
        f = parse("((p >= q) & (q >= r)) -> (p >= r)")
        assert match_schema("Ax1-trans", f) == \
            {"phi": Var("p"), "psi": Var("q"), "theta": Var("r")}

    def test_transitivity_non_instance(self):
        assert match_schema("Ax1-trans", parse("(p >= q) -> (p >= r)")) \
            is None

    def test_substitution_instance(self):
        f = parse("[](p <-> q) -> "
                  "(((p >= r) <-> (q >= r)) & ((r >= p) <-> (r >= q)))")
        assert match_schema("Ax3-subst", f) == \
            {"phi": Var("p"), "psi": Var("q"), "theta": Var("r")}

    def test_connectedness_instance(self):
        f = parse("(<>p & <>(q & r)) <-> ((p >= q & r) | ((q & r) >= p))")
        got = match_schema("Ax2-conn", f)
        assert got == {"phi": Var("p"), "psi": parse("q & r")}

    def test_consistent_binding_required(self):
        # both box operands must instantiate one metavariable identically
        assert match_schema("T", parse("[]p -> q")) is None
        assert match_schema("T", parse("[](p & q) -> (p & q)")) is not None

    def test_random_substitution_recovery(self):
        rng = random.Random(21)
        pool = [parse(t) for t in
                ("p", "q & r", "O p", "~(p >= q)", "[]q", "p | ~r")]
        for schema_id, template in SCHEMAS.items():
            if template is None:
                continue
            for _ in range(30):
                subst = {"phi": rng.choice(pool), "psi": rng.choice(pool),
                         "theta": rng.choice(pool)}
                instance = apply_substitution(template, subst)
                got = match_schema(schema_id, instance)
                assert got is not None
                for name, f in got.items():
                    assert subst[name] == f


class TestTautologyInstance:
    def test_pref_identity(self):
        assert is_tautology_instance(parse("(p >= q) -> (p >= q)"))

    def test_excluded_middle(self):
        assert is_tautology_instance(parse("O p | ~O p"))

    def test_non_tautology(self):
        assert not is_tautology_instance(parse("(p >= q) -> (q >= p)"))

    def test_abstraction_is_maximal(self):
        # []p and p are distinct atoms after abstraction
        assert not is_tautology_instance(parse("[]p -> p"))
        assert is_tautology_instance(parse("[]p -> []p"))

    def test_atoms_over_the_cap_are_refused_before_any_mask(self,
                                                           monkeypatch):
        def no_masks(k):
            raise AssertionError(f"masks built for {k} atoms")

        monkeypatch.setattr(engine, "_assignment_masks", no_masks)
        names = [f"a{i}" for i in range(MAX_TAUTOLOGY_ATOMS + 1)]
        f = parse(" & ".join(names) + " -> a0")
        with pytest.raises(ValueError, match="more than"):
            is_tautology_instance(f)
        step = Step("axiom", f, "PC-taut")
        with pytest.raises(ValueError, match="more than"):
            check_derivation([step])


def _atoms(f, atoms):
    """The maximal non-truth-functional subformulas and variables of f."""
    if isinstance(f, (Top, Bot)):
        return
    if isinstance(f, Not):
        _atoms(f.child, atoms)
    elif isinstance(f, (And, Or, Implies, Iff)):
        _atoms(f.left, atoms)
        _atoms(f.right, atoms)
    elif f not in atoms:
        atoms.append(f)


def _truth(f, value):
    """Truth value of f under value, a dict from its atoms to booleans."""
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, Not):
        return not _truth(f.child, value)
    if isinstance(f, And):
        return _truth(f.left, value) and _truth(f.right, value)
    if isinstance(f, Or):
        return _truth(f.left, value) or _truth(f.right, value)
    if isinstance(f, Implies):
        return not _truth(f.left, value) or _truth(f.right, value)
    if isinstance(f, Iff):
        return _truth(f.left, value) == _truth(f.right, value)
    return value[f]


def _truth_table_tautology(f):
    """The reference decision: every row of the truth table over f's atoms
    makes f true."""
    atoms = []
    _atoms(f, atoms)
    return all(_truth(f, dict(zip(atoms, row)))
               for row in itertools.product((True, False), repeat=len(atoms)))


_BOOLEAN_OVER_ATOMS = st.recursive(
    st.sampled_from([parse(t) for t in ("p", "O p", "p >= q", "T", "F")]),
    lambda kids: st.one_of(
        st.builds(Not, kids), st.builds(And, kids, kids),
        st.builds(Or, kids, kids), st.builds(Implies, kids, kids),
        st.builds(Iff, kids, kids)),
    max_leaves=8)


@settings(max_examples=300)
@given(_BOOLEAN_OVER_ATOMS)
def test_tautology_instance_matches_truth_table(f):
    assert is_tautology_instance(f) == _truth_table_tautology(f)


class TestCheckDerivation:
    def test_single_axiom(self):
        step = step_from_dict({"kind": "axiom", "schema": "PC-taut",
                               "formula": "(p >= p) -> (p >= p)"})
        result = check_derivation([step])
        assert result.ok
        assert result.theorem == parse("(p >= p) -> (p >= p)")

    def test_axiom_from_substitution(self):
        step = step_from_dict({"kind": "axiom", "schema": "T",
                               "subst": {"phi": "p & q"}})
        result = check_derivation([step])
        assert result.ok
        assert result.theorem == parse("[](p & q) -> (p & q)")

    def test_modus_ponens_and_necessitation(self):
        steps = [
            step_from_dict({"kind": "axiom", "schema": "PC-taut",
                            "formula": "p -> (q -> p)"}),
            step_from_dict({"kind": "axiom", "schema": "PC-taut",
                            "formula": "p -> p"}),
            step_from_dict({"kind": "nec", "ref": 2}),
        ]
        result = check_derivation(steps)
        assert result.ok
        assert result.theorem == parse("[](p -> p)")

    def test_mp_not_an_implication(self):
        steps = [
            step_from_dict({"kind": "axiom", "schema": "PC-taut",
                            "formula": "p | ~p"}),
            step_from_dict({"kind": "axiom", "schema": "PC-taut",
                            "formula": "q | ~q"}),
            step_from_dict({"kind": "mp", "refs": [1, 2]}),
        ]
        result = check_derivation(steps)
        assert not result.ok
        assert result.step == 3
        assert "implication" in result.reason

    def test_mp_antecedent_mismatch(self):
        steps = [
            step_from_dict({"kind": "axiom", "schema": "PC-taut",
                            "formula": "p -> (p | q)"}),
            step_from_dict({"kind": "axiom", "schema": "PC-taut",
                            "formula": "q | ~q"}),
            step_from_dict({"kind": "mp", "refs": [1, 2]}),
        ]
        result = check_derivation(steps)
        assert not result.ok
        assert result.step == 3

    def test_forward_reference(self):
        steps = [step_from_dict({"kind": "nec", "ref": 1})]
        result = check_derivation(steps)
        assert not result.ok
        assert result.step == 1

    def test_bad_axiom_instance(self):
        steps = [step_from_dict({"kind": "axiom", "schema": "Ax1-trans",
                                 "formula": "(p >= q) -> (p >= r)"})]
        result = check_derivation(steps)
        assert not result.ok
        assert result.step == 1

    def test_empty_derivation(self):
        assert not check_derivation([]).ok

    def test_nec_refuses_a_line_nested_deeper_than_the_parser_allows(self):
        # p -> p is 2 levels tall and each nec adds one: 62 steps reach
        # MAX_DEPTH = 64, and line 64 would be 65 levels tall
        steps = [step_from_dict({"kind": "axiom", "schema": "PC-taut",
                                 "formula": "p -> p"})]
        steps += [Step("nec", refs=(n,)) for n in range(1, 63)]
        result = check_derivation(steps)
        assert result.ok
        assert result.theorem == parse("[]" * 62 + "(p -> p)")
        with pytest.raises(ValueError,
                           match="step 64: formula nested deeper than 64"):
            check_derivation(steps + [Step("nec", refs=(63,))])


class TestStepFromDict:
    def test_unknown_schema(self):
        with pytest.raises(ValueError):
            step_from_dict({"kind": "axiom", "schema": "Ax9",
                            "formula": "p"})

    def test_pc_taut_requires_formula(self):
        with pytest.raises(ValueError):
            step_from_dict({"kind": "axiom", "schema": "PC-taut",
                            "subst": {"phi": "p"}})

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            step_from_dict({"kind": "lemma"})

    @pytest.mark.parametrize("refs", [[1], [1, 2, 3], [1, True], [1, 2.0]])
    def test_mp_needs_two_integer_refs(self, refs):
        with pytest.raises(ValueError, match="refs"):
            step_from_dict({"kind": "mp", "refs": refs})

    def test_refs_are_kept(self):
        assert step_from_dict({"kind": "mp", "refs": [2, 1]}).refs == (2, 1)
        assert step_from_dict({"kind": "nec", "ref": 1}).refs == (1,)
