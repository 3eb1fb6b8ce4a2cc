"""Parser, printer, desugaring and structural queries.

The pinned parse corpus records, for a few hundred well-formed and malformed
strings, the tree or the error (message, offset, expected set) that parse
gives. Regenerate it only when a change of parse behaviour is intended:

    PYTHONPATH=src python tests/test_syntax.py --write
"""

import json
import pathlib
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from deolog.syntax import (MAX_DEPTH, And, Bot, Box, CondOblig, Diamond,
                           Formula, Iff, Implies, Not, Oblig, Or, ParseError,
                           Perm, PrefStrict, PrefWeak, Top, Var, _UNICODE_MAP,
                           _tokenize, desugar, is_core, modal_depth, parse,
                           pretty, top_variable, variables)

CORPUS = pathlib.Path(__file__).parent / "data" / "parse_corpus.json"

P, Q, R = Var("p"), Var("q"), Var("r")


class TestParse:
    def test_cond_oblig(self):
        assert parse("C(p, q)") == CondOblig(P, Q)

    def test_nested_strict_needs_parens(self):
        assert parse("p > (q > r)") == PrefStrict(P, PrefStrict(Q, R))

    def test_precedence(self):
        assert parse("O p -> O (p | q)") == Implies(Oblig(P),
                                                    Oblig(Or(P, Q)))

    @pytest.mark.parametrize("text", [
        "(" * 400 + "p" + ")" * 400,      # nested parentheses
        "~ " * 100 + "p",                 # nested prefix operators
        " & ".join(["p"] * 100),          # a left-deep chain
    ])
    def test_too_deep(self, text):
        with pytest.raises(ParseError, match="nested deeper"):
            parse(text)

    @pytest.mark.parametrize("text, offset", [
        # the root of a 65-level chain is its last operator
        (" & ".join(["p"] * (MAX_DEPTH + 1)), 4 * MAX_DEPTH - 2),
        ("q | " + " & ".join(["p"] * (MAX_DEPTH + 1)), 4 * MAX_DEPTH + 2),
        ("~ " * MAX_DEPTH + "p", 0),
        ("p -> " * MAX_DEPTH + "p", 2),
    ])
    def test_too_deep_at_the_operator_of_the_first_node_too_high(self, text,
                                                                 offset):
        with pytest.raises(ParseError, match="nested deeper") as exc:
            parse(text)
        assert exc.value.offset == offset

    def test_max_depth_accepted(self):
        f = parse("~ " * (MAX_DEPTH - 1) + "p")
        assert pretty(desugar(f)).count("~") == MAX_DEPTH - 1

    def test_truncated_input(self):
        with pytest.raises(ParseError) as exc:
            parse("p >")
        assert exc.value.offset == 3

    def test_pref_non_associative(self):
        with pytest.raises(ParseError):
            parse("p > q > r")

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as exc:
            parse("p & $q")
        assert exc.value.offset == 4

    def test_expected_token_set(self):
        with pytest.raises(ParseError) as exc:
            parse("& p")
        assert exc.value.expected   # nonempty

    def test_unicode_connectives(self):
        assert parse("¬p ∧ (q ≽ r)") == parse("~p & (q >= r)")
        assert parse("□p → ◇q") == parse("[]p -> <>q")
        assert parse("⊤ ≻ ⊥") == parse("T > F")

    def test_implies_right_associative(self):
        assert parse("p -> q -> r") == Implies(P, Implies(Q, R))

    def test_and_or_left_associative(self):
        assert parse("p & q & r") == And(And(P, Q), R)
        assert parse("p | q | r") == Or(Or(P, Q), R)

    def test_unary_stack(self):
        assert parse("~[]<>O P p") == Not(Box(Diamond(Oblig(Perm(P)))))

    def test_whitespace_insensitive(self):
        assert parse(" O  p ") == parse("O p")

    def test_identifiers(self):
        f = parse("go_home2 >= stay")
        assert f == PrefWeak(Var("go_home2"), Var("stay"))


class TestPretty:
    def test_cond_oblig(self):
        assert pretty(CondOblig(P, Q)) == "C(p, q)"

    def test_pref_weak(self):
        assert pretty(PrefWeak(Not(P), Q)) == "~p >= q"

    def test_roundtrip_random(self):
        rng = random.Random(7)
        for _ in range(1000):
            f = _random_surface(rng, 4)
            assert parse(pretty(f)) == f

    def test_minimal_parens(self):
        assert pretty(parse("(p & q) | r")) == "p & q | r"
        assert pretty(parse("p & (q | r)")) == "p & (q | r)"


def _random_surface(rng, depth):
    if depth == 0:
        return rng.choice([P, Q, R, Top(), Bot()])
    kind = rng.randrange(12)
    sub = lambda: _random_surface(rng, depth - 1)
    if kind == 0:
        return rng.choice([P, Q, R])
    if kind == 1:
        return Not(sub())
    if kind == 2:
        return And(sub(), sub())
    if kind == 3:
        return Or(sub(), sub())
    if kind == 4:
        return Implies(sub(), sub())
    if kind == 5:
        return Iff(sub(), sub())
    if kind == 6:
        return PrefWeak(sub(), sub())
    if kind == 7:
        return PrefStrict(sub(), sub())
    if kind == 8:
        return Box(sub())
    if kind == 9:
        return Oblig(sub())
    if kind == 10:
        return Perm(sub())
    return CondOblig(sub(), sub())


class TestDesugar:
    def test_diamond(self):
        assert desugar(Diamond(P)) == PrefWeak(P, P)

    def test_oblig_shape(self):
        core = desugar(Oblig(P))
        # strict preference of T&p over T&~p: (a >= b) & ~(b >= a)
        assert isinstance(core, And)
        a_ge_b, neg = core.left, core.right
        assert isinstance(a_ge_b, PrefWeak)
        assert isinstance(neg, Not) and isinstance(neg.child, PrefWeak)
        assert neg.child == PrefWeak(a_ge_b.right, a_ge_b.left)
        assert a_ge_b.left == And(desugar(Top(), "p"), P)
        assert a_ge_b.right == And(desugar(Top(), "p"), Not(P))

    def test_perm_default_reading(self):
        assert desugar(Perm(P)) == PrefWeak(P, Not(P))

    def test_perm_strict_def7(self):
        core = desugar(Perm(P), strict_def7=True)
        assert core == Not(desugar(Oblig(Not(P))))

    def test_perm_bot(self):
        # P F lowers to a comparison with an empty left operand
        core = desugar(Perm(Bot()))
        assert isinstance(core, PrefWeak)
        assert core.left == desugar(Bot(), "_t")

    def test_core_output_is_core(self):
        rng = random.Random(9)
        for _ in range(300):
            f = _random_surface(rng, 3)
            assert is_core(desugar(f))

    def test_idempotent_on_core(self):
        rng = random.Random(10)
        for _ in range(300):
            core = desugar(_random_surface(rng, 3), "p")
            assert desugar(core, "p") == core

    def test_top_variable_shared(self):
        assert top_variable(parse("O q"), parse("r & z")) == "q"
        assert top_variable(parse("T")) == "_t"


class TestStructuralQueries:
    def test_variables(self):
        assert variables(desugar(Oblig(P))) == ["p"]
        assert variables(desugar(parse("p >= q"))) == ["p", "q"]
        assert variables(desugar(Top())) == ["_t"]

    def test_modal_depth(self):
        assert modal_depth(desugar(parse("p & ~q"))) == 0
        assert modal_depth(desugar(parse("O p"))) == 1
        assert modal_depth(desugar(parse("O O p"))) == 2

    def test_modal_depth_sugared_always_positive(self):
        for text in ("p >= q", "p > q", "p ~~ q", "[]p", "<>p", "O p",
                     "P p", "C(p, q)"):
            assert modal_depth(desugar(parse(text))) >= 1


_BUILDERS = {"Not": lambda a, b: Not(a), "Oblig": lambda a, b: Oblig(a),
             "And": And, "Or": Or, "PrefWeak": PrefWeak,
             "PrefStrict": PrefStrict, "CondOblig": CondOblig}

_SPECS = st.recursive(
    st.sampled_from(["p", "q", "r"]),
    lambda kids: st.tuples(st.sampled_from(sorted(_BUILDERS)), kids, kids),
    max_leaves=12)


def _build(spec):
    if isinstance(spec, str):
        return Var(spec)
    kind, a, b = spec
    return _BUILDERS[kind](_build(a), _build(b))


@settings(max_examples=200)
@given(_SPECS)
def test_equal_trees_hash_and_compare_equal(spec):
    first, second = _build(spec), _build(spec)
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    assert hash(desugar(first, "p")) == hash(desugar(second, "p"))


# --- Pinned parse outcomes ---------------------------------------------------

# token soup is drawn from every lexeme, their Unicode forms, and fragments
# the lexer must refuse or split
_SOUP = ["p", "q", "r_1", "~", "&", "|", "->", "<->", ">=", ">", "~~", "<=",
         "<", "[]", "<>", "O", "P", "C", "T", "F", "(", ")", ",", "¬",
         "∧", "→", "≽", "□", "ℂ", "$", "-", "<-",
         "[", "X", "1"]


def _outcome(text):
    """What parse makes of text: the tree, or the error it raises."""
    try:
        f = parse(text)
    except ParseError as exc:
        return {"error": str(exc), "offset": exc.offset,
                "expected": sorted(exc.expected)}
    return {"tree": repr(f)}


def _corpus_inputs():
    texts = ["", " ", "p", "p >", "& p", "p q", "(p", "p)", "()", "C(p)",
             "C(p,", "C p", "C(p, q, r)", "~~p", "~ ~p", "p <- q", "p - q",
             "p > q > r", "p >= q <= r", "(p > q) > r", "p > (q > r)",
             "p ~~ q ~~ r", "p & q > r | s", "p -> q > r -> s", "P", "O",
             "T F", "p, q", "p $", "A", "1", "_x", "Pp", "pP", "p->q->r",
             "p<->q<->r", "p -> q <-> r -> s", "~p & q | r -> s <-> t",
             "[]<>O P ~p", "¬p ∧ (q ≽ r)", "□p → ◇q",
             "⊤ ≻ ⊥", "𝕆 p", "ℙ p",
             "ℂ(p, q)", "p ≈ q", "p ≼ q", "p ≺ q",
             "p ↔ q", "p ∨ q", "C(p > q, r -> s)", "(((p)))",
             "p & (q", "p & q)", "[] & p", "O (", "p >=", "p >= >= q"]
    for n in range(62, 67):
        texts += ["(" * n + "p" + ")" * n, "~ " * n + "p", "[]" * n + "p",
                  "p -> " * n + "p", " & ".join(["p"] * n),
                  " <-> ".join(["p"] * n), "C(p, " * n + "p" + ")" * n,
                  "O (" * n + "p" + ")" * n]
    rng = random.Random(14)
    for _ in range(200):
        tokens = [rng.choice(_SOUP) for _ in range(rng.randrange(1, 13))]
        texts.append(rng.choice(["", " "]).join(tokens))
    for _ in range(150):
        text = pretty(_random_surface(rng, 3))
        i = rng.randrange(len(text) + 1)
        mutation = rng.randrange(3)
        if mutation == 0:       # drop a span
            text = text[:i] + text[i + rng.randrange(1, 4):]
        elif mutation == 1:     # insert a soup token
            text = text[:i] + rng.choice(_SOUP) + text[i:]
        texts.append(text)      # else keep the printed formula as it is
    return list(dict.fromkeys(texts))


def test_parse_outcomes_match_the_pinned_corpus():
    corpus = json.loads(CORPUS.read_text())
    assert len(corpus) > 300
    for text, outcome in corpus:
        assert _outcome(text) == outcome, text


@settings(max_examples=500)
@given(st.lists(st.sampled_from(_SOUP), max_size=16),
       st.sampled_from(["", " "]))
def test_token_soup_parses_or_raises_parse_error(tokens, separator):
    try:
        f = parse(separator.join(tokens))
    except ParseError:
        return
    assert isinstance(f, Formula)
    assert parse(pretty(f)) == f


def test_unicode_symbols_stand_for_lexemes():
    for lexeme in _UNICODE_MAP.values():
        tokens = _tokenize(lexeme)
        assert [kind for kind, _, _ in tokens] == [lexeme, "eof"], lexeme


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_syntax.py --write")
    entries = [json.dumps([text, _outcome(text)], ensure_ascii=False)
               for text in _corpus_inputs()]
    CORPUS.write_text("[\n" + ",\n".join(entries) + "\n]\n")
