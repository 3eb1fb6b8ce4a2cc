import json
import os
import pathlib
import subprocess
import sys

import pytest

import deolog
from deolog import cli, engine
from deolog.documents import model_from_doc
from deolog.models import validate_model
from deolog.regimes import BasicRegime, DeltaRegime, WeightedRegime

DERIVATIONS = pathlib.Path(deolog.__file__).parent / "derivations"
# 13 variables: one more than a universe may hold
OVER_CAP = " & ".join("abcdefghijklm")


def _iff_chain(levels):
    f = "p"
    for _ in range(levels):
        f = f"(p <-> {f})"
    return f


def run_cli(*args, **kw):
    return subprocess.run([sys.executable, "-m", "deolog.cli", *args],
                          capture_output=True, text=True, **kw)


class TestParseCommand:
    def test_oblig(self):
        r = run_cli("parse", "O p")
        assert r.returncode == 0
        assert "core:" in r.stdout

    def test_syntax_error_offset(self):
        r = run_cli("parse", "p >")
        assert r.returncode == 3
        assert "offset 3" in r.stderr

    def test_core_perm_bot(self):
        r = run_cli("parse", "--core", "P F")
        assert r.returncode == 0
        # core of (F >= T) over the reserved variable
        out = r.stdout.strip()
        assert ">=" in out and "_t" in out

    def test_unknown_command(self):
        assert run_cli("frobnicate").returncode == 3

    def test_oversized_core_is_refused(self):
        # desugaring shares the operands of <->, so the printed core of a
        # 40-level chain would have about 10^13 nodes
        r = run_cli("parse", _iff_chain(40), timeout=10)
        assert r.returncode == 3
        assert "nodes, more than" in r.stderr
        assert r.stdout == ""

    def test_twelve_level_core_prints(self):
        r = run_cli("parse", "--core", _iff_chain(12), timeout=20)
        assert r.returncode == 0
        assert r.stdout.count("p") == 3 * 2 ** 12 - 2

    def test_deep_nesting_is_a_syntax_error(self):
        r = run_cli("parse", "(" * 400 + "p" + ")" * 400)
        assert r.returncode == 3
        assert "nested deeper" in r.stderr

    def test_long_chain_is_a_syntax_error(self):
        # the parser builds a left-deep chain without recursing: the depth
        # check must not recurse over it either
        r = run_cli("parse", " & ".join(["p"] * 5000))
        assert r.returncode == 3
        assert "nested deeper" in r.stderr


class TestEvalCommand:
    def test_appendix_oblig(self, appendix_path):
        r = run_cli("eval", str(appendix_path), "O(p->q)")
        assert r.returncode == 0
        assert "01" in r.stdout.split()

    def test_top_is_everything(self, appendix_path):
        r = run_cli("eval", str(appendix_path), "T")
        assert r.returncode == 0
        assert r.stdout.split() == ["00", "01", "10", "11"]

    def test_existential_import_empty(self, appendix_path):
        r = run_cli("eval", str(appendix_path), "T >= F")
        assert r.returncode == 0
        assert r.stdout.strip() == ""

    def test_missing_cell(self, appendix_path):
        r = run_cli("eval", str(appendix_path), "O p")
        assert r.returncode == 3
        assert "no selection defined" in r.stderr

    def test_invalid_model(self, tmp_path, appendix_path):
        # delta model missing a power-set world: loads, fails validation
        missing = json.loads(appendix_path.read_text())
        missing["worlds"] = missing["worlds"][:3]
        del missing["utility"]["11"]
        missing["selection"] = []
        # a repeated universe variable: 01, 10 and 11 are all {p}
        repeated = {"universe": ["p", "p"],
                    "worlds": ["00", "01", "10", "11"],
                    "utility": {"00": 0, "01": 1, "10": 1, "11": 1},
                    "selection": [], "mode": "delta"}
        for doc, problem in ((missing, "not the full power set"),
                             (repeated, "universe repeats variables: p")):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
            r = run_cli("eval", str(bad), "p")
            assert r.returncode == 3
            assert "invalid model: " in r.stderr
            assert problem in r.stderr

    def test_unloadable_model(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"universe": ["p"]}')
        r = run_cli("eval", str(bad), "p")
        assert r.returncode == 3
        assert "cannot load model" in r.stderr

    @pytest.mark.parametrize("path, value", [
        ((), ["not", "an", "object"]),
        (("universe",), 3),
        (("utility",), []),
        (("selection",), {"at": "00", "of": ["00"], "pick": "00"}),
        (("selection", 0), "00"),
        (("selection", 0, "at"), ["00"]),
        (("selection", 0, "of"), 5),
        (("selection", 0, "of"), [["00"]]),
        (("weights",), [1]),
        (("utility", "00"), float("inf")),
        # a formula cell whose preference reads a cell no earlier entry set
        (("selection", 0, "of"), "p >= q"),
        # ranks are integers: 1.5 and true used to load as 1
        (("utility", "00"), 1.5),
        (("utility", "00"), True),
        (("weights",), {"p": True, "q": 1}),
    ], ids=["top-list", "universe-number", "utility-list", "selection-object",
            "entry-string", "at-list", "of-number", "of-nested-list",
            "weights-list", "utility-infinite", "of-unresolvable-formula",
            "utility-fraction", "utility-bool", "weights-bool"])
    def test_malformed_model_is_a_usage_error(self, tmp_path, appendix_path,
                                               path, value):
        doc = json.loads(appendix_path.read_text())
        if path:
            *parents, last = path
            target = doc
            for key in parents:
                target = target[key]
            target[last] = value
        else:
            doc = value
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps(doc))
        r = run_cli("eval", str(bad), "p")
        assert r.returncode == 3, r.stderr
        assert "cannot load model" in r.stderr

    @pytest.mark.parametrize("weights, problem", [
        ({"p": "-1", "q": "1"},
         "invalid weights: weight of p must be positive"),
        ({"p": "1"}, "invalid weights: weighting undefined on variable q"),
        # a weight off the universe would be dropped by dumps_model
        ({"p": "1", "q": "2", "r": "-5"}, "invalid weights: weighting "
         "mentions variables outside the universe: r"),
        # at 10, the cell {00, 01, 11} picks 11 at distance 2 over 00 at 1
        ({"p": "1", "q": "2"}, "selection at 10 is not nearest"),
        ({"p": "2", "q": "1"}, None),
    ], ids=["negative", "missing", "outside", "not-nearest", "nearest"])
    def test_weights_are_certified(self, tmp_path, appendix_path, weights,
                                   problem):
        doc = json.loads(appendix_path.read_text())
        doc["weights"] = weights
        path = tmp_path / "weighted.json"
        path.write_text(json.dumps(doc))
        r = run_cli("eval", str(path), "p")
        if problem is None:
            assert r.returncode == 0, r.stderr
        else:
            assert r.returncode == 3
            assert f"invalid model: {problem}" in r.stderr


class TestCheckCommand:
    def test_delta_valid(self):
        r = run_cli("check", "O p ; ~p > ~q |- O q", "--regime", "delta")
        assert r.returncode == 0
        assert "verdict: valid" in r.stdout

    def test_deep_shared_nesting_is_decided(self):
        # the two sides are equal but distinct trees, and desugaring shares
        # each side's operands: compiling must not compare or walk them as
        # trees, which grows exponentially with the nesting
        f = "p"
        for _ in range(40):
            f = f"(q <-> {f})"
        r = run_cli("check", f"{f} |- {f}", timeout=60)
        assert r.returncode == 0
        assert "verdict: valid" in r.stdout

    def test_long_premise_list_is_refuted(self):
        # the goal is a left-nested conjunction 1 500 deep, which the
        # re-verification of the model used to recurse through
        premises = " ; ".join(["p"] * 1500)
        r = run_cli("check", f"{premises} |- q", "--regime", "delta",
                    "--json")
        assert r.returncode == 1, r.stdout + r.stderr
        doc = json.loads(r.stdout)
        assert doc["verdict"] == "invalid"
        assert validate_model(model_from_doc(doc["countermodel"])) == []

    def test_weighted_invalid_weight_robust(self):
        r = run_cli("check", "O (p & q) |- O q", "--regime", "weighted",
                    "--grid", "1..9")
        assert r.returncode == 1
        assert "weight-robust: true" in r.stdout
        assert "countermodel:" in r.stdout

    @pytest.mark.parametrize("sequent, lines, keys, fields", [
        ("O(p -> q) |- O p -> O q",
         ["verdict: invalid",
          "fingerprint: regime=weighted, class=, grid=[1, 2, 3, 4, 5, 6, 7, "
          "8, 9], extra_vars=0",
          "weight-robust: true",
          "witness: 01"],
         ["verdict", "fingerprint", "witness", "countermodel", "weightRobust",
          "strategy"],
         {"weightRobust": True, "strategy": "forced"}),
        ("O p |- O(p & q) | O(p & ~q)",
         ["verdict: invalid",
          "fingerprint: regime=weighted, class=, grid=[1, 2, 3, 4, 5, 6, 7, "
          "8, 9], extra_vars=0, extras_searched=[0], weightings=[3]",
          "weight-robust: false",
          "weighting: p=1, q=1",
          "witness: 10"],
         ["verdict", "fingerprint", "witness", "countermodel", "weightRobust",
          "strategy", "weighting"],
         {"weightRobust": False, "strategy": "per-weighting",
          "weighting": {"p": "1", "q": "1"}}),
    ])
    def test_weighted_output_fields(self, sequent, lines, keys, fields):
        # one forced and one per-weighting verdict, in text and in JSON
        r = run_cli("check", sequent, "--regime", "weighted")
        assert r.returncode == 1
        assert r.stdout.splitlines()[:len(lines)] == lines
        assert r.stdout.splitlines()[len(lines)] == "countermodel:"
        r = run_cli("check", sequent, "--regime", "weighted", "--json")
        assert r.returncode == 1
        doc = json.loads(r.stdout)
        assert list(doc) == keys
        assert {key: doc[key] for key in fields} == fields
        # the weighting is the countermodel's own
        assert doc["countermodel"].get("weights") == fields.get("weighting")

    def test_basic_valid(self):
        r = run_cli("check", "|- ~(O T)", "--regime", "basic",
                    "--max-worlds", "4")
        assert r.returncode == 0

    def test_json_output_reloads(self):
        r = run_cli("check", "O p |- O(p & q) | O(p & ~q)", "--json")
        assert r.returncode == 1
        doc = json.loads(r.stdout)
        assert doc["verdict"] == "invalid"
        assert "countermodel" in doc

    def test_bad_sequent(self):
        assert run_cli("check", "O p").returncode == 3

    @pytest.mark.parametrize("sequent, offset", [
        ("p ; q & |- r", 8),    # where |- starts
        ("p ; q |- r &", 12),   # the end of the input
    ])
    def test_syntax_error_offset_counts_from_the_sequent_start(self, sequent,
                                                              offset):
        r = run_cli("check", sequent)
        assert r.returncode == 3
        assert f"at offset {offset} " in r.stderr

    def test_bad_class(self):
        r = run_cli("check", "|- O p", "--regime", "weighted",
                    "--class", "p>")
        assert r.returncode == 3

    def test_cyclic_class(self):
        # no weighting satisfies it, so it is refused before any search
        r = run_cli("check", "O(p & q) |- O q", "--regime", "weighted",
                    "--class", "p>q,q>p")
        assert r.returncode == 3
        assert "cyclic" in r.stderr
        assert r.stdout == ""

    @pytest.mark.parametrize("args", [
        ("sat", "O p", "--class", "p>q,q>r"),
        ("check", "|- O p", "--class", "x>y,y>z"),
        ("check", "O p |- O(p & q) | O(p & ~q)", "--class", "x>y,y>z")])
    def test_class_off_the_grid(self, args):
        # a chain of three variables needs three distinct weights, and no
        # weighting on the grid 1,2 has them, whether or not a forced model
        # exists
        r = run_cli(*args, "--regime", "weighted", "--grid", "1,2")
        assert r.returncode == 3
        assert "needs 3 distinct weights, the grid has 2" in r.stderr
        assert r.stdout == ""

    @pytest.mark.parametrize("grid", ["0..2", "3..1", "-1,2"])
    def test_bad_grid(self, grid):
        r = run_cli("check", "O p |- O(p & q) | O(p & ~q)", "--regime",
                    "weighted", "--grid", grid)
        assert r.returncode == 3
        assert "grid" in r.stderr

    def test_grid_over_the_cap_is_refused_unbuilt(self):
        # a tuple of 10^9 weights would take minutes and gigabytes
        r = run_cli("check", "O p |- O q", "--regime", "weighted", "--grid",
                    "1..1000000000", timeout=30)
        assert r.returncode == 3
        assert r.stderr == ("error: weight grid of 1000000000 weights exceeds "
                            "cap 100000\n")

    @pytest.mark.parametrize("sequent, max_worlds", [
        ("|- p | ~p", 1000), ("|- p | ~p", 3000),
        ("p >= q ; q >= r |- p >= r", 20), ("p >= q ; q >= r |- p >= r", 30)])
    def test_basic_search_stops_once_every_valuation_set_is_hopeless(
            self, sequent, max_worlds):
        # frames of 2^n worlds decide every set of valuations; no larger
        # frame is built when none of them can hold a model
        r = run_cli("check", sequent, "--regime", "basic", "--max-worlds",
                    str(max_worlds), timeout=10)
        assert r.returncode == 0
        assert "verdict: qualified-valid" in r.stdout

    def test_zero_max_worlds(self):
        r = run_cli("check", "|- p", "--regime", "basic",
                    "--max-worlds", "0")
        assert r.returncode == 3

    def test_negative_extra_vars(self):
        r = run_cli("check", "|- O p", "--extra-vars", "-1")
        assert r.returncode == 3

    def test_weighted_oracle_budget_is_qualified_valid(self):
        # 8 worlds exceed the oracle's cap on every rung
        r = run_cli("check", "O O p ; q & r |- O p", "--regime", "weighted")
        assert r.returncode == 0
        assert "verdict: qualified-valid" in r.stdout
        assert "note: budget exceeded" in r.stdout

    def test_weighted_universe_over_cap(self):
        r = run_cli("check", f"{OVER_CAP} |- a", "--regime", "weighted")
        assert r.returncode == 0
        assert "verdict: qualified-valid" in r.stdout
        assert "note: budget exceeded" in r.stdout


class TestSatCommand:
    def test_chisholm(self):
        r = run_cli("sat", "O g", "C(g,t)", "C(~g,~t)", "~g",
                    "--regime", "delta")
        assert r.returncode == 0
        assert "verdict: sat" in r.stdout
        assert "witness:" in r.stdout

    def test_semicolon_splitting(self):
        r = run_cli("sat", "O g ; C(g,t) ; C(~g,~t) ; ~g")
        assert r.returncode == 0

    def test_contradiction(self):
        assert run_cli("sat", "p & ~p").returncode == 1

    def test_oblig_top(self):
        assert run_cli("sat", "O T").returncode == 1

    def test_bounded_basic_search_is_unknown(self):
        # two worlds satisfy it: finding no one-world model proves nothing
        args = ("sat", "<>p", "<>~p", "--regime", "basic", "--max-worlds")
        r = run_cli(*args, "1")
        assert r.returncode == 2
        assert "verdict: unknown" in r.stdout
        assert run_cli(*args, "2").returncode == 0

    def test_same_ladder_as_check(self):
        # check "O O p |- O p" finds its countermodel on rung 1
        r = run_cli("sat", "O O p", "~O p", "--json")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["verdict"] == "sat"
        assert doc["fingerprint"]["extras_searched"] == [0, 1]

    def test_oracle_budget_is_unknown(self):
        r = run_cli("sat", "O O p", "q & r")
        assert r.returncode == 2
        assert "verdict: unknown" in r.stdout
        assert "note: budget exceeded" in r.stdout

    def test_weighted_universe_over_cap(self):
        r = run_cli("sat", OVER_CAP, "--regime", "weighted")
        assert r.returncode == 2
        assert "verdict: unknown" in r.stdout

    def test_deep_iff_chain_is_verified(self):
        # the model found is re-verified by evaluating the goal, whose
        # desugared form shares each level's operands: evaluated as a tree,
        # its cost grows exponentially with the nesting
        r = run_cli("sat", _iff_chain(24), timeout=20)
        assert r.returncode == 0
        assert "verdict: sat" in r.stdout

    def test_syntax_error_offset_counts_from_the_argument_start(self):
        r = run_cli("sat", "p", "q ; r &")
        assert r.returncode == 3
        assert "at offset 7 " in r.stderr

    def test_no_formula_is_a_usage_error(self):
        # used to crash in engine._conjoin and exit 1, which reads as unsat
        r = run_cli("sat", ";")
        assert r.returncode == 3
        assert "at least one formula" in r.stderr


def test_regime_flags_default_to_the_regimes_defaults():
    parser = cli.build_parser()
    for regime, default in (("basic", BasicRegime()), ("delta", DeltaRegime()),
                            ("weighted", WeightedRegime())):
        args = parser.parse_args(["check", "|- p", "--regime", regime])
        assert cli._regime_from_args(args) == default
    args = parser.parse_args(["sat", "p"])
    assert cli._regime_from_args(args) == DeltaRegime()


def test_internal_error_exit_code(monkeypatch, capsys):
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "check", crash)
    assert cli.main(["check", "|- p"]) == 4
    assert "internal error: RuntimeError('boom')" in capsys.readouterr().err


def test_model_failing_re_verification_exits_4(monkeypatch, capsys):
    # p |- q is invalid: a model that fails its check is a fault of the
    # search, and must not make it read as valid. The suite trusts the
    # engine's check of the models it reports: a delta countermodel (S42),
    # Chisholm's witness and a forall-weights countermodel (Prop6.b)
    monkeypatch.setattr(engine, "holds_at", lambda *args: False)
    for argv in (["check", "p |- q"], ["suite", "--only", "S42"],
                 ["suite", "--only", "Chisholm"],
                 ["suite", "--only", "Prop6.b"]):
        assert cli.main(argv) == 4, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert "internal error: AssertionError" in err, argv


@pytest.mark.parametrize("grid, message", [
    ("", "weight grid is empty"),
    (" ", "weight grid is empty"),
    ("1,,2", "weight grid '1,,2' is not 'a..b' or a comma list of integers"),
    ("1..x", "weight grid '1..x' is not 'a..b' or a comma list of integers"),
])
def test_grid_errors_name_the_grid(capsys, grid, message):
    assert cli.main(["check", "O p |- O q", "--regime", "weighted",
                     "--grid", grid]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("sequent, code", [("p |- p", 0), ("p |- p >", 3)])
def test_package_runs_as_a_module(sequent, code):
    # `python -m deolog` works without the installed console script
    r = subprocess.run([sys.executable, "-m", "deolog", "check", sequent],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == code


@pytest.mark.parametrize("args", [("parse", "p"),
                                  ("suite", "--only", "Prop4")])
def test_closed_stdout_keeps_the_exit_code(args):
    # as in `deolog suite | head -1`: the reader is gone before the output
    read, write = os.pipe()
    os.close(read)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    try:
        r = subprocess.run([sys.executable, "-m", "deolog.cli", *args],
                           stdout=write, stderr=subprocess.PIPE, text=True,
                           env=env, timeout=60)
    finally:
        os.close(write)
    assert r.returncode == 0
    assert r.stderr == ""


class TestSuiteCommand:
    def test_only_prop4_runs_six_claims(self):
        r = run_cli("suite", "--only", "Prop4", "--json")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["ok"] is True
        assert len(doc["entries"]) == 6

    def test_only_s31_text_output(self):
        r = run_cli("suite", "--only", "S31")
        assert r.returncode == 0
        assert "S31: 2/2 invalid" in r.stdout


class TestProveCommand:
    def test_good_derivation(self):
        r = run_cli("prove", "--check", str(DERIVATIONS / "mp-weaken.json"))
        assert r.returncode == 0
        assert r.stdout.startswith("theorem:")

    def test_corrupt_derivation(self):
        r = run_cli("prove", "--check",
                    str(DERIVATIONS / "bad-mp-shape.json"))
        assert r.returncode == 1
        assert r.stdout.startswith("step 3:")

    def test_missing_file(self):
        assert run_cli("prove", "--check", "no-such-file.json")\
            .returncode == 3

    def test_long_nec_chain_is_a_usage_error(self, tmp_path):
        # 600 boxes used to crash the printer with a RecursionError, exit 4
        steps = [{"kind": "axiom", "schema": "PC-taut", "formula": "p -> p"}]
        steps += [{"kind": "nec", "ref": n} for n in range(1, 600)]
        path = tmp_path / "derivation.json"
        path.write_text(json.dumps({"steps": steps}))
        r = run_cli("prove", "--check", str(path))
        assert r.returncode == 3, r.stderr
        assert "nested deeper than 64" in r.stderr
        assert r.stdout == ""

    def test_tautology_over_the_atom_cap_is_a_usage_error(self, tmp_path):
        formula = " & ".join(f"a{i}" for i in range(21)) + " -> a0"
        path = tmp_path / "derivation.json"
        path.write_text(json.dumps({"steps": [
            {"kind": "axiom", "schema": "PC-taut", "formula": formula}]}))
        r = run_cli("prove", "--check", str(path))
        assert r.returncode == 3
        assert "21 atoms, more than 20" in r.stderr

    @pytest.mark.parametrize("doc, problem", [
        ([], "a derivation document must be an object"),
        ({"steps": 5}, '"steps" must be an array'),
        ({"steps": [7]}, "each step must be an object"),
        ({"steps": [{"kind": "mp", "refs": "ab"}]}, '"refs" must be an array'),
        ({"steps": [{"kind": "nec", "ref": "x"}]}, '"ref" must be an integer'),
        ({"steps": [{"kind": "axiom", "schema": "PC-taut",
                     "formula": "p -> p"}, {"kind": "nec", "ref": 1.5}]},
         '"ref" must be an integer'),
        ({"steps": [{"kind": "axiom", "schema": ["K"], "formula": "p"}]},
         '"schema" must be a string'),
        ({"steps": [{"kind": "axiom", "schema": "T", "subst": {"phi": 1}}]},
         "\"subst\" entry 'phi' must be a string"),
    ])
    def test_malformed_derivation_is_a_usage_error(self, tmp_path, doc,
                                                   problem):
        path = tmp_path / "derivation.json"
        path.write_text(json.dumps(doc))
        r = run_cli("prove", "--check", str(path))
        assert r.returncode == 3
        assert problem in r.stderr


@pytest.mark.parametrize("argv, message", [
    (["check", "O p |- O q", "--regime", "delta", "--max-worlds", "0"],
     "the world bound must be at least 1"),
    (["check", "O p |- O q", "--regime", "basic", "--extra-vars", "-1"],
     "the number of extra variables must be at least 0"),
    (["check", "O p |- O q", "--regime", "basic", "--grid", "0"],
     "weights on the grid must be positive"),
    (["check", "O p |- O q", "--regime", "delta", "--class", "p>q,q>p"],
     "is cyclic"),
])
def test_every_regime_flag_is_checked_whatever_the_regime(capsys, argv,
                                                          message):
    # a flag of another regime than the one searched is still a usage error
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err
