"""End-to-end acceptance battery.

Each test covers one numbered criterion and prints a single pass/fail line
(bypassing capture, so the lines appear in the live log).
"""

import random

import pytest

from deolog.syntax import (And, Diamond, Not, Oblig, Or, Perm, PrefEq,
                           PrefStrict, PrefWeak, Var, parse)
from deolog.models import holds_at
from deolog.orders import bruteforce_weak_orders, ordered_bell
from deolog.models import World
from deolog.regimes import DeltaRegime, forced_choice
from deolog.engine import (Goal, Sequent, _oracle_search, _powerset,
                           _solver_search, admissible_delta, check,
                           check_forall_weights_invalidity, satisfiable)
from deolog.suite import derivation_manifest, run_suite

DELTA0 = DeltaRegime(0)


@pytest.fixture(scope="module")
def report():
    return run_suite()


def _group(report, prefix):
    return [r for r in report.results if r.claim_id.startswith(prefix)]


def _criterion(capsys, number, description, ok):
    with capsys.disabled():
        print(f"criterion {number:02d} "
              f"{'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_global_modality(report, capsys):
    rows = _group(report, "Prop1") + _group(report, "S24")
    ok = len(rows) == 6 and all(r.ok for r in rows)
    _criterion(capsys, 1, "box/diamond denote globally on 500 random "
               "models; modal facts hold at Basic{4}", ok)


def test_criterion_02_preference_validities(report, capsys):
    rows = _group(report, "S23")
    ok = len(rows) == 4 and all(r.ok for r in rows)
    _criterion(capsys, 2, "guarded reflexivity, transitivity, and the "
               "empty-operand negations hold at Basic{4}", ok)


def test_criterion_03_unravelling(report, capsys):
    rows = _group(report, "Prop2")
    ok = len(rows) == 3 and all(r.ok for r in rows)
    _criterion(capsys, 3, "O and P unravel to strict/weak self-preference "
               "on 1000 random models", ok)


def test_criterion_04_monadic_obligation_facts(report, capsys):
    rows = _group(report, "Prop3")
    ok = len(rows) == 8 and all(r.ok for r in rows)
    ok = ok and satisfiable([parse("O T")], DELTA0).kind == "unsat"
    ok = ok and satisfiable([parse("P F")], DELTA0).kind == "unsat"
    _criterion(capsys, 4, "obligation/permission facts hold at Basic{4}; "
               "O T and P F are unsatisfiable", ok)


def test_criterion_05_delta_validities(report, capsys):
    rows = _group(report, "Prop4")
    ok = len(rows) == 6 and all(r.ok for r in rows)
    ok = ok and all(r.fingerprint.get("extra_vars") == 0 for r in rows)
    extra = _group(report, "S42")
    ok = ok and len(extra) == 2 and all(r.ok for r in extra)
    _criterion(capsys, 5, "six delta validities with zero extra variables; "
               "both noted delta invalidities have countermodels", ok)


def test_criterion_06_weighted_validities(report, capsys):
    rows = _group(report, "Prop5")
    ok = len(rows) == 8 and all(r.ok for r in rows)
    ok = ok and all(r.fingerprint.get("grid") == list(range(1, 10))
                    for r in rows)
    _criterion(capsys, 6, "eight weighted validities under the q-heavy "
               "class on grid 1..9", ok)


def test_criterion_07_weighted_invalidities(report, capsys):
    rows = _group(report, "Prop6")
    ok = len(rows) == 13 and all(r.ok for r in rows)
    robust_texts = {
        "b": "O(p & q) |- O q",
        "z": "O(p -> q) |- O p -> O q",
        "h": "O p |- O(p | q)",
    }
    shape_ok = False
    for label, text in robust_texts.items():
        v = check_forall_weights_invalidity(Sequent.parse(text))
        ok = ok and v.kind == "invalid" and v.weight_robust
        # a forced pick is nearest under every weighting
        ok = ok and all(pick == forced_choice(w, prop) for (w, prop), pick
                        in v.countermodel.selection.items())
        if label == "z":
            m = v.countermodel
            u = lambda name: m.utility[m.world(name)]
            shape_ok = (u("11") > u("01") > u("10")
                        and u("00") == max(u(w.name) for w in m.worlds))
    ok = ok and shape_ok
    _criterion(capsys, 7, "thirteen invalid-for-every-weighting sequents; "
               "b/z/h weight-robust; the deontic-detachment countermodel "
               "has the expected rank order", ok)


def test_criterion_08_more_weighted_invalidities(report, capsys):
    rows = _group(report, "Prop7")
    ok = len(rows) == 10 and all(r.ok for r in rows)
    _criterion(capsys, 8, "ten further sequents invalid for every "
               "weighting", ok)


def test_criterion_09_weighted_refines_delta(report, capsys):
    rows = _group(report, "Fact1")
    ok = len(rows) == 1 and rows[0].ok
    _criterion(capsys, 9, "nearest-by-weight picks are always "
               "difference-minimal on 1000 random triples", ok)


def test_criterion_10_chisholm(report, capsys):
    rows = _group(report, "Chisholm")
    ok = len(rows) == 1 and rows[0].ok
    from deolog.syntax import desugar
    fs = [parse(t) for t in ("O g", "C(g,t)", "C(~g,~t)", "~g")]
    v = satisfiable(fs, DELTA0)
    ok = ok and v.kind == "sat"
    ok = ok and all(holds_at(v.countermodel, desugar(f, "g"), v.witness)
                    for f in fs)
    _criterion(capsys, 10, "the contrary-to-duty quartet is jointly "
               "satisfiable and its witness re-verifies", ok)


def test_criterion_11_derivation_corpus(report, capsys):
    rows = _group(report, "Axioms")
    manifest = derivation_manifest()
    ok = len(rows) == 1 and rows[0].ok
    ok = ok and len(manifest["good"]) == 20
    ok = ok and len(manifest["corrupt"]) == 5
    _criterion(capsys, 11, "twenty shipped derivations check and validate "
               "at Basic{4}; five corrupted ones fail at the right step", ok)


def _random_boolean(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        return Var(rng.choice(["p", "q"]))
    kind = rng.randrange(3)
    if kind == 0:
        return Not(_random_boolean(rng, depth - 1))
    if kind == 1:
        return And(_random_boolean(rng, depth - 1),
                   _random_boolean(rng, depth - 1))
    return Or(_random_boolean(rng, depth - 1),
              _random_boolean(rng, depth - 1))


def _random_depth1_atom(rng):
    kind = rng.randrange(6)
    a = _random_boolean(rng, 2)
    b = _random_boolean(rng, 2)
    if kind == 0:
        return PrefWeak(a, b)
    if kind == 1:
        return PrefStrict(a, b)
    if kind == 2:
        return PrefEq(a, b)
    if kind == 3:
        return Oblig(a)
    if kind == 4:
        return Perm(a)
    return Diamond(a)


def test_criterion_12_oracle_equivalence(capsys):
    rng = random.Random(42)
    agreements = 0
    for _ in range(200):
        premises = tuple(_random_depth1_atom(rng)
                         for _ in range(rng.randint(0, 2)))
        sequent = Sequent(premises, _random_depth1_atom(rng))
        goal = Goal(sequent.goal())
        # both backends on the same Delta{0} frame
        universe = tuple(goal.variables)
        frame = (universe, _powerset(universe), goal, admissible_delta,
                 "delta")
        via_solver = _solver_search(*frame) is not None
        via_oracle = _oracle_search(*frame) is not None
        agreements += via_solver == via_oracle
    bells = [ordered_bell(n) for n in (2, 3, 4)]
    counts = [sum(1 for _ in bruteforce_weak_orders(
        [World(str(i), frozenset()) for i in range(n)])) for n in (2, 3, 4)]
    ok = agreements == 200 and bells == [3, 13, 75] and counts == bells
    _criterion(capsys, 12, "solver and brute-force backends agree on 200 "
               "generated sequents; weak-order counts are 3/13/75", ok)


def test_criterion_13_rejected_definitions(report, capsys):
    rows = _group(report, "S31")
    ok = len(rows) == 2 and all(r.ok for r in rows)
    ok = ok and all(r.observed == "invalid" for r in rows)
    _criterion(capsys, 13, "contraposition and case-split rewrites of "
               "conditional obligation have verified countermodels at "
               "Delta{0}", ok)
