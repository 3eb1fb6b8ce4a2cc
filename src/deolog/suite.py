"""The regression suite: the logic's checkable claims, with stable ids,
expected verdicts, and randomized property checks.

Claim ids group by prefix (Prop3, Prop4, S23, ...) so `--only Prop4` runs
one proposition. Randomized claims (Prop1, Prop2, Fact1) draw from a seeded
generator, so the suite is reproducible run to run.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from importlib import resources

from .syntax import (_OPERANDS, And, Not, Oblig, Or, Perm, PrefStrict,
                     PrefWeak, Var, desugar, parse)
from .models import Evaluator, Model, powerset_worlds
from .regimes import (BasicRegime, DeltaRegime, WeightClass, WeightedRegime,
                      delta_minimal, p_nearest)
from .engine import (Sequent, check, check_forall_weights_invalidity,
                     satisfiable)
from .proofs import check_derivation, derivation_from_doc


# --- Random generators -------------------------------------------------------

def random_delta_model(rng, universe):
    """A random delta model with an empty selection table; cells are meant to
    be filled on demand by fill_selector."""
    worlds = powerset_worlds(universe)
    utility = {w: rng.randrange(len(worlds)) for w in worlds}
    return Model(universe, worlds, utility, {}, "delta")


def fill_selector(model, rng):
    """Selector that resolves missing cells with a random delta-based pick
    and records it, so repeated reads of one cell agree."""
    def selector(w, prop):
        pick = rng.choice(sorted(delta_minimal(w, prop),
                                 key=lambda x: x.name))
        model.selection[(w, prop)] = pick
        return pick
    return selector


# the classes random_surface_formula draws, each below its bound on a
# uniform draw in [0, 1), in increasing order of bound
_DRAWS = ((0.3, Var), (0.45, Not), (0.6, And), (0.7, Or), (0.8, PrefWeak),
          (0.9, Oblig), (1.0, Perm))


def random_surface_formula(rng, names, depth):
    r = rng.random()
    cls = next(cls for bound, cls in _DRAWS if r < bound)
    if depth == 0 or cls is Var:
        return Var(rng.choice(names))
    return cls(*[random_surface_formula(rng, names, depth - 1)
                 for _ in _OPERANDS[cls]])


# --- Claim registry ----------------------------------------------------------

@dataclass
class ClaimResult:
    claim_id: str
    expected: str
    observed: str
    fingerprint: dict = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def ok(self):
        return self.expected == self.observed


@dataclass(frozen=True)
class Claim:
    claim_id: str
    expected: str
    run: object          # () -> (observed kind, fingerprint)


def _sequent_claim(text, decide):
    """Decide the sequent text with decide(sequent) and give the verdict kind
    and fingerprint. The engine has re-verified any countermodel before it
    reaches a verdict."""
    verdict = decide(Sequent.parse(text))
    return verdict.kind, verdict.fingerprint


BASIC4 = BasicRegime(4)
DELTA0 = DeltaRegime(0)
WEIGHTED_QPR = WeightedRegime(WeightClass.parse("q>p,q>r"))


def _registry():
    claims = []

    def add(claim_id, text, regime, expected):
        claims.append(Claim(claim_id, expected, lambda: _sequent_claim(
            text, lambda sequent: check(sequent, regime))))

    def add_forall_invalid(claim_id, text):
        claims.append(Claim(claim_id, "invalid", lambda: _sequent_claim(
            text, check_forall_weights_invalidity)))

    # preference validities: reflexivity needs its possibility guard, since
    # an empty operand falsifies any comparison (existential import)
    add("S23.1", "<>p |- p >= p", BASIC4, "qualified-valid")
    add("S23.2", "p >= q ; q >= r |- p >= r", BASIC4, "qualified-valid")
    add("S23.3", "|- ~(F >= p)", BASIC4, "qualified-valid")
    add("S23.4", "|- ~(p >= F)", BASIC4, "qualified-valid")

    # modal facts
    add("S24.1", "|- []p <-> ~<>~p", BASIC4, "qualified-valid")
    add("S24.2", "|- <>p <-> ~[]~p", BASIC4, "qualified-valid")
    add("S24.3", "<>p ; <>q |- (p >= q) | (q >= p)", BASIC4,
        "qualified-valid")
    add("S24.4", "|- (<>p & <>q) <-> (~(p >= q) <-> (q > p))", BASIC4,
        "qualified-valid")
    add("S24.5", "|- <>(p & q) -> ((p & q) ~~ (q & p))", BASIC4,
        "qualified-valid")

    # unravelling, schema instances
    add("Prop2.O", "|- O p <-> (p > ~p)", BASIC4, "qualified-valid")
    add("Prop2.P", "|- P p <-> (p >= ~p)", BASIC4, "qualified-valid")

    # monadic/conditional obligation facts
    add("Prop3.1", "<>p ; <>~p |- P p | P ~p", BASIC4, "qualified-valid")
    add("Prop3.2", "O p |- P p", BASIC4, "qualified-valid")
    add("Prop3.3", "|- ~(O p & O ~p)", BASIC4, "qualified-valid")
    add("Prop3.4a", "|- ~(O T)", BASIC4, "qualified-valid")
    add("Prop3.4b", "|- ~(O F)", BASIC4, "qualified-valid")
    add("Prop3.4c", "|- ~(P F)", BASIC4, "qualified-valid")
    add("Prop3.4d", "|- ~(P T)", BASIC4, "qualified-valid")
    add("Prop3.5", "C(p,q) |- <>(p & q) & <>(p & ~q)", BASIC4,
        "qualified-valid")

    # delta validities
    add("Prop4.f", "O p ; ~p > ~q |- O q", DELTA0, "valid")
    add("Prop4.e", "O q ; p > q |- O p", DELTA0, "valid")
    add("Prop4.d", "C(p,q) ; p |- O q", DELTA0, "valid")
    add("Prop4.a", "C(p & r, q) ; C(p & ~r, q) |- C(p,q)", DELTA0, "valid")
    add("Prop4.b", "C(p,q) |- C(p & r, q) | C(p & ~r, q)", DELTA0, "valid")
    add("Prop4.c", "O(p & q) ; O(p & ~q) |- O p", DELTA0, "valid")

    # delta invalidities noted alongside
    add("S42.1", "O p |- O(p & q) | O(p & ~q)", DELTA0, "invalid")
    add("S42.2", "C(p,q) ; C(r,q) |- C(p | r, q)", DELTA0, "invalid")

    # weighted validities, class: q outweighs p and r. Item g is stated
    # with its variables permuted so the fixed class fits (the proposition's
    # preamble licenses per-item permutation)
    add("Prop5.a", "C(r,p) |- C(r, p & q) | C(r, p & ~q)", WEIGHTED_QPR,
        "valid")
    add("Prop5.b", "O p |- O(p & q) | O(p & ~q)", WEIGHTED_QPR, "valid")
    add("Prop5.c", "P p |- P(p & q) | P(p & ~q)", WEIGHTED_QPR, "valid")
    add("Prop5.d", "P(p & q) ; P(p & ~q) |- P p", WEIGHTED_QPR, "valid")
    add("Prop5.e", "C(q,p) ; C(r,p) |- C(q | r, p)", WEIGHTED_QPR, "valid")
    add("Prop5.f", "C(p | q, r) |- C(p,r) | C(q,r)", WEIGHTED_QPR, "valid")
    add("Prop5.g", "O(q & p) ; q |- O p", WEIGHTED_QPR, "valid")
    add("Prop5.h", "O(p | q) ; ~q |- O p", WEIGHTED_QPR, "valid")

    # invalid for every weighting
    prop6 = {
        "a": "C(p | q, r) |- C(p,r) & C(q,r)",
        "b": "O(p & q) |- O q",
        "c": "O(p | q) ; O(~q) |- O p",
        "d": "C(p,q) |- C(p & r, q)",
        "e": "C(p,q) ; O p |- O q",
        "z": "O(p -> q) |- O p -> O q",
        "f": "C(p,q) ; C(q,r) |- C(p,r)",
        "g": "O p ; O q |- O(p & q)",
        "i": "C(p,q) ; C(p,r) |- C(p, q & r)",
        "j": "O O p |- O p",
        "k": "C(p,q) ; C(r,q) |- C(p & r, q)",
        "m": "|- O(O p -> p)",
        "h": "O p |- O(p | q)",
    }
    prop7 = {
        "a": "P p ; P q |- P(p & q)",
        "d": "O(p | q) |- O p | O q",
        "e": "p -> q |- O p -> O q",
        "f": "O p |- O(p & q)",
        "g": "P p |- P(p & q)",
        "h": "|- C(p,q) | C(q,p)",
        "i": "O(p | q) |- O p",
        "j": "O p |- p",
        "k": "P p |- P O p",
        "l": "~q > ~p ; O p |- O q",
    }
    for label, text in prop6.items():
        add_forall_invalid(f"Prop6.{label}", text)
    for label, text in prop7.items():
        add_forall_invalid(f"Prop7.{label}", text)

    # rejected definitions of conditional obligation
    add("S31.1", "C(p,q) |- C(~q,~p)", DELTA0, "invalid")
    add("S31.2", "|- C(p,q) | C(~p,q)", DELTA0, "invalid")

    def chisholm():
        # the engine re-verifies the witness of the conjunction
        fs = [parse(t) for t in ("O g", "C(g,t)", "C(~g,~t)", "~g")]
        verdict = satisfiable(fs, DELTA0)
        return verdict.kind, verdict.fingerprint
    claims.append(Claim("Chisholm", "sat", chisholm))

    claims.append(Claim("Prop1.random", "ok", _prop1_random))
    claims.append(Claim("Prop2.random", "ok", _prop2_random))
    claims.append(Claim("Fact1.random", "ok", _fact1_random))
    claims.append(Claim("Axioms.derivations", "ok", _axioms_claim))
    return claims


# --- Randomized claims -------------------------------------------------------

PROP1_SAMPLES = 500
PROP2_SAMPLES = 1000
FACT1_SAMPLES = 1000


def _prop1_random():
    """Box/diamond denote globally: empty or everything, with the expected
    side conditions."""
    rng = random.Random(11)
    names = ["p", "q", "r"]
    for i in range(PROP1_SAMPLES):
        universe = tuple(sorted(rng.sample(names, rng.randint(1, 3))))
        model = random_delta_model(rng, universe)
        ev = Evaluator(model, fill_selector(model, rng))
        phi = desugar(random_surface_formula(rng, list(universe), 2), "p")
        everything = frozenset(model.worlds)
        den = ev.denote(phi)
        box = ev.denote(Not(PrefWeak(Not(phi), Not(phi))))
        dia = ev.denote(PrefWeak(phi, phi))
        if box not in (frozenset(), everything):
            return "not-global", {"sample": i}
        if (box == everything) != (den == everything):
            return "box-condition", {"sample": i}
        if dia not in (frozenset(), everything):
            return "not-global", {"sample": i}
        if (dia == everything) != bool(den):
            return "diamond-condition", {"sample": i}
    return "ok", {"samples": PROP1_SAMPLES}


def _prop2_random():
    """Unravelling: O psi denotes exactly like psi > ~psi, and P psi like
    psi >= ~psi."""
    rng = random.Random(13)
    names = ["p", "q", "r"]
    for i in range(PROP2_SAMPLES):
        universe = tuple(sorted(rng.sample(names, rng.randint(1, 3))))
        model = random_delta_model(rng, universe)
        ev = Evaluator(model, fill_selector(model, rng))
        psi = random_surface_formula(rng, list(universe), 2)
        if ev.denote(desugar(Oblig(psi), "p")) != ev.denote(
                desugar(PrefStrict(psi, Not(psi)), "p")):
            return "O-mismatch", {"sample": i}
        if ev.denote(desugar(Perm(psi), "p")) != ev.denote(
                desugar(PrefWeak(psi, Not(psi)), "p")):
            return "P-mismatch", {"sample": i}
    return "ok", {"samples": PROP2_SAMPLES}


def _fact1_random():
    """Weighted selection refines delta selection."""
    rng = random.Random(17)
    names = ["p", "q", "r", "s"]
    for i in range(FACT1_SAMPLES):
        universe = tuple(sorted(rng.sample(names, rng.randint(1, 4))))
        worlds = powerset_worlds(universe)
        weighting = {v: rng.randint(1, 9) for v in universe}
        w = rng.choice(worlds)
        prop = frozenset(rng.sample(worlds, rng.randint(1, len(worlds))))
        if not p_nearest(weighting, w, prop) <= delta_minimal(w, prop):
            return "not-refined", {"sample": i}
    return "ok", {"samples": FACT1_SAMPLES}


# --- Shipped derivations -----------------------------------------------------

def derivation_manifest():
    with resources.files("deolog.derivations").joinpath(
            "manifest.json").open() as fh:
        return json.load(fh)


def load_shipped_derivation(name):
    with resources.files("deolog.derivations").joinpath(name).open() as fh:
        return derivation_from_doc(json.load(fh))


def _axioms_claim():
    manifest = derivation_manifest()
    for name in manifest["good"]:
        result = check_derivation(load_shipped_derivation(name))
        if not result.ok:
            return f"{name}-failed", {"step": result.step,
                                      "reason": result.reason}
        verdict = check(Sequent((), result.theorem), BASIC4)
        if verdict.kind != "qualified-valid":
            return f"{name}-not-valid", {}
    for name, expected_step in manifest["corrupt"].items():
        result = check_derivation(load_shipped_derivation(name))
        if result.ok or result.step != expected_step:
            return f"{name}-wrong-failure", {"step": result.step}
    return "ok", {"good": len(manifest["good"]),
                  "corrupt": len(manifest["corrupt"])}


# --- Report ------------------------------------------------------------------

@dataclass
class SuiteReport:
    results: list

    @property
    def ok(self):
        return all(r.ok for r in self.results)

    def group_lines(self):
        groups = {}
        for r in self.results:
            groups.setdefault(r.claim_id.split(".")[0], []).append(r)
        lines = []
        for group, results in sorted(groups.items()):
            kinds = {r.expected for r in results}
            label = kinds.pop() if len(kinds) == 1 else "ok"
            if label == "qualified-valid":
                label = "valid"
            lines.append(f"{group}: {sum(r.ok for r in results)}/"
                         f"{len(results)} {label}")
        return lines

    def to_doc(self):
        return {
            "ok": self.ok,
            "entries": [
                {"id": r.claim_id, "expected": r.expected,
                 "observed": r.observed, "ok": r.ok,
                 "fingerprint": {k: v for k, v in r.fingerprint.items()},
                 "elapsed": round(r.elapsed, 4)}
                for r in self.results
            ],
        }


def run_suite(only=None) -> SuiteReport:
    """Run the claims serially, so each claim's elapsed time is its own."""
    results = []
    for claim in _registry():
        if only is not None and not claim.claim_id.startswith(only):
            continue
        start = time.perf_counter()
        observed, fingerprint = claim.run()
        results.append(ClaimResult(claim.claim_id, claim.expected, observed,
                                   fingerprint, time.perf_counter() - start))
    results.sort(key=lambda r: r.claim_id)
    return SuiteReport(results)
