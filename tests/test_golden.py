"""Byte-for-byte snapshot of the search's observable behaviour.

For every sequent and satisfiability claim of the suite registry, for the
theorem of every good shipped derivation decided at Basic{4} (the regime
`deolog suite` uses for them), and for the decisions in EXTRA, which take the
verdict paths no claim takes, the snapshot records the verdict kind, its
fingerprint, witness, strategy, weighting, the countermodel document and the
text report `format_verdict` prints, note included.
Search order is deterministic, so any drift is a change of behaviour.

Regenerate (only when a change of behaviour is intended and explained):

    PYTHONPATH=src python tests/test_golden.py --write
"""

import json
import pathlib
import sys

from deolog import suite
from deolog.documents import format_verdict, model_to_doc
from deolog.engine import (Sequent, check, check_forall_weights_invalidity,
                           satisfiable)
from deolog.proofs import check_derivation
from deolog.regimes import BasicRegime, DeltaRegime, WeightedRegime
from deolog.syntax import parse

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_claims.json"

# claims that decide nothing through check/satisfiable/forall-weights
NOT_SEARCH = ("Prop1.random", "Prop2.random", "Fact1.random",
              "Axioms.derivations")

BASIC4, DELTA0, WEIGHTED = BasicRegime(4), DeltaRegime(0), WeightedRegime()
CHISHOLM = ("O g", "C(g,t)", "C(~g,~t)", "~g")
# 13 variables: one more than a universe may hold
OVER_CAP = "O p ; " + " & ".join("abcdefghijkl") + " |- O p"


def _check(text, regime):
    return lambda: check(Sequent.parse(text), regime)


def _sat(texts, regime):
    return lambda: satisfiable([parse(t) for t in texts], regime)


# decisions taking the verdict paths the claims miss, by entry name
EXTRA = {
    "check Basic{4}: |- p": _check("|- p", BASIC4),
    "check Weighted: O p |- O(p & q) | O(p & ~q)":
        _check("O p |- O(p & q) | O(p & ~q)", WEIGHTED),
    "check Weighted: O(p -> q) |- O p -> O q":
        _check("O(p -> q) |- O p -> O q", WEIGHTED),
    "check Delta{0}: O O p |- O p": _check("O O p |- O p", DELTA0),
    "check Delta{0}: 13 variables": _check(OVER_CAP, DELTA0),
    "sat Basic{4}: Chisholm": _sat(CHISHOLM, BASIC4),
    "sat Weighted: Chisholm": _sat(CHISHOLM, WEIGHTED),
    "sat Basic{4}: O T": _sat(["O T"], BASIC4),
    "sat Delta{0}: O T": _sat(["O T"], DELTA0),
    "sat Weighted: O T": _sat(["O T"], WEIGHTED),
    "sat Delta{0}: O O p ; ~O p": _sat(["O O p", "~O p"], DELTA0),
    "forall-weights grid (1, 2, 3): O p |- O(p & q) | O(p & ~q)":
        lambda: check_forall_weights_invalidity(
            Sequent.parse("O p |- O(p & q) | O(p & ~q)"), grid=(1, 2, 3)),
    "forall-weights: p ; q |- O(p & q)":
        lambda: check_forall_weights_invalidity(
            Sequent.parse("p ; q |- O(p & q)")),
}


def verdict_entry(verdict):
    weighting = getattr(verdict.countermodel, "weights", None)
    return {
        "verdict": verdict.kind,
        "fingerprint": verdict.fingerprint,
        "witness": verdict.witness.name if verdict.witness else None,
        "strategy": verdict.strategy,
        "weighting": None if weighting is None else
        {v: str(x) for v, x in weighting.items()},
        "model": None if verdict.countermodel is None else
        model_to_doc(verdict.countermodel),
        "text": format_verdict(verdict).splitlines(),
    }


def _recording(func, seen):
    def wrapper(*args, **kwargs):
        verdict = func(*args, **kwargs)
        seen.append(verdict)
        return verdict
    return wrapper


def snapshot():
    entries = {}
    seen = []
    names = ("check", "check_forall_weights_invalidity", "satisfiable")
    saved = {name: getattr(suite, name) for name in names}
    try:
        for name in names:
            setattr(suite, name, _recording(saved[name], seen))
        for claim in suite._registry():
            if claim.claim_id in NOT_SEARCH:
                continue
            seen.clear()
            claim.run()
            (verdict,) = seen
            entries[claim.claim_id] = verdict_entry(verdict)
    finally:
        for name, func in saved.items():
            setattr(suite, name, func)
    for name in suite.derivation_manifest()["good"]:
        result = check_derivation(suite.load_shipped_derivation(name))
        verdict = check(Sequent((), result.theorem), suite.BASIC4)
        entries[f"derivation:{name}"] = verdict_entry(verdict)
    for name, decide in EXTRA.items():
        entries[name] = verdict_entry(decide())
    return entries


def render(entries):
    return json.dumps(entries, indent=1) + "\n"


def test_golden_snapshot_is_byte_identical():
    assert render(snapshot()) == GOLDEN.read_text()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    GOLDEN.write_text(render(snapshot()))
