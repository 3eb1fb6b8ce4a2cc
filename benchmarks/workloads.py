"""The three workloads: inputs made from a seed, one callable per operation,
and an independent check of each operation's output.

Every operation calls deolog through its module objects (`dl.engine.check`,
not a bound reference), so the tracer's wrappers see the calls. The checks
run outside the timed region; an exception in an operation or its check
counts as a failed operation and never stops the run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
CLAIMS_FILE = HERE / "paper_claims.json"
REFERENCE_FILE = HERE / "nested_random_reference.json"

DEFAULT_SEED = 1
NESTED_POOL = 300          # sequents per nested-random pass
NESTED_FALSIFY = 8         # random models tried against each valid verdict
MODEL_POOL = 100           # documents per model-eval pass
FORMULAS_PER_MODEL = 20

EXIT_CODES = {"valid": 0, "qualified-valid": 0, "sat": 0, "invalid": 1,
              "unsat": 1, "unknown": 2}


@dataclass
class Op:
    label: str
    run: object            # () -> output
    check: object          # output -> None, or a message saying what is wrong


@dataclass
class Modules:
    syntax: object
    models: object
    regimes: object
    orders: object
    engine: object
    documents: object
    proofs: object


def regime_from_text(dl, text):
    kind, _, arg = text.partition(":")
    if kind == "basic":
        return dl.regimes.BasicRegime(int(arg))
    if kind == "delta":
        return dl.regimes.DeltaRegime(int(arg))
    if kind == "weighted":
        return dl.regimes.WeightedRegime(dl.regimes.WeightClass.parse(arg))
    raise ValueError(f"unknown regime {text!r}")


# --- Checks shared by the search workloads ------------------------------------

def verdict_problem(dl, verdict, goal, formulas=()):
    """What is wrong with a verdict's exit code or model, or None.

    A reported model must pass `validate_model`, make its goal (or each of
    `formulas`) true at the witness, pick admissibly for its weighting or
    forced strategy, and survive a document round trip byte for byte.
    """
    if verdict.exit_code() != EXIT_CODES.get(verdict.kind):
        return f"exit code {verdict.exit_code()} for {verdict.kind}"
    model = verdict.countermodel
    if model is None:
        if verdict.kind in ("invalid", "sat"):
            return f"{verdict.kind} verdict without a model"
        return None
    problems = dl.models.validate_model(model)
    if problems:
        return "invalid model: " + "; ".join(problems)
    for f in formulas or (goal,):
        if not dl.models.holds_at(model, f, verdict.witness):
            return "model fails at its witness"
    for (w, prop), pick in model.selection.items():
        if verdict.strategy == "forced" and \
                pick != dl.regimes.forced_choice(w, prop):
            return f"unforced pick at {w.name}"
        if model.weights is not None and \
                pick not in dl.regimes.p_nearest(model.weights, w, prop):
            return f"pick at {w.name} is not nearest under the weighting"
    doc = dl.documents.model_to_doc(model)
    again = dl.documents.model_to_doc(dl.documents.model_from_doc(doc))
    if json.dumps(doc) != json.dumps(again):
        return "model document does not round-trip"
    return None


# --- paper-claims --------------------------------------------------------------

def build_paper_claims(dl, seed):
    spec = json.loads(CLAIMS_FILE.read_text())
    ops = [_claim_op(dl, claim) for claim in spec["claims"]]
    derivations = Path(dl.proofs.__file__).parent / "derivations"
    for entry in spec["derivations"]:
        doc = json.loads((derivations / entry["file"]).read_text())
        steps = [dl.proofs.step_from_dict(s) for s in doc["steps"]]
        ops.append(_derivation_op(dl, entry, steps))
    random.Random(seed).shuffle(ops)
    return ops


def _claim_op(dl, claim):
    expected = claim["expected"]
    regime = regime_from_text(dl, claim["regime"]) if "regime" in claim \
        else None

    if claim["op"] == "sat":
        texts = claim["formulas"]

        def run():
            formulas = [dl.syntax.parse(t) for t in texts]
            return formulas, dl.engine.satisfiable(formulas, regime)

        def check(out):
            formulas, verdict = out
            top = dl.syntax.top_variable(*formulas)
            cores = [dl.syntax.desugar(f, top) for f in formulas]
            if verdict.kind != expected:
                return f"verdict {verdict.kind}, expected {expected}"
            return verdict_problem(dl, verdict, None, cores)
        return Op(claim["id"], run, check)

    text = claim["sequent"]
    if claim["op"] == "check":
        def run():
            sequent = dl.engine.Sequent.parse(text)
            return sequent, dl.engine.check(sequent, regime)
    elif claim["op"] == "forall-weights":
        def run():
            sequent = dl.engine.Sequent.parse(text)
            return sequent, \
                dl.engine.check_forall_weights_invalidity(sequent)
    else:
        raise ValueError(f"unknown claim op {claim['op']!r}")

    def check(out):
        sequent, verdict = out
        if verdict.kind != expected:
            return f"verdict {verdict.kind}, expected {expected}"
        return verdict_problem(dl, verdict, sequent.goal())
    return Op(claim["id"], run, check)


def _derivation_op(dl, entry, steps):
    if entry["status"] == "corrupt":
        def run():
            return dl.proofs.check_derivation(steps), None

        def check(out):
            result, _ = out
            if result.ok or result.step != entry["failing_step"]:
                return (f"accepted or failed at step {result.step}, "
                        f"expected step {entry['failing_step']}")
            return None
        return Op(entry["file"], run, check)

    regime = regime_from_text(dl, entry["theorem_regime"])
    expected = entry["theorem_expected"]

    def run():
        result = dl.proofs.check_derivation(steps)
        if not result.ok:
            return result, None
        sequent = dl.engine.Sequent((), result.theorem)
        return result, dl.engine.check(sequent, regime)

    def check(out):
        result, verdict = out
        if not result.ok:
            return f"rejected at step {result.step}: {result.reason}"
        if verdict.kind != expected:
            return f"theorem verdict {verdict.kind}, expected {expected}"
        return verdict_problem(dl, verdict,
                               dl.engine.Sequent((), result.theorem).goal())
    return Op(entry["file"], run, check)


# --- nested-random -------------------------------------------------------------
# Runnable and traceable, but not listed in BENCHMARK.json: its latencies are
# spread log-uniformly around the median, so with the 300 sequents a run can
# afford, the median latency moves by about a third from one seed to the next.

def random_surface(dl, rng, names, depth):
    """A random surface formula nesting O, P, C and > (and the Boolean
    connectives) to at most the given depth."""
    s = dl.syntax
    if depth == 0 or rng.random() < 0.2:
        v = s.Var(rng.choice(names))
        return s.Not(v) if rng.random() < 0.3 else v
    d = depth - 1
    r = rng.random()
    if r < 0.2:
        return s.Oblig(random_surface(dl, rng, names, d))
    if r < 0.35:
        return s.Perm(random_surface(dl, rng, names, d))
    if r < 0.5:
        return s.CondOblig(random_surface(dl, rng, names, d),
                           random_surface(dl, rng, names, d))
    if r < 0.62:
        return s.PrefStrict(random_surface(dl, rng, names, d),
                            random_surface(dl, rng, names, d))
    if r < 0.72:
        return s.Not(random_surface(dl, rng, names, d))
    if r < 0.82:
        return s.And(random_surface(dl, rng, names, d),
                     random_surface(dl, rng, names, d))
    if r < 0.92:
        return s.Or(random_surface(dl, rng, names, d),
                    random_surface(dl, rng, names, d))
    return s.Implies(random_surface(dl, rng, names, d),
                     random_surface(dl, rng, names, d))


def nested_random_sequents(dl, seed, count=NESTED_POOL):
    """Sequent texts over {p, q} with 0-2 premises (cycling, so every seed
    has the same mix) whose desugared goal has modal depth >= 2."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        premises = tuple(random_surface(dl, rng, "pq", 3)
                         for _ in range(len(out) % 3))
        sequent = dl.engine.Sequent(premises,
                                    random_surface(dl, rng, "pq", 3))
        if dl.syntax.modal_depth(sequent.goal()) >= 2:
            out.append(str(sequent))
    return out


def build_nested_random(dl, seed):
    reference = None
    if seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE_FILE.read_text())["verdicts"]
    regime = dl.regimes.DeltaRegime(0)
    return [_nested_op(dl, text, regime, reference, random.Random(i))
            for i, text in enumerate(nested_random_sequents(dl, seed))]


def _nested_op(dl, text, regime, reference, rng):
    checked = {}

    def run():
        sequent = dl.engine.Sequent.parse(text)
        return sequent, dl.engine.check(sequent, regime)

    def check(out):
        sequent, verdict = out
        if verdict.kind not in ("valid", "invalid"):
            return f"verdict {verdict.kind}"
        if checked.setdefault("kind", verdict.kind) != verdict.kind:
            return f"verdict {verdict.kind}, earlier {checked['kind']}"
        if verdict.kind == "invalid":
            return verdict_problem(dl, verdict, sequent.goal())
        # regression reference: recorded at the default seed, not an
        # independent decision
        if reference is not None and reference[text] != "valid":
            return f"valid, but the reference verdict is {reference[text]}"
        if "falsified" not in checked:
            checked["falsified"] = falsify(dl, sequent.goal(), rng)
        return checked["falsified"]
    return Op(text, run, check)


def delta_pick(rng):
    """A selector making random delta-based picks (subset-minimal symmetric
    difference), written independently of `deolog.regimes`."""
    def pick(w, prop):
        cands = sorted(prop, key=lambda x: x.name)
        diffs = [w.members ^ x.members for x in cands]
        minimal = [x for x, d in zip(cands, diffs)
                   if not any(e < d for e in diffs)]
        return rng.choice(minimal)
    return pick


def random_delta_model(dl, rng, universe):
    worlds = dl.models.powerset_worlds(universe)
    utility = {w: rng.randrange(len(worlds)) for w in worlds}
    return dl.models.Model(universe, worlds, utility, {}, "delta")


def filling_evaluator(dl, model, rng):
    """An Evaluator that fills each missing selection cell with a random
    delta-based pick and records it in the model."""
    pick = delta_pick(rng)

    def selector(w, prop):
        chosen = model.selection[(w, prop)] = pick(w, prop)
        return chosen
    return dl.models.Evaluator(model, selector)


def falsify(dl, goal, rng):
    """Try random delta models on a goal whose sequent was decided valid: a
    model where the goal holds somewhere refutes that verdict."""
    universe = tuple(dl.syntax.variables(goal))
    for _ in range(NESTED_FALSIFY):
        model = random_delta_model(dl, rng, universe)
        if filling_evaluator(dl, model, rng).denote(goal):
            return "valid, but a random delta model refutes the sequent"
    return None


# --- model-eval ----------------------------------------------------------------

def random_formula(dl, rng, names, depth):
    """A random surface formula in the mix of `deolog suite`'s Prop 1 and
    Prop 2 samples: mostly Boolean, with >=, O and P."""
    s = dl.syntax
    r = rng.random()
    if depth == 0 or r < 0.3:
        return s.Var(rng.choice(names))
    d = depth - 1
    if r < 0.45:
        return s.Not(random_formula(dl, rng, names, d))
    if r < 0.6:
        return s.And(random_formula(dl, rng, names, d),
                     random_formula(dl, rng, names, d))
    if r < 0.7:
        return s.Or(random_formula(dl, rng, names, d),
                    random_formula(dl, rng, names, d))
    if r < 0.8:
        return s.PrefWeak(random_formula(dl, rng, names, d),
                          random_formula(dl, rng, names, d))
    if r < 0.9:
        return s.Oblig(random_formula(dl, rng, names, d))
    return s.Perm(random_formula(dl, rng, names, d))


def build_model_eval(dl, seed):
    rng = random.Random(seed)
    ops = []
    for i in range(MODEL_POOL):
        # one model in four has 3 variables, so the median latency falls
        # inside the 4-variable cluster rather than between the two
        universe = ("p", "q", "r") if i % 4 == 0 else ("p", "q", "r", "s")
        model = random_delta_model(dl, rng, universe)
        ev = filling_evaluator(dl, model, rng)
        texts, denotations = [], []
        for _ in range(FORMULAS_PER_MODEL):
            text = dl.syntax.pretty(random_formula(dl, rng, universe, 3))
            core = dl.syntax.desugar(dl.syntax.parse(text))
            texts.append(text)
            denotations.append(sorted(w.name for w in ev.denote(core)))
        doc = dl.documents.dumps_model(model)
        ops.append(_model_op(dl, i, doc, texts, denotations, seed))
    return ops


def _model_op(dl, index, doc, texts, expected, seed):
    checked = []

    def run():
        model = dl.documents.loads_model(doc)
        problems = dl.models.validate_model(model)
        ev = dl.models.Evaluator(model)
        denotations = [
            sorted(w.name for w in
                   ev.denote(dl.syntax.desugar(dl.syntax.parse(text))))
            for text in texts]
        return model, problems, denotations, dl.documents.dumps_model(model)

    def check(out):
        model, problems, denotations, text = out
        if problems:
            return "invalid model: " + "; ".join(problems)
        if text != doc:
            return "document does not round-trip byte for byte"
        if denotations != expected:
            return "denotations differ from those computed at set-up"
        if not checked:
            checked.append(True)
            return paper_properties(dl, model, texts,
                                    random.Random(seed * 1000 + index))
        return None
    return Op(f"model-{index}", run, check)


def paper_properties(dl, model, texts, rng):
    """Prop 1 (box and diamond denote nothing or everything, with their side
    conditions) and Prop 2 (O psi as psi > ~psi, P psi as psi >= ~psi) on
    every formula of a document; missing cells get random delta picks."""
    s = dl.syntax
    ev = filling_evaluator(dl, model, rng)
    everything = frozenset(model.worlds)
    for text in texts:
        psi = s.parse(text)
        phi = s.desugar(psi)
        den = ev.denote(phi)
        box = ev.denote(s.Not(s.PrefWeak(s.Not(phi), s.Not(phi))))
        dia = ev.denote(s.PrefWeak(phi, phi))
        if box not in (frozenset(), everything) or \
                (box == everything) != (den == everything):
            return f"Prop 1 fails for box of {text}"
        if dia not in (frozenset(), everything) or \
                (dia == everything) != bool(den):
            return f"Prop 1 fails for diamond of {text}"
        if ev.denote(s.desugar(s.Oblig(psi))) != \
                ev.denote(s.desugar(s.PrefStrict(psi, s.Not(psi)))):
            return f"Prop 2 fails for O of {text}"
        if ev.denote(s.desugar(s.Perm(psi))) != \
                ev.denote(s.desugar(s.PrefWeak(psi, s.Not(psi)))):
            return f"Prop 2 fails for P of {text}"
    return None


WORKLOADS = {
    "paper-claims": build_paper_claims,
    "nested-random": build_nested_random,
    "model-eval": build_model_eval,
}
