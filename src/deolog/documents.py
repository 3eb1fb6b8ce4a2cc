"""Serialization: model documents, verdict reports, derivation files.

Model documents are JSON with canonical field order (universe, worlds,
utility, selection, mode, weights). Worlds are named by bit-strings over the
sorted universe ("10" = {p} when universe = [p, q]); basic-mode models may
repeat a valuation, disambiguated by a #k name suffix. Selection entries
name their cell either by a formula string (resolved against the document in
listed order) or by an explicit world-name array. Serializing a loaded
canonical document is byte-stable.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .syntax import parse, desugar
from .models import Evaluator, Model, World


def _world_members(universe, name: str) -> frozenset:
    bits = name.split("#", 1)[0]
    if len(bits) != len(universe) or set(bits) - {"0", "1"}:
        raise ValueError(f"world name {name!r} is not a bit-string over "
                         f"{len(universe)} variables")
    return frozenset(v for v, b in zip(universe, bits) if b == "1")


def model_from_doc(doc: dict) -> Model:
    universe = tuple(doc["universe"])
    worlds = tuple(World(name, _world_members(universe, name))
                   for name in doc["worlds"])
    by_name = {w.name: w for w in worlds}
    utility = {by_name[name]: int(rank)
               for name, rank in doc["utility"].items()}
    weights = None
    if doc.get("weights") is not None:
        weights = {v: Fraction(x) for v, x in doc["weights"].items()}
    model = Model(universe, worlds, utility, {}, doc.get("mode", "basic"),
                  weights)
    # entries are resolved in listed order, so a formula cell may rely on
    # selections defined by earlier entries
    for entry in doc.get("selection", []):
        at = by_name[entry["at"]]
        of = entry["of"]
        if isinstance(of, str):
            prop = Evaluator(model).denote(desugar(parse(of)))
        else:
            prop = frozenset(by_name[name] for name in of)
        model.selection[(at, prop)] = by_name[entry["pick"]]
    return model


def model_to_doc(model: Model) -> dict:
    names = sorted(w.name for w in model.worlds)
    doc = {
        "universe": list(model.universe),
        "worlds": names,
        "utility": {name: model.utility[model.world(name)]
                    for name in names},
        "selection": [
            {"at": at.name,
             "of": sorted(w.name for w in prop),
             "pick": pick.name}
            for (at, prop), pick in sorted(
                model.selection.items(),
                key=lambda item: (item[0][0].name,
                                  sorted(w.name for w in item[0][1])))
        ],
        "mode": model.mode,
    }
    if model.weights is not None:
        doc["weights"] = {v: str(model.weights[v]) for v in model.universe}
    return doc


def dumps_model(model: Model) -> str:
    return json.dumps(model_to_doc(model), indent=2) + "\n"


def loads_model(text: str) -> Model:
    return model_from_doc(json.loads(text))


def load_model(path) -> Model:
    with open(path) as fh:
        return model_from_doc(json.load(fh))


def verdict_to_doc(verdict) -> dict:
    doc = {"verdict": verdict.kind, "fingerprint": verdict.fingerprint}
    if verdict.witness is not None:
        doc["witness"] = verdict.witness.name
    if verdict.countermodel is not None:
        key = "model" if verdict.kind == "sat" else "countermodel"
        doc[key] = model_to_doc(verdict.countermodel)
    if verdict.weight_robust is not None:
        doc["weightRobust"] = verdict.weight_robust
    if verdict.strategy is not None:
        doc["strategy"] = verdict.strategy
    if verdict.weighting is not None:
        doc["weighting"] = {v: str(x) for v, x in verdict.weighting.items()}
    if verdict.detail is not None:
        doc["detail"] = verdict.detail
    return doc


def format_verdict(verdict) -> str:
    """Human-readable verdict block (the non-JSON CLI output)."""
    lines = [f"verdict: {verdict.kind}"]
    fp = ", ".join(f"{k}={v}" for k, v in verdict.fingerprint.items())
    lines.append(f"fingerprint: {fp}")
    if verdict.weight_robust is not None:
        lines.append(f"weight-robust: {str(verdict.weight_robust).lower()}")
    if verdict.weighting is not None:
        lines.append("weighting: " + ", ".join(
            f"{v}={x}" for v, x in verdict.weighting.items()))
    if verdict.witness is not None:
        lines.append(f"witness: {verdict.witness.name}")
    if verdict.countermodel is not None:
        m = verdict.countermodel
        lines.append("model:" if verdict.kind == "sat" else "countermodel:")
        for name in sorted(w.name for w in m.worlds):
            lines.append(f"  u({name}) = {m.utility[m.world(name)]}")
        for (at, prop), pick in sorted(
                m.selection.items(),
                key=lambda item: (item[0][0].name,
                                  sorted(w.name for w in item[0][1]))):
            cell = "{" + ",".join(sorted(w.name for w in prop)) + "}"
            lines.append(f"  select({at.name}, {cell}) = {pick.name}")
    if verdict.detail is not None:
        lines.append(f"note: {verdict.detail}")
    return "\n".join(lines)


def load_derivation(path):
    from .proofs import step_from_dict
    with open(path) as fh:
        doc = json.load(fh)
    return [step_from_dict(entry) for entry in doc["steps"]]
