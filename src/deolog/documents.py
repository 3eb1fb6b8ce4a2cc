"""Serialization: model documents and verdict reports.

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
from json.encoder import encode_basestring_ascii as _quote

from .syntax import parse, desugar
from .models import Evaluator, MissingSelectionError, Model, World


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string",
               int: "an integer"}


def _typed(value, kind, what):
    """value, if it has the JSON type kind; otherwise the document is
    malformed."""
    if not isinstance(value, kind) or kind is int and isinstance(value, bool):
        raise ValueError(f"{what} must be {_JSON_TYPES[kind]}, not "
                         f"{type(value).__name__}")
    return value


def _names(value, what) -> list:
    for name in _typed(value, list, what):
        _typed(name, str, f"each entry of {what}")
    return value


def _world_members(universe, name: str) -> frozenset:
    bits = name.split("#", 1)[0]
    if len(bits) != len(universe) or set(bits) - {"0", "1"}:
        raise ValueError(f"world name {name!r} is not a bit-string over "
                         f"{len(universe)} variables")
    return frozenset(v for v, b in zip(universe, bits) if b == "1")


def _weight(value, what):
    """A weight: a number or a fraction string, not a boolean."""
    try:
        if not isinstance(value, bool):
            return Fraction(value)
    except (TypeError, OverflowError):   # e.g. a list, or Infinity
        pass
    raise ValueError(f"{what} is not a finite number: {value!r}")


def model_from_doc(doc: dict) -> Model:
    """The model a parsed document describes. Raises KeyError or ValueError
    on a malformed document; validate_model checks the model itself."""
    _typed(doc, dict, "a model document")
    universe = tuple(_names(doc["universe"], '"universe"'))
    worlds = tuple(World(name, _world_members(universe, name))
                   for name in _names(doc["worlds"], '"worlds"'))
    by_name = {w.name: w for w in worlds}
    utility = {by_name[name]: _typed(rank, int, f"the utility of {name}")
               for name, rank in _typed(doc["utility"], dict,
                                        '"utility"').items()}
    weights = None
    if doc.get("weights") is not None:
        weights = {v: _weight(x, f"the weight of {v}")
                   for v, x in _typed(doc["weights"], dict,
                                      '"weights"').items()}
    model = Model(universe, worlds, utility, {}, doc.get("mode", "basic"),
                  weights)
    cells = {}   # tuple of world names -> the one frozenset of those worlds
    # entries are resolved in listed order, so a formula cell may rely on
    # selections defined by earlier entries
    for entry in _typed(doc.get("selection", []), list, '"selection"'):
        _typed(entry, dict, "a selection entry")
        at = by_name[_typed(entry["at"], str, '"at"')]
        of = entry["of"]
        if isinstance(of, str):
            try:
                prop = Evaluator(model).denote(desugar(parse(of)))
            except MissingSelectionError as miss:
                raise ValueError(f"cell {of!r} at {at.name}: {miss}") \
                    from None
        else:
            key = tuple(_typed(of, list, '"of"'))
            try:
                prop = cells[key]
            except (KeyError, TypeError):   # TypeError: an unhashable name
                prop = cells[key] = frozenset(
                    by_name[name] for name in _names(of, '"of"'))
        model.selection[(at, prop)] = by_name[_typed(entry["pick"], str,
                                                     '"pick"')]
    return model


def _selection_rows(model: Model) -> list:
    """The selection as sorted (at, of, pick) rows of world names. Each cell's
    names are sorted once, into one list that its rows share."""
    cells = {}
    rows = []
    for (at, prop), pick in model.selection.items():
        of = cells.get(prop)
        if of is None:
            of = cells[prop] = sorted(w.name for w in prop)
        rows.append((at.name, of, pick.name))
    rows.sort()
    return rows


def model_to_doc(model: Model) -> dict:
    names = sorted(w.name for w in model.worlds)
    doc = {
        "universe": list(model.universe),
        "worlds": names,
        "utility": {name: model.utility[model.world(name)]
                    for name in names},
        "selection": [{"at": at, "of": list(of), "pick": pick}
                      for at, of, pick in _selection_rows(model)],
        "mode": model.mode,
    }
    if model.weights is not None:
        doc["weights"] = {v: str(model.weights[v]) for v in model.universe}
    return doc


def _layout(items, indent, brackets="[]") -> str:
    """Encoded items in brackets, laid out as json.dumps with indent=2 lays
    them out at this indent."""
    if not items:
        return brackets
    inner = indent + "  "
    return (brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n"
            + indent + brackets[1])


def _strings(names, indent) -> str:
    return _layout([_quote(name) for name in names], indent)


def _object(pairs, indent) -> str:
    return _layout([f"{_quote(k)}: {v}" for k, v in pairs], indent, "{}")


def dumps_model(model: Model) -> str:
    """The model's document as JSON text: byte for byte
    json.dumps(model_to_doc(model), indent=2) + "\n", written directly.

    World names and variables are strings, escaped as json.dumps escapes
    them. json.dumps with an indent runs json's pure-Python encoder, so this
    writer lays out the fixed shape itself and encodes each cell once.
    """
    names = sorted(w.name for w in model.worlds)
    cells = {}   # id of a shared "of" list -> its encoding
    entries = []
    for at, of, pick in _selection_rows(model):
        cell = cells.get(id(of))
        if cell is None:
            cell = cells[id(of)] = _strings(of, "      ")
        entries.append(f'{{\n      "at": {_quote(at)},\n      "of": {cell},'
                       f'\n      "pick": {_quote(pick)}\n    }}')
    selection = _layout(entries, "  ")
    parts = [
        '{\n  "universe": ', _strings(model.universe, "  "),
        ',\n  "worlds": ', _strings(names, "  "),
        ',\n  "utility": ', _object(
            [(name, json.dumps(model.utility[model.world(name)]))
             for name in names], "  "),
        ',\n  "selection": ', selection,
        ',\n  "mode": ', json.dumps(model.mode)]
    if model.weights is not None:
        parts += [',\n  "weights": ', _object(
            [(v, _quote(str(model.weights[v]))) for v in model.universe],
            "  ")]
    parts.append("\n}\n")
    return "".join(parts)


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
    if verdict.strategy is not None:
        doc["weightRobust"] = verdict.strategy == "forced"
        doc["strategy"] = verdict.strategy
    weighting = getattr(verdict.countermodel, "weights", None)
    if weighting is not None:
        doc["weighting"] = {v: str(x) for v, x in weighting.items()}
    if verdict.detail is not None:
        doc["detail"] = verdict.detail
    return doc


def format_verdict(verdict) -> str:
    """The CLI's text verdict block: verdict_to_doc's report, line by line."""
    doc = verdict_to_doc(verdict)
    fp = ", ".join(f"{k}={v}" for k, v in doc["fingerprint"].items())
    lines = [f"verdict: {doc['verdict']}", f"fingerprint: {fp}"]
    if "weightRobust" in doc:
        lines.append(f"weight-robust: {str(doc['weightRobust']).lower()}")
    if "weighting" in doc:
        lines.append("weighting: " + ", ".join(
            f"{v}={x}" for v, x in doc["weighting"].items()))
    if "witness" in doc:
        lines.append(f"witness: {doc['witness']}")
    for key in ("model", "countermodel"):
        if key in doc:
            lines.append(f"{key}:")
            lines += [f"  u({name}) = {rank}"
                      for name, rank in doc[key]["utility"].items()]
            lines += [f"  select({row['at']}, {{{','.join(row['of'])}}}) = "
                      f"{row['pick']}" for row in doc[key]["selection"]]
    if "detail" in doc:
        lines.append(f"note: {doc['detail']}")
    return "\n".join(lines)
