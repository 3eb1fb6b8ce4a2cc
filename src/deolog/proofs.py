"""Hilbert-style derivation checking for the preference logic.

The axiom base is a standard S5 presentation (propositional tautologies, K,
T, 5) over the defined box, plus three preference schemata: transitivity,
connectedness of possible operands, and substitution of necessary
equivalents. Theorems are closed under modus ponens and necessitation.
Only checking is supported, not proof search. Derivations are read from JSON
documents whose "steps" list one step per line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .documents import _typed
from .engine import MAX_TAUTOLOGY_ATOMS, Goal
from .syntax import (MAX_DEPTH, And, Bot, Box, Diamond, Formula, Iff, Implies,
                     MetaVar, Not, Or, PrefWeak, Top, Var, children, desugar,
                     fold, parse, pretty)


_PHI, _PSI, _THETA = MetaVar("phi"), MetaVar("psi"), MetaVar("theta")

# the preference schemata, plus a standard S5 base over the defined box
SCHEMAS = {
    "Ax1-trans": Implies(And(PrefWeak(_PHI, _PSI), PrefWeak(_PSI, _THETA)),
                         PrefWeak(_PHI, _THETA)),
    "Ax2-conn": Iff(And(Diamond(_PHI), Diamond(_PSI)),
                    Or(PrefWeak(_PHI, _PSI), PrefWeak(_PSI, _PHI))),
    "Ax3-subst": Implies(
        Box(Iff(_PHI, _PSI)),
        And(Iff(PrefWeak(_PHI, _THETA), PrefWeak(_PSI, _THETA)),
            Iff(PrefWeak(_THETA, _PHI), PrefWeak(_THETA, _PSI)))),
    "K": Implies(Box(Implies(_PHI, _PSI)),
                 Implies(Box(_PHI), Box(_PSI))),
    "T": Implies(Box(_PHI), _PHI),
    "Five": Implies(Diamond(_PHI), Box(Diamond(_PHI))),
    "PC-taut": None,   # checked by is_tautology_instance instead
}


def _match(template, f, subst):
    if type(template) is MetaVar:
        return subst.setdefault(template.name, f) == f
    if type(template) is not type(f):
        return False
    operands = children(template)
    if not operands:
        return template == f
    return all(_match(t, g, subst) for t, g in zip(operands, children(f)))


def match_schema(schema_id: str, f: Formula) -> dict | None:
    """First-order match of f against the schema template; returns the
    metavariable substitution, or None. PC-taut matches iff f is a
    tautology instance."""
    template = SCHEMAS[schema_id]
    if template is None:
        return {} if is_tautology_instance(f) else None
    subst = {}
    return subst if _match(template, f, subst) else None


def apply_substitution(template: Formula, subst: dict) -> Formula:
    def instantiate(g, operands):
        if type(g) is MetaVar:
            try:
                return subst[g.name]
            except KeyError:
                raise ValueError(f"unbound metavariable {g.name}") from None
        return type(g)(*operands) if operands else g
    return fold(template, instantiate)


#: Truth-functional connectives: is_tautology_instance abstracts the rest
_TRUTH_FUNCTIONAL = (Top, Bot, Not, And, Or, Implies, Iff)


def is_tautology_instance(f: Formula) -> bool:
    """True iff f is a truth-functional tautology once its maximal modal and
    preference subformulas are abstracted as atoms. Raises ValueError for
    more than MAX_TAUTOLOGY_ATOMS atoms."""
    atoms = {}

    def abstract(g):
        """g with each maximal non-truth-functional subformula (and each
        variable) replaced by a fresh variable, equal ones alike."""
        if type(g) in _TRUTH_FUNCTIONAL:
            operands = children(g)
            return type(g)(*map(abstract, operands)) if operands else g
        return atoms.setdefault(g, Var(f"a{len(atoms)}"))

    abstracted = abstract(f)
    if len(atoms) > MAX_TAUTOLOGY_ATOMS:
        raise ValueError(f"tautology check over {len(atoms)} atoms, more "
                         f"than {MAX_TAUTOLOGY_ATOMS}")
    # a tautology is one whose negation no assignment of the atoms satisfies
    return not Goal(desugar(Not(abstracted))).skeleton_holds()


@dataclass(frozen=True)
class Step:
    """One derivation line. kind is 'axiom' (schema + the instance formula),
    'mp' (refs = [implication line, antecedent line], 1-based), or 'nec'
    (ref = line derived under the box)."""
    kind: str
    formula: Formula | None = None
    schema: str | None = None
    refs: tuple = ()


@dataclass
class CheckResult:
    ok: bool
    theorem: Formula | None = None
    step: int | None = None      # 1-based index of the failing step
    reason: str | None = None


def step_from_dict(entry: dict) -> Step:
    """The step a derivation document's entry describes. Raises KeyError or
    ValueError (ParseError for a bad formula) on a malformed entry."""
    kind = _typed(entry, dict, "each step")["kind"]
    if kind == "axiom":
        schema = _typed(entry["schema"], str, '"schema"')
        if schema not in SCHEMAS:
            raise ValueError(f"unknown schema {schema!r}")
        if "formula" in entry:
            formula = parse(_typed(entry["formula"], str, '"formula"'))
        else:
            template = SCHEMAS[schema]
            if template is None:
                raise ValueError("PC-taut steps must give the formula")
            subst = {name: parse(_typed(text, str, f'"subst" entry {name!r}'))
                     for name, text in
                     _typed(entry["subst"], dict, '"subst"').items()}
            formula = apply_substitution(template, subst)
        return Step("axiom", formula, schema)
    if kind == "mp":
        refs = _typed(entry["refs"], list, '"refs"')
        if len(refs) != 2:
            raise ValueError(f'"refs" must name 2 lines, not {len(refs)}')
        return Step("mp", refs=tuple(_typed(r, int, 'each entry of "refs"')
                                     for r in refs))
    if kind == "nec":
        return Step("nec", refs=(_typed(entry["ref"], int, '"ref"'),))
    raise ValueError(f"unknown step kind {kind!r}")


def derivation_from_doc(doc: dict) -> list:
    """The steps a parsed derivation document lists. Raises KeyError or
    ValueError on a malformed document."""
    steps = _typed(doc, dict, "a derivation document")["steps"]
    return [step_from_dict(entry) for entry in _typed(steps, list, '"steps"')]


def load_derivation(path):
    with open(path) as fh:
        return derivation_from_doc(json.load(fh))


def check_derivation(steps) -> CheckResult:
    """Verify a derivation line by line; on success the theorem is the last
    line's formula. A nec line over MAX_DEPTH levels raises ValueError."""
    derived = []
    for n, step in enumerate(steps, start=1):
        def fail(reason):
            return CheckResult(False, step=n, reason=reason)
        for ref in step.refs:
            if not 1 <= ref < n:
                return fail(f"reference {ref} is out of range")
        if step.kind == "axiom":
            if match_schema(step.schema, step.formula) is None:
                return fail(
                    f"{pretty(step.formula)} is not an instance of "
                    f"{step.schema}")
            derived.append(step.formula)
        elif step.kind == "mp":
            imp, ant = (derived[r - 1] for r in step.refs)
            if not isinstance(imp, Implies):
                return fail(f"line {step.refs[0]} is not an implication")
            if imp.left != ant:
                return fail(
                    f"line {step.refs[1]} does not match the antecedent of "
                    f"line {step.refs[0]}")
            derived.append(imp.right)
        elif step.kind == "nec":
            f = Box(derived[step.refs[0] - 1])
            if fold(f, lambda g, below: 1 + max(below, default=0)) > MAX_DEPTH:
                raise ValueError(f"step {n}: formula nested deeper than "
                                 f"{MAX_DEPTH} levels")
            derived.append(f)
        else:
            return fail(f"unknown step kind {step.kind!r}")
    if not derived:
        return CheckResult(False, step=0, reason="empty derivation")
    return CheckResult(True, theorem=derived[-1])
