"""The operand table and the walks that read it.

Each structural walk over formulas reads syntax's one operand table. The
reference walkers below are the earlier per-class ones, one isinstance chain
each: on random surface formulas and their desugared cores the table-driven
walks must agree with them. Desugared cores share operands, and the
table-driven walks visit each distinct node once: the regression tests give
the DAG queries formulas whose trees are far too large to walk.
"""

import dataclasses
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from deolog import syntax
from deolog.engine import Goal, _AND, _NOT, _PREF, _VAR
from deolog.proofs import SCHEMAS, MetaVar, _match, apply_substitution
from deolog.syntax import (And, Bot, Box, CondOblig, Diamond, Formula, Iff,
                           Implies, Not, Oblig, Or, Perm, PrefEq, PrefStrict,
                           PrefStrictRev, PrefWeak, PrefWeakRev, Top, Var,
                           children, desugar, is_core, modal_depth, parse,
                           pretty, surface_variables)

_UNARY = (Not, Box, Diamond, Oblig, Perm)
_BINARY = (And, Or, Implies, Iff, PrefWeak, PrefStrict, PrefEq,
           PrefWeakRev, PrefStrictRev)


# --- Reference walkers -------------------------------------------------------

def ref_surface_variables(f):
    out = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Var):
            out.add(g.name)
        elif isinstance(g, (Not, Box, Diamond, Oblig, Perm)):
            stack.append(g.child)
        elif isinstance(g, CondOblig):
            stack.extend((g.condition, g.duty))
        elif not isinstance(g, (Top, Bot)):
            stack.extend((g.left, g.right))
    return out


def ref_modal_depth(f):
    if isinstance(f, Var):
        return 0
    if isinstance(f, Not):
        return ref_modal_depth(f.child)
    if isinstance(f, And):
        return max(ref_modal_depth(f.left), ref_modal_depth(f.right))
    if isinstance(f, PrefWeak):
        return 1 + max(ref_modal_depth(f.left), ref_modal_depth(f.right))
    raise TypeError(f"not a core formula: {f!r}")


def ref_is_core(f):
    if isinstance(f, Var):
        return True
    if isinstance(f, Not):
        return ref_is_core(f.child)
    if isinstance(f, (And, PrefWeak)):
        return ref_is_core(f.left) and ref_is_core(f.right)
    return False


def ref_printed_nodes(f, memo):
    n = memo.get(id(f))
    if n is None:
        if isinstance(f, (Not, Box, Diamond, Oblig, Perm)):
            n = 1 + ref_printed_nodes(f.child, memo)
        elif isinstance(f, CondOblig):
            n = 1 + ref_printed_nodes(f.condition, memo) + \
                ref_printed_nodes(f.duty, memo)
        elif isinstance(f, (Var, Top, Bot)):
            n = 1
        else:
            n = 1 + ref_printed_nodes(f.left, memo) + \
                ref_printed_nodes(f.right, memo)
        memo[id(f)] = n
    return n


def ref_match(template, f, subst):
    if isinstance(template, MetaVar):
        bound = subst.get(template.name)
        if bound is None:
            subst[template.name] = f
            return True
        return bound == f
    if type(template) is not type(f):
        return False
    if isinstance(template, Var):
        return template.name == f.name
    if isinstance(template, (Top, Bot)):
        return True
    if isinstance(template, _UNARY):
        return ref_match(template.child, f.child, subst)
    if isinstance(template, _BINARY):
        return (ref_match(template.left, f.left, subst)
                and ref_match(template.right, f.right, subst))
    if isinstance(template, CondOblig):
        return (ref_match(template.condition, f.condition, subst)
                and ref_match(template.duty, f.duty, subst))
    raise TypeError(f"unexpected template node {template!r}")


def ref_apply_substitution(template, subst):
    if isinstance(template, MetaVar):
        try:
            return subst[template.name]
        except KeyError:
            raise ValueError(f"unbound metavariable {template.name}") from None
    if isinstance(template, (Var, Top, Bot)):
        return template
    if isinstance(template, _UNARY):
        return type(template)(ref_apply_substitution(template.child, subst))
    if isinstance(template, _BINARY):
        return type(template)(ref_apply_substitution(template.left, subst),
                              ref_apply_substitution(template.right, subst))
    if isinstance(template, CondOblig):
        return CondOblig(ref_apply_substitution(template.condition, subst),
                         ref_apply_substitution(template.duty, subst))
    raise TypeError(f"unexpected template node {template!r}")


def ref_compile(formula):
    """Goal's slot program, compiled by recursion with a node-id memo:
    (code, root)."""
    compiled = {}
    slots = {}
    code = []

    def compile_node(f):
        slot = compiled.get(id(f))
        if slot is not None:
            return slot
        if isinstance(f, Var):
            op = (_VAR, f.name, None)
        elif isinstance(f, Not):
            op = (_NOT, compile_node(f.child), None)
        elif isinstance(f, And):
            op = (_AND, compile_node(f.left), compile_node(f.right))
        elif isinstance(f, PrefWeak):
            op = (_PREF, compile_node(f.left), compile_node(f.right))
        else:
            raise TypeError(f"not a core formula: {f!r}")
        slot = slots.get(op)
        if slot is None:
            slots[op] = slot = len(code)
            code.append(op)
        compiled[id(f)] = slot
        return slot

    root = compile_node(formula)
    return code, root


# --- Random surface formulas over every node class ---------------------------

_LEAVES = st.one_of(st.sampled_from(["p", "q", "r"]).map(Var),
                    st.sampled_from([Top(), Bot()]))


def _extend(kids):
    return st.one_of(
        st.builds(lambda cls, a: cls(a), st.sampled_from(_UNARY), kids),
        st.builds(lambda cls, a, b: cls(a, b),
                  st.sampled_from(_BINARY + (CondOblig,)), kids, kids))


FORMULAS = st.recursive(_LEAVES, _extend, max_leaves=10)


@settings(max_examples=300)
@given(FORMULAS)
def test_walks_agree_with_the_per_class_walkers(f):
    core = desugar(f)
    for g in (f, core):
        assert surface_variables(g) == ref_surface_variables(g)
        assert is_core(g) == ref_is_core(g)
    assert is_core(core)
    assert modal_depth(core) == ref_modal_depth(core)
    # pretty refuses exactly the formulas printing as more nodes than its cap
    for g in (f, core):
        nodes = ref_printed_nodes(g, {})
        with mock.patch.object(syntax, "MAX_PRINTED_NODES", nodes):
            pretty(g)
        with mock.patch.object(syntax, "MAX_PRINTED_NODES", nodes - 1):
            with pytest.raises(ValueError, match=f"prints as {nodes} nodes"):
                pretty(g)
    goal = Goal(core)
    code, root = ref_compile(core)
    assert (goal.code, goal.root) == (code, root)
    assert goal.atoms == [(i, op[1], op[2]) for i, op in enumerate(code)
                          if op[0] == _PREF]


@settings(max_examples=300)
@given(schema=st.sampled_from(sorted(k for k, v in SCHEMAS.items() if v)),
       first=st.fixed_dictionaries({n: FORMULAS
                                    for n in ("phi", "psi", "theta")}),
       second=st.fixed_dictionaries({n: FORMULAS
                                     for n in ("phi", "psi", "theta")}),
       other=FORMULAS)
def test_schema_walks_agree_with_the_per_class_walkers(schema, first, second,
                                                       other):
    template = SCHEMAS[schema]
    instance = apply_substitution(template, first)
    assert instance == ref_apply_substitution(template, first)
    # every schema is an implication or equivalence: instantiating its two
    # sides apart binds a metavariable twice, equally or not
    left, right = children(template)
    mixed = type(template)(ref_apply_substitution(left, first),
                           ref_apply_substitution(right, second))
    # a random formula, read as a template, has variables and constants
    # among its leaves
    renamed = parse(pretty(other).replace("p", "q"))
    for t, f in ((template, instance), (template, mixed), (template, other),
                 (other, renamed), (other, instance)):
        got, want = {}, {}
        assert _match(t, f, got) == ref_match(t, f, want)
        assert got == want


# --- The table ---------------------------------------------------------------

def _node_classes():
    return sorted((c for c in vars(syntax).values()
                   if isinstance(c, type) and issubclass(c, Formula)
                   and c is not Formula), key=lambda c: c.__name__)


@pytest.mark.parametrize("cls", _node_classes(), ids=lambda c: c.__name__)
def test_every_node_class_has_operands_and_prints(cls):
    operands = syntax._OPERANDS[cls]
    fields = [field.name for field in dataclasses.fields(cls)]
    if operands:
        # type(f)(*children(f)) rebuilds a node with operands
        assert list(operands) == fields
    f = cls(*(Var(name) if name in operands else "x" for name in fields))
    assert children(f) == tuple(Var(name) for name in operands)
    if operands:
        assert cls(*children(f)) == f
    assert isinstance(pretty(f), str)


def test_metavariables_are_leaves():
    assert children(MetaVar("phi")) == ()
    assert str(SCHEMAS["T"]) == "[]phi -> phi"
    assert str(SCHEMAS["Five"]) == "<>phi -> []<>phi"


# --- Shared DAGs -------------------------------------------------------------

def _iff_chain(levels):
    f = "p"
    for _ in range(levels):
        f = f"(p <-> {f})"
    return f


_DAGS = {"iff40": _iff_chain(40), "oblig12": "O " * 12 + "p"}


@pytest.mark.parametrize("dag, query, expected", [
    ("iff40", "variables", ["p"]),
    ("iff40", "modal_depth", 0),
    ("iff40", "is_core", True),
    ("oblig12", "variables", ["p"]),
    ("oblig12", "modal_depth", 12),
    ("oblig12", "is_core", True),
])
def test_dag_queries_are_linear(dag, query, expected):
    # as trees, these cores have about 10^13 (40 levels of <->) and 4^12
    # (12 levels of O) nodes; in a child process, so a walk of the tree
    # fails the test on time instead of hanging it
    program = ("from deolog import syntax\n"
               f"core = syntax.desugar(syntax.parse({_DAGS[dag]!r}))\n"
               f"print(repr(syntax.{query}(core)))\n")
    r = subprocess.run([sys.executable, "-c", program], capture_output=True,
                       text=True, timeout=5)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == repr(expected)
