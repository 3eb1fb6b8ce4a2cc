"""Concrete syntax, surface AST, and desugaring to the ~/&/>= core language.

The surface language carries every abbreviation (| -> <-> > <= < ~~ [] <> O P
C T F); the core language is negation, conjunction and weak preference only.
All evaluation happens on core trees.
"""

from __future__ import annotations

from dataclasses import dataclass


# --- AST nodes ---------------------------------------------------------------

class Formula:
    """Base class for surface formulas. Core formulas are the subset built
    from Var, Not, And and PrefWeak only. Desugaring shares operand nodes,
    so evaluators memoise core formulas by node identity. They may call a
    selector for missing cells in any order: that order is not part of the
    contract.
    """
    __slots__ = ()

    def __str__(self):
        return pretty(self)


@dataclass(frozen=True, slots=True)
class Var(Formula):
    name: str


@dataclass(frozen=True, slots=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class PrefWeak(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class PrefStrict(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class PrefEq(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class PrefWeakRev(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class PrefStrictRev(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Top(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Bot(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Box(Formula):
    child: Formula


@dataclass(frozen=True, slots=True)
class Diamond(Formula):
    child: Formula


@dataclass(frozen=True, slots=True)
class Oblig(Formula):
    child: Formula


@dataclass(frozen=True, slots=True)
class Perm(Formula):
    child: Formula


@dataclass(frozen=True, slots=True)
class CondOblig(Formula):
    condition: Formula
    duty: Formula


#: Reserved variable used to lower T when the query mentions no variable at all.
RESERVED_TOP_VAR = "_t"


def is_core(f: Formula) -> bool:
    """True iff f contains only Var/Not/And/PrefWeak nodes."""
    if isinstance(f, Var):
        return True
    if isinstance(f, Not):
        return is_core(f.child)
    if isinstance(f, (And, PrefWeak)):
        return is_core(f.left) and is_core(f.right)
    return False


# --- Parsing -----------------------------------------------------------------

class ParseError(Exception):
    def __init__(self, message, offset, expected=()):
        self.offset = offset
        self.expected = frozenset(expected)
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected one of: %s)" % ", ".join(sorted(expected))
        super().__init__(detail)


_UNICODE_MAP = {
    "¬": "~", "∧": "&", "∨": "|", "→": "->",
    "↔": "<->", "≽": ">=", "≻": ">", "≼": "<=",
    "≺": "<", "≈": "~~", "□": "[]", "◇": "<>",
    "⊤": "T", "⊥": "F",
    "\U0001d546": "O", "ℙ": "P", "ℂ": "C",
}

_MULTI = ["<->", "~~", "->", ">=", "<=", "<>", "[]"]
_SINGLE = "~&|><(),"


def _tokenize(text):
    """Yield (kind, lexeme, offset) triples. Kinds: op lexemes themselves,
    'ident', 'eof'."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _UNICODE_MAP:
            tokens.append((_UNICODE_MAP[ch], _UNICODE_MAP[ch], i))
            i += 1
            continue
        matched = False
        for op in _MULTI:
            if text.startswith(op, i):
                tokens.append((op, op, i))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in _SINGLE:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch in "TFOPC":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.islower() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("eof", "", n))
    return tokens


_PREF_OPS = {
    ">=": PrefWeak, ">": PrefStrict, "<=": PrefWeakRev,
    "<": PrefStrictRev, "~~": PrefEq,
}

_FORMULA_START = {"~", "[]", "<>", "O", "P", "C", "T", "F", "(", "ident"}


#: Deepest formula accepted. Parsing, desugaring, printing and evaluation
#: recurse once or a few times per level of a tree, so deeper input would
#: exhaust the interpreter's stack.
MAX_DEPTH = 64


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def nested(self, parse):
        """Parse one level deeper, refusing input nested beyond MAX_DEPTH."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"formula nested deeper than {MAX_DEPTH} levels",
                             self.peek()[2])
        f = parse()
        self.depth -= 1
        return f

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"unexpected token {tok[1] or 'end of input'!r}",
                             tok[2], expected={kind})
        return self.advance()

    def parse(self):
        f = self.parse_pref()
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2],
                             expected={"eof"})
        return f

    def parse_pref(self):
        left = self.parse_iff()
        tok = self.peek()
        if tok[0] in _PREF_OPS:
            self.advance()
            right = self.parse_iff()
            nxt = self.peek()
            if nxt[0] in _PREF_OPS:
                # preference operators are non-associative
                raise ParseError(
                    "preference operators do not associate; add parentheses",
                    nxt[2], expected={"eof", ")"})
            return _PREF_OPS[tok[0]](left, right)
        return left

    def parse_iff(self):
        f = self.parse_implies()
        while self.peek()[0] == "<->":
            self.advance()
            f = Iff(f, self.parse_implies())
        return f

    def parse_implies(self):
        left = self.parse_or()
        if self.peek()[0] == "->":
            self.advance()
            return Implies(left, self.nested(self.parse_implies))
        return left

    def parse_or(self):
        f = self.parse_and()
        while self.peek()[0] == "|":
            self.advance()
            f = Or(f, self.parse_and())
        return f

    def parse_and(self):
        f = self.parse_unary()
        while self.peek()[0] == "&":
            self.advance()
            f = And(f, self.parse_unary())
        return f

    def parse_unary(self):
        tok = self.peek()
        if tok[0] == "~":
            self.advance()
            return Not(self.nested(self.parse_unary))
        if tok[0] == "[]":
            self.advance()
            return Box(self.nested(self.parse_unary))
        if tok[0] == "<>":
            self.advance()
            return Diamond(self.nested(self.parse_unary))
        if tok[0] == "O":
            self.advance()
            return Oblig(self.nested(self.parse_unary))
        if tok[0] == "P":
            self.advance()
            return Perm(self.nested(self.parse_unary))
        return self.parse_atom()

    def parse_atom(self):
        tok = self.peek()
        if tok[0] == "ident":
            self.advance()
            return Var(tok[1])
        if tok[0] == "T":
            self.advance()
            return Top()
        if tok[0] == "F":
            self.advance()
            return Bot()
        if tok[0] == "C":
            self.advance()
            self.expect("(")
            first = self.nested(self.parse_pref)
            self.expect(",")
            second = self.nested(self.parse_pref)
            self.expect(")")
            return CondOblig(first, second)
        if tok[0] == "(":
            self.advance()
            f = self.nested(self.parse_pref)
            self.expect(")")
            return f
        raise ParseError(
            f"unexpected token {tok[1] or 'end of input'!r}", tok[2],
            expected=_FORMULA_START)


def parse(text: str) -> Formula:
    """Parse concrete syntax into a surface formula.

    Raises ParseError (with byte offset and expected-token set) on bad input,
    including formulas deeper than MAX_DEPTH.
    """
    f = _Parser(text).parse()
    if _height(f) > MAX_DEPTH:
        # chains of left-associative operators deepen the tree without
        # nesting the parser
        raise ParseError(f"formula nested deeper than {MAX_DEPTH} levels", 0)
    return f


# --- Printing ----------------------------------------------------------------

# precedence levels, loosest first
_P_PREF, _P_IFF, _P_IMP, _P_OR, _P_AND, _P_UNARY, _P_ATOM = range(1, 8)

_BIN = {
    And: ("&", _P_AND), Or: ("|", _P_OR), Implies: ("->", _P_IMP),
    Iff: ("<->", _P_IFF), PrefWeak: (">=", _P_PREF), PrefStrict: (">", _P_PREF),
    PrefEq: ("~~", _P_PREF), PrefWeakRev: ("<=", _P_PREF),
    PrefStrictRev: ("<", _P_PREF),
}


def _prec(f):
    if isinstance(f, (Var, Top, Bot, CondOblig)):
        return _P_ATOM
    if isinstance(f, (Not, Box, Diamond, Oblig, Perm)):
        return _P_UNARY
    return _BIN[type(f)][1]


def _wrap(f, minimum):
    s = _pretty(f)
    return f"({s})" if _prec(f) < minimum else s


MAX_PRINTED_NODES = 1_000_000


def _printed_nodes(f: Formula, memo: dict) -> int:
    """The number of nodes in the tree that pretty prints for f, counted
    once per node of the DAG (memo maps id(node) to its count)."""
    n = memo.get(id(f))
    if n is None:
        if isinstance(f, (Not, Box, Diamond, Oblig, Perm)):
            n = 1 + _printed_nodes(f.child, memo)
        elif isinstance(f, CondOblig):
            n = 1 + _printed_nodes(f.condition, memo) + \
                _printed_nodes(f.duty, memo)
        elif isinstance(f, (Var, Top, Bot)):
            n = 1
        else:
            n = 1 + _printed_nodes(f.left, memo) + \
                _printed_nodes(f.right, memo)
        memo[id(f)] = n
    return n


def pretty(f: Formula) -> str:
    """Minimal-parenthesization printer; parse(pretty(f)) == f.

    Desugaring shares operands, so a core formula can print exponentially
    larger than it is: a formula that would print as more than
    MAX_PRINTED_NODES nodes raises ValueError instead.
    """
    nodes = _printed_nodes(f, {})
    if nodes > MAX_PRINTED_NODES:
        raise ValueError(f"formula prints as {nodes} nodes, more than "
                         f"{MAX_PRINTED_NODES}")
    return _pretty(f)


def _pretty(f: Formula) -> str:
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Top):
        return "T"
    if isinstance(f, Bot):
        return "F"
    if isinstance(f, Not):
        s = _wrap(f.child, _P_UNARY)
        # "~~" would lex as the preference-equivalence operator
        return "~ " + s if s.startswith("~") else "~" + s
    if isinstance(f, Box):
        return "[]" + _wrap(f.child, _P_UNARY)
    if isinstance(f, Diamond):
        return "<>" + _wrap(f.child, _P_UNARY)
    if isinstance(f, Oblig):
        return "O " + _wrap(f.child, _P_UNARY)
    if isinstance(f, Perm):
        return "P " + _wrap(f.child, _P_UNARY)
    if isinstance(f, CondOblig):
        return f"C({_pretty(f.condition)}, {_pretty(f.duty)})"
    op, lvl = _BIN[type(f)]
    if lvl == _P_IMP:  # right-associative
        left = _wrap(f.left, lvl + 1)
        right = _wrap(f.right, lvl)
    elif lvl == _P_PREF:  # non-associative: parenthesize nested preference
        left = _wrap(f.left, lvl + 1)
        right = _wrap(f.right, lvl + 1)
    else:  # left-associative
        left = _wrap(f.left, lvl)
        right = _wrap(f.right, lvl + 1)
    return f"{left} {op} {right}"


# --- Desugaring --------------------------------------------------------------

def surface_variables(f: Formula) -> set[str]:
    """All variable names occurring in a surface (or core) formula."""
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


def _height(f: Formula) -> int:
    """Number of nodes on the longest root-to-leaf path of a formula."""
    best = 0
    stack = [(f, 1)]
    while stack:
        g, level = stack.pop()
        best = max(best, level)
        if isinstance(g, (Not, Box, Diamond, Oblig, Perm)):
            stack.append((g.child, level + 1))
        elif isinstance(g, CondOblig):
            stack.extend(((g.condition, level + 1), (g.duty, level + 1)))
        elif not isinstance(g, (Var, Top, Bot)):
            stack.extend(((g.left, level + 1), (g.right, level + 1)))
    return best


def top_variable(*formulas: Formula) -> str:
    """The variable T/F lower to: lexicographically least variable of the
    whole query, or the reserved variable if the query mentions none."""
    names = set()
    for f in formulas:
        names |= surface_variables(f)
    return min(names) if names else RESERVED_TOP_VAR


def desugar(f: Formula, top_var: str | None = None,
            strict_def7: bool = False) -> Formula:
    """Lower a surface formula to the ~/&/>= core.

    top_var fixes the variable used to lower T and F; pass the same value for
    every formula of a multi-formula query so their denotations line up.
    strict_def7 switches P to the literal not-obligatory-not reading instead
    of the default weak-preference reading.
    """
    if top_var is None:
        top_var = top_variable(f)

    def core_or(a, b):
        return Not(And(Not(a), Not(b)))

    def core_implies(a, b):
        return core_or(Not(a), b)

    def core_top():
        p = Var(top_var)
        return core_implies(p, p)

    def core_strict(a, b):
        return And(PrefWeak(a, b), Not(PrefWeak(b, a)))

    def cond_oblig(a, b):
        return core_strict(And(a, b), And(a, Not(b)))

    def rec(g):
        if isinstance(g, Var):
            return g
        if isinstance(g, Top):
            return core_top()
        if isinstance(g, Bot):
            return Not(core_top())
        if isinstance(g, Not):
            return Not(rec(g.child))
        if isinstance(g, And):
            return And(rec(g.left), rec(g.right))
        if isinstance(g, Or):
            return core_or(rec(g.left), rec(g.right))
        if isinstance(g, Implies):
            return core_implies(rec(g.left), rec(g.right))
        if isinstance(g, Iff):
            a, b = rec(g.left), rec(g.right)
            return And(core_implies(a, b), core_implies(b, a))
        if isinstance(g, PrefWeak):
            return PrefWeak(rec(g.left), rec(g.right))
        if isinstance(g, PrefStrict):
            return core_strict(rec(g.left), rec(g.right))
        if isinstance(g, PrefEq):
            a, b = rec(g.left), rec(g.right)
            return And(PrefWeak(a, b), PrefWeak(b, a))
        if isinstance(g, PrefWeakRev):
            return PrefWeak(rec(g.right), rec(g.left))
        if isinstance(g, PrefStrictRev):
            return core_strict(rec(g.right), rec(g.left))
        if isinstance(g, Box):
            a = rec(g.child)
            return Not(PrefWeak(Not(a), Not(a)))
        if isinstance(g, Diamond):
            a = rec(g.child)
            return PrefWeak(a, a)
        if isinstance(g, CondOblig):
            return cond_oblig(rec(g.condition), rec(g.duty))
        if isinstance(g, Oblig):
            return cond_oblig(core_top(), rec(g.child))
        if isinstance(g, Perm):
            if strict_def7:
                return Not(cond_oblig(core_top(), Not(rec(g.child))))
            a = rec(g.child)
            return PrefWeak(a, Not(a))
        raise TypeError(f"not a surface formula: {g!r}")

    return rec(f)


# --- Structural queries on core formulas -------------------------------------

def variables(f: Formula) -> list[str]:
    """Sorted variable names of a core formula."""
    return sorted(surface_variables(f))


def modal_depth(f: Formula) -> int:
    """Maximum nesting depth of weak-preference nodes (0 = purely Boolean)."""
    if isinstance(f, Var):
        return 0
    if isinstance(f, Not):
        return modal_depth(f.child)
    if isinstance(f, And):
        return max(modal_depth(f.left), modal_depth(f.right))
    if isinstance(f, PrefWeak):
        return 1 + max(modal_depth(f.left), modal_depth(f.right))
    raise TypeError(f"not a core formula: {f!r}")
