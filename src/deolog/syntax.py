"""Concrete syntax, surface AST, and desugaring to the ~/&/>= core language.

The surface language carries every abbreviation (| -> <-> > <= < ~~ [] <> O P
C T F); the core language is negation, conjunction and weak preference only.
All evaluation happens on core formulas.

_OPERANDS names the operand fields of each node class, and every structural
walk reads it: the queries below, the printer, schema matching in proofs and
goal compilation in engine. Desugaring shares operands, so a core formula is a
DAG that may stand for an exponentially larger tree: fold() and
surface_variables visit each distinct node object once, so the queries take
time linear in the DAG. Formulas grow tall in three places, each bounded, so
the walks recurse per level, 444 levels at most: the parser (MAX_DEPTH; a
left-deep chain p & p & ..., built without recursing, is refused at the
operator that makes it too deep), a goal (balanced by engine._conjoin) and a
nec step (proofs.check_derivation, MAX_DEPTH).

Concrete syntax has one table per operator kind: _BIN (each binary class,
its text and precedence level), _PREFIX and _CONSTANTS. The lexer's lexemes,
the parser's text-to-class maps and the printer all read them, so
parse(pretty(f)) == f does not rest on two encodings agreeing.
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


@dataclass(frozen=True, slots=True)
class MetaVar(Formula):
    """Schema metavariable of a proof template; stands for an arbitrary
    surface formula. Never parsed, desugared or evaluated."""
    name: str


# --- Operands ----------------------------------------------------------------

#: The operand fields of each node class, in order. A class with operands has
#: no other field, so type(f)(*children(f)) rebuilds f.
_OPERANDS = {
    **dict.fromkeys((Var, MetaVar, Top, Bot), ()),
    **dict.fromkeys((Not, Box, Diamond, Oblig, Perm), ("child",)),
    **dict.fromkeys((And, Or, Implies, Iff, PrefWeak, PrefStrict, PrefEq,
                     PrefWeakRev, PrefStrictRev), ("left", "right")),
    CondOblig: ("condition", "duty"),
}

_CORE = (Var, Not, And, PrefWeak)


def children(f: Formula) -> tuple:
    """The operands of f, in field order; () for a leaf."""
    return tuple([getattr(f, name) for name in _OPERANDS[type(f)]])


def fold(f: Formula, combine):
    """combine(node, [result of each operand]) over the distinct node
    objects of f, operands before the nodes using them; the result at f.

    The walk recurses one frame per level, at most 444 (see MAX_DEPTH; map,
    unlike a comprehension, adds no frame), and is memoised by node identity
    (ids stay unique while f, which holds every node, is alive), so it takes
    time linear in the DAG, and combine is called once per node object, in
    the order of a depth-first left-to-right postorder.
    """
    done = {}

    def walk(g):
        if id(g) not in done:
            done[id(g)] = combine(g, list(map(walk, children(g))))
        return done[id(g)]
    return walk(f)


#: Reserved variable used to lower T when the query mentions no variable at all.
RESERVED_TOP_VAR = "_t"


def is_core(f: Formula) -> bool:
    """True iff f contains only Var/Not/And/PrefWeak nodes."""
    return fold(f, lambda g, operands: type(g) in _CORE and all(operands))


# --- Operator tables ---------------------------------------------------------

# precedence levels, loosest first. -> associates to the right, the
# preference operators do not associate, and the others associate to the left
_P_PREF, _P_IFF, _P_IMP, _P_OR, _P_AND, _P_UNARY, _P_ATOM = range(1, 8)

#: Each binary class: its text and precedence level
_BIN = {
    And: ("&", _P_AND), Or: ("|", _P_OR), Implies: ("->", _P_IMP),
    Iff: ("<->", _P_IFF), PrefWeak: (">=", _P_PREF), PrefStrict: (">", _P_PREF),
    PrefEq: ("~~", _P_PREF), PrefWeakRev: ("<=", _P_PREF),
    PrefStrictRev: ("<", _P_PREF),
}

#: Constants and prefix operators: each class and the text it prints with
_CONSTANTS = {Top: "T", Bot: "F"}
_PREFIX = {Not: "~", Box: "[]", Diamond: "<>", Oblig: "O ", Perm: "P "}

#: CondOblig prints as a call: C(condition, duty)
_COND = "C"

_BINARY_OPS = {text: (cls, level) for cls, (text, level) in _BIN.items()}
_CONSTANT_OPS = {text: cls for cls, text in _CONSTANTS.items()}
_PREFIX_OPS = {text.strip(): cls for cls, text in _PREFIX.items()}
_FORMULA_START = {*_PREFIX_OPS, *_CONSTANT_OPS, _COND, "(", "ident"}
#: Every lexeme but identifiers. The lexer takes the longest that matches.
_LEXEMES = {*_BINARY_OPS, *_PREFIX_OPS, *_CONSTANT_OPS, _COND, "(", ")", ","}
_LONGEST = max(map(len, _LEXEMES))


# --- Parsing -----------------------------------------------------------------

class ParseError(Exception):
    def __init__(self, message, offset, expected=()):
        self.message = message
        self.offset = offset
        self.expected = frozenset(expected)
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected one of: %s)" % ", ".join(sorted(expected))
        super().__init__(detail)

    def shifted(self, start):
        """This error in text that starts at offset start of a longer input."""
        return ParseError(self.message, self.offset + start, self.expected)


_UNICODE_MAP = {
    "¬": "~", "∧": "&", "∨": "|", "→": "->",
    "↔": "<->", "≽": ">=", "≻": ">", "≼": "<=",
    "≺": "<", "≈": "~~", "□": "[]", "◇": "<>",
    "⊤": "T", "⊥": "F",
    "\U0001d546": "O", "ℙ": "P", "ℂ": "C",
}


def _tokenize(text):
    """The list of (kind, lexeme, offset) triples of text. Kinds: the
    lexemes of _LEXEMES themselves, 'ident', 'eof'."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.islower() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
        elif ch in _UNICODE_MAP:
            lexeme = _UNICODE_MAP[ch]
            tokens.append((lexeme, lexeme, i))
            i += 1
        else:
            size = _LONGEST
            while text[i:i + size] not in _LEXEMES:
                size -= 1
                if not size:
                    raise ParseError(f"unexpected character {ch!r}", i)
            lexeme = text[i:i + size]
            tokens.append((lexeme, lexeme, i))
            i += size
    tokens.append(("eof", "", n))
    return tokens


#: Deepest formula accepted, by the parser and by proofs' nec steps. Parsing,
#: desugaring, printing and evaluation recurse a few times per level, and a
#: core is up to seven times as tall as its surface: 444 levels for 63 nested
#: P under strict_def7, within the default limit of 1 000 frames.
MAX_DEPTH = 64


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        # id of each node built -> its height; leaves are of height 1
        self.heights = {}

    def nested(self, parse, *args):
        """Parse one level deeper, refusing input nested beyond MAX_DEPTH."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"formula nested deeper than {MAX_DEPTH} levels",
                             self.peek()[2])
        f = parse(*args)
        self.depth -= 1
        return f

    def build(self, cls, offset, *operands):
        """cls(*operands), its operator being at offset, refusing a node of
        height over MAX_DEPTH: chains of left-associative operators deepen
        the tree without nesting the parser."""
        get = self.heights.get
        # every node has one operand or two
        height = 1 + max(get(id(operands[0]), 1), get(id(operands[-1]), 1))
        if height > MAX_DEPTH:
            raise ParseError(f"formula nested deeper than {MAX_DEPTH} levels",
                             offset)
        f = cls(*operands)
        self.heights[id(f)] = height
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
        f = self.parse_binary(_P_PREF)
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2],
                             expected={"eof"})
        return f

    def parse_binary(self, level):
        """A formula whose binary operators bind at level or tighter, by
        precedence climbing over _BIN."""
        left = self.parse_unary()
        while True:
            op = _BINARY_OPS.get(self.peek()[0])
            if op is None or op[1] < level:
                return left
            offset = self.advance()[2]
            cls, op_level = op
            if op_level == _P_IMP:  # right-associative
                left = self.build(cls, offset, left,
                                  self.nested(self.parse_binary, _P_IMP))
                continue
            left = self.build(cls, offset, left,
                              self.parse_binary(op_level + 1))
            nxt = self.peek()
            # the right operand took every tighter operator, so only another
            # preference operator can follow it here
            if op_level == _P_PREF and nxt[0] in _BINARY_OPS:
                raise ParseError(
                    "preference operators do not associate; add parentheses",
                    nxt[2], expected={"eof", ")"})

    def parse_unary(self):
        cls = _PREFIX_OPS.get(self.peek()[0])
        if cls is None:
            return self.parse_atom()
        offset = self.advance()[2]
        return self.build(cls, offset, self.nested(self.parse_unary))

    def parse_atom(self):
        tok = self.peek()
        if tok[0] == "ident":
            self.advance()
            return Var(tok[1])
        if tok[0] in _CONSTANT_OPS:
            self.advance()
            return _CONSTANT_OPS[tok[0]]()
        if tok[0] == _COND:
            self.advance()
            self.expect("(")
            first = self.nested(self.parse_binary, _P_PREF)
            self.expect(",")
            second = self.nested(self.parse_binary, _P_PREF)
            self.expect(")")
            return self.build(CondOblig, tok[2], first, second)
        if tok[0] == "(":
            self.advance()
            f = self.nested(self.parse_binary, _P_PREF)
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
    return _Parser(text).parse()


# --- Printing ----------------------------------------------------------------

def _prec(f):
    if type(f) in _BIN:
        return _BIN[type(f)][1]
    return _P_UNARY if type(f) in _PREFIX else _P_ATOM


def _wrap(f, minimum):
    s = _pretty(f)
    return f"({s})" if _prec(f) < minimum else s


MAX_PRINTED_NODES = 1_000_000


def pretty(f: Formula) -> str:
    """Minimal-parenthesization printer; parse(pretty(f)) == f.

    Desugaring shares operands, so a core formula can print exponentially
    larger than it is: a formula that would print as more than
    MAX_PRINTED_NODES nodes raises ValueError instead.
    """
    nodes = fold(f, lambda g, operands: 1 + sum(operands))
    if nodes > MAX_PRINTED_NODES:
        raise ValueError(f"formula prints as {nodes} nodes, more than "
                         f"{MAX_PRINTED_NODES}")
    return _pretty(f)


def _pretty(f: Formula) -> str:
    cls = type(f)
    if cls in _PREFIX:
        (operand,) = children(f)
        s = _wrap(operand, _P_UNARY)
        # "~~" would lex as the preference-equivalence operator
        return ("~ " if cls is Not and s.startswith("~") else _PREFIX[cls]) + s
    if cls is CondOblig:
        return "%s(%s, %s)" % (_COND, *map(_pretty, children(f)))
    if cls in _CONSTANTS:
        return _CONSTANTS[cls]
    if cls not in _BIN:
        return f.name   # a variable or metavariable
    op, lvl = _BIN[cls]
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
    # fold's callback per node would slow every desugar down measurably
    out = set()
    seen = {id(f)}
    stack = [f]
    while stack:
        g = stack.pop()
        if type(g) is Var:
            out.add(g.name)
            continue
        for name in _OPERANDS[type(g)]:
            h = getattr(g, name)
            if id(h) not in seen:
                seen.add(id(h))
                stack.append(h)
    return out


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
    def depth(g, operands):
        if type(g) not in _CORE:
            raise TypeError(f"not a core formula: {g!r}")
        return max(operands, default=0) + (type(g) is PrefWeak)
    return fold(f, depth)
