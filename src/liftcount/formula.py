"""Signature, two-variable formula AST, cardinality constraints, and the
problem-file front end.

The input DSL is line oriented (``#`` starts a comment)::

    domain: 3
    unary: A, B
    binary: R
    formula: forall x forall y (A(x) & R(x,y) & x != y -> A(y))
    constraint: |A| = 2
    weight: A 2 3
    statweight: A { (0) -> 1; (2) -> 1; default -> 0 }

Formulas use ``forall x`` / ``exists y`` / ``exists[=m] y`` /
``exists[<=m] y`` / ``exists[>=m] y``, atoms ``P(x)`` and ``R(x,y)``,
built-in equality ``x = y`` / ``x != y``, the connectives ``~ & | -> <->``
(precedence ``<->`` < ``->`` < ``|`` < ``&`` < ``~``, implication
right-associative), parentheses, and the literals ``true`` / ``false``.
Quantifiers bind as tightly as negation.  Only the variables ``x`` and
``y`` exist; constants are the domain elements ``0..n-1`` and never appear
in formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, Optional, Union

VARIABLES = ("x", "y")

#: predicate names starting with this prefix are reserved for the compiler
FRESH_PREFIX = "$"


class ParseError(ValueError):
    """Input rejected, with 1-based line/column when known."""

    def __init__(self, message: str, line: Optional[int] = None,
                 column: Optional[int] = None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column else "") + ")"
        super().__init__(message + where)


# ---------------------------------------------------------------------------
# Formula AST.  Nodes are immutable and hashable; the parser never reorders
# operands, so a parsed AST is a faithful image of the source text.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Eq:
    left: str
    right: str


@dataclass(frozen=True)
class Neq:
    left: str
    right: str


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bottom:
    pass


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class CountExists:
    """Counting quantifier: exactly / at most / at least ``count`` witnesses."""

    comparator: str  # one of "=", "<=", ">="
    count: int
    var: str
    body: "Formula"


Formula = Union[Atom, Eq, Neq, Top, Bottom, Not, And, Or, Implies, Iff,
                Forall, Exists, CountExists]

TRUE = Top()
FALSE = Bottom()

_BINARY_NODES = (And, Or, Implies, Iff)
_QUANTIFIER_NODES = (Forall, Exists, CountExists)


def free_vars(f: Formula) -> frozenset[str]:
    """Free variables of a formula (a subset of {'x', 'y'})."""
    if isinstance(f, Atom):
        return frozenset(f.args)
    if isinstance(f, (Eq, Neq)):
        return frozenset((f.left, f.right))
    if isinstance(f, (Top, Bottom)):
        return frozenset()
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, _BINARY_NODES):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, _QUANTIFIER_NODES):
        return free_vars(f.body) - {f.var}
    raise TypeError(f"not a formula node: {f!r}")


def swap_xy(f: Formula) -> Formula:
    """Exchange x and y everywhere (bound and free).

    A transposition applied uniformly to binders and occurrences is a
    bijective renaming, so it preserves models and model counts.
    """
    sw = {"x": "y", "y": "x"}
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(sw[a] for a in f.args))
    if isinstance(f, Eq):
        return Eq(sw[f.left], sw[f.right])
    if isinstance(f, Neq):
        return Neq(sw[f.left], sw[f.right])
    if isinstance(f, (Top, Bottom)):
        return f
    if isinstance(f, Not):
        return Not(swap_xy(f.body))
    if isinstance(f, _BINARY_NODES):
        return type(f)(swap_xy(f.left), swap_xy(f.right))
    if isinstance(f, (Forall, Exists)):
        return type(f)(sw[f.var], swap_xy(f.body))
    if isinstance(f, CountExists):
        return CountExists(f.comparator, f.count, sw[f.var], swap_xy(f.body))
    raise TypeError(f"not a formula node: {f!r}")


def is_quantifier_free(f: Formula) -> bool:
    if isinstance(f, _QUANTIFIER_NODES):
        return False
    if isinstance(f, Not):
        return is_quantifier_free(f.body)
    if isinstance(f, _BINARY_NODES):
        return is_quantifier_free(f.left) and is_quantifier_free(f.right)
    return True


def conjoin(parts) -> Formula:
    """Right-leaning conjunction of the given formulas; TRUE if empty."""
    parts = [p for p in parts if not isinstance(p, Top)]
    if not parts:
        return TRUE
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = And(p, out)
    return out


def conjuncts(f: Formula) -> Iterator[Formula]:
    """Iterate the leaves of a conjunction tree, left to right."""
    if isinstance(f, And):
        yield from conjuncts(f.left)
        yield from conjuncts(f.right)
    else:
        yield f


def format_formula(f: Formula) -> str:
    """Render a formula in the input grammar.

    Binary connectives are always parenthesized, so the output re-parses to
    the identical AST.
    """
    if isinstance(f, Atom):
        return f"{f.pred}({','.join(f.args)})"
    if isinstance(f, Eq):
        return f"{f.left} = {f.right}"
    if isinstance(f, Neq):
        return f"{f.left} != {f.right}"
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Not):
        return "~" + _tight(f.body)
    if isinstance(f, And):
        return f"({format_formula(f.left)} & {format_formula(f.right)})"
    if isinstance(f, Or):
        return f"({format_formula(f.left)} | {format_formula(f.right)})"
    if isinstance(f, Implies):
        return f"({format_formula(f.left)} -> {format_formula(f.right)})"
    if isinstance(f, Iff):
        return f"({format_formula(f.left)} <-> {format_formula(f.right)})"
    if isinstance(f, Forall):
        return f"forall {f.var} {_tight(f.body)}"
    if isinstance(f, Exists):
        return f"exists {f.var} {_tight(f.body)}"
    if isinstance(f, CountExists):
        return f"exists[{f.comparator}{f.count}] {f.var} {_tight(f.body)}"
    raise TypeError(f"not a formula node: {f!r}")


def _tight(f: Formula) -> str:
    # quantifier and negation bodies must be unary-level terms
    s = format_formula(f)
    if isinstance(f, (Eq, Neq)):
        return "(" + s + ")"
    return s


# ---------------------------------------------------------------------------
# Signature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Signature:
    """Declared predicates; declaration order seeds every downstream
    atom/bit ordering and is preserved verbatim."""

    unary: tuple[str, ...] = ()
    binary: tuple[str, ...] = ()

    def __post_init__(self):
        names = list(self.unary) + list(self.binary)
        if len(set(names)) != len(names):
            raise ValueError("duplicate predicate declaration")

    def arity(self, pred: str) -> int:
        if pred in self.unary:
            return 1
        if pred in self.binary:
            return 2
        raise KeyError(pred)

    def __contains__(self, pred: str) -> bool:
        return pred in self.unary or pred in self.binary

    @property
    def preds(self) -> tuple[str, ...]:
        return self.unary + self.binary

    def extend(self, unary=(), binary=()) -> "Signature":
        return Signature(self.unary + tuple(unary), self.binary + tuple(binary))


# ---------------------------------------------------------------------------
# Cardinality constraints: boolean combinations of linear comparisons
# sum_i c_i * |P_i| <op> d with integer coefficients.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CardComparison:
    terms: tuple[tuple[int, str], ...]  # (coefficient, predicate)
    op: str  # one of = <= >= < >
    bound: int


@dataclass(frozen=True)
class CardNot:
    body: "CardConstraint"


@dataclass(frozen=True)
class CardAnd:
    left: "CardConstraint"
    right: "CardConstraint"


@dataclass(frozen=True)
class CardOr:
    left: "CardConstraint"
    right: "CardConstraint"


CardConstraint = Union[CardComparison, CardNot, CardAnd, CardOr]

_CMP = {
    "=": lambda a, b: a == b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
}


def constraint_holds(c: CardConstraint, cards) -> bool:
    """Evaluate a constraint against a mapping predicate -> cardinality."""
    if isinstance(c, CardComparison):
        value = sum(coef * cards[pred] for coef, pred in c.terms)
        return _CMP[c.op](value, c.bound)
    if isinstance(c, CardNot):
        return not constraint_holds(c.body, cards)
    if isinstance(c, CardAnd):
        return constraint_holds(c.left, cards) and constraint_holds(c.right, cards)
    if isinstance(c, CardOr):
        return constraint_holds(c.left, cards) or constraint_holds(c.right, cards)
    raise TypeError(f"not a constraint node: {c!r}")


def constraint_preds(c: CardConstraint) -> tuple[str, ...]:
    """Predicates a constraint mentions, in order of first appearance."""
    if isinstance(c, CardComparison):
        preds = [pred for _, pred in c.terms]
    elif isinstance(c, CardNot):
        preds = constraint_preds(c.body)
    elif isinstance(c, (CardAnd, CardOr)):
        preds = constraint_preds(c.left) + constraint_preds(c.right)
    else:
        raise TypeError(f"not a constraint node: {c!r}")
    return tuple(dict.fromkeys(preds))


def format_constraint(c: CardConstraint) -> str:
    if isinstance(c, CardComparison):
        parts = []
        for coef, pred in c.terms:
            if not parts:
                lead = "" if coef == 1 else ("-" if coef == -1 else f"{coef}*")
                parts.append(f"{lead}|{pred}|")
            else:
                sign = "+" if coef >= 0 else "-"
                mag = abs(coef)
                lead = "" if mag == 1 else f"{mag}*"
                parts.append(f"{sign} {lead}|{pred}|")
        lhs = " ".join(parts) if parts else "0"
        return f"{lhs} {c.op} {c.bound}"
    if isinstance(c, CardNot):
        return f"~({format_constraint(c.body)})"
    if isinstance(c, CardAnd):
        return f"({format_constraint(c.left)}) & ({format_constraint(c.right)})"
    if isinstance(c, CardOr):
        return f"({format_constraint(c.left)}) | ({format_constraint(c.right)})"
    raise TypeError(f"not a constraint node: {c!r}")


# ---------------------------------------------------------------------------
# Ground atoms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroundAtom:
    pred: str
    args: tuple[int, ...]

    def __str__(self):
        return f"{self.pred}({','.join(map(str, self.args))})"


def ground_atoms(sig: Signature, n: int) -> list[GroundAtom]:
    """All ground atoms over constants 0..n-1 in the canonical order:
    unary predicates first (by declaration, then constant), then binary
    predicates (by declaration, then row-major argument pair)."""
    if n < 1:
        raise ValueError("domain size must be >= 1")
    out = []
    for p in sig.unary:
        for c in range(n):
            out.append(GroundAtom(p, (c,)))
    for p in sig.binary:
        for c in range(n):
            for d in range(n):
                out.append(GroundAtom(p, (c, d)))
    return out


# ---------------------------------------------------------------------------
# Problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Problem:
    signature: Signature
    sentence: Formula
    domain_size: int
    constraints: tuple[CardConstraint, ...] = ()
    weights: object = None  # a WeightSpec; None means unweighted

    def with_domain_size(self, n: int) -> "Problem":
        return replace(self, domain_size=n)


# ---------------------------------------------------------------------------
# Tokenizer (shared by the formula, constraint, and weight sub-grammars)
# ---------------------------------------------------------------------------

_MULTI_OPS = ("<->", "->", "<=", ">=", "!=")
_SINGLE_OPS = "()[]{},;&|~=<>+-*/"


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident", "int", "op", "card", "end"
    text: str
    column: int


def _tokenize(text: str, line: int, col_offset: int) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(text):
        ch = text[i]
        col = col_offset + i + 1
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], col))
            i = j
            continue
        if ch.isalpha() or ch in "_$":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "_$'"):
                j += 1
            tokens.append(_Token("ident", text[i:j], col))
            i = j
            continue
        if ch == "|":
            # |P| lexes as a cardinality term when it encloses a name with
            # no spaces; a lone | is disjunction
            j = i + 1
            while j < len(text) and (text[j].isalnum() or text[j] in "_$'"):
                j += 1
            if j > i + 1 and j < len(text) and text[j] == "|":
                tokens.append(_Token("card", text[i + 1:j], col))
                i = j + 1
                continue
        matched = False
        for op in _MULTI_OPS:
            if text.startswith(op, i):
                tokens.append(_Token("op", op, col))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in _SINGLE_OPS:
            tokens.append(_Token("op", ch, col))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", col_offset + len(text) + 1))
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[_Token], line: int):
        self.tokens = tokens
        self.pos = 0
        self.line = line

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        t = self.tokens[self.pos]
        if t.kind != "end":
            self.pos += 1
        return t

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[_Token]:
        t = self.peek()
        if t.kind == kind and (text is None or t.text == text):
            return self.next()
        return None

    def expect(self, kind: str, text: Optional[str] = None, what: str = "") -> _Token:
        t = self.peek()
        if t.kind == kind and (text is None or t.text == text):
            return self.next()
        want = what or (text if text is not None else kind)
        raise ParseError(f"expected {want}, found {t.text or 'end of line'!r}",
                         self.line, t.column)

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line, self.peek().column)


# ---------------------------------------------------------------------------
# Formula grammar
# ---------------------------------------------------------------------------

_KEYWORDS = {"forall", "exists", "true", "false"}


def _parse_formula(ts: _TokenStream, sig: Signature) -> Formula:
    f = _parse_iff(ts, sig)
    ts.expect("end", what="end of formula")
    return f


def _parse_iff(ts: _TokenStream, sig: Signature) -> Formula:
    left = _parse_implies(ts, sig)
    if ts.accept("op", "<->"):
        return Iff(left, _parse_iff(ts, sig))
    return left


def _parse_implies(ts: _TokenStream, sig: Signature) -> Formula:
    left = _parse_or(ts, sig)
    if ts.accept("op", "->"):
        return Implies(left, _parse_implies(ts, sig))
    return left


def _parse_or(ts: _TokenStream, sig: Signature) -> Formula:
    f = _parse_and(ts, sig)
    while ts.accept("op", "|"):
        f = Or(f, _parse_and(ts, sig))
    return f


def _parse_and(ts: _TokenStream, sig: Signature) -> Formula:
    f = _parse_unary(ts, sig)
    while ts.accept("op", "&"):
        f = And(f, _parse_unary(ts, sig))
    return f


def _parse_variable(ts: _TokenStream) -> str:
    t = ts.expect("ident", what="a variable")
    if t.text not in VARIABLES:
        raise ParseError(f"third variable {t.text!r}: only x and y are allowed",
                         ts.line, t.column)
    return t.text


def _parse_unary(ts: _TokenStream, sig: Signature) -> Formula:
    t = ts.peek()
    if ts.accept("op", "~"):
        return Not(_parse_unary(ts, sig))
    if ts.accept("op", "("):
        f = _parse_iff(ts, sig)
        ts.expect("op", ")")
        return f
    if t.kind == "ident" and t.text == "forall":
        ts.next()
        var = _parse_variable(ts)
        return Forall(var, _parse_unary(ts, sig))
    if t.kind == "ident" and t.text == "exists":
        ts.next()
        if ts.accept("op", "["):
            cmp_tok = ts.peek()
            if ts.accept("op", "="):
                comparator = "="
            elif ts.accept("op", "<="):
                comparator = "<="
            elif ts.accept("op", ">="):
                comparator = ">="
            else:
                raise ParseError("expected =, <= or >= in counting quantifier",
                                 ts.line, cmp_tok.column)
            count = int(ts.expect("int", what="a count").text)
            ts.expect("op", "]")
            var = _parse_variable(ts)
            return CountExists(comparator, count, var, _parse_unary(ts, sig))
        var = _parse_variable(ts)
        return Exists(var, _parse_unary(ts, sig))
    if t.kind == "ident" and t.text == "true":
        ts.next()
        return TRUE
    if t.kind == "ident" and t.text == "false":
        ts.next()
        return FALSE
    if t.kind == "ident":
        return _parse_atom_or_equality(ts, sig)
    raise ts.error(f"expected a formula, found {t.text or 'end of line'!r}")


def _parse_atom_or_equality(ts: _TokenStream, sig: Signature) -> Formula:
    t = ts.next()
    name = t.text
    if name in VARIABLES and ts.peek().text in ("=", "!="):
        op = ts.next().text
        rhs = _parse_variable(ts)
        return Eq(name, rhs) if op == "=" else Neq(name, rhs)
    if name in VARIABLES:
        raise ParseError(f"expected = or != after variable {name!r}",
                         ts.line, ts.peek().column)
    # predicate application
    ts.expect("op", "(", what=f"'(' after predicate {name!r}")
    args = [_parse_variable(ts)]
    while ts.accept("op", ","):
        args.append(_parse_variable(ts))
    ts.expect("op", ")")
    if name.startswith(FRESH_PREFIX):
        raise ParseError(f"predicate names may not start with {FRESH_PREFIX!r}: {name!r}",
                         ts.line, t.column)
    if name not in sig:
        raise ParseError(f"undeclared predicate {name!r}", ts.line, t.column)
    if sig.arity(name) != len(args):
        raise ParseError(
            f"arity mismatch: {name!r} takes {sig.arity(name)} argument(s), got {len(args)}",
            ts.line, t.column)
    return Atom(name, tuple(args))


# ---------------------------------------------------------------------------
# Constraint grammar
# ---------------------------------------------------------------------------

def _parse_constraint(ts: _TokenStream, sig: Signature) -> CardConstraint:
    c = _parse_card_or(ts, sig)
    ts.expect("end", what="end of constraint")
    return c


def _parse_card_or(ts, sig):
    c = _parse_card_and(ts, sig)
    while ts.accept("op", "|"):
        c = CardOr(c, _parse_card_and(ts, sig))
    return c


def _parse_card_and(ts, sig):
    c = _parse_card_unary(ts, sig)
    while ts.accept("op", "&"):
        c = CardAnd(c, _parse_card_unary(ts, sig))
    return c


def _parse_card_unary(ts, sig):
    if ts.accept("op", "~"):
        return CardNot(_parse_card_unary(ts, sig))
    if ts.accept("op", "("):
        c = _parse_card_or(ts, sig)
        ts.expect("op", ")")
        return c
    return _parse_comparison(ts, sig)


def _parse_linear(ts, sig):
    """Sum of signed terms c*|P|, |P|, or integer constants."""
    terms: list[tuple[int, str]] = []
    const = 0
    sign = 1
    first = True
    while True:
        if ts.accept("op", "-"):
            sign = -sign
            first = False
        elif ts.accept("op", "+"):
            first = False
        t = ts.peek()
        if t.kind == "int":
            ts.next()
            value = int(t.text)
            if ts.accept("op", "*"):
                card = ts.expect("card", what="|P| after coefficient")
                terms.append((sign * value, _check_card_pred(card, ts, sig)))
            else:
                const += sign * value
        elif t.kind == "card":
            ts.next()
            terms.append((sign, _check_card_pred(t, ts, sig)))
        else:
            if first:
                raise ts.error("expected a cardinality term")
            raise ts.error("expected a term after sign")
        sign = 1
        nxt = ts.peek()
        if nxt.kind == "op" and nxt.text in ("+", "-"):
            continue
        return terms, const


def _check_card_pred(tok: _Token, ts: _TokenStream, sig: Signature) -> str:
    name = tok.text
    if name.startswith(FRESH_PREFIX):
        raise ParseError(f"predicate names may not start with {FRESH_PREFIX!r}: {name!r}",
                         ts.line, tok.column)
    if name not in sig:
        raise ParseError(f"undeclared predicate {name!r}", ts.line, tok.column)
    return name


def _parse_comparison(ts, sig):
    lhs_terms, lhs_const = _parse_linear(ts, sig)
    t = ts.peek()
    if t.kind == "op" and t.text in _CMP:
        op = ts.next().text
    else:
        raise ts.error("expected a comparison operator")
    rhs_terms, rhs_const = _parse_linear(ts, sig)
    # normalize to sum c_i*|P_i| <op> d
    terms: dict[str, int] = {}
    for coef, pred in lhs_terms:
        terms[pred] = terms.get(pred, 0) + coef
    for coef, pred in rhs_terms:
        terms[pred] = terms.get(pred, 0) - coef
    bound = rhs_const - lhs_const
    kept = tuple((coef, pred) for pred, coef in terms.items() if coef != 0)
    return CardComparison(kept, op, bound)


# ---------------------------------------------------------------------------
# Weight lines
# ---------------------------------------------------------------------------

def _parse_rational(ts: _TokenStream) -> Fraction:
    sign = -1 if ts.accept("op", "-") else 1
    num = int(ts.expect("int", what="a rational").text)
    if ts.accept("op", "/"):
        den = int(ts.expect("int", what="a denominator").text)
        if den == 0:
            raise ts.error("zero denominator")
        return Fraction(sign * num, den)
    return Fraction(sign * num)


def _parse_weight_line(ts: _TokenStream, sig: Signature):
    tok = ts.expect("ident", what="a predicate")
    pred = _check_card_pred(tok, ts, sig)
    w = _parse_rational(ts)
    wbar = _parse_rational(ts)
    ts.expect("end", what="end of weight line")
    return pred, w, wbar


def _parse_statweight_line(ts: _TokenStream, sig: Signature):
    preds = [_check_card_pred(ts.expect("ident", what="a predicate"), ts, sig)]
    while ts.accept("op", ","):
        preds.append(_check_card_pred(ts.expect("ident", what="a predicate"), ts, sig))
    ts.expect("op", "{")
    table: dict[tuple[int, ...], Fraction] = {}
    default = Fraction(0)
    while True:
        if ts.accept("op", "}"):
            break
        t = ts.peek()
        if t.kind == "ident" and t.text == "default":
            ts.next()
            ts.expect("op", "->")
            default = _parse_rational(ts)
        else:
            ts.expect("op", "(")
            key = [int(ts.expect("int", what="a count").text)]
            while ts.accept("op", ","):
                key.append(int(ts.expect("int", what="a count").text))
            ts.expect("op", ")")
            if len(key) != len(preds):
                raise ts.error(f"key arity {len(key)} does not match "
                               f"{len(preds)} predicate(s)")
            ts.expect("op", "->")
            table[tuple(key)] = _parse_rational(ts)
        if not ts.accept("op", ";"):
            ts.expect("op", "}")
            break
    ts.expect("end", what="end of statweight line")
    return tuple(preds), table, default


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------

_VALID_KEYS = ("domain", "unary", "binary", "formula", "constraint",
               "weight", "statweight")


def _parse_name_list(ts: _TokenStream) -> list[str]:
    names = [ts.expect("ident", what="a predicate name").text]
    while ts.accept("op", ","):
        names.append(ts.expect("ident", what="a predicate name").text)
    ts.expect("end", what="end of declaration")
    return names


def parse_problem(text: str) -> Problem:
    """Parse a problem document into a validated :class:`Problem`."""
    from . import weights as weights_mod

    domain: Optional[int] = None
    unary: list[str] = []
    binary: list[str] = []
    formula_payload = None  # (tokens line)
    constraint_payloads = []
    weight_payloads = []
    statweight_payloads = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if ":" not in line:
            raise ParseError("expected 'key: value'", lineno, 1)
        key, rest = line.split(":", 1)
        key = key.strip()
        offset = line.index(":") + 1
        if key not in _VALID_KEYS:
            raise ParseError(f"unknown line kind {key!r}", lineno, 1)
        ts = _TokenStream(_tokenize(rest, lineno, offset), lineno)
        if key == "domain":
            if domain is not None:
                raise ParseError("duplicate domain line", lineno, 1)
            tok = ts.expect("int", what="a positive integer")
            ts.expect("end", what="end of domain line")
            domain = int(tok.text)
            if domain < 1:
                raise ParseError("domain size must be >= 1", lineno, tok.column)
        elif key in ("unary", "binary"):
            for name in _parse_name_list(ts):
                if name.startswith(FRESH_PREFIX):
                    raise ParseError(
                        f"predicate names may not start with {FRESH_PREFIX!r}: {name!r}",
                        lineno, 1)
                (unary if key == "unary" else binary).append(name)
        elif key == "formula":
            if formula_payload is not None:
                raise ParseError("duplicate formula line", lineno, 1)
            formula_payload = ts
        elif key == "constraint":
            constraint_payloads.append(ts)
        elif key == "weight":
            weight_payloads.append(ts)
        elif key == "statweight":
            statweight_payloads.append(ts)

    names = unary + binary
    dupes = {nm for nm in names if names.count(nm) > 1}
    if dupes:
        raise ParseError(f"duplicate predicate declaration: {sorted(dupes)}")
    sig = Signature(tuple(unary), tuple(binary))

    if formula_payload is None:
        raise ParseError("missing formula line")
    sentence = _parse_formula(formula_payload, sig)
    unbound = free_vars(sentence)
    if unbound:
        raise ParseError(f"unbound variable {sorted(unbound)[0]!r}: "
                         "the formula must be a sentence",
                         formula_payload.line)

    constraints = tuple(_parse_constraint(ts, sig) for ts in constraint_payloads)

    if weight_payloads and statweight_payloads:
        raise ParseError("weight: and statweight: lines cannot be mixed")
    spec = weights_mod.Unweighted()
    if weight_payloads:
        entries = {}
        for ts in weight_payloads:
            pred, w, wbar = _parse_weight_line(ts, sig)
            if pred in entries:
                raise ParseError(f"duplicate weight for {pred!r}", ts.line)
            entries[pred] = (w, wbar)
        spec = weights_mod.SymmetricWeights.for_signature(sig, entries)
    elif statweight_payloads:
        if len(statweight_payloads) > 1:
            raise ParseError("only one statweight line is allowed",
                             statweight_payloads[1].line)
        preds, table, default = _parse_statweight_line(statweight_payloads[0], sig)
        spec = weights_mod.StatTableWeights(preds, table, default)

    if domain is None:
        raise ParseError("missing domain line")

    return Problem(sig, sentence, domain, constraints, spec)


def format_problem(p: Problem) -> str:
    """Render a problem back into the file grammar."""
    from . import weights as weights_mod

    lines = [f"domain: {p.domain_size}"]
    if p.signature.unary:
        lines.append("unary: " + ", ".join(p.signature.unary))
    if p.signature.binary:
        lines.append("binary: " + ", ".join(p.signature.binary))
    lines.append("formula: " + format_formula(p.sentence))
    for c in p.constraints:
        lines.append("constraint: " + format_constraint(c))
    w = p.weights
    if isinstance(w, weights_mod.SymmetricWeights):
        for pred, _arity, wv, wb in w.entries:
            lines.append(f"weight: {pred} {wv} {wb}")
    elif isinstance(w, weights_mod.StatTableWeights):
        body = "; ".join(
            f"({','.join(map(str, key))}) -> {val}" for key, val in sorted(w.table.items()))
        if body:
            body += "; "
        body += f"default -> {w.default}"
        lines.append(f"statweight: {', '.join(w.preds)} {{ {body} }}")
    return "\n".join(lines) + "\n"
