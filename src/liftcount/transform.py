"""Normal-form pipeline: counting-quantifier expansion, extraction of
exact-count subformulas, Scott normal form, and compilation of a full
problem into a pure-universal counting program.

The compiled program consists of a quantifier-free kernel over an extended
signature plus bookkeeping: unary predicates whose per-type counts feed
the exponent of (-1), per-class divisors j!^(count of the class
predicate), and cardinality constraints that surviving statistics cells
must satisfy.  All exact counts on one counted relation share one
counting block.  Fresh predicates use the reserved ``$`` prefix, which
the parser rejects in user input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations

from .formula import (And, Atom, CardComparison, CardConstraint,
                      CountExists, Exists, Forall, Formula, Iff, Implies,
                      Not, Or, Problem, Signature, Top, TRUE, conjoin,
                      conjuncts, format_constraint, format_formula,
                      free_vars, is_quantifier_free, swap_xy)

_X = ("x",)
_XY = ("x", "y")


@dataclass(frozen=True)
class SNF:
    """Scott normal form: a universally quantified kernel ``phi`` over
    {x, y} plus one quantifier-free ``psi`` per forall-exists conjunct."""

    phi: Formula
    psis: tuple[Formula, ...]
    fresh_ledger: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class CountingTriple:
    """One extracted exact-count quantifier: pred(x) <-> exactly ``count``
    y with relation(x, y).  The triples on one relation share a block."""

    pred: str
    count: int
    relation: str


@dataclass(frozen=True)
class CountingProgram:
    signature: Signature  # extended with all fresh predicates
    kernel: Formula
    sign_preds: tuple[str, ...]
    divisors: tuple[tuple[str, int], ...]  # (class predicate, count)
    constraints: tuple[CardConstraint, ...]
    original_preds: tuple[str, ...]
    fresh_ledger: dict[str, str] = field(default_factory=dict)


class _FreshNames:
    """Sequential fresh-name source; one counter per role letter."""

    def __init__(self):
        self.counts: dict[str, int] = {}
        self.unary: list[str] = []
        self.binary: list[str] = []
        self.ledger: dict[str, str] = {}

    def make(self, letter: str, arity: int, role: str, name: str = None) -> str:
        if name is None:
            self.counts[letter] = self.counts.get(letter, 0) + 1
            name = f"${letter}{self.counts[letter]}"
        (self.unary if arity == 1 else self.binary).append(name)
        self.ledger[name] = role
        return name


# ---------------------------------------------------------------------------
# Counting-quantifier expansion
# ---------------------------------------------------------------------------

def expand_counting(f: Formula) -> Formula:
    """Rewrite every counting quantifier to the exact-count form with a
    positive count: at-most becomes a disjunction of exact counts, at-least
    becomes a negated at-most, exactly-0 becomes a universal negation, and
    the degenerate at-least-0 / at-least-1 cases become true / a plain
    existential."""
    if isinstance(f, Not):
        return Not(expand_counting(f.body))
    if isinstance(f, (And, Or, Implies, Iff)):
        return type(f)(expand_counting(f.left), expand_counting(f.right))
    if isinstance(f, (Forall, Exists)):
        return type(f)(f.var, expand_counting(f.body))
    if isinstance(f, CountExists):
        body = expand_counting(f.body)
        return _expand_one(f.comparator, f.count, f.var, body)
    return f


def _expand_one(comparator: str, m: int, var: str, body: Formula) -> Formula:
    if comparator == "=":
        if m == 0:
            return Forall(var, Not(body))
        return CountExists("=", m, var, body)
    if comparator == "<=":
        out = Forall(var, Not(body))  # the k = 0 disjunct
        for k in range(1, m + 1):
            out = Or(out, CountExists("=", k, var, body))
        return out
    if comparator == ">=":
        if m == 0:
            return TRUE
        if m == 1:
            return Exists(var, body)
        return Not(_expand_one("<=", m - 1, var, body))
    raise ValueError(f"unknown comparator {comparator!r}")


# ---------------------------------------------------------------------------
# Extraction of exact-count subformulas
# ---------------------------------------------------------------------------

def extract_counting(f: Formula, names: _FreshNames = None):
    """Replace every exact-count subformula by a fresh unary predicate.

    Returns (formula, triples, definitional axioms).  Each triple
    (A, m, R) states that the counted models must satisfy
    ``A(x) <-> exists exactly m y with R(x,y)``; when the counted body is
    not already the atom R(x,y), a fresh binary relation is introduced and
    defined by a universally quantified biconditional (returned among the
    axioms), one per body whatever its counts.  A closed counting
    subformula is uniform over the domain, so its occurrence is replaced
    by ``forall x A(x)``.
    """
    names = names if names is not None else _FreshNames()
    triples: list[CountingTriple] = []
    axioms: list[Formula] = []
    relations: dict[Formula, str] = {}
    preds: dict[tuple[int, str], str] = {}

    def walk(g: Formula, scope: str = None) -> Formula:
        if isinstance(g, Not):
            return Not(walk(g.body, scope))
        if isinstance(g, (And, Or, Implies, Iff)):
            return type(g)(walk(g.left, scope), walk(g.right, scope))
        if isinstance(g, (Forall, Exists)):
            return type(g)(g.var, walk(g.body, g.var))
        if isinstance(g, CountExists):
            if g.comparator != "=" or g.count < 1:
                raise ValueError("run expand_counting first")
            body = walk(g.body, g.var)
            free = free_vars(body) - {g.var}
            # normalize so the counted variable is y and the free one x
            normalized = swap_xy(body) if g.var == "x" else body
            relation = relations.get(normalized)
            if relation is None:
                if isinstance(normalized, Atom) and normalized.args == _XY:
                    relation = normalized.pred
                else:
                    relation = names.make("R", 2, "counted relation for "
                                          + format_formula(normalized))
                    axioms.append(Forall("x", Forall("y", Iff(
                        Atom(relation, _XY), normalized))))
                relations[normalized] = relation
            pred = preds.get((g.count, relation))
            if pred is None:
                pred = names.make("A", 1, f"holds where exactly {g.count} "
                                  f"successors satisfy {relation}(x,y)")
                triples.append(CountingTriple(pred, g.count, relation))
                preds[g.count, relation] = pred
            if free:
                (w,) = free
                return Atom(pred, (w,))
            if scope is not None:
                return Atom(pred, (scope,))
            return Forall("x", Atom(pred, _X))
        return g

    out = walk(f)
    return out, tuple(triples), tuple(axioms)


# ---------------------------------------------------------------------------
# Scott normal form
# ---------------------------------------------------------------------------

def to_snf(f: Formula, names: _FreshNames = None) -> SNF:
    """Standard Scott transformation of a closed two-variable sentence
    without counting quantifiers.

    Innermost quantified subformulas are replaced by fresh unary
    predicates with biconditional definitions, which split into a
    universally quantified half (into ``phi``) and a forall-exists half
    (into ``psis``); fresh-predicate interpretations are functionally
    determined, so the model count is preserved.
    """
    names = names if names is not None else _FreshNames()
    phi_parts: list[Formula] = []
    psis: list[Formula] = []

    def emit_definition(pred: str, quant, body_y: Formula):
        # pred(x) <-> Q y . body_y, split into universal and existential halves
        head = Atom(pred, _X)
        if quant is Exists:
            psis.append(Implies(head, body_y))
            phi_parts.append(Implies(body_y, head))
        else:
            phi_parts.append(Implies(head, body_y))
            psis.append(Or(Not(body_y), head))

    def define(q) -> str:
        body = q.body if q.var == "y" else swap_xy(q.body)
        pred = names.make("D", 1, "stands for " + format_formula(q))
        emit_definition(pred, type(q), body)
        return pred

    def replace(g: Formula, q: Formula, pred: str, free: frozenset, scope: str):
        if g == q:
            if free:
                (w,) = free
                return Atom(pred, (w,))
            return Atom(pred, (scope if scope is not None else "x",))
        if isinstance(g, Not):
            return Not(replace(g.body, q, pred, free, scope))
        if isinstance(g, (And, Or, Implies, Iff)):
            return type(g)(replace(g.left, q, pred, free, scope),
                           replace(g.right, q, pred, free, scope))
        if isinstance(g, (Forall, Exists)):
            return type(g)(g.var, replace(g.body, q, pred, free, g.var))
        return g

    def find_inner(g: Formula, root: bool):
        # leftmost-innermost quantified subformula with a quantifier-free
        # body, excluding the sentence itself
        if isinstance(g, Not):
            return find_inner(g.body, False)
        if isinstance(g, (And, Or, Implies, Iff)):
            return find_inner(g.left, False) or find_inner(g.right, False)
        if isinstance(g, (Forall, Exists)):
            hit = find_inner(g.body, False)
            if hit is not None:
                return hit
            if not root and is_quantifier_free(g.body):
                return g
        return None

    def process(c: Formula):
        while True:
            if isinstance(c, Top):
                return
            if is_quantifier_free(c):
                # replacements of closed subformulas may leave a free x;
                # the conjunct then reads "for every element"
                assert free_vars(c) <= {"x"}
                phi_parts.append(c)
                return
            if isinstance(c, Forall):
                body = c.body
                if isinstance(body, Forall) and body.var != c.var \
                        and is_quantifier_free(body.body):
                    phi_parts.append(body.body)
                    return
                if isinstance(body, Exists) and body.var != c.var \
                        and is_quantifier_free(body.body):
                    psi = body.body if (c.var, body.var) == ("x", "y") \
                        else swap_xy(body.body)
                    psis.append(psi)
                    return
                if is_quantifier_free(body):
                    phi_parts.append(body if c.var == "x" else swap_xy(body))
                    return
            if isinstance(c, Exists) and is_quantifier_free(c.body):
                psis.append(c.body if c.var == "y" else swap_xy(c.body))
                return
            q = find_inner(c, root=True)
            assert q is not None, f"stuck on {format_formula(c)}"
            pred = define(q)
            c = replace(c, q, pred, free_vars(q), None)

    if isinstance(f, CountExists) or not _counting_free(f):
        raise ValueError("extract counting quantifiers before Scott conversion")
    for c in conjuncts(f):
        process(c)
    return SNF(conjoin(phi_parts), tuple(psis), dict(names.ledger))


def _counting_free(f: Formula) -> bool:
    if isinstance(f, CountExists):
        return False
    if isinstance(f, Not):
        return _counting_free(f.body)
    if isinstance(f, (And, Or, Implies, Iff)):
        return _counting_free(f.left) and _counting_free(f.right)
    if isinstance(f, (Forall, Exists)):
        return _counting_free(f.body)
    return True


# ---------------------------------------------------------------------------
# Full compilation
# ---------------------------------------------------------------------------

def compile_problem(p: Problem) -> CountingProgram:
    """Compile a validated problem into a pure-universal counting program.

    Pipeline: expand counting quantifiers; extract exact-count subformulas
    into (A_j, j, R) triples; Scott-convert the remainder with the
    extraction axioms; turn each forall-exists conjunct into a sign
    predicate with a blocking clause; build one counting block per counted
    relation R; append the user's constraints.  Class j of R's block is
    A_j | B_j, B_j a padding companion (sign -1, B_j -> ~A_j); classes
    exclude each other.  Disjoint slots f_i inside R, leaving only the
    classes j >= i (f_i -> R & fill_i), one blocker P_i each (sign -1) and
    |f_i| = sum over j >= i of |A_j| + |B_j| give a class-j element one
    successor in each of f_1..f_j; (some class)(x) & R(x,y) -> some f_i
    leaves it no others.  Divisors (A_j, j) and (B_j, j), j > 1, cancel the
    j! slot orders, so an element with j successors outside A_j weighs
    1 - 1 = 0.
    """
    names = _FreshNames()
    expanded = expand_counting(p.sentence)
    extracted, triples, axioms = extract_counting(expanded, names)
    snf = to_snf(conjoin((extracted,) + tuple(axioms)), names)

    clauses: list[Formula] = [snf.phi]  # conjoin drops a Top
    sign_preds: list[str] = []

    for psi in snf.psis:
        pred = names.make("P", 1, "blocks elements with no witness for "
                          + format_formula(psi))
        clauses.append(Implies(Atom(pred, _X), Not(psi)))
        sign_preds.append(pred)

    divisors: list[tuple[str, int]] = []
    constraints: list[CardConstraint] = []
    for k, rel in enumerate(dict.fromkeys(t.relation for t in triples), 1):
        group = [t for t in triples if t.relation == rel]
        m, r = max(t.count for t in group), Atom(rel, _XY)
        bpreds = [names.make("B", 1, f"padding companion of {t.pred}")
                  for t in group]
        slots = [Atom(names.make("f", 2, f"successor slot {i} for {rel}",
                                 name=f"$f{k}_{i}"), _XY)
                 for i in range(1, m + 1)]
        ppreds = [names.make("P", 1, f"blocks missing slot-{i} witness for {rel}",
                             name=f"$P{k}_{i}") for i in range(1, m + 1)]
        classes = [Or(Atom(t.pred, _X), Atom(b, _X))
                   for t, b in zip(group, bpreds)]
        # per slot i, the classes j >= i that fill it
        fills = [reduce(Or, (c for t, c in zip(group, classes) if t.count >= i))
                 for i in range(1, m + 1)]
        clauses.extend(Implies(f, Not(g)) for f, g in combinations(slots, 2))
        # the constraints alone already keep f_i off other elements; saying
        # so in the kernel drops those types, and their k-vectors, early
        clauses.extend(Implies(f, And(r, fill)) for f, fill in zip(slots, fills))
        clauses.extend(Implies(Atom(b, _X), Not(Atom(t.pred, _X)))
                       for t, b in zip(group, bpreds))
        clauses.extend(Implies(c, Not(d)) for c, d in combinations(classes, 2))
        clauses.append(Implies(And(fills[0], r), reduce(Or, slots)))
        clauses.extend(Implies(Atom(q, _X), Not(Implies(fill, f)))
                       for q, f, fill in zip(ppreds, slots, fills))
        for i, f in enumerate(slots, 1):
            constraints.append(CardComparison(tuple(
                (1, q) for t, b in zip(group, bpreds) if t.count >= i
                for q in (t.pred, b)) + ((-1, f.pred),), "=", 0))
        sign_preds.extend(bpreds + ppreds)
        divisors += [(q, t.count) for t, b in zip(group, bpreds)
                     for q in (t.pred, b) if q == t.pred or t.count > 1]

    constraints.extend(p.constraints)
    signature = p.signature.extend(names.unary, names.binary)
    return CountingProgram(
        signature=signature,
        kernel=conjoin(clauses),
        sign_preds=tuple(sign_preds),
        divisors=tuple(divisors),
        constraints=tuple(constraints),
        original_preds=p.signature.preds,
        fresh_ledger=dict(names.ledger),
    )


def format_program(program: CountingProgram) -> str:
    """Render a compiled program in (an extension of) the file grammar."""
    lines = []
    if program.signature.unary:
        lines.append("unary: " + ", ".join(program.signature.unary))
    if program.signature.binary:
        lines.append("binary: " + ", ".join(program.signature.binary))
    lines.append("formula: forall x forall y ("
                 + format_formula(program.kernel) + ")")
    for c in program.constraints:
        lines.append("constraint: " + format_constraint(c))
    if program.sign_preds:
        lines.append("sign: " + ", ".join(program.sign_preds))
    for pred, m in program.divisors:
        lines.append(f"divisor: {pred} {m}")
    lines.append("original: " + ", ".join(program.original_preds))
    return "\n".join(lines) + "\n"
