import random
from math import comb

import pytest

import liftcount as lc
from liftcount.formula import (And, Atom, CountExists, Exists, Forall, Iff,
                               Implies, Not, Or, Top, format_formula)
from liftcount.transform import expand_counting, extract_counting, to_snf

from conftest import RUNNING_EXAMPLE, brute_count, closed_count, compiled

R_XY = Atom("R", ("x", "y"))


def test_expand_at_most():
    out = expand_counting(CountExists("<=", 2, "y", R_XY))
    assert out == Or(Or(Forall("y", Not(R_XY)),
                        CountExists("=", 1, "y", R_XY)),
                     CountExists("=", 2, "y", R_XY))


def test_expand_at_least():
    out = expand_counting(CountExists(">=", 2, "y", R_XY))
    assert out == Not(Or(Forall("y", Not(R_XY)),
                         CountExists("=", 1, "y", R_XY)))
    assert expand_counting(CountExists(">=", 0, "y", R_XY)) == Top()
    assert expand_counting(CountExists(">=", 1, "y", R_XY)) == Exists("y", R_XY)


def test_expand_exactly_zero():
    assert expand_counting(CountExists("=", 0, "y", R_XY)) == \
        Forall("y", Not(R_XY))


def test_extract_direct_atom():
    f0, triples, axioms = extract_counting(
        Forall("x", CountExists("=", 1, "y", R_XY)))
    assert f0 == Forall("x", Atom("$A1", ("x",)))
    assert [(t.pred, t.count, t.relation) for t in triples] == [("$A1", 1, "R")]
    assert axioms == ()


def test_extract_under_biconditional():
    f0, triples, _ = extract_counting(
        Forall("x", Iff(Atom("B", ("x",)), CountExists("=", 2, "y", R_XY))))
    assert f0 == Forall("x", Iff(Atom("B", ("x",)), Atom("$A1", ("x",))))
    assert [(t.pred, t.count, t.relation) for t in triples] == [("$A1", 2, "R")]


def test_extract_compound_body():
    body = And(R_XY, Atom("A", ("y",)))
    f0, triples, axioms = extract_counting(
        Forall("x", CountExists("=", 1, "y", body)))
    assert f0 == Forall("x", Atom("$A1", ("x",)))
    (t,) = triples
    assert (t.pred, t.count, t.relation) == ("$A1", 1, "$R1")
    assert axioms == (Forall("x", Forall("y", Iff(Atom("$R1", ("x", "y")), body))),)


def test_snf_already_normal():
    snf = to_snf(Forall("x", Exists("y", R_XY)))
    assert snf.phi == Top()
    assert snf.psis == (R_XY,)
    assert snf.fresh_ledger == {}


def test_snf_bare_existential():
    snf = to_snf(Exists("x", Atom("A", ("x",))))
    assert snf.phi == Top()
    assert snf.psis == (Atom("A", ("y",)),)


def test_snf_guarded_existential():
    snf = to_snf(Forall("x", Or(Atom("A", ("x",)), Exists("y", R_XY))))
    d = Atom("$D1", ("x",))
    assert snf.psis == (Implies(d, R_XY),)
    assert list(lc.formula.conjuncts(snf.phi)) == \
        [Implies(R_XY, d), Or(Atom("A", ("x",)), d)]
    assert "$D1" in snf.fresh_ledger


def test_snf_rejects_counting():
    with pytest.raises(ValueError):
        to_snf(Forall("x", CountExists("=", 1, "y", R_XY)))


@pytest.mark.parametrize("text", [
    "domain: 3\nunary: A\nbinary: R\nformula: forall x (A(x) | exists y R(x,y))\n",
    "domain: 3\nbinary: R\nformula: exists x exists y R(x,y)\n",
    "domain: 3\nbinary: R\nformula: exists y forall x R(x,y)\n",
    "domain: 3\nunary: A\nbinary: R\nformula: exists y A(y) | forall x exists y R(x,y)\n",
    "domain: 3\nunary: A\nbinary: R\n"
    "formula: forall x (A(x) -> ~ exists y (R(x,y) & x != y))\n",
    "domain: 3\nunary: A\nbinary: R\nformula: forall y exists x R(x,y)\n",
])
def test_snf_preserves_counts(text):
    for n in (1, 2, 3):
        assert closed_count(text, n) == brute_count(text, n), (text, n)


def test_compile_pure_universal_is_identity():
    problem, program, _tables = compiled(RUNNING_EXAMPLE)
    assert program.sign_preds == ()
    assert program.divisors == ()
    assert program.constraints == ()
    # the kernel is exactly the input's quantifier-free matrix
    assert program.kernel == problem.sentence.body.body
    assert program.signature == problem.signature


def test_compile_existential():
    _problem, program, _tables = compiled(
        "domain: 2\nbinary: R\nformula: forall x exists y R(x,y)\n")
    assert program.sign_preds == ("$P1",)
    assert program.divisors == ()
    assert program.kernel == Implies(Atom("$P1", ("x",)), Not(R_XY))
    assert program.signature.unary == ("$P1",)


def test_compile_counting_block():
    _problem, program, tables = compiled(
        "domain: 3\nbinary: R\nformula: forall x exists[=1] y R(x,y)\n")
    assert program.sign_preds == ("$B1", "$P1_1")
    assert program.divisors == (("$A1", 1),)
    rendered = [lc.formula.format_constraint(c) for c in program.constraints]
    assert rendered == ["|$A1| + |$B1| - |$f1_1| = 0"]
    kernel_parts = [format_formula(c) for c in lc.formula.conjuncts(program.kernel)]
    assert "$A1(x)" in kernel_parts  # the rewritten sentence survives in the kernel
    # the slot leaves only its class, and covers every R edge out of it
    assert "($f1_1(x,y) -> (R(x,y) & ($A1(x) | $B1(x))))" in kernel_parts
    assert "((($A1(x) | $B1(x)) & R(x,y)) -> $f1_1(x,y))" in kernel_parts
    assert "($B1(x) -> ~$A1(x))" in kernel_parts
    # end to end this program counts functions
    for n in (1, 2, 3, 4):
        assert lc.evaluate(program, tables, n) == n ** n


def test_counting_pairwise_exclusions_generated():
    _problem, program, _tables = compiled(
        "domain: 2\nbinary: R\nformula: forall x exists[=3] y R(x,y)\n")
    parts = [format_formula(c) for c in lc.formula.conjuncts(program.kernel)]
    exclusions = [s for s in parts if "-> ~$f" in s and s.startswith("($f")]
    assert len(exclusions) == 3  # all unordered slot pairs for m = 3


def test_user_constraints_appended():
    _problem, program, _tables = compiled(
        RUNNING_EXAMPLE + "constraint: |A| = 2\n")
    assert [lc.formula.format_constraint(c) for c in program.constraints] == \
        ["|A| = 2"]


@pytest.mark.parametrize("text,ns", [
    ("domain: 2\nbinary: R, S\n"
     "formula: forall x exists y R(x,y) & forall x exists[=1] y S(x,y)\n", (1, 2)),
    ("domain: 2\nunary: A\nbinary: R\n"
     "formula: forall x (A(x) <-> exists[=1] y R(x,y))\n", (1, 2)),
    ("domain: 3\nunary: A\nformula: exists[=2] x A(x)\n", (1, 2, 3)),
    ("domain: 2\nbinary: R\n"
     "formula: forall x exists[=1] y (R(x,y) & x != y)\n", (1, 2, 3)),
    # quantifiers nested inside counted bodies, and counting over x
    ("domain: 2\nbinary: R, S\n"
     "formula: forall x exists[=1] y (R(x,y) & exists x S(y,x))\n", (1, 2)),
    ("domain: 2\nbinary: R, S\n"
     "formula: forall x exists[=1] y (R(x,y) | forall x S(y,x))\n", (1, 2)),
    ("domain: 2\nbinary: R, S\n"
     "formula: forall x exists[=1] y (R(x,y) & exists[=1] x S(y,x))\n", (1, 2)),
    ("domain: 2\nunary: A\nbinary: R\n"
     "formula: forall x (A(x) <-> ~ exists[=1] y R(x,y))\n", (1, 2)),
    ("domain: 2\nunary: A\nbinary: R\n"
     "formula: forall y (A(y) -> exists[=1] x R(x,y))\n", (1, 2)),
    # exact counts m >= 2 that some element may fail: the padding
    # companion must weigh 1 - 1 = 0 there, not 1 - m!
    ("domain: 2\nunary: A\nbinary: R\n"
     "formula: forall x exists[>=3] y R(x,y)\n", (1, 2, 3)),
    ("domain: 2\nbinary: R\nformula: forall x ~ exists[=2] y R(x,y)\n", (1, 2, 3)),
    ("domain: 2\nunary: A\nbinary: R\n"
     "formula: forall x (A(x) -> exists[=2] y R(x,y))\n", (1, 2, 3)),
    ("domain: 2\nunary: A\nbinary: R\n"
     "formula: forall x (A(x) | exists[<=2] y R(x,y))\n", (1, 2, 3)),
])
def test_compile_counting_against_oracle(text, ns):
    for n in ns:
        assert closed_count(text, n) == brute_count(text, n), (text, n)


@pytest.mark.parametrize("formula,n,want", [
    ("forall x exists[=1] y R(x,y)", 24, 24 ** 24),
    ("forall x exists[=2] y R(x,y)", 6, comb(6, 2) ** 6),
    ("forall x exists[<=2] y R(x,y)", 5, 16 ** 5),
    ("forall x exists[<=3] y R(x,y)", 3, 8 ** 3),
    ("forall x (A(x) -> exists[=2] y R(x,y))", 4, (comb(4, 2) + 2 ** 4) ** 4),
    ("forall x ~exists[=2] y R(x,y)", 5, (2 ** 5 - comb(5, 2)) ** 5),
], ids=["eq1-n24", "eq2-n6", "le2-n5", "le3-n3", "guarded-eq2-n4",
        "negated-eq2-n5"])
def test_compile_counting_closed_forms(formula, n, want):
    # domain sizes past the oracle's reach, against the closed forms
    unary = "unary: A\n" if "A(x)" in formula else ""
    text = f"domain: {n}\n{unary}binary: R\nformula: {formula}\n"
    assert closed_count(text, n) == want


def test_fresh_names_deterministic():
    text = ("domain: 2\nunary: A\nbinary: R\n"
            "formula: forall x (A(x) | exists y R(x,y)) & forall x exists[=2] y R(x,y)\n")
    _p1, prog1, _t1 = compiled(text)
    _p2, prog2, _t2 = compiled(text)
    assert prog1 == prog2


def test_counting_block_per_relation():
    # the exact counts an at-most or at-least expands to share one block:
    # slots, blockers, and one fresh relation for a compound body
    def shape(formula, unary=""):
        _problem, program, tables = compiled(
            f"domain: 2\n{unary}binary: R\nformula: {formula}\n")
        return (tables.order.u, tables.order.b, len(program.constraints),
                program.signature.binary)

    le2 = "forall x exists[<=2] y R(x,y)"
    assert shape(le2) == (11, 6, 2, ("R", "$f1_1", "$f1_2"))
    assert shape("forall x exists[<=2] y (R(x,y) & B(y))", "unary: B\n") == \
        (13, 8, 2, ("R", "$R1", "$f1_1", "$f1_2"))
    assert shape("forall x exists[<=3] y R(x,y)")[:2] == (15, 8)
    ge4 = "forall x exists[>=4] y R(x,y)"
    assert shape(ge4)[:2] == (15, 8)
    assert closed_count(f"domain: 2\nbinary: R\nformula: {le2}\n", 4) == \
        sum(comb(4, j) for j in range(3)) ** 4
    # every element has at most 3 successors, so the signed terms cancel
    assert closed_count(f"domain: 2\nbinary: R\nformula: {ge4}\n", 3) == \
        (2 ** 3 - sum(comb(3, j) for j in range(4))) ** 3 == 0


_SHAPE_LITERALS = ("R(x,y)", "R(y,x)", "x = y", "A(y)")


def _random_shape(rng):
    """A plain or counting quantifier over a one- or two-literal body, in
    one of four positions under ``forall x``."""
    literals = [("~" if rng.random() < 0.3 else "") + rng.choice(_SHAPE_LITERALS)
                for _ in range(rng.choice((1, 2)))]
    body = rng.choice((" & ", " | ")).join(literals)
    m = rng.randint(1, 3)
    quant = rng.choice(("forall y", "exists y", f"exists[={m}] y",
                        f"exists[<={m}] y", f"exists[>={m}] y"))
    position = rng.choice(("{}", "~ {}", "A(x) -> {}", "A(x) | {}"))
    return "forall x (" + position.format(f"{quant} ({body})") + ")"


def test_random_counting_shapes_against_oracle():
    # a fixed, seeded draw of 180 checks (about 11 s)
    rng = random.Random(1)
    for _ in range(60):
        sentence = _random_shape(rng)
        text = "domain: 1\nunary: A\nbinary: R\nformula: " + sentence + "\n"
        for n in range(1, 4):
            assert closed_count(text, n) == brute_count(text, n), (sentence, n)
