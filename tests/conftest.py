import random

import liftcount as lc
from liftcount import celltypes, oracle, transform
from liftcount.formula import (And, Atom, Bottom, Eq, GroundAtom, Iff,
                               Implies, Neq, Not, Or, Signature, Top)

RUNNING_EXAMPLE = """
domain: 3
unary: A
binary: R
formula: forall x forall y (A(x) & R(x,y) & x != y -> A(y))
"""


def compiled(text):
    """Parse, compile, and build tables in one go."""
    problem = lc.parse_problem(text)
    program = transform.compile_problem(problem)
    tables = celltypes.build_tables(program.kernel, program.signature)
    return problem, program, tables


def closed_count(text, n):
    problem, program, tables = compiled(text)
    return lc.evaluate(program, tables, n, problem.weights)


def brute_count(text, n):
    problem = lc.parse_problem(text)
    return oracle.oracle_count(problem.with_domain_size(n))


# problems the cross-check suites sweep; n lists keep the explicit
# composition streams (the exponentially redundant modes) tractable
CORPUS = [
    ("friends", RUNNING_EXAMPLE, (1, 2, 3)),
    ("friends-cardA", RUNNING_EXAMPLE + "constraint: |A| = 2\n", (1, 2, 3)),
    ("friends-cardR", RUNNING_EXAMPLE + "constraint: |R| = 2\n", (1, 2, 3)),
    ("friends-bool", RUNNING_EXAMPLE
     + "constraint: (|A| = 2) | (|A| = 3)\nconstraint: |R| <= 5\n", (1, 2, 3)),
    ("friends-bool-mixed", RUNNING_EXAMPLE
     + "constraint: (|R| <= 1) | ~(|A| + |R| <= 9)\n", (1, 2, 3)),
    ("unary-card", "domain: 4\nunary: A\nformula: true\nconstraint: |A| = 2\n",
     (1, 2, 3, 4, 5)),
    ("coins", "domain: 4\nunary: H\nformula: true\n"
     "statweight: H { (0) -> 2; (2) -> 2; (4) -> 2; default -> 0 }\n",
     (1, 2, 3, 4, 5)),
    ("existential", "domain: 3\nbinary: R\nformula: forall x exists y R(x,y)\n",
     (1, 2, 3)),
    ("guarded", "domain: 3\nunary: A\nbinary: R\n"
     "formula: forall x (A(x) | exists y R(x,y))\n", (1, 2, 3)),
    ("functionality", "domain: 2\nbinary: R\n"
     "formula: forall x exists[=1] y R(x,y)\n", (1, 2)),
    ("smokers", "domain: 3\nunary: S\nbinary: F\n"
     "formula: forall x forall y (S(x) & F(x,y) -> S(y))\n"
     "weight: S 2 1\nweight: F 3 2\n", (1, 2, 3)),
    ("equality", "domain: 3\nbinary: R\n"
     "formula: forall x forall y (R(x,y) -> x != y)\n", (1, 2, 3)),
    # negative and fractional weights, a constraint on a weighted binary
    # predicate, and weights sharing one denominator with signs and divisors
    ("weighted-card", RUNNING_EXAMPLE
     + "constraint: |R| <= 3\nweight: A -1 1/2\nweight: R 2/3 3\n", (1, 2, 3)),
    ("weighted-counting", "domain: 2\nunary: A\nbinary: R\n"
     "formula: forall x (A(x) | exists[=1] y R(x,y))\n"
     "weight: A -1 2/3\nweight: R 3/2 -2\n", (1, 2)),
    # counting shapes that are not forced on every element: the padding
    # companion must cancel the elements outside the counted class
    ("negated-eq2", "domain: 2\nbinary: R\n"
     "formula: forall x ~exists[=2] y R(x,y)\n", (1, 2)),
    ("guarded-eq2", "domain: 2\nunary: A\nbinary: R\n"
     "formula: forall x (A(x) -> exists[=2] y R(x,y))\n", (1, 2)),
    ("disjunct-le2", "domain: 2\nunary: A\nbinary: R\n"
     "formula: forall x (A(x) | exists[<=2] y R(x,y))\n", (1, 2)),
    ("at-least-3", "domain: 3\nbinary: R\n"
     "formula: forall x exists[>=3] y R(x,y)\n", (1, 2)),
]


KERNEL_SIG = Signature(("A", "B"), ("R",))
KERNEL_ATOMS = [
    Atom("A", ("x",)), Atom("A", ("y",)), Atom("B", ("x",)), Atom("B", ("y",)),
    Atom("R", ("x", "y")), Atom("R", ("y", "x")),
    Atom("R", ("x", "x")), Atom("R", ("y", "y")),
]


def random_kernel(rng: random.Random, depth: int = 3):
    """Random quantifier-free formula over {A/1, B/1, R/2} with equality."""
    if depth == 0 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.75:
            return rng.choice(KERNEL_ATOMS)
        if r < 0.85:
            return rng.choice([Eq("x", "y"), Neq("x", "y")])
        return rng.choice([Top(), Bottom()])
    op = rng.choice(["not", "and", "or", "implies", "iff"])
    if op == "not":
        return Not(random_kernel(rng, depth - 1))
    cls = {"and": And, "or": Or, "implies": Implies, "iff": Iff}[op]
    return cls(random_kernel(rng, depth - 1), random_kernel(rng, depth - 1))


def witness_from_cell(cell, tables, program):
    """Build one concrete interpretation realizing an enumerated cell:
    elements take their 1-types in order and every element pair gets a
    2-type from its class composition (first member of each class)."""
    order = tables.order
    n = sum(cell.counts)
    elem_type: dict[int, int] = {}
    blocks: dict[int, list[int]] = {}
    e = 0
    for t, c in zip(cell.types, cell.counts):
        blocks[t] = []
        for _ in range(c):
            elem_type[e] = t
            blocks[t].append(e)
            e += 1

    true_atoms = []
    for el, t in elem_type.items():
        for pos, ua in enumerate(order.unary_atoms):
            if order.unary_bit(t, pos):
                args = (el, el) if ua.diagonal else (el,)
                true_atoms.append(GroundAtom(ua.pred, args))

    for pt in cell.pairs:
        if pt.i == pt.j:
            els = blocks[pt.i]
            concrete = [(els[a], els[b]) for a in range(len(els))
                        for b in range(a + 1, len(els))]
        else:
            concrete = [(cx, cy) for cx in blocks[pt.i] for cy in blocks[pt.j]]
        assert len(concrete) == pt.exponent
        vlist = []
        for members, share in zip(pt.class_vtypes, pt.composition):
            vlist.extend([members[0]] * share)
        for (cx, cy), v in zip(concrete, vlist):
            for pos, ba in enumerate(order.binary_atoms):
                if order.binary_bit(v, pos):
                    args = (cy, cx) if ba.swapped else (cx, cy)
                    true_atoms.append(GroundAtom(ba.pred, args))

    return oracle.Interpretation.from_true_atoms(program.signature, n, true_atoms)
