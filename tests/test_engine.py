import ast
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import comb

import pytest

import liftcount as lc
from liftcount import engine, oracle, reference, transform
from liftcount.engine import (Counters, evaluate, fomc_universal, multinomial,
                              pair_exponent)
from liftcount.reference import compositions, enumerate_kh, term_value
from liftcount.formula import Forall, Problem, Signature, Top

from conftest import (CORPUS, KERNEL_SIG, RUNNING_EXAMPLE, compiled,
                      random_kernel, witness_from_cell)


def test_multinomial():
    assert multinomial(3, (2, 0, 0, 1)) == 3
    assert multinomial(4, (2, 2)) == 6
    assert multinomial(7, (7,)) == 1
    with pytest.raises(ValueError):
        multinomial(4, (2, 1))


def test_compositions_count():
    assert len(list(compositions(4, 3))) == comb(6, 2)
    assert list(compositions(0, 0)) == [()]
    assert sum(1 for _ in compositions(5, 1)) == 1


def test_reference_path_stands_apart_from_the_engine():
    # the cross-check is independent only while the reference computes its
    # own statistics and 2-type classes: from the engine it borrows the
    # k-vector stream and arithmetic helpers, never the evaluation context
    def tree(module):
        with open(module.__file__, encoding="utf-8") as fh:
            return ast.parse(fh.read())

    def imported(module):
        return {((node.module or "").rpartition(".")[2], alias.name)
                for node in ast.walk(tree(module))
                if isinstance(node, ast.ImportFrom) for alias in node.names}

    assert not any(mod == "reference" or name == "reference"
                   for mod, name in imported(engine))
    assert {name for mod, name in imported(reference) if mod == "engine"} == \
        {"Counters", "_k_stream", "multinomial", "pair_exponent"}
    names = {getattr(node, "id", getattr(node, "attr", None))
             for node in ast.walk(tree(reference))}
    assert "_Context" not in names
    for name in ("enumerate_kh", "compositions", "term_value"):
        assert not hasattr(engine, name), name


def test_pair_exponent():
    assert pair_exponent(4, 4, True) == 6
    assert pair_exponent(3, 5, False) == 15
    assert pair_exponent(1, 1, True) == 0


@pytest.fixture(scope="module")
def running():
    return compiled(RUNNING_EXAMPLE)


def test_fomc_universal_fixture(running):
    _p, _prog, tables = running
    assert fomc_universal(tables, 1) == 4
    assert fomc_universal(tables, 2) == 48


def test_fomc_universal_powerset():
    tables = lc.build_tables(Top(), Signature(("A",), ()))
    assert fomc_universal(tables, 5) == 32


def test_fomc_universal_merge_agrees_with_flat():
    rng = random.Random(11)
    for _ in range(20):
        kernel = random_kernel(rng)
        tables = lc.build_tables(kernel, KERNEL_SIG)
        program = transform.CountingProgram(KERNEL_SIG, kernel, (), (), (),
                                            KERNEL_SIG.unary + KERNEL_SIG.binary)
        for n in (1, 2, 3, 6):
            assert fomc_universal(tables, n) == \
                reference.stream_value(program, tables, n)


def test_stream_length_unconstrained():
    # with no tracked statistics each k-vector yields exactly one cell
    _p, program, tables = compiled("domain: 3\nunary: A\nformula: true\n")
    cells = list(enumerate_kh(program, tables, 3))
    assert len(cells) == comb(3 + 1, 1)
    _p, program, tables = compiled(RUNNING_EXAMPLE)
    assert sum(1 for _ in enumerate_kh(program, tables, 2)) == comb(2 + 3, 3)


def test_stream_unary_constraint_pruning():
    _p, program, tables = compiled(
        "domain: 4\nunary: A\nformula: true\nconstraint: |A| = 2\n")
    cells = list(enumerate_kh(program, tables, 4))
    assert len(cells) == 1
    assert cells[0].k_dense() == (2, 2)
    assert cells[0].stats["A"] == 2


def test_stream_binary_constraint_survivors(running_constraint="|R| = 2"):
    _p, program, tables = compiled(RUNNING_EXAMPLE + f"constraint: {running_constraint}\n")
    cells = list(enumerate_kh(program, tables, 2))
    assert cells, "some cells must survive"
    for cell in cells:
        assert cell.stats["R"] == 2


def test_term_value_collapsed_fixture(running):
    _p, program, tables = running
    cells = [c for c in enumerate_kh(program, tables, 3)
             if c.k_dense() == (2, 0, 0, 1)]
    assert len(cells) == 1
    assert term_value(cells[0], 3) == 48


def test_term_value_zero_factor():
    # a pair with no satisfying 2-type never reaches the stream
    _p, program, tables = compiled(
        "domain: 2\nbinary: R\nformula: forall x forall y (R(x,y) & ~R(x,y))\n")
    assert list(enumerate_kh(program, tables, 2)) == []
    assert evaluate(program, tables, 2) == 0


def test_per_v_composition_sum_matches_collapse():
    # kernel true, one binary predicate, both elements in one 1-type: the
    # per-2-type compositions sum back to n_ij ** k(i,j)
    _p, program, tables = compiled(
        "domain: 2\nbinary: R\nformula: true\nconstraint: |R| >= 0\n")
    total = 0
    cells = 0
    for cell in enumerate_kh(program, tables, 2, per_v=True):
        if cell.k_dense() == (2, 0):
            total += term_value(cell, 2)
            cells += 1
    assert cells == tables.n_ij(0, 0)  # one composition per satisfying 2-type
    assert total == multinomial(2, (2,)) * tables.n_ij(0, 0)


def test_evaluate_examples():
    _p, program, tables = compiled(
        "domain: 2\nbinary: R\nformula: forall x exists y R(x,y)\n")
    assert evaluate(program, tables, 2) == 9
    _p, program, tables = compiled(
        "domain: 3\nbinary: R\nformula: forall x exists[=1] y R(x,y)\n")
    assert evaluate(program, tables, 3) == 27
    problem, program, tables = compiled(
        "domain: 3\nunary: A\nformula: true\nweight: A 2 3\n")
    assert evaluate(program, tables, 3, problem.weights) == 125


def test_integrality_of_signed_sums():
    rng = random.Random(23)
    texts = [
        "domain: 3\nbinary: R\nformula: forall x exists y R(x,y)\n",
        "domain: 3\nbinary: R\nformula: forall x exists[=2] y R(x,y)\n",
        "domain: 3\nunary: A\nbinary: R\n"
        "formula: forall x (A(x) | exists y R(x,y))\n",
    ]
    for text in texts:
        _p, program, tables = compiled(text)
        for n in (1, 2, 3, 4):
            value = evaluate(program, tables, n)
            assert value.denominator == 1 and value >= 0


@pytest.mark.parametrize("name,text,ns", CORPUS)
def test_collapse_equivalence(name, text, ns):
    problem, program, tables = compiled(text)
    for n in ns:
        folded = evaluate(program, tables, n, problem.weights)
        for per_v in (False, True):
            got = reference.stream_value(program, tables, n, problem.weights,
                                         per_v=per_v)
            assert got == folded, (name, n, per_v)


@pytest.mark.parametrize("name,text,ns", CORPUS)
def test_oracle_equivalence_corpus(name, text, ns):
    problem, program, tables = compiled(text)
    for n in sorted(set(ns) | {4}):
        got = evaluate(program, tables, n, problem.weights)
        want = oracle.oracle_count(problem.with_domain_size(n))
        assert got == want, (name, n)


def test_cell_witnesses_have_matching_statistics():
    texts = [
        RUNNING_EXAMPLE + "constraint: |R| = 2\n",
        "domain: 3\nunary: S\nbinary: F\n"
        "formula: forall x forall y (S(x) & F(x,y) -> S(y))\n"
        "weight: S 2 1\nweight: F 3 2\n",
    ]
    for text in texts:
        problem, program, tables = compiled(text)
        for n in (2, 3):
            for cell in enumerate_kh(program, tables, n, problem.weights):
                omega = witness_from_cell(cell, tables, program)
                k, h = oracle.interpretation_stats(omega, tables.order, n)
                assert k == cell.k_dense()
                # the witness is a model of the ground kernel
                kernel_sentence = Forall("x", Forall("y", program.kernel))
                assert oracle.eval_sentence(kernel_sentence, omega, n)
                for pred, value in cell.stats.items():
                    arity = program.signature.arity(pred)
                    direct = sum(
                        1 for atom in omega.true_atoms() if atom.pred == pred)
                    assert direct == value, (pred, cell)
                    recomputed = oracle.cardinality_from_stats(
                        k, h, tables.order, pred, arity)
                    assert recomputed == value


def test_stats_view_matches_oracle_partition():
    # cells partition the kernel's model space: per-cell witness counts of
    # the kernel equal the plain kernel count
    _p, program, tables = compiled(RUNNING_EXAMPLE)
    n = 3
    total = sum(cell.sign * term_value(cell, n)
                for cell in enumerate_kh(program, tables, n))
    assert total == fomc_universal(tables, n)


def test_threads_do_not_change_results():
    problem, program, tables = compiled(
        "domain: 4\nbinary: R\nformula: forall x exists[=1] y R(x,y)\n")
    assert evaluate(program, tables, 4, threads=2) == \
        evaluate(program, tables, 4, threads=1) == 256
    problem, program, tables = compiled(RUNNING_EXAMPLE)
    assert evaluate(program, tables, 12, threads=2) == \
        evaluate(program, tables, 12, threads=1) == fomc_universal(tables, 12)
    problem, program, tables = compiled(
        "domain: 3\nunary: S\nbinary: F\n"
        "formula: forall x forall y (S(x) & F(x,y) -> S(y))\n"
        "weight: S 2 1\nweight: F 3 2\n")
    assert evaluate(program, tables, 4, problem.weights, threads=2) == \
        evaluate(program, tables, 4, problem.weights, threads=1)
    problem, program, tables = compiled(RUNNING_EXAMPLE + "constraint: |R| = 2\n")
    grouped1 = engine.evaluate_grouped(program, tables, 3, None, ("A",))
    grouped2 = engine.evaluate_grouped(program, tables, 3, None, ("A",), threads=2)
    assert grouped1 == grouped2


def test_counters_populated():
    _p, program, tables = compiled(
        "domain: 4\nunary: A\nformula: true\nconstraint: |A| = 2\n")
    counters = Counters()
    evaluate(program, tables, 4, counters=counters)
    assert counters.k_vectors > 0
    assert counters.pruned > 0
    assert counters.cells >= 1


def test_symmetric_weights_track_no_statistic():
    # literal weights sit on 1-types and 2-types, so each k-vector is one
    # cell; the diagonal F(x,x) changes a 1-type's weight but not its row
    # of masks, so the four live smokers types merge into two groups (S
    # true, S false) whatever the weights are
    problem, program, tables = compiled(
        "domain: 12\nunary: S\nbinary: F\n"
        "formula: forall x forall y (S(x) & F(x,y) -> S(y))\n"
        "weight: S 2 1\nweight: F 3 2\n")
    counters = Counters()
    evaluate(program, tables, 12, problem.weights, counters=counters)
    assert counters.cells == counters.k_vectors == 12 + 1


SIGNED_SMOKERS = ("domain: 3\nunary: S\nbinary: F\n"
                  "formula: forall x forall y (S(x) & F(x,y) -> S(y))\n"
                  "weight: S 2 -1\nweight: F {} {}\n")


@pytest.mark.parametrize("c,d", [(-1, 3), (2, -2), (5, -6),
                                 (Fraction(1, 2), Fraction(3, 2)), (0, 7),
                                 (-4, 3), (-5, 3), (-3, 6)])
def test_untracked_bases_of_every_sign_and_parity(c, d):
    # nothing is tracked, so each cell sum is a product of powers of the
    # pair bases (c + d)**2 and (c + d) * d, over one denominator: odd,
    # even, zero and negative (-3, -6) bases all pass through the exponent
    # collection, and 9 and 18 share their odd part
    problem, program, tables = compiled(SIGNED_SMOKERS.format(c, d))
    for n in (1, 2, 3):
        assert evaluate(program, tables, n, problem.weights) == \
            oracle.oracle_count(problem.with_domain_size(n)), n
    # k elements in S: the k(n - k) pairs from S to not-S must drop F
    n = 30
    want = sum(comb(n, k) * 2 ** k * (-1) ** (n - k)
               * Fraction(c + d) ** (n * n - k * (n - k))
               * Fraction(d) ** (k * (n - k)) for k in range(n + 1))
    assert evaluate(program, tables, n, problem.weights) == want
    grouped = engine.evaluate_grouped(program, tables, n, problem.weights,
                                      ("S",))
    assert sum(grouped.values()) == want
    assert evaluate(program, tables, n, problem.weights, threads=2) == want


def test_untracked_counters_and_power_cache():
    _p, program, tables = compiled(RUNNING_EXAMPLE)
    counters = Counters()
    ctx = engine._Context(program, tables, 400)
    engine._evaluate(ctx, 1, counters)
    assert counters == Counters(k_vectors=401, pruned=0, cells=401)
    # the untracked cell sums keep no pair powers
    assert ctx._pow_cache == {}
    # a zero pair base (c + d = 0) makes the cell sum of every k-vector
    # with a pair of elements 0: counted as a cell and as pruned.  At
    # n = 1 the zero sits on the 1-type weight of F(x,x) instead, which
    # prunes nothing
    problem, program, tables = compiled(SIGNED_SMOKERS.format(2, -2))
    for n, want in ((1, Counters(2, 0, 2)), (3, Counters(4, 4, 4)),
                    (30, Counters(31, 31, 31))):
        counters = Counters()
        assert evaluate(program, tables, n, problem.weights,
                        counters=counters) == 0
        assert counters == want, n


def test_bounded_fold_cuts_dead_k_vectors():
    # |R| <= 5 cuts every k-vector with more than 5 diagonal R atoms from
    # the stream (12 341 k-vectors without the cut); with |A| = k the
    # friends sentence leaves k*k + (n - k)*n pairs free for R
    _p, program, tables = compiled(RUNNING_EXAMPLE + "constraint: |R| <= 5\n")
    n = 40
    counters = Counters()
    value = evaluate(program, tables, n, counters=counters)
    assert value == sum(comb(n, k) * sum(comb(k * k + (n - k) * n, j)
                                         for j in range(6))
                        for k in range(n + 1))
    assert counters.k_vectors <= 1000


def test_pair_powers_are_collected_per_mask(monkeypatch):
    # block pairs with equal satisfaction masks share one class polynomial,
    # so each fold takes one capped power per mask, of the summed exponent
    folds = []
    cells, pair_power = engine._cells, engine._Context.pair_power
    monkeypatch.setattr(engine, "_cells",
                        lambda *args: folds.append([]) or cells(*args))
    monkeypatch.setattr(engine._Context, "pair_power",
                        lambda self, mask, e, caps=None:
                        folds[-1].append(mask) or pair_power(self, mask, e, caps))
    _p, program, tables = compiled(RUNNING_EXAMPLE + "constraint: |R| <= 5\n")
    n = 30
    counters = Counters()
    assert evaluate(program, tables, n, counters=counters) == sum(
        comb(n, k) * sum(comb(k * k + (n - k) * n, j) for j in range(6))
        for k in range(n + 1))
    assert folds and all(len(set(f)) == len(f) for f in folds)
    assert any(len(f) > 1 for f in folds)
    # the leaf ranges are the same sums over masks as over block pairs, so
    # the same k-vectors are pruned.  ``cells`` counts the admitted cells
    # of the 96 folds built: a k-vector whose collected (mask, exponent)
    # pairs and leaf constants an earlier fold had reads the cell-sum
    # cache and adds none
    assert counters == Counters(k_vectors=581, pruned=183, cells=336)
    assert len(folds) == 96
    for text, n, want in (
            ("binary: R\nformula: forall x exists[=2] y R(x,y)\n", 5,
             Counters(k_vectors=792, pruned=132, cells=448)),
            ("binary: R\nformula: forall x exists[<=2] y R(x,y)\n", 4,
             Counters(k_vectors=2380, pruned=884, cells=765))):
        _p, program, tables = compiled(f"domain: {n}\n" + text)
        counters = Counters()
        evaluate(program, tables, n, counters=counters)
        assert counters == want, text


def test_tracked_fold_with_literal_pair_weights():
    # literal weights on R ride on the class polynomials of a tracked
    # fold, whose masks are shared by several block pairs; with |A| = k
    # the friends sentence leaves k*k + (n - k)*n of the n*n R atoms free
    text = (RUNNING_EXAMPLE + "weight: A 1/2 3\nweight: R 2 -3\n"
            "constraint: |R| <= 4\n")
    problem, program, tables = compiled(text)
    for n in (1, 2, 3):
        assert evaluate(program, tables, n, problem.weights) == \
            oracle.oracle_count(problem.with_domain_size(n)), n
    n = 12
    want = sum(comb(n, k) * Fraction(1, 2) ** k * 3 ** (n - k)
               * sum(comb(k * k + (n - k) * n, j) * 2 ** j * (-3) ** (n * n - j)
                     for j in range(5))
               for k in range(n + 1))
    assert evaluate(program, tables, n, problem.weights) == want
    assert evaluate(program, tables, n, problem.weights, threads=2) == want


def test_counting_caps_reach_fixpoint():
    text = ("domain: 4\nbinary: R, S\nformula: true\n"
            "constraint: |R| - |S| <= 0\nconstraint: |S| <= 3\n")
    _p, program, tables = compiled(text)
    # |R| <= |S| <= 3 over 16 ground atoms each
    assert evaluate(program, tables, 4) == sum(
        comb(16, s) * sum(comb(16, r) for r in range(s + 1)) for s in range(4))
    # |S| <= 3 caps the cross part of S at 3; only a second pass carries
    # that cap through |R| - |S| <= 0 onto R, which one pass leaves at
    # n(n - 1) = 12
    ctx = engine._Context(program, tables, 4)
    assert ctx.tracked_binary == ("R", "S")
    consts = ctx.constraints.consts(dict.fromkeys(ctx.stat_preds, 0))
    assert ctx.constraints.caps(consts, (0, 0), (12, 12)) == [3, 3]


def test_leaf_ranges_leave_no_empty_fold(monkeypatch):
    # per-leaf ranges refute every k-vector whose fold would end with no
    # admitted cell: 64 folds at n = 10, none of them empty
    folds = []
    cells = engine._cells
    monkeypatch.setattr(engine, "_cells",
                        lambda *args: folds.append(cells(*args)) or folds[-1])
    _p, program, tables = compiled(
        "domain: 10\nbinary: R\nformula: forall x exists[=1] y R(x,y)\n")
    counters = Counters()
    assert evaluate(program, tables, 10, counters=counters) == 10 ** 10
    assert len(folds) == 64 and all(folds)
    assert (counters.k_vectors, counters.pruned, counters.cells) == (66, 2, 64)


def test_leaf_range_refutes_what_the_box_admits(monkeypatch):
    # R and S split every ordered pair, so each element pair adds exactly
    # 2 to |R| + |S|, where the per-dimension extremes of the same
    # profiles reach 0 and 4.  At n = 3 the sum is 9 on every k-vector:
    # the leaf ranges refute each one before any fold, the box none
    folds = []
    monkeypatch.setattr(engine, "_cells", lambda *args: folds.append(args) or [])
    text = ("domain: 3\nbinary: R, S\n"
            "formula: forall x forall y (R(x,y) <-> ~S(x,y))\n"
            "constraint: |R| + |S| <= 8\n")
    problem, program, tables = compiled(text)
    counters = Counters()
    assert evaluate(program, tables, 3, counters=counters) == 0
    assert oracle.oracle_count(problem) == 0
    assert folds == []
    assert (counters.k_vectors, counters.pruned, counters.cells) == (4, 4, 0)

    ctx = engine._Context(program, tables, 3)
    cons = ctx.constraints
    zero = (0,) * ctx.dim
    nl = len(cons.leaves)
    for t in tables.alive:
        # all three elements of type t: three pairs, each one profile
        _poly, lows, highs = ctx.classes_for_mask(tables.mask(t, t))
        mins, maxs = lows[nl:], highs[nl:]
        assert (lows[0], highs[0]) == (2, 2)
        assert (sum(mins), sum(maxs)) == (0, 4)
        consts = cons.consts(ctx.stats_from_k((t,), (3,)))
        box = [tuple(c + 3 * sum(leaf[1][d] * ext[d] for d in range(ctx.dim))
                     for c, leaf in zip(consts, cons.leaves)) + zero
               for ext in (mins, maxs)]
        lo = tuple(c + 3 * x for c, x in zip(consts + zero, lows))
        hi = tuple(c + 3 * x for c, x in zip(consts + zero, highs))
        assert lo[0] == hi[0] == 9
        assert cons.admits(*box, zero) and not cons.admits(lo, hi, zero)


def test_progress_fires_once_per_second(monkeypatch):
    # a clock that moves a quarter second per reading: one heartbeat per
    # four k-vectors, none in a run that ends within its first second
    clock = [0.0]

    def tick():
        clock[0] += 0.25
        return clock[0]

    monkeypatch.setattr(engine, "monotonic", tick)
    _p, program, tables = compiled(RUNNING_EXAMPLE)
    seen = []
    evaluate(program, tables, 20,
             progress=lambda c: seen.append(c.k_vectors))
    assert seen == [4, 8, 12, 16, 20]
    seen.clear()
    evaluate(program, tables, 2, progress=lambda c: seen.append(c.k_vectors))
    assert seen == []


def test_random_universal_kernels_vs_oracle():
    rng = random.Random(1234)
    for _ in range(30):
        kernel = random_kernel(rng)
        tables = lc.build_tables(kernel, KERNEL_SIG)
        sentence = Forall("x", Forall("y", kernel))
        for n in (1, 2, 3):
            problem = Problem(KERNEL_SIG, sentence, n)
            assert fomc_universal(tables, n) == oracle.oracle_count(problem)


def test_library_prints_big_counts_in_fresh_interpreter():
    # importing liftcount alone must lift CPython's int -> str digit cap
    script = (
        "import liftcount as lc\n"
        "problem = lc.parse_problem(" + repr(RUNNING_EXAMPLE) + ")\n"
        "program = lc.compile_problem(problem)\n"
        "tables = lc.build_tables(program.kernel, program.signature)\n"
        "print(len(str(lc.evaluate(program, tables, 200))))\n")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "12042"


FUZZ_BASES = [
    # (signature and sentence, binary predicates, largest n for the
    # explicit enumeration, largest n for the oracle)
    ("unary: A\nbinary: R\n"
     "formula: forall x forall y (A(x) & R(x,y) & x != y -> A(y))\n",
     ("R",), 4, 3),
    ("unary: A\nbinary: R\nformula: forall x (A(x) | exists y R(x,y))\n",
     ("R",), 4, 3),
    ("unary: A\nbinary: R, S\n"
     "formula: forall x forall y (R(x,y) -> S(y,x) | A(x))\n", ("R", "S"), 3, 2),
]


def _random_constraint(rng, preds, depth=2):
    """Random boolean combination of linear cardinality comparisons, with
    negative coefficients and coefficients above 1."""
    if depth == 0 or rng.random() < 0.4:
        terms = rng.sample(preds, rng.choice((1, 2)))
        text = ""
        for i, pred in enumerate(terms):
            coef = rng.choice((-2, -1, 1, 1, 2, 3))
            sign = "-" if coef < 0 else ("+" if i else "")
            text += f" {sign} {abs(coef)}*|{pred}|"
        op = rng.choice(("=", "!=", "<=", "<", ">=", ">"))
        bound = rng.randint(-2, 6)
        if op == "!=":  # the syntax spells it as a negated equality
            return f"~({text} = {bound})"
        return f"({text} {op} {bound})"
    kind = rng.choice(("and", "or", "not"))
    if kind == "not":
        return f"~{_random_constraint(rng, preds, depth - 1)}"
    joint = " & " if kind == "and" else " | "
    return ("(" + _random_constraint(rng, preds, depth - 1) + joint
            + _random_constraint(rng, preds, depth - 1) + ")")


def test_random_constraint_trees_differential():
    # a fixed, seeded draw (about 5 s): the bounded fold and the stream cut
    # must give the explicit enumeration's value, grouped or not, and the
    # oracle's
    rng = random.Random(2110)
    for _ in range(20):
        base, binary, reference_n, oracle_n = rng.choice(FUZZ_BASES)
        text = "domain: 1\n" + base + "".join(
            f"constraint: {_random_constraint(rng, ('A',) + binary)}\n"
            for _ in range(rng.choice((1, 2))))
        problem, program, tables = compiled(text)
        for n in range(1, reference_n + 1):
            want = reference.stream_value(program, tables, n)
            assert evaluate(program, tables, n) == want, (text, n)
            grouped = engine.evaluate_grouped(program, tables, n, None, ("A",))
            assert sum(grouped.values()) == want, (text, n)
            if n <= oracle_n:
                sized = problem.with_domain_size(n)
                assert want == oracle.oracle_count(sized), (text, n)
                if want:
                    dist = {k: v / want for k, v in grouped.items() if v}
                    assert dist == oracle.oracle_distribution(
                        sized, lc.DistributionQuery(("A",))), (text, n)
