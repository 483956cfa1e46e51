"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every expected value is exact; time limits are wall-clock.
"""

import math
import random
import time
from fractions import Fraction
from math import comb

import liftcount as lc
from liftcount import engine, oracle, reference
from liftcount.formula import Forall, Problem
from liftcount.weights import DistributionQuery, count_distribution

from conftest import (CORPUS, KERNEL_SIG, RUNNING_EXAMPLE, compiled,
                      random_kernel)


def report(criterion, detail):
    print(f"[criterion {criterion}] PASS - {detail}")


def test_criterion_01_satisfaction_table_fixture():
    start = time.perf_counter()
    _p, _prog, tables = compiled(RUNNING_EXAMPLE)
    n_ij = [tables.n_ij(i, j) for i in range(4) for j in range(i, 4)]
    n_13v = [tables.n_ijv(1, 3, v) for v in range(4)]
    elapsed = time.perf_counter() - start
    assert n_ij == [4, 4, 2, 2, 4, 2, 2, 4, 4, 4]
    assert n_13v == [1, 0, 1, 0]
    assert elapsed < 1.0
    report(1, f"n_ij fixture and n_13v fixture reproduced in {elapsed:.3f}s")


def test_criterion_02_term_fixture():
    _p, program, tables = compiled(RUNNING_EXAMPLE)
    cells = [c for c in reference.enumerate_kh(program, tables, 3)
             if c.k_dense() == (2, 0, 0, 1)]
    assert len(cells) == 1
    assert reference.term_value(cells[0], 3) == 48
    report(2, "collapsed term for k=(2,0,0,1) at n=3 equals 48")


def test_criterion_03_coin_distribution():
    start = time.perf_counter()
    problem = lc.parse_problem(
        "domain: 4\nunary: H\nformula: true\n"
        "statweight: H { (0) -> 2; (2) -> 2; (4) -> 2; default -> 0 }\n")
    dist = count_distribution(problem, DistributionQuery(("!H", "H")))
    elapsed = time.perf_counter() - start
    assert dist == {(4, 0): Fraction(1, 8), (3, 1): Fraction(0),
                    (2, 2): Fraction(3, 4), (1, 3): Fraction(0),
                    (0, 4): Fraction(1, 8)}
    assert elapsed < 1.0
    report(3, f"coin distribution is exactly (1/8, 0, 3/4, 0, 1/8) in {elapsed:.3f}s")


def test_criterion_04_random_universal_kernels():
    start = time.perf_counter()
    rng = random.Random(20240817)
    kernels = 200
    for trial in range(kernels):
        kernel = random_kernel(rng)
        tables = lc.build_tables(kernel, KERNEL_SIG)
        sentence = Forall("x", Forall("y", kernel))
        for n in (1, 2, 3, 4):
            closed = engine.fomc_universal(tables, n)
            brute = oracle.oracle_count(Problem(KERNEL_SIG, sentence, n))
            assert closed == brute, (lc.format_formula(kernel), n, closed, brute)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(4, f"{kernels} random kernels agree with the oracle at "
              f"n=1..4 in {elapsed:.1f}s")


def test_criterion_05_existential_identity():
    problem, program, tables = compiled(
        "domain: 3\nbinary: R\nformula: forall x exists y R(x,y)\n")
    for n in range(1, 6):
        value = lc.evaluate(program, tables, n)
        assert value == (2 ** n - 1) ** n
        assert value.denominator == 1 and value >= 0
    for n in (1, 2, 3):
        assert lc.evaluate(program, tables, n) == \
            oracle.oracle_count(problem.with_domain_size(n))
    report(5, "forall-exists counts equal (2^n - 1)^n for n <= 5, "
              "oracle-confirmed at n <= 3, signed sum integral")


def test_criterion_06_counting_identities():
    problem, program, tables = compiled(
        "domain: 3\nbinary: R\nformula: forall x exists[=1] y R(x,y)\n")
    for n in range(1, 6):
        assert lc.evaluate(program, tables, n) == n ** n
    for n in (1, 2, 3):
        assert lc.evaluate(program, tables, n) == \
            oracle.oracle_count(problem.with_domain_size(n))
    checked = []
    for comparator in ("<=", ">="):
        for m in (1, 2):
            text = (f"domain: 3\nbinary: R\n"
                    f"formula: forall x exists[{comparator}{m}] y R(x,y)\n")
            prob, prog, tabs = compiled(text)
            for n in (1, 2, 3):
                closed = lc.evaluate(prog, tabs, n)
                brute = oracle.oracle_count(prob.with_domain_size(n))
                assert closed == brute, (comparator, m, n, closed, brute)
            checked.append(f"{comparator}{m}")
    report(6, "functionality equals n^n for n <= 5; variants "
              + ", ".join(checked) + " match the oracle for n <= 3")


def test_criterion_07_cardinality_identities():
    for n in range(1, 5):
        for m in range(0, n + 1):
            text = (f"domain: {n}\nunary: A\nformula: true\n"
                    f"constraint: |A| = {m}\n")
            problem, program, tables = compiled(text)
            value = lc.evaluate(program, tables, n)
            assert value == comb(n, m)
            assert value == oracle.oracle_count(problem)
    for n in range(1, 5):
        for m in range(0, n * n + 1):
            text = (f"domain: {n}\nbinary: R\nformula: true\n"
                    f"constraint: |R| = {m}\n")
            problem, program, tables = compiled(text)
            value = lc.evaluate(program, tables, n)
            assert value == comb(n * n, m)
            assert value == oracle.oracle_count(problem)
    report(7, "|A|=m gives C(n,m) and |R|=m gives C(n^2,m) for n <= 4, "
              "all m, oracle-confirmed")


def test_criterion_08_symmetric_weights():
    for w, wbar in ((Fraction(2), Fraction(3)), (Fraction(1, 2), Fraction(5)),
                    (Fraction(7), Fraction(1))):
        text = f"domain: 6\nunary: A\nformula: true\nweight: A {w} {wbar}\n"
        problem, program, tables = compiled(text)
        for n in range(1, 7):
            assert lc.evaluate(program, tables, n, problem.weights) == \
                (w + wbar) ** n
    mixed = ("domain: 3\nunary: S\nbinary: F\n"
             "formula: forall x forall y (S(x) & F(x,y) -> S(y))\n"
             "weight: S 2 1\nweight: F 3 2\n")
    problem, program, tables = compiled(mixed)
    for n in (1, 2, 3):
        assert lc.evaluate(program, tables, n, problem.weights) == \
            oracle.oracle_count(problem.with_domain_size(n))
    report(8, "single-unary symmetric weights give (w + wbar)^n for n <= 6; "
              "mixed unary/binary weights match the oracle at n <= 3")


def test_criterion_09_collapse_equivalence():
    checked = 0
    for name, text, ns in CORPUS:
        problem, program, tables = compiled(text)
        for n in ns:
            grouped = reference.stream_value(program, tables, n,
                                             problem.weights)
            per_v = reference.stream_value(program, tables, n,
                                           problem.weights, per_v=True)
            folded = lc.evaluate(program, tables, n, problem.weights)
            assert grouped == per_v == folded, (name, n)
            checked += 1
    report(9, f"grouped, per-2-type, and folded sums agree on "
              f"{checked} (problem, n) pairs")


def test_criterion_10_normalization():
    cases = [
        ("domain: 4\nunary: H\nformula: true\n"
         "statweight: H { (0) -> 2; (2) -> 2; (4) -> 2; default -> 0 }\n",
         ("!H", "H")),
        ("domain: 3\nunary: A\nformula: true\n", ("A",)),
        ("domain: 3\nunary: S\nbinary: F\n"
         "formula: forall x forall y (S(x) & F(x,y) -> S(y))\n"
         "weight: S 2 1\nweight: F 3 2\n", ("S", "F")),
        ("domain: 3\nunary: A\nbinary: R\n"
         "formula: forall x (A(x) | exists y R(x,y))\n", ("A", "R")),
        ("domain: 2\nbinary: R\nformula: forall x exists[=1] y R(x,y)\n",
         ("R",)),
    ]
    for text, preds in cases:
        problem = lc.parse_problem(text)
        dist = count_distribution(problem, DistributionQuery(preds))
        assert sum(dist.values(), Fraction(0)) == 1, text
    report(10, f"{len(cases)} full-support distributions each sum to exactly 1")


def test_criterion_11_polynomial_scaling():
    _p, _prog, tables = compiled(RUNNING_EXAMPLE)
    times = {}
    values = {}
    for n in (25, 50, 100, 200):
        start = time.perf_counter()
        values[n] = engine.fomc_universal(tables, n)
        times[n] = time.perf_counter() - start
    assert times[200] < 60.0
    xs = [math.log(n) for n in times]
    ys = [math.log(max(t, 1e-7)) for t in times.values()]
    count = len(xs)
    slope = ((count * sum(x * y for x, y in zip(xs, ys)) - sum(xs) * sum(ys))
             / (count * sum(x * x for x in xs) - sum(xs) ** 2))
    assert slope < 6.0
    # sanity: the counts keep growing and stay exact integers
    assert values[200] > values[100] > values[50] > values[25] > 0
    report(11, f"n=200 in {times[200]*1000:.1f} ms, log-log slope {slope:.2f} < 6")
