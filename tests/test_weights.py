from fractions import Fraction

import pytest

import liftcount as lc
from liftcount import oracle
from liftcount.weights import (CallableStatWeight, DistributionQuery,
                               EmptyDistributionError, StatTableWeights,
                               SymmetricWeights, Unweighted,
                               count_distribution, weight_of)

from conftest import CORPUS, compiled

COINS = ("domain: 4\nunary: H\nformula: true\n"
         "statweight: H { (0) -> 2; (2) -> 2; (4) -> 2; default -> 0 }\n")


def test_weight_of_symmetric():
    sig = lc.Signature(("A",), ())
    spec = SymmetricWeights.for_signature(sig, {"A": (Fraction(2), Fraction(3))})
    assert weight_of(spec, {"A": 1}, 3) == 2 * 9


def test_weight_of_unweighted():
    assert weight_of(Unweighted(), {}, 5) == 1
    assert weight_of(None, {"A": 3}, 5) == 1


def test_weight_of_stat_table():
    # 1 + (-1)**|H| as a table over the head count
    spec = StatTableWeights(("H",), {(0,): Fraction(2), (2,): Fraction(2),
                                     (4,): Fraction(2)}, Fraction(0))
    assert weight_of(spec, {"H": 2}, 4) == 2
    assert weight_of(spec, {"H": 3}, 4) == 0


def test_callable_weight():
    spec = CallableStatWeight(("H",), lambda key: Fraction(1 + (-1) ** key[0]))
    assert weight_of(spec, {"H": 2}, 4) == 2
    assert weight_of(spec, {"H": 3}, 4) == 0


def test_symmetric_skips_unit_entries():
    sig = lc.Signature(("A", "B"), ())
    spec = SymmetricWeights.for_signature(
        sig, {"A": (Fraction(1), Fraction(1)), "B": (Fraction(2), Fraction(1))})
    assert spec.referenced_preds() == ("B",)


def test_default_query_without_weighted_preds():
    # a unit weight is dropped, so the default query falls back to the
    # unary predicates, as the CLI does
    problem = lc.parse_problem("domain: 3\nunary: A\nformula: true\n"
                               "weight: A 1 1\n")
    assert problem.weights.entries == ()
    assert count_distribution(problem) == {
        (0,): Fraction(1, 8), (1,): Fraction(3, 8),
        (2,): Fraction(3, 8), (3,): Fraction(1, 8)}


def test_coin_distribution_exact():
    problem = lc.parse_problem(COINS)
    dist = count_distribution(problem, DistributionQuery(("!H", "H")))
    assert dist == {
        (4, 0): Fraction(1, 8),
        (3, 1): Fraction(0),
        (2, 2): Fraction(3, 4),
        (1, 3): Fraction(0),
        (0, 4): Fraction(1, 8),
    }
    assert count_distribution(problem, DistributionQuery(("H",))) == {
        (0,): Fraction(1, 8), (1,): Fraction(0), (2,): Fraction(3, 4),
        (3,): Fraction(0), (4,): Fraction(1, 8)}


def test_binomial_distribution():
    problem = lc.parse_problem("domain: 2\nunary: A\nformula: true\n")
    dist = count_distribution(problem, DistributionQuery(("A",)))
    assert dist == {(0,): Fraction(1, 4), (1,): Fraction(1, 2),
                    (2,): Fraction(1, 4)}


def test_forced_distribution():
    problem = lc.parse_problem("domain: 3\nunary: A\nformula: forall x A(x)\n")
    dist = count_distribution(problem, DistributionQuery(("A",)))
    assert dist == {(3,): Fraction(1)}


def test_distribution_single_vector_query():
    problem = lc.parse_problem(COINS)
    dist = count_distribution(problem, DistributionQuery(("H",), vector=(2,)))
    assert dist == {(2,): Fraction(3, 4)}


def test_empty_distribution_error():
    problem = lc.parse_problem("domain: 2\nunary: A\nformula: false\n")
    with pytest.raises(EmptyDistributionError):
        count_distribution(problem, DistributionQuery(("A",)))


def test_normalization_over_corpus():
    for name, text, ns in CORPUS:
        problem = lc.parse_problem(text)
        preds = problem.signature.unary or problem.signature.preds
        try:
            dist = count_distribution(problem, DistributionQuery(tuple(preds[:1])))
        except EmptyDistributionError:
            continue
        assert sum(dist.values(), Fraction(0)) == 1, name


def test_all_ones_table_is_model_fraction():
    from dataclasses import replace
    base = "domain: 3\nunary: A\nformula: true\n"
    problem = lc.parse_problem(base)
    table = StatTableWeights(("A",), {}, Fraction(1))
    weighted = replace(problem, weights=table)
    dist_w = count_distribution(weighted, DistributionQuery(("A",)))
    dist_u = count_distribution(problem, DistributionQuery(("A",)))
    assert dist_w == dist_u


def test_distribution_matches_oracle():
    for text, preds in [
        (COINS, ("!H", "H")),
        ("domain: 3\nunary: S\nbinary: F\n"
         "formula: forall x forall y (S(x) & F(x,y) -> S(y))\n"
         "weight: S 2 1\nweight: F 3 2\n", ("S", "F")),
        ("domain: 3\nunary: A\nbinary: R\n"
         "formula: forall x (A(x) | exists y R(x,y))\n", ("A",)),
        # the signed sums of vectors that no model realizes cancel to 0
        ("domain: 2\nbinary: R\nformula: forall x exists y R(x,y)\n", ("R",)),
        ("domain: 3\nbinary: R\nformula: forall x exists[>=2] y R(x,y)\n",
         ("R",)),
    ]:
        problem = lc.parse_problem(text)
        query = DistributionQuery(preds)
        assert count_distribution(problem, query) == \
            oracle.oracle_distribution(problem, query), text


def test_symmetric_consistency_with_oracle():
    text = ("domain: 3\nunary: A\nbinary: R\n"
            "formula: forall x forall y (A(x) & R(x,y) & x != y -> A(y))\n"
            "weight: A 1/2 2\nweight: R 3 1\n")
    problem, program, tables = compiled(text)
    for n in (1, 2, 3):
        assert lc.evaluate(program, tables, n, problem.weights) == \
            oracle.oracle_count(problem.with_domain_size(n))
