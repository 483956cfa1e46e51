"""Reference path: the paper's explicit enumerations, for verification only.

:mod:`liftcount.engine` folds every pair of merged 1-types into a
statistic polynomial.  This module spells the same sum out cell by cell:
every k-vector over the unmerged live 1-types, and for every pair of used
types every composition of its element pairs over the 2-type classes (or,
with ``per_v``, over the single 2-types).  It tracks the weighted, sign
and divisor predicates that the engine folds into type weights as
statistics, and applies the paper's factors for them per cell.  It is
exponentially slower and exists so the tests can compare the two exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial, prod
from typing import Iterator, Optional

from .celltypes import TypeTables
from .engine import (Counters, _Context, _k_stream, compositions, multinomial,
                     pair_exponent)
from .formula import constraint_holds, constraint_preds
from .transform import CountingProgram


@dataclass(frozen=True)
class PairTerm:
    """One pair of 1-types inside a cell: ``exponent`` element pairs
    distributed over the 2-type classes by ``composition``."""

    i: int
    j: int
    exponent: int
    class_counts: tuple[int, ...]
    class_profiles: tuple[tuple[int, ...], ...]
    class_vtypes: tuple[tuple[int, ...], ...]
    composition: tuple[int, ...]


@dataclass(frozen=True)
class Cell:
    """One enumerated statistics cell: a k-vector over live 1-types plus a
    class composition for every pair of used types."""

    types: tuple[int, ...]
    counts: tuple[int, ...]
    u: int
    pairs: tuple[PairTerm, ...]
    stats: dict[str, int]
    sign: int
    divisor: int

    def k_dense(self) -> tuple[int, ...]:
        dense = [0] * (1 << self.u)
        for t, c in zip(self.types, self.counts):
            dense[t] = c
        return tuple(dense)


def term_value(cell: Cell, n: int) -> int:
    """Unsigned, unweighted value of one cell: the multinomial for the
    k-vector times, per pair, the composition multinomial and the class
    sizes raised to their share.  Collapsed pairs (one class) reduce to
    n_ij ** exponent."""
    out = multinomial(n, cell.counts)
    for pt in cell.pairs:
        out *= multinomial(pt.exponent, pt.composition)
        for c, h in zip(pt.class_counts, pt.composition):
            out *= c ** h
    return out


def pair_classes(ctx: _Context, i: int, j: int):
    """Satisfying 2-types of the pair (i <= j), grouped by their
    contribution profile: (profiles, counts, members).  The class weights
    of a context without literal weights are the class sizes."""
    return ctx.classes_for_mask(ctx.tables.mask(i, j))[:3]


def enumerate_kh(program: CountingProgram, tables: TypeTables, n: int,
                 weight=None, per_v: bool = False,
                 counters: Optional[Counters] = None) -> Iterator[Cell]:
    """Stream every statistics cell of the program that satisfies its
    constraints.

    Grouped mode (the default) enumerates compositions over 2-type
    classes; ``per_v`` splits every satisfying 2-type into its own class,
    which is exponentially redundant and exists to cross-check the
    grouping.  Cells carry the statistics view, the sign, and the divisor,
    so ``sum(sign * w(stats) * term_value(cell, n) / divisor)`` is the
    program value.
    """
    # no literal weights reach the context; their predicates are tracked
    tracked = (tuple(weight.referenced_preds()) if weight is not None else ()) \
        + program.sign_preds + tuple(p for p, _m in program.divisors)
    ctx = _Context(replace(program, sign_preds=(), divisors=()), tables, n,
                   None, tracked)
    counters = counters if counters is not None else Counters()
    alive = tables.alive
    u = ctx.order.u
    sig = program.signature
    unary_constraints = [
        c for c in program.constraints
        if all(sig.arity(p) == 1 for p in constraint_preds(c))]

    def pair_ok(a, b):
        return tables.mask(min(a, b), max(a, b)) != 0

    def self_ok(a):
        return tables.mask(a, a) != 0

    for support, counts in _k_stream(alive, n, pair_ok, self_ok, counters):
        counters.k_vectors += 1
        types = tuple(alive[p] for p in support)
        base_stats = ctx.stats_from_k(types, counts)
        if not all(constraint_holds(c, base_stats) for c in unary_constraints):
            counters.pruned += 1
            continue
        sign = (-1) ** sum(base_stats[p] for p in program.sign_preds)
        divisor = prod(factorial(m) ** base_stats[p] for p, m in program.divisors)

        pair_specs = []
        for a in range(len(types)):
            for b in range(a, len(types)):
                e = pair_exponent(counts[a], counts[b], a == b)
                if e == 0:
                    continue
                i, j = types[a], types[b]
                profiles, cls_counts, members = pair_classes(ctx, i, j)
                if per_v:
                    profiles = tuple(p for p, vs in zip(profiles, members)
                                     for _v in vs)
                    members = tuple((v,) for vs in members for v in vs)
                    cls_counts = (1,) * len(members)
                pair_specs.append((i, j, e, cls_counts, profiles, members))

        for combo in itertools.product(
                *[compositions(e, len(cc)) for _i, _j, e, cc, _p, _m in pair_specs]):
            svec = [0] * ctx.dim
            pairs = []
            for (i, j, e, cc, profiles, members), h in zip(pair_specs, combo):
                for prof, share in zip(profiles, h):
                    for d in range(ctx.dim):
                        svec[d] += prof[d] * share
                pairs.append(PairTerm(i, j, e, cc, profiles, members, h))
            stats = ctx.add_cross(base_stats, svec)
            if not all(constraint_holds(c, stats) for c in program.constraints):
                counters.pruned += 1
                continue
            counters.cells += 1
            yield Cell(types, counts, u, tuple(pairs), stats, sign, divisor)


def stream_value(program: CountingProgram, tables: TypeTables, n: int,
                 weight=None, per_v: bool = False) -> Fraction:
    """Program value summed cell by cell over :func:`enumerate_kh`; the
    same number :func:`liftcount.engine.evaluate` computes."""
    total = Fraction(0)
    for cell in enumerate_kh(program, tables, n, weight, per_v=per_v):
        w = weight.value(cell.stats, n) if weight is not None else 1
        total += Fraction(cell.sign * term_value(cell, n) * w, cell.divisor)
    return total
