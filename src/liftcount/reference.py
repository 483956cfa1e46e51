"""Reference path: the paper's explicit enumerations, for verification only.

:mod:`liftcount.engine` folds every pair of merged 1-types into a
statistic polynomial.  This module spells the same sum out cell by cell:
every k-vector over the unmerged live 1-types, and for every pair of used
types every composition of its element pairs over the 2-type classes (or,
with ``per_v``, over the single 2-types).  It tracks the weighted, sign
and divisor predicates that the engine folds into type weights as
statistics, and applies the paper's factors for them per cell.  It is
exponentially slower and exists so the tests can compare the two exactly.
Its statistics and 2-type classes come from the satisfaction tables, not
from the engine's caches, so a fault there cannot repeat on this side.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from typing import Iterator, Optional

from .celltypes import TypeTables
from .engine import Counters, _k_stream, multinomial, pair_exponent
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


def compositions(total: int, bins: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``bins`` nonnegative integers summing to ``total``."""
    if bins <= 1:
        if bins or total == 0:
            yield (total,) * bins
        return
    for value in range(total + 1):
        for rest in compositions(total - value, bins - 1):
            yield (value,) + rest


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


def pair_classes(tables: TypeTables, binary, i: int, j: int):
    """Satisfying 2-types of the pair (i <= j), grouped by their profile:
    per predicate of ``binary``, how many of R(x,y) and R(y,x) the 2-type
    sets.  Returns (profiles, class sizes, members), sorted by profile."""
    order = tables.order
    bit = order.binary_bit
    positions = [(order.binary_pos(p, False), order.binary_pos(p, True))
                 for p in binary]
    grouped: dict[tuple[int, ...], list[int]] = {}
    for v in tables.satisfying_vtypes(i, j):
        profile = tuple(bit(v, l) + bit(v, r) for l, r in positions)
        grouped.setdefault(profile, []).append(v)
    items = sorted(grouped.items())
    return (tuple(p for p, _vs in items), tuple(len(vs) for _p, vs in items),
            tuple(tuple(vs) for _p, vs in items))


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
    # every predicate the constraints, the weight, the signs or the
    # divisors read is a statistic; a binary one also counts cross atoms,
    # and its k-determined part is its diagonal R(x,x)
    sig, order = program.signature, tables.order
    preds = tuple(dict.fromkeys(
        [p for c in program.constraints for p in constraint_preds(c)]
        + list(weight.referenced_preds() if weight is not None else ())
        + list(program.sign_preds) + [p for p, _m in program.divisors]))
    binary = tuple(p for p in preds if sig.arity(p) == 2)
    positions = [order.unary_pos(p, p in binary) for p in preds]
    counters = counters if counters is not None else Counters()
    alive = tables.alive
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
        base_stats = {p: sum(order.unary_bit(t, pos) * c
                             for t, c in zip(types, counts))
                      for p, pos in zip(preds, positions)}
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
                profiles, cls_counts, members = pair_classes(tables, binary, i, j)
                if per_v:
                    profiles = tuple(p for p, vs in zip(profiles, members)
                                     for _v in vs)
                    members = tuple((v,) for vs in members for v in vs)
                    cls_counts = (1,) * len(members)
                pair_specs.append((i, j, e, cls_counts, profiles, members))

        for combo in itertools.product(
                *[compositions(e, len(cc)) for _i, _j, e, cc, _p, _m in pair_specs]):
            stats = dict(base_stats)
            pairs = []
            for (i, j, e, cc, profiles, members), h in zip(pair_specs, combo):
                for prof, share in zip(profiles, h):
                    for p, x in zip(binary, prof):
                        stats[p] += x * share
                pairs.append(PairTerm(i, j, e, cc, profiles, members, h))
            if not all(constraint_holds(c, stats) for c in program.constraints):
                counters.pruned += 1
                continue
            counters.cells += 1
            yield Cell(types, counts, order.u, tuple(pairs), stats, sign, divisor)


def stream_value(program: CountingProgram, tables: TypeTables, n: int,
                 weight=None, per_v: bool = False) -> Fraction:
    """Program value summed cell by cell over :func:`enumerate_kh`; the
    same number :func:`liftcount.engine.evaluate` computes."""
    total = Fraction(0)
    for cell in enumerate_kh(program, tables, n, weight, per_v=per_v):
        w = weight.value(cell.stats, n) if weight is not None else 1
        total += Fraction(cell.sign * term_value(cell, n) * w, cell.divisor)
    return total
