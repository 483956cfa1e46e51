"""Exact summation engine: k-vector enumeration, grouped 2-type
statistics, and the signed weighted closed form for a compiled program.

The value of a program is a sum over statistics cells.  A cell fixes how
many domain elements carry each live 1-type (the k-vector) and, for every
unordered pair of elements, which 2-type class their cross atoms realize.
Summing the per-class multinomials in closed form (the multinomial
theorem) collapses classes that carry no tracked statistic, which is what
keeps the whole computation polynomial in the domain size.  Literal
weights, Skolem signs and count divisors weigh 1-types and 2-types; only
constraints, table weights and distribution queries are tracked.

Everything is exact: counts are arbitrary-precision integers, weighted
results are fractions, and no enumeration order can change the total.
The explicit cell-by-cell enumerations that cross-check this evaluator
live in :mod:`liftcount.reference`.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Iterator, Optional

from .celltypes import TypeTables
from .formula import CardAnd, CardComparison, CardNot, CardOr, constraint_preds
from .transform import CountingProgram


def multinomial(n: int, parts) -> int:
    """Exact multinomial coefficient n! / prod(parts!); parts must sum to n."""
    parts = tuple(parts)
    if sum(parts) != n:
        raise ValueError(f"parts {parts} do not sum to {n}")
    out = 1
    remaining = n
    for p in parts:
        out *= comb(remaining, p)
        remaining -= p
    return out


def compositions(total: int, bins: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``bins`` nonnegative integers summing to ``total``."""
    if bins == 0:
        if total == 0:
            yield ()
        return
    if bins == 1:
        yield (total,)
        return
    for value in range(total + 1):
        for rest in compositions(total - value, bins - 1):
            yield (value,) + rest


def pair_exponent(ki: int, kj: int, same: bool) -> int:
    """Number of element pairs between two 1-type blocks: ki*kj across
    blocks, (ki choose 2) within one."""
    return ki * (ki - 1) // 2 if same else ki * kj


@dataclass
class Counters:
    k_vectors: int = 0
    pruned: int = 0
    cells: int = 0

    def as_dict(self):
        return {"k_vectors": self.k_vectors, "pruned": self.pruned,
                "cells": self.cells}


# ---------------------------------------------------------------------------
# Cardinality constraints, compiled for interval evaluation
# ---------------------------------------------------------------------------

_NEGATE = {"=": "!=", "!=": "=", "<=": ">", ">": "<=", ">=": "<", "<": ">="}


class _Constraints:
    """A program's cardinality constraints, compiled once per context.

    Every comparison becomes a linear leaf ``(terms, weights, op, bound)``:
    its value is a constant read from the k-determined statistics plus,
    per tracked dimension, a weight times that dimension's cross
    contribution.  Negations are pushed into the leaf operators, so each
    constraint is a tree of and/or nodes over leaves, and the three-valued
    question "can it still hold somewhere in this box?" needs only its
    can-be-true half: a leaf can hold when its value range meets the
    bound, an and-node when both children can, an or-node when either
    can.  On a point box (lo == hi) the answer is the exact truth value.
    """

    def __init__(self, constraints, dims: dict[str, int], ndim: int):
        self.leaves: list[tuple] = []
        roots = [self._compile(c, False, dims, ndim) for c in constraints]
        # a constraint without tracked leaves is settled by the k-vector
        # alone; only the others tell the cells of one k-vector apart
        tracked = [any(any(self.leaves[i][1]) for i in self._leaf_ids(root))
                   for root in roots]
        self.cell_roots = tuple(r for r, t in zip(roots, tracked) if t)
        self.cell_leaves = tuple(i for root in self.cell_roots
                                 for i in self._leaf_ids(root))
        self.settled = self._check(r for r, t in zip(roots, tracked) if not t)
        self.admits = self._check(self.cell_roots)

    def _compile(self, c, negate: bool, dims, ndim):
        if isinstance(c, CardComparison):
            wvec = [0] * ndim
            for coef, pred in c.terms:
                if pred in dims:
                    wvec[dims[pred]] += coef
            op = _NEGATE[c.op] if negate else c.op
            self.leaves.append((c.terms, tuple(wvec), op, c.bound))
            return len(self.leaves) - 1
        if isinstance(c, CardNot):
            return self._compile(c.body, not negate, dims, ndim)
        if isinstance(c, (CardAnd, CardOr)):
            return (isinstance(c, CardAnd) != negate,
                    self._compile(c.left, negate, dims, ndim),
                    self._compile(c.right, negate, dims, ndim))
        raise TypeError(f"not a constraint node: {c!r}")

    def _leaf_ids(self, node) -> list[int]:
        if type(node) is int:
            return [node]
        return self._leaf_ids(node[1]) + self._leaf_ids(node[2])

    def _check(self, roots):
        """One function ``(lo, hi, s) -> bool`` for all of ``roots``,
        generated from our own constraint tree."""
        source = " and ".join(f"({self._source(root)})" for root in roots)
        return eval(f"lambda lo, hi, s: {source or True}", {})  # noqa: S307

    def _source(self, node) -> str:
        """Can-be-true expression over the per-leaf ranges ``lo``/``hi``
        of :meth:`box`, moved by the cross contribution vector ``s``."""
        if type(node) is not int:
            is_and, left, right = node
            return (f"({self._source(left)}) {'and' if is_and else 'or'} "
                    f"({self._source(right)})")
        _t, wvec, op, bound = self.leaves[node]
        dot = "".join(f" + {w} * s[{d}]" for d, w in enumerate(wvec) if w)
        lo, hi = f"(lo[{node}]{dot})", f"(hi[{node}]{dot})"
        return {"<=": f"{lo} <= {bound}", ">=": f"{hi} >= {bound}",
                "<": f"{lo} < {bound}", ">": f"{hi} > {bound}",
                "=": f"{lo} <= {bound} <= {hi}",
                "!=": f"not ({lo} == {hi} == {bound})"}[op]

    def consts(self, stats) -> tuple[int, ...]:
        """Per-leaf value at zero cross contribution.  ``stats`` holds the
        k-determined cardinalities: unary predicates and the diagonal part
        of binary ones."""
        return tuple(sum(coef * stats[pred] for coef, pred in terms)
                     for terms, _w, _op, _b in self.leaves)

    def box(self, consts, lo, hi) -> tuple[list[int], list[int]]:
        """Per-leaf value ranges (lows, highs) when the cross contributions
        range over the box [lo, hi]."""
        lows, highs = [], []
        for const, (_t, wvec, _op, _b) in zip(consts, self.leaves):
            a = b = const
            for w, x, y in zip(wvec, lo, hi):
                if w > 0:
                    a += w * x
                    b += w * y
                elif w < 0:
                    a += w * y
                    b += w * x
            lows.append(a)
            highs.append(b)
        return lows, highs


# ---------------------------------------------------------------------------
# Evaluation context: tracked statistics, constraints, type merging
# ---------------------------------------------------------------------------

class _Context:
    """Preprocessed view of (program, tables, weight) for one domain size.
    A ``program`` of None stands for the pure universal kernel the tables
    were built from: no constraints, signs or divisors.  A weight with
    ``entries`` lists literal weights, as signs and divisors are; any other
    weight is a function of tracked statistics, evaluated per cell."""

    def __init__(self, program: Optional[CountingProgram], tables: TypeTables,
                 n: int, weight=None, group_preds=()):
        self.program = program
        self.tables = tables
        self.n = n
        self.order = tables.order
        literals = list(getattr(weight, "entries", ()))
        self.weight = weight
        self.cell_weight = None if hasattr(weight, "entries") else weight
        self.group_preds = tuple(group_preds)
        constraints = ()
        if program is not None:
            constraints = program.constraints
            literals += [(p, 1, -1, 1) for p in program.sign_preds]
            literals += [(p, 1, Fraction(1, factorial(m)), 1)
                         for p, m in program.divisors]

        # integer literal weights over one denominator: w**c * wbar**(N - c)
        # = (w d)**c * (wbar d)**(N - c) / d**N over the N = n**arity ground
        # atoms; diagonal atoms sit on the 1-type, the others on 2-types
        self.denominator = 1
        self._type_literals, self._pair_literals = [], []
        for pred, arity, w, wbar in literals:
            w, wbar = Fraction(w), Fraction(wbar)
            d = lcm(w.denominator, wbar.denominator)
            self.denominator *= d ** (n ** arity)
            ints = (int(w * d), int(wbar * d))
            self._type_literals.append(
                (self.order.unary_pos(pred, arity == 2),) + ints)
            if arity == 2:
                self._pair_literals += [(self.order.binary_pos(pred, swapped),)
                                        + ints for swapped in (False, True)]

        referenced: list[str] = []
        for c in constraints:
            referenced.extend(constraint_preds(c))
        if self.cell_weight is not None:
            referenced.extend(self.cell_weight.referenced_preds())
        referenced.extend(self.group_preds)
        referenced = list(dict.fromkeys(referenced))

        binary = {atom.pred for atom in self.order.binary_atoms}
        self.tracked_binary = tuple(p for p in referenced if p in binary)
        self.stat_unary = tuple(
            (p, self.order.unary_pos(p, False))
            for p in referenced if p not in binary)
        # per tracked binary: diagonal slot plus its dimension index
        self.stat_binary = tuple(
            (p, self.order.unary_pos(p, True), dim)
            for dim, p in enumerate(self.tracked_binary))
        self.stat_preds = (tuple(p for p, _pos in self.stat_unary)
                           + self.tracked_binary)
        self.dim = len(self.tracked_binary)
        self.constraints = _Constraints(
            constraints, {p: d for p, _pos, d in self.stat_binary}, self.dim)

        self._binary_positions = tuple(
            (self.order.binary_pos(p, False), self.order.binary_pos(p, True))
            for p in self.tracked_binary)
        # classes are a function of the satisfaction mask alone, and many
        # pairs share masks, so both caches key on values not pair indices
        self._class_cache: dict[int, tuple] = {}
        self._profile_cache: dict[int, tuple[int, ...]] = {}
        self._type_cache: dict[int, tuple] = {}
        self._pow_cache: dict[tuple[int, int], dict] = {}
        self._decode_cache: dict[int, tuple[int, ...]] = {}
        # runs without per-cell weights or grouping reduce a k-vector to an
        # integer cell sum that depends only on the pair-spec multiset and
        # the leaf constants; distinct k-vectors share those heavily
        self._cellsum_cache: dict[tuple, int] = {}
        self.scalar_cells = self.cell_weight is None and not self.group_preds
        # statistic vectors ride through the polynomial fold as one
        # radix-encoded integer; 2 per element pair bounds every dimension
        self.radix = max(n * (n - 1), 1) + 1
        self._radix_weights = tuple(self.radix ** d for d in range(self.dim))

    # -- per-1-type scalar attributes -------------------------------------

    def type_attrs(self, t: int) -> tuple:
        """(integer weight, statistic bits in ``stat_preds`` order) of a
        1-type, cached; per-k work is a few dot products over these."""
        hit = self._type_cache.get(t)
        if hit is None:
            bit = self.order.unary_bit
            hit = (_literal_weight(self._type_literals, bit, t),
                   tuple(bit(t, pos) for _p, pos in self.stat_unary)
                   + tuple(bit(t, pos) for _p, pos, _d in self.stat_binary))
            self._type_cache[t] = hit
        return hit

    def profile_of_v(self, v: int) -> tuple[int, ...]:
        hit = self._profile_cache.get(v)
        if hit is None:
            hit = tuple(self.order.binary_bit(v, l) + self.order.binary_bit(v, r)
                        for l, r in self._binary_positions)
            self._profile_cache[v] = hit
        return hit

    def encode(self, svec) -> int:
        return sum(x * w for x, w in zip(svec, self._radix_weights))

    def decode(self, enc: int) -> tuple[int, ...]:
        hit = self._decode_cache.get(enc)
        if hit is None:
            out = []
            rest = enc
            for _ in range(self.dim):
                rest, r = divmod(rest, self.radix)
                out.append(r)
            hit = tuple(out)
            self._decode_cache[enc] = hit
        return hit

    def pair_power(self, mask: int, e: int) -> dict:
        key = (mask, e)
        hit = self._pow_cache.get(key)
        if hit is None:
            hit = _poly_pow(self.classes_for_mask(mask)[3], e)
            self._pow_cache[key] = hit
        return hit

    def classes_for_mask(self, mask: int):
        """(profiles, weights, members, poly, per-dim minima, per-dim
        maxima) for one satisfaction mask, cached.  A profile's weight is
        the sum of its 2-types' integer cross weights."""
        hit = self._class_cache.get(mask)
        if hit is not None:
            return hit
        grouped: dict[tuple[int, ...], list[int]] = {}
        m = mask
        v = 0
        while m:
            if m & 1:
                grouped.setdefault(self.profile_of_v(v), []).append(v)
            m >>= 1
            v += 1
        items = sorted(grouped.items())
        profiles = tuple(p for p, _ in items)
        weights = tuple(sum(_literal_weight(self._pair_literals,
                                            self.order.binary_bit, v)
                            for v in vs) for _, vs in items)
        members = tuple(tuple(vs) for _, vs in items)
        if profiles:
            mins = tuple(min(p[d] for p in profiles) for d in range(self.dim))
            maxs = tuple(max(p[d] for p in profiles) for d in range(self.dim))
        else:
            mins = maxs = (0,) * self.dim
        enc_poly = {self.encode(p): w for p, w in zip(profiles, weights)}
        out = (profiles, weights, members, enc_poly, mins, maxs)
        self._class_cache[mask] = out
        return out

    # -- statistics --------------------------------------------------------

    def stats_from_k(self, types, counts) -> dict[str, int]:
        """Tracked cardinalities determined by the k-vector alone: unary
        predicates plus the diagonal part of tracked binary ones."""
        acc = [0] * len(self.stat_preds)
        for t, c in zip(types, counts):
            for idx, bit in enumerate(self.type_attrs(t)[1]):
                acc[idx] += bit * c
        return dict(zip(self.stat_preds, acc))

    def add_cross(self, stats: dict[str, int], svec) -> dict[str, int]:
        out = dict(stats)
        for pred, _pos, dim in self.stat_binary:
            out[pred] += svec[dim]
        return out

    # -- 1-type merging ----------------------------------------------------

    def merged_groups(self) -> list[tuple[int, ...]]:
        """Partition the live 1-types into interchangeability classes.

        Two types merge when they agree on their statistic bits and their
        rows of satisfaction masks against all live types are identical;
        distributing c elements within a class then collapses to the c-th
        power of the members' summed integer weights, exactly.
        """
        alive = self.tables.alive
        rows: dict[tuple, list[int]] = {}
        for a in alive:
            # mask equality implies class equality, and comparing integer
            # rows is much cheaper than building every class partition
            row = tuple(self.tables.mask(min(a, t), max(a, t)) for t in alive)
            rows.setdefault((self.type_attrs(a)[1], row), []).append(a)
        return [tuple(members) for _key, members in
                sorted(rows.items(), key=lambda kv: kv[1][0])]


def _literal_weight(literals, bit, x: int) -> int:
    """Product over ``(pos, w, wbar)`` of w if bit ``pos`` of x, else wbar."""
    out = 1
    for pos, w, wbar in literals:
        out *= w if bit(x, pos) else wbar
    return out


# ---------------------------------------------------------------------------
# Statistic polynomials: dict from cross-contribution vector to integer
# coefficient
# ---------------------------------------------------------------------------

def _poly_mul(p: dict, q: dict) -> dict:
    """Convolution of statistic polynomials.  Keys are radix-encoded
    statistic vectors (one integer), so key addition is plain addition."""
    if len(p) > len(q):
        p, q = q, p
    out: dict = {}
    get = out.get
    for ka, va in p.items():
        for kb, vb in q.items():
            key = ka + kb
            out[key] = get(key, 0) + va * vb
    return out


def _poly_pow(p: dict, e: int) -> dict:
    if len(p) == 1:
        ((prof, c),) = p.items()
        return {prof * e: c ** e}
    out = {0: 1}
    base = p
    while e:
        if e & 1:
            out = _poly_mul(out, base)
        e >>= 1
        if e:
            base = _poly_mul(base, base)
    return out


# ---------------------------------------------------------------------------
# k-vector streams
# ---------------------------------------------------------------------------

def _k_stream(units, n: int, pair_alive, self_alive, counters: Counters):
    """Sparse k-vectors over ``units``: yields (positions, counts) with all
    counts positive and sum n.

    At most n positions can be positive, so supports are enumerated first
    (a recursion of depth <= n rather than one over all units) and the
    remaining mass distributed afterwards.  ``pair_alive(a, b)`` must be
    False only when every term containing both units with positive count
    vanishes; ``self_alive(a)`` likewise for two elements of one unit.
    """
    m = len(units)
    if m == 0:
        return
    max_s = min(n, m)

    def supports(start: int, chosen: list[int]):
        if chosen:
            yield tuple(chosen)
        if len(chosen) == max_s:
            return
        for idx in range(start, m):
            if all(pair_alive(units[p], units[idx]) for p in chosen):
                chosen.append(idx)
                yield from supports(idx + 1, chosen)
                chosen.pop()
            else:
                counters.pruned += 1

    for support in supports(0, []):
        s = len(support)
        fat = [p for p in range(s) if not self_alive(units[support[p]])]
        for extra in compositions(n - s, s):
            if any(extra[p] for p in fat):
                counters.pruned += 1
                continue
            yield support, tuple(1 + e for e in extra)


def _group_stream(tables: TypeTables, groups, n: int, counters: Counters):
    def rep_pair_ok(ga, gb):
        return tables.mask(min(ga[0], gb[0]), max(ga[0], gb[0])) != 0

    def rep_self_ok(g):
        # two elements of one group always sit on a (rep, rep)-shaped pair
        return tables.mask(g[0], g[0]) != 0

    return _k_stream(groups, n, rep_pair_ok, rep_self_ok, counters)


# ---------------------------------------------------------------------------
# Evaluation: per-pair polynomial folding over merged types
# ---------------------------------------------------------------------------

def _run_merged(ctx: _Context, groups, kvecs, counters: Counters,
                collect: dict, progress=None):
    """Add the contributions of the group compositions ``kvecs`` to
    ``collect``, keyed on the cardinality tuple of the group predicates."""
    for support, counts in kvecs:
        _run_one_k(ctx, groups, support, counts, counters, collect)
        if progress is not None and counters.k_vectors % 25000 == 0:
            progress(counters)


def _run_one_k(ctx, groups, support, counts, counters, collect):
    """Add the weighted contribution of one group composition, times the
    context's denominator, to ``collect``: an int unless a per-cell weight
    makes it a Fraction."""
    counters.k_vectors += 1
    n = ctx.n
    dim = ctx.dim
    tables = ctx.tables
    types = tuple(groups[g][0] for g in support)
    base_stats = ctx.stats_from_k(types, counts)
    cons = ctx.constraints
    consts = cons.consts(base_stats)
    if not cons.settled(consts, consts, ()):
        counters.pruned += 1
        return

    pair_specs = []
    for a in range(len(types)):
        for b in range(a, len(types)):
            e = pair_exponent(counts[a], counts[b], a == b)
            if e == 0:
                continue
            mask = tables.mask(min(types[a], types[b]), max(types[a], types[b]))
            profiles, _counts, _members, _poly, mins, maxs = \
                ctx.classes_for_mask(mask)
            if not profiles:
                counters.pruned += 1
                return
            lo = mins if e == 1 else tuple(e * x for x in mins)
            hi = maxs if e == 1 else tuple(e * x for x in maxs)
            pair_specs.append((mask, e, lo, hi))

    def span(specs):
        return (tuple(sum(lo[d] for _m, _e, lo, _h in specs) for d in range(dim)),
                tuple(sum(hi[d] for _m, _e, _l, hi in specs) for d in range(dim)))

    zeros = (0,) * dim
    prune = bool(cons.cell_roots)
    if prune and not cons.admits(*cons.box(consts, *span(pair_specs)), zeros):
        counters.pruned += 1
        return
    decode = ctx.decode

    def cells():
        """Passing (cross statistic vector, coefficient) pairs."""
        # small powers first so the filters bite while the poly is small
        pair_specs.sort(key=lambda spec: len(ctx.pair_power(spec[0], spec[1])))
        poly = {0: 1}
        for idx, (mask, e, _lo, _hi) in enumerate(pair_specs):
            poly = _poly_mul(poly, ctx.pair_power(mask, e))
            if prune and len(poly) > 24:
                lo, hi = cons.box(consts, *span(pair_specs[idx + 1:]))
                poly = {enc: coef for enc, coef in poly.items()
                        if cons.admits(lo, hi, decode(enc))}
        for enc, coefficient in poly.items():
            svec = decode(enc)
            if not prune or cons.admits(consts, consts, svec):
                counters.cells += 1
                yield svec, coefficient

    base = multinomial(n, counts)
    for g, c in zip(support, counts):
        base *= sum(ctx.type_attrs(t)[0] for t in groups[g]) ** c

    if ctx.scalar_cells:
        # without per-cell weights only the integer sum over cells counts
        key = (tuple(sorted(spec[:2] for spec in pair_specs)),
               tuple(consts[i] for i in cons.cell_leaves))
        cellsum = ctx._cellsum_cache.get(key)
        if cellsum is None:
            cellsum = sum(coefficient for _svec, coefficient in cells())
            if dim:
                ctx._cellsum_cache[key] = cellsum
        if cellsum == 0:
            counters.pruned += 1
            return
        collect[()] = collect.get((), 0) + base * cellsum
        return

    for svec, coefficient in cells():
        stats = ctx.add_cross(base_stats, svec)
        term = base * coefficient
        if ctx.cell_weight is not None:
            term *= ctx.cell_weight.value(stats, n)
        key = tuple(stats[p] for p in ctx.group_preds)
        collect[key] = collect.get(key, 0) + term


def _evaluate(ctx: _Context, threads: int, counters: Optional[Counters],
              progress=None):
    """Partial sums of one context, keyed on the cardinality tuple of its
    group predicates (the empty tuple when there are none)."""
    counters = counters if counters is not None else Counters()
    collect: dict = {}
    groups = ctx.merged_groups()
    kvecs = _group_stream(ctx.tables, groups, ctx.n, counters)
    if threads > 1 and len(groups) > 1:
        _evaluate_parallel(ctx, groups, list(kvecs), threads, counters, collect)
    else:
        _run_merged(ctx, groups, kvecs, counters, collect, progress)
    return {key: Fraction(val, ctx.denominator) for key, val in collect.items()}


def evaluate(program: CountingProgram, tables: TypeTables, n: int,
             weight=None, threads: int = 1,
             counters: Optional[Counters] = None, progress=None) -> Fraction:
    """Exact value of a compiled program on a domain of size n.

    For an unweighted program this is the model count of the source
    sentence: the signed terms cancel so the result is a nonnegative
    integer-valued Fraction.  The sum runs over merged 1-type groups with
    per-pair polynomial folding; the explicit enumerations of
    :mod:`liftcount.reference` compute the same value cell by cell.
    """
    parts = _evaluate(_Context(program, tables, n, weight), threads,
                      counters, progress)
    return parts.get((), Fraction(0))


def evaluate_grouped(program: CountingProgram, tables: TypeTables, n: int,
                     weight=None, group_preds=(), threads: int = 1,
                     counters: Optional[Counters] = None) -> dict:
    """Like :func:`evaluate`, but split the sum by the cardinality tuple of
    ``group_preds``.  Values are the signed weighted partial sums; they
    add up to the total program value."""
    return _evaluate(_Context(program, tables, n, weight, group_preds),
                     threads, counters)


def fomc_universal(tables: TypeTables, n: int,
                   counters: Optional[Counters] = None) -> int:
    """Model count of a pure universal sentence on a domain of size n,
    from its tables alone: the multinomial sum over k-vectors with per-pair
    n_ij powers, which is :func:`evaluate` with nothing tracked."""
    return int(_evaluate(_Context(None, tables, n), 1, counters).get((), 0))


# ---------------------------------------------------------------------------
# Parallel driver
# ---------------------------------------------------------------------------

def _chunk_worker(args):
    program, tables, n, weight, group_preds, groups, chunk = args
    ctx = _Context(program, tables, n, weight, group_preds)
    counters, collect = Counters(), {}
    _run_merged(ctx, groups, chunk, counters, collect)
    return collect, counters


def _evaluate_parallel(ctx, groups, all_ks, threads, counters, collect):
    chunks = [all_ks[i::threads] for i in range(threads)]
    jobs = [(ctx.program, ctx.tables, ctx.n, ctx.weight, ctx.group_preds,
             groups, chunk) for chunk in chunks if chunk]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        for part_collect, part in pool.map(_chunk_worker, jobs):
            counters.k_vectors += part.k_vectors
            counters.pruned += part.pruned
            counters.cells += part.cells
            for key, val in part_collect.items():
                collect[key] = collect.get(key, 0) + val


# the explicit enumerations live in reference.py; they stay reachable here
from .reference import (Cell, PairTerm, enumerate_kh,  # noqa: E402,F401
                        pair_classes, stream_value, term_value)
