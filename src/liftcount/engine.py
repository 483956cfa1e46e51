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

A k-vector's cells are the terms of a product over pairs of 1-type
blocks, one power of the pair's class polynomial each.  That polynomial
depends on the pair's satisfaction mask alone, so the exponents of block
pairs with equal masks are collected first, and the product takes one
power per distinct mask.  With nothing tracked a k-vector is one cell and
each polynomial one integer: the product is built as one power per
distinct odd base, shifted by the bases' powers of two.  Tracked
statistics fold the polynomials, with one cached, capped power per mask
(:meth:`_Context.pair_power`).  The caps cut no term the constraints
accept, since profiles are nonnegative, so the capped power of a summed
exponent is the capped product of the separate powers.

The constraints bound the work in three places.  The k-vector stream
cuts every partial composition that already breaks a conjunctive upper
bound on its k-determined counts (:meth:`_Context.stream_bounds`).  A
k-vector is dropped before its fold when some constraint fails on every
value its leaves can take, each pair adding one profile of its mask
(the per-leaf ranges of :meth:`_Context.classes_for_mask`).  And the
polynomial fold builds no coefficient beyond the per-dimension caps that
the constraint tree puts on a k-vector's cross statistics
(:meth:`_Constraints.caps`).  All three drop only terms that no
constraint can accept, so none changes a result.

Everything is exact: counts are arbitrary-precision integers, weighted
results are fractions, and no enumeration order can change the total.
The explicit cell-by-cell enumerations that cross-check this evaluator
live in :mod:`liftcount.reference`, which derives its own statistics and
2-type classes; this module does not import it.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm
from time import monotonic
from typing import Optional

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


def pair_exponent(ki: int, kj: int, same: bool) -> int:
    """Number of element pairs between two 1-type blocks: ki*kj across
    blocks, (ki choose 2) within one."""
    return ki * (ki - 1) // 2 if same else ki * kj


@dataclass
class Counters:
    """Work counts of one evaluation.

    ``k_vectors`` counts the group compositions that reached the per-k
    work.  ``pruned`` counts the cuts: partial supports and compositions
    the stream drops, k-vectors refuted by a settled constraint, an empty
    satisfaction mask or the leaf ranges, and cell sums of 0.
    ``cells`` counts the cells the folds built and the constraints
    accepted; an untracked k-vector is one cell.  A k-vector whose cell
    sum the cache already holds builds no fold and adds no cell, so
    ``cells`` can fall while the values stay the same.
    """

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
    question "can it still hold when each leaf ranges over [lo, hi]?"
    needs only its can-be-true half: a leaf can hold when its value range
    meets the bound, an and-node when both children can, an or-node when
    either can.  On point ranges (lo == hi) the answer is the exact truth
    value.

    The same tree bounds the fold from above (:meth:`_caps`) and, through
    its conjunctive leaves (:meth:`conjunctive_leaves`), the k-vector
    stream.
    """

    def __init__(self, constraints, dims: dict[str, int], ndim: int):
        self.leaves: list[tuple] = []
        self.roots = roots = [self._compile(c, False, dims, ndim)
                              for c in constraints]
        # a constraint without tracked leaves is settled by the k-vector
        # alone; only the others tell the cells of one k-vector apart
        tracked = [any(any(self.leaves[i][1]) for i in self._leaf_ids(root))
                   for root in roots]
        self.cell_roots = tuple(r for r, t in zip(roots, tracked) if t)
        self.cell_leaves = tuple(i for root in self.cell_roots
                                 for i in self._leaf_ids(root))
        self.settled = self._check(r for r, t in zip(roots, tracked) if not t)
        self.admits = self._check(self.cell_roots)
        self.caps = self._caps(ndim) if self.cell_roots else None

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
        """Can-be-true expression over the per-leaf value ranges
        ``lo``/``hi``, moved by the cross contribution vector ``s``."""
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

    def conjunctive_leaves(self) -> list[tuple]:
        """Leaves reachable from a root through and-nodes only: each must
        hold for the constraints to hold."""
        out, todo = [], list(self.roots)
        while todo:
            node = todo.pop()
            if type(node) is int:
                out.append(self.leaves[node])
            elif node[0]:
                todo += node[1:]
        return out

    def _caps(self, ndim: int):
        """One function ``(consts, lo, hi) -> caps``, generated from our
        own constraint tree: per-dimension upper bounds on the cross
        contribution of every cell the tracked constraints can accept,
        when dimension d ranges over [lo[d], hi[d]].

        Each leaf pushes its bound onto each dimension, with the other
        dimensions at their current extremes; an and-node takes the
        smaller of its children's caps, an or-node the larger.  Repeated
        until nothing tightens: one cap can tighten another, as
        ``|R| - |S| <= 0`` caps R only once ``|S| <= 3`` has capped S.
        Every cap is sound on its own, so the pass limit only costs
        tightness.
        """
        cs = "".join(f"c{d}, " for d in range(ndim))
        lines = ["def caps(k, lo, hi):", f"    {cs}= hi",
                 f"    {''.join(f'l{d}, ' for d in range(ndim))}= lo",
                 f"    for _ in range({ndim + 2}):", f"        old = {cs}"]
        for root in self.cell_roots:
            lines.append(f"        {cs}= " + "".join(
                f"min(c{d}, {e}), " for d, e in enumerate(self._cap_source(root))))
        lines += ["        if old == (" + cs + ") or " + " or ".join(
                      f"c{d} < l{d}" for d in range(ndim)) + ":",
                  "            break", f"    return [{cs}]"]
        namespace: dict = {}
        exec("\n".join(lines), namespace)  # noqa: S102
        return namespace["caps"]

    def _cap_source(self, node) -> list[str]:
        """Per-dimension cap expressions of a node over the current caps
        ``c<d>``, the lows ``l<d>`` and the leaf constants ``k``."""
        if type(node) is not int:
            is_and, left, right = node
            join = "min" if is_and else "max"
            return [f"{join}({x}, {y})" for x, y in
                    zip(self._cap_source(left), self._cap_source(right))]
        _t, wvec, op, bound = self.leaves[node]
        rows = []  # a . s <= room over the cross contributions s
        if op in ("<=", "<", "="):
            rows.append((wvec, f"{bound - (op == '<')} - k[{node}]"))
        if op in (">=", ">", "="):
            rows.append(([-w for w in wvec],
                         f"k[{node}] - {bound + (op == '>')}"))
        out = [[f"c{d}"] for d in range(len(wvec))]
        for a, room in rows:
            for d, w in enumerate(a):
                if w > 0:
                    # the other dimensions at the ends that leave d most room
                    rest = "".join(f" - ({x}) * {'l' if x > 0 else 'c'}{e}"
                                   for e, x in enumerate(a) if x and e != d)
                    out[d].append(f"({room}{rest}) // {w}")
        return [f"min({', '.join(b)})" if len(b) > 1 else b[0] for b in out]


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
        # pairs share masks, so the class cache keys on masks, not pairs
        self._class_cache: dict[int, tuple] = {}
        self._type_cache: dict[int, tuple] = {}
        self._pow_cache: dict[tuple[int, int], dict] = {}
        self._decode_cache: dict[int, tuple[int, ...]] = {}
        # runs without per-cell weights or grouping reduce a k-vector to an
        # integer cell sum that depends only on the pair-spec multiset and
        # the leaf constants; distinct k-vectors share those heavily
        self._cellsum_cache: dict[tuple, int] = {}
        self.scalar_cells = self.cell_weight is None and not self.group_preds
        # statistic vectors ride through the polynomial fold as one integer
        # of ``bits``-wide fields.  2 per element pair keeps every dimension
        # below half a field, so adding two capped keys never carries and
        # the top bit of each field is free for the cap test of _poly_mul
        self.bits = max(n * (n - 1), 1).bit_length() + 1
        self._high = sum(1 << (self.bits * (d + 1) - 1) for d in range(self.dim))

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

    def encode(self, svec) -> int:
        return sum(x << (self.bits * d) for d, x in enumerate(svec))

    def decode(self, enc: int) -> tuple[int, ...]:
        hit = self._decode_cache.get(enc)
        if hit is None:
            field = (1 << self.bits) - 1
            hit = tuple((enc >> (self.bits * d)) & field
                        for d in range(self.dim))
            self._decode_cache[enc] = hit
        return hit

    def cap_test(self, caps) -> tuple[int, int]:
        """``(guard, high)`` such that a key exceeds some of ``caps``
        exactly when ``(key + guard) & high``.  That holds while no field
        of the key passes half a field plus its cap, which the sum of two
        capped keys, or any statistic vector, cannot."""
        half = 1 << (self.bits - 1)
        return (sum((half - 1 - c) << (self.bits * d)
                    for d, c in enumerate(caps)), self._high)

    def pair_power(self, mask: int, e: int, caps=None) -> dict:
        """The e-th power of a mask's class polynomial, without the terms
        beyond ``caps``, for the polynomial fold of tracked statistics; e is
        the exponent summed over every pair of blocks with this mask.  A
        power the caps do not tighten is kept under its plain ``(mask, e)``
        key, so every k-vector shares it."""
        key = (mask, e)
        cap = (0, 0)
        poly, _lows, highs = self.classes_for_mask(mask)
        if caps is not None:
            full = tuple(e * x for x in highs[len(highs) - self.dim:])
            clamped = tuple(map(min, caps, full))
            if clamped != full:
                key, cap = (mask, e, clamped), self.cap_test(clamped)
        hit = self._pow_cache.get(key)
        if hit is None:
            hit = _poly_pow(poly, e, cap)
            self._pow_cache[key] = hit
        return hit

    def classes_for_mask(self, mask: int):
        """(poly, lows, highs) for one satisfaction mask, cached.  ``poly``
        maps each encoded profile (per tracked dimension, how many of R(x,y),
        R(y,x) a 2-type sets) to the summed integer cross weight of the
        mask's 2-types with that profile.  lows and highs range over the
        profiles, first of each leaf's weights times the profile, then of
        each dimension, so the last ``dim`` of highs are the maxima."""
        hit = self._class_cache.get(mask)
        if hit is not None:
            return hit
        bit = self.order.binary_bit
        poly: dict[int, int] = {}
        profiles = set()
        for v in range(mask.bit_length()):
            if mask >> v & 1:
                profile = tuple(bit(v, l) + bit(v, r)
                                for l, r in self._binary_positions)
                profiles.add(profile)
                key = self.encode(profile)
                poly[key] = poly.get(key, 0) + _literal_weight(
                    self._pair_literals, bit, v)
        dots = [[sum(w * x for w, x in zip(wvec, p)) for p in profiles] or [0]
                for _t, wvec, _op, _b in self.constraints.leaves]
        dots += [[p[d] for p in profiles] or [0] for d in range(self.dim)]
        out = (poly, tuple(map(min, dots)), tuple(map(max, dots)))
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

    def stream_bounds(self, groups) -> tuple:
        """Bounds ``(weights, budget)`` for :func:`_k_stream`: every
        conjunctive ``<=``, ``<`` or ``=`` leaf whose cross weights and
        per-group k-determined weights are all nonnegative, since its
        value is then at least ``sum(count * weight)`` over the groups."""
        index = {p: i for i, p in enumerate(self.stat_preds)}
        out = []
        for terms, wvec, op, bound in self.constraints.conjunctive_leaves():
            if op not in ("<=", "<", "=") or any(w < 0 for w in wvec):
                continue
            bits = [self.type_attrs(g[0])[1] for g in groups]
            weights = tuple(sum(coef * b[index[pred]] for coef, pred in terms)
                            for b in bits)
            if any(weights) and min(weights) >= 0:
                out.append((weights, bound - (op == "<")))
        return tuple(out)


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

def _poly_mul(p: dict, q: dict, cap=(0, 0)) -> dict:
    """Convolution of statistic polynomials.  Keys are field-encoded
    statistic vectors (one integer), so key addition is plain addition.
    Terms beyond the caps of ``cap`` (a :meth:`_Context.cap_test`; the
    default caps nothing) are never built.  That is exact for the final
    product: profiles are nonnegative, so a term that exceeds a cap only
    grows from there."""
    if len(p) > len(q):
        p, q = q, p
    guard, high = cap
    out: dict = {}
    get = out.get
    for ka, va in p.items():
        for kb, vb in q.items():
            key = ka + kb
            if not (key + guard) & high:
                out[key] = get(key, 0) + va * vb
    return out


def _poly_pow(p: dict, e: int, cap=(0, 0)) -> dict:
    guard, high = cap
    p = {k: v for k, v in p.items() if not (k + guard) & high}
    if len(p) == 1:
        ((prof, c),) = p.items()
        if (prof * e + guard) & high:
            return {}
        return {prof * e: c ** e}
    out = {0: 1}
    base = p
    while e:
        if e & 1:
            out = _poly_mul(out, base, cap)
        e >>= 1
        if e:
            base = _poly_mul(base, base, cap)
    return out


# ---------------------------------------------------------------------------
# k-vector streams
# ---------------------------------------------------------------------------

def _k_stream(units, n: int, pair_alive, self_alive, counters: Counters,
              bounds=()):
    """Sparse k-vectors over ``units``: yields (positions, counts) with all
    counts positive and sum n.

    At most n positions can be positive, so supports are enumerated first
    (a recursion of depth <= n rather than one over all units) and the
    remaining mass distributed afterwards.  ``pair_alive(a, b)`` must be
    False only when every term containing both units with positive count
    vanishes; ``self_alive(a)`` likewise for two elements of one unit.

    ``bounds`` lists upper bounds ``(weights, budget)``: only k-vectors
    with sum over positions of ``count * weights[unit]`` at most
    ``budget`` are wanted.  Weights are nonnegative, so a partial support
    or composition that already breaks a bound is cut, and counted as
    pruned.
    """
    m = len(units)
    if m == 0:
        return
    max_s = min(n, m)

    def supports(start: int, chosen: list[int], slack):
        if chosen:
            yield tuple(chosen), slack
        if len(chosen) == max_s:
            return
        for idx in range(start, m):
            if not all(pair_alive(units[p], units[idx]) for p in chosen):
                counters.pruned += 1
                continue
            if bounds:
                rest = tuple(r - w[idx] for r, (w, _b) in zip(slack, bounds))
                if min(rest) < 0:
                    counters.pruned += 1
                    continue
            else:
                rest = slack
            chosen.append(idx)
            yield from supports(idx + 1, chosen, rest)
            chosen.pop()

    for support, slack in supports(0, [], tuple(b for _w, b in bounds)):
        # two elements of a unit that cannot pair make its count at most 1
        limits = [n if self_alive(units[idx]) else 0 for idx in support]
        weights = [tuple(w[idx] for w, _b in bounds) for idx in support]
        for extra in _capped_compositions(n - len(support), weights, limits,
                                          slack, counters):
            yield support, tuple(1 + e for e in extra)


def _capped_compositions(total: int, weights, limits, slack,
                         counters: Counters):
    """Compositions of ``total`` whose part p is at most ``limits[p]``, and
    whose sum of ``part[p] * weights[p][b]`` is at most ``slack[b]`` for
    every bound b.  Each part ranges only over the values that leave both
    its own bounds and enough room in the later parts; a narrowed range is
    one cut, counted as pruned."""
    last = len(weights) - 1
    if total == 0:  # the common case at small n: one composition, no cut
        yield (0,) * (last + 1)
        return

    def top(p, slack):
        t = limits[p]
        for r, w in zip(slack, weights[p]):
            if w and r // w < t:
                t = r // w
        return t

    def parts(p, rest, slack):
        stop = min(rest, top(p, slack))
        if p == last:
            if stop == rest:
                yield (rest,)
            else:
                counters.pruned += 1
            return
        start = max(0, rest - sum(top(q, slack) for q in range(p + 1, last + 1)))
        if start > 0 or stop < rest:
            counters.pruned += 1
        for x in range(start, stop + 1):
            left = tuple(r - x * w for r, w in zip(slack, weights[p]))
            for tail in parts(p + 1, rest - x, left):
                yield (x,) + tail

    yield from parts(0, total, slack)


def _group_stream(tables: TypeTables, groups, n: int, counters: Counters,
                  bounds=()):
    def rep_pair_ok(ga, gb):
        return tables.mask(min(ga[0], gb[0]), max(ga[0], gb[0])) != 0

    def rep_self_ok(g):
        # two elements of one group always sit on a (rep, rep)-shaped pair
        return tables.mask(g[0], g[0]) != 0

    return _k_stream(groups, n, rep_pair_ok, rep_self_ok, counters, bounds)


# ---------------------------------------------------------------------------
# Evaluation: per-pair polynomial folding over merged types
# ---------------------------------------------------------------------------

def _run_merged(ctx: _Context, groups, kvecs, counters: Counters,
                collect: dict, progress=None):
    """Add the contributions of the group compositions ``kvecs`` to
    ``collect``, keyed on the cardinality tuple of the group predicates.
    ``progress(counters)`` is called about once per second of wall time."""
    beat = monotonic() + 1
    for support, counts in kvecs:
        _run_one_k(ctx, groups, support, counts, counters, collect)
        if progress is not None and monotonic() >= beat:
            progress(counters)
            beat = monotonic() + 1


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

    # the summed exponent of every satisfaction mask: pairs of blocks with
    # equal masks have equal class polynomials, so their powers merge.  A
    # pair with an empty mask realizes no 2-type and kills the k-vector
    exps: dict[int, int] = {}
    for a in range(len(types)):
        for b in range(a, len(types)):
            e = pair_exponent(counts[a], counts[b], a == b)
            if e == 0:
                continue
            mask = tables.mask(min(types[a], types[b]), max(types[a], types[b]))
            if not mask:
                counters.pruned += 1
                return
            exps[mask] = exps.get(mask, 0) + e

    # the range [lo, hi] of every leaf, then of every dimension: each pair
    # adds one profile p of its mask, so a leaf keeps the correlation inside
    # p that the per-dimension box, which only feeds the caps, loses
    lo = hi = consts + (0,) * dim
    if cons.cell_roots:
        for mask, e in exps.items():
            _poly, lows, highs = ctx.classes_for_mask(mask)
            lo = tuple(x + e * y for x, y in zip(lo, lows))
            hi = tuple(x + e * y for x, y in zip(hi, highs))
        if not cons.admits(lo, hi, (0,) * dim):
            counters.pruned += 1
            return

    base = multinomial(n, counts)
    for g, c in zip(support, counts):
        base *= sum(ctx.type_attrs(t)[0] for t in groups[g]) ** c

    shift = 0
    if not dim:
        # nothing tracked: one cell, whose sum is a product of integer
        # powers.  Each base is 2**s times an odd part that carries its
        # sign; summing the exponents of equal odd parts makes the product
        # one power per distinct odd base, shifted left by the sum of s*e
        counters.cells += 1
        odds: dict[int, int] = {}
        for mask, e in exps.items():
            w = ctx.classes_for_mask(mask)[0][0]
            s = (w & -w).bit_length() - 1 if w else 0
            odds[w >> s] = odds.get(w >> s, 0) + e
            shift += s * e
        cellsum = 1
        for w, e in odds.items():
            cellsum *= w ** e
        if not ctx.scalar_cells:
            cells = [((), cellsum << shift)]
    elif ctx.scalar_cells:
        # without per-cell weights only the integer sum over cells counts
        key = (tuple(sorted(exps.items())),
               tuple(consts[i] for i in cons.cell_leaves))
        cellsum = ctx._cellsum_cache.get(key)
        if cellsum is None:
            cellsum = ctx._cellsum_cache[key] = sum(
                c for _s, c in _cells(ctx, exps, consts, lo, hi, counters))
    else:
        cells = _cells(ctx, exps, consts, lo, hi, counters)

    if ctx.scalar_cells:
        if cellsum == 0:
            counters.pruned += 1
            return
        collect[()] = collect.get((), 0) + ((base * cellsum) << shift)
        return

    for svec, coefficient in cells:
        stats = ctx.add_cross(base_stats, svec)
        term = base * coefficient
        if ctx.cell_weight is not None:
            term *= ctx.cell_weight.value(stats, n)
        key = tuple(stats[p] for p in ctx.group_preds)
        collect[key] = collect.get(key, 0) + term


def _cells(ctx, exps, consts, lo, hi, counters):
    """The (cross statistic vector, coefficient) pairs of one k-vector that
    the constraints accept, from the summed exponent of each satisfaction
    mask in ``exps``: one capped power per mask.  The fold builds no term
    beyond the caps that the constraints put on each dimension, so the
    final check only sorts out what the caps cannot see.  ``lo``/``hi`` end
    with the box of the cross contributions, as :func:`_run_one_k` sums
    it."""
    cons = ctx.constraints
    caps = None
    if cons.cell_roots:
        lo, hi = lo[len(consts):], hi[len(consts):]
        caps = cons.caps(consts, lo, hi)
        if any(c < x for c, x in zip(caps, lo)):
            return []
    cap = (0, 0) if caps is None else ctx.cap_test(caps)
    powers = sorted((ctx.pair_power(mask, e, caps) for mask, e in exps.items()),
                    key=len)
    poly = {0: 1}
    for power in powers:
        poly = _poly_mul(poly, power, cap)
    out = []
    for enc, coefficient in poly.items():
        svec = ctx.decode(enc)
        if caps is None or cons.admits(consts, consts, svec):
            out.append((svec, coefficient))
    counters.cells += len(out)
    return out


def _evaluate(ctx: _Context, threads: int, counters: Optional[Counters],
              progress=None):
    """Partial sums of one context, keyed on the cardinality tuple of its
    group predicates (the empty tuple when there are none)."""
    counters = counters if counters is not None else Counters()
    collect: dict = {}
    groups = ctx.merged_groups()
    kvecs = _group_stream(ctx.tables, groups, ctx.n, counters,
                          ctx.stream_bounds(groups))
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
    per-pair polynomial folding, capped where the constraints bound the
    statistics; the explicit enumerations of
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

