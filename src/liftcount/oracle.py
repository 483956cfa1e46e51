"""Brute-force ground truth: exhaustive enumeration of all interpretations
on a small domain, with full counting-quantifier semantics, cardinality
constraints, and exact weighting.

The oracle is deliberately naive - every one of the 2**atoms
interpretations is visited - and completely independent of the transform
and engine modules, so it can validate them.  Enumeration is vectorized
(numpy) for speed, and the vectorized paths are themselves cross-checked
against the plain recursive evaluator in the tests.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .celltypes import AtomOrder, CapacityError
from .formula import (And, Atom, Bottom, CountExists, Eq, Exists, Forall,
                      Formula, GroundAtom, Iff, Implies, Neq, Not, Or,
                      Problem, Signature, Top, constraint_holds, ground_atoms)
from . import weights as weights_mod

DEFAULT_ATOM_LIMIT = 24


# ---------------------------------------------------------------------------
# Single interpretations and the recursive evaluator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interpretation:
    """One interpretation as a bitset over the canonical ground-atom
    order for (signature, n)."""

    signature: Signature
    n: int
    bits: int

    @cached_property
    def _index(self) -> dict[GroundAtom, int]:
        return {atom: pos for pos, atom in
                enumerate(ground_atoms(self.signature, self.n))}

    def holds(self, pred: str, args: tuple[int, ...]) -> bool:
        pos = self._index[GroundAtom(pred, args)]
        return (self.bits >> pos) & 1 == 1

    @classmethod
    def from_true_atoms(cls, sig: Signature, n: int, true_atoms) -> "Interpretation":
        index = {atom: pos for pos, atom in enumerate(ground_atoms(sig, n))}
        bits = 0
        for atom in true_atoms:
            bits |= 1 << index[atom]
        return cls(sig, n, bits)

    def true_atoms(self) -> list[GroundAtom]:
        return [atom for pos, atom in enumerate(ground_atoms(self.signature, self.n))
                if (self.bits >> pos) & 1]


def eval_sentence(f: Formula, omega: Interpretation, n: int) -> bool:
    """Classical truth of a closed formula under one interpretation, with
    quantifiers ranging over 0..n-1 and counting quantifiers checked by
    literally counting witnesses."""
    index = omega._index
    bits = omega.bits

    def rec(g: Formula, env: dict[str, int]) -> bool:
        if isinstance(g, Atom):
            pos = index[GroundAtom(g.pred, tuple(env[a] for a in g.args))]
            return (bits >> pos) & 1 == 1
        if isinstance(g, Eq):
            return env[g.left] == env[g.right]
        if isinstance(g, Neq):
            return env[g.left] != env[g.right]
        if isinstance(g, Top):
            return True
        if isinstance(g, Bottom):
            return False
        if isinstance(g, Not):
            return not rec(g.body, env)
        if isinstance(g, And):
            return rec(g.left, env) and rec(g.right, env)
        if isinstance(g, Or):
            return rec(g.left, env) or rec(g.right, env)
        if isinstance(g, Implies):
            return not rec(g.left, env) or rec(g.right, env)
        if isinstance(g, Iff):
            return rec(g.left, env) == rec(g.right, env)
        if isinstance(g, Forall):
            return all(rec(g.body, {**env, g.var: c}) for c in range(n))
        if isinstance(g, Exists):
            return any(rec(g.body, {**env, g.var: c}) for c in range(n))
        if isinstance(g, CountExists):
            count = sum(rec(g.body, {**env, g.var: c}) for c in range(n))
            if g.comparator == "=":
                return count == g.count
            if g.comparator == "<=":
                return count <= g.count
            return count >= g.count
        raise TypeError(f"not a formula node: {g!r}")

    return rec(f, {})


# ---------------------------------------------------------------------------
# Vectorized enumeration backends
# ---------------------------------------------------------------------------

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
# bit v of word w encodes interpretation (w << 6) | v; these are the truth
# patterns of the six in-word atom positions
_WORD_PATTERNS = [np.uint64(p) for p in (
    0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
    0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000)]


class _MaskBackend:
    """Bit-parallel evaluation: one uint64 word covers 64 interpretations."""

    def __init__(self, total_atoms: int, chunk_atoms: int, chunk_base: int):
        self.total = total_atoms
        self.chunk_atoms = chunk_atoms
        self.nwords = 1 << max(chunk_atoms - 6, 0)
        self.chunk_base = chunk_base
        if chunk_atoms >= 6:
            self._windex = np.arange(self.nwords, dtype=np.uint64)

    def full(self):
        if self.chunk_atoms < 6:
            # fewer than 64 interpretations in total: mask the live bits
            return np.array([(1 << (1 << self.chunk_atoms)) - 1], dtype=np.uint64)
        return np.full(self.nwords, _ALL_ONES, dtype=np.uint64)

    def atom(self, a: int):
        if a < 6:
            live = self.full()
            return np.full(self.nwords, _WORD_PATTERNS[a], dtype=np.uint64) & live
        if a < self.chunk_atoms:
            bit = (self._windex >> np.uint64(a - 6)) & np.uint64(1)
            return bit * _ALL_ONES
        # atom index beyond the chunk: constant over the chunk
        if (self.chunk_base >> (a - self.chunk_atoms)) & 1:
            return self.full()
        return np.zeros(self.nwords, dtype=np.uint64)

    def neg(self, x):
        return x ^ self.full()

    def count(self, x) -> int:
        return int.from_bytes(x.tobytes(), "little").bit_count()


class _ByteBackend:
    """One uint8 per interpretation; supports per-interpretation counts."""

    def __init__(self, total_atoms: int, chunk_atoms: int, chunk_base: int):
        size = 1 << chunk_atoms
        base = chunk_base << chunk_atoms
        self.index = np.arange(base, base + size, dtype=np.int64)

    def full(self):
        return np.ones(self.index.shape, dtype=np.uint8)

    def atom(self, a: int):
        return ((self.index >> a) & 1).astype(np.uint8)

    def neg(self, x):
        return (1 - x).astype(np.uint8)

    def count(self, x) -> int:
        return int(x.sum(dtype=np.int64))


def _eval_vector(f: Formula, env: dict[str, int], be, atom_index, n: int):
    if isinstance(f, Atom):
        return be.atom(atom_index[GroundAtom(f.pred, tuple(env[a] for a in f.args))])
    if isinstance(f, Eq):
        return be.full() if env[f.left] == env[f.right] else be.neg(be.full())
    if isinstance(f, Neq):
        return be.full() if env[f.left] != env[f.right] else be.neg(be.full())
    if isinstance(f, Top):
        return be.full()
    if isinstance(f, Bottom):
        return be.neg(be.full())
    if isinstance(f, Not):
        return be.neg(_eval_vector(f.body, env, be, atom_index, n))
    if isinstance(f, And):
        return (_eval_vector(f.left, env, be, atom_index, n)
                & _eval_vector(f.right, env, be, atom_index, n))
    if isinstance(f, Or):
        return (_eval_vector(f.left, env, be, atom_index, n)
                | _eval_vector(f.right, env, be, atom_index, n))
    if isinstance(f, Implies):
        return (be.neg(_eval_vector(f.left, env, be, atom_index, n))
                | _eval_vector(f.right, env, be, atom_index, n))
    if isinstance(f, Iff):
        return be.neg(_eval_vector(f.left, env, be, atom_index, n)
                      ^ _eval_vector(f.right, env, be, atom_index, n))
    if isinstance(f, Forall):
        out = be.full()
        for c in range(n):
            out = out & _eval_vector(f.body, {**env, f.var: c}, be, atom_index, n)
        return out
    if isinstance(f, Exists):
        out = be.neg(be.full())
        for c in range(n):
            out = out | _eval_vector(f.body, {**env, f.var: c}, be, atom_index, n)
        return out
    if isinstance(f, CountExists):
        cap = f.count + 1
        # dp[c] = interpretations with exactly c witnesses so far (c = cap
        # saturates: "more than f.count")
        dp = [be.full()] + [be.neg(be.full()) for _ in range(cap)]
        for c in range(n):
            w = _eval_vector(f.body, {**env, f.var: c}, be, atom_index, n)
            nw = be.neg(w)
            new = [dp[0] & nw]
            for s in range(1, cap):
                new.append((dp[s] & nw) | (dp[s - 1] & w))
            new.append(dp[cap] | (dp[cap - 1] & w))
            dp = new
        if f.comparator == "=":
            return dp[f.count]
        if f.comparator == "<=":
            out = dp[0]
            for s in range(1, f.count + 1):
                out = out | dp[s]
            return out
        out = dp[cap]
        for s in range(f.count, cap):
            out = out | dp[s]
        return out
    raise TypeError(f"not a formula node: {f!r}")


# ---------------------------------------------------------------------------
# Counting and weighting
# ---------------------------------------------------------------------------

def _checked_atoms(problem: Problem, limit: int):
    atoms = ground_atoms(problem.signature, problem.domain_size)
    if len(atoms) > limit:
        raise CapacityError(
            f"{len(atoms)} ground atoms exceed the oracle limit {limit}")
    return atoms


def _stat_pred_list(problem: Problem, extra=()):
    from .formula import constraint_preds
    preds: list[str] = []
    spec = problem.weights
    if spec is not None:
        preds.extend(spec.referenced_preds())
    for c in problem.constraints:
        preds.extend(sorted(constraint_preds(c)))
    preds.extend(extra)
    return tuple(dict.fromkeys(preds))


def _map_chunks(worker, problem: Problem, limit: int, chunk_atoms: int,
                threads: int, *extra) -> list:
    """``worker((problem, atom_index, total, chunk_atoms, bases, *extra))``
    over contiguous chunks of 2**chunk_atoms interpretations, one result per
    call; with ``threads`` > 1 the chunks go strided to worker processes."""
    atoms = _checked_atoms(problem, limit)
    total = len(atoms)
    atom_index = {atom: pos for pos, atom in enumerate(atoms)}
    chunk_atoms = min(total, chunk_atoms)
    bases = range(1 << (total - chunk_atoms))
    if threads <= 1 or len(bases) == 1:
        return [worker((problem, atom_index, total, chunk_atoms, bases) + extra)]
    jobs = [(problem, atom_index, total, chunk_atoms, bases[i::threads]) + extra
            for i in range(threads) if bases[i::threads]]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, jobs))


def _stats_chunk(args):
    problem, atom_index, total, chunk_atoms, bases, preds = args
    n = problem.domain_size
    pred_positions = {p: [pos for atom, pos in atom_index.items()
                          if atom.pred == p] for p in preds}
    out: dict[tuple[int, ...], int] = {}
    for chunk_base in bases:
        be = _ByteBackend(total, chunk_atoms, chunk_base)
        models = _eval_vector(problem.sentence, {}, be, atom_index, n)
        sel = models.view(bool)
        if not sel.any():
            continue
        if preds:
            columns = [
                sum(((be.index >> p) & 1) for p in pred_positions[pred])[sel]
                for pred in preds]
            keys = np.stack(columns, axis=1)
            uniq, counts = np.unique(keys, axis=0, return_counts=True)
            for row, cnt in zip(uniq, counts):
                key = tuple(int(x) for x in row)
                out[key] = out.get(key, 0) + int(cnt)
        else:
            out[()] = out.get((), 0) + be.count(models)
    return out


def _enumerate_stats(problem: Problem, limit: int, extra_preds=(),
                     chunk_atoms: int = 20,
                     threads: int = 1) -> dict[tuple[int, ...], int]:
    """Model counts per cardinality tuple of the tracked predicates, over
    every interpretation satisfying the sentence (constraints and weights
    are applied by the callers, exactly)."""
    preds = _stat_pred_list(problem, extra_preds)
    out: dict[tuple[int, ...], int] = {}
    for part in _map_chunks(_stats_chunk, problem, limit, chunk_atoms,
                            threads, preds):
        for key, cnt in part.items():
            out[key] = out.get(key, 0) + cnt
    return out


def _mask_chunk(args):
    problem, atom_index, total, chunk_atoms, bases = args
    n = problem.domain_size
    count = 0
    for chunk_base in bases:
        be = _MaskBackend(total, chunk_atoms, chunk_base)
        count += be.count(_eval_vector(problem.sentence, {}, be, atom_index, n))
    return count


def _count_models(problem: Problem, limit: int, chunk_atoms: int = 22,
                  threads: int = 1) -> int:
    return sum(_map_chunks(_mask_chunk, problem, limit, chunk_atoms, threads))


def oracle_count(problem: Problem, limit: int = DEFAULT_ATOM_LIMIT,
                 threads: int = 1) -> Fraction:
    """Exact weighted model count by exhaustive enumeration."""
    spec = problem.weights
    plain = (spec is None or isinstance(spec, weights_mod.Unweighted)) \
        and not problem.constraints
    if plain:
        return Fraction(_count_models(problem, limit, threads=threads))
    stats_counts = _enumerate_stats(problem, limit, threads=threads)
    preds = _stat_pred_list(problem)
    n = problem.domain_size
    total = Fraction(0)
    for key, cnt in sorted(stats_counts.items()):
        cards = dict(zip(preds, key))
        if not all(constraint_holds(c, cards) for c in problem.constraints):
            continue
        total += cnt * weights_mod.weight_of(spec, cards, n)
    return total


def oracle_distribution(problem: Problem, query: weights_mod.DistributionQuery,
                        limit: int = DEFAULT_ATOM_LIMIT,
                        threads: int = 1) -> dict:
    """Count distribution over the query predicates, by enumeration."""
    base = tuple(dict.fromkeys(weights_mod._base_pred(e) for e in query.preds))
    stats_counts = _enumerate_stats(problem, limit, extra_preds=base,
                                    threads=threads)
    preds = _stat_pred_list(problem, base)
    n = problem.domain_size
    sizes = {p: (n if problem.signature.arity(p) == 1 else n * n) for p in base}
    numerators: dict[tuple[int, ...], Fraction] = {}
    z = Fraction(0)
    for key, cnt in sorted(stats_counts.items()):
        cards = dict(zip(preds, key))
        if not all(constraint_holds(c, cards) for c in problem.constraints):
            continue
        term = cnt * weights_mod.weight_of(problem.weights, cards, n)
        z += term
        out_key = tuple(
            sizes[weights_mod._base_pred(e)] - cards[weights_mod._base_pred(e)]
            if e.startswith("!") else cards[e]
            for e in query.preds)
        numerators[out_key] = numerators.get(out_key, Fraction(0)) + term
    if z == 0:
        raise weights_mod.EmptyDistributionError("partition function is zero")
    result = {key: val / z for key, val in sorted(numerators.items())}
    if query.vector is not None:
        return {query.vector: result.get(query.vector, Fraction(0))}
    return result


# ---------------------------------------------------------------------------
# Per-interpretation statistics (the (k, h) view of one model)
# ---------------------------------------------------------------------------

def interpretation_stats(omega: Interpretation, order: AtomOrder, n: int):
    """The k-vector and raw h-vectors of one interpretation.

    Element c gets the 1-type index read off its unary and diagonal atoms;
    each unordered pair {c, d} with c < d contributes one 2-type, oriented
    with the lower 1-type (ties: the lower element) as x.  Returns
    (k, h) with k a dense tuple of length 2**u and h a map
    (i, j) -> {v: count}.
    """
    u = order.u

    def type_of(c: int) -> int:
        idx = 0
        for pos, atom in enumerate(order.unary_atoms):
            args = (c, c) if atom.diagonal else (c,)
            if omega.holds(atom.pred, args):
                idx |= 1 << (u - 1 - pos)
        return idx

    def vtype_of(cx: int, cy: int) -> int:
        v = 0
        for pos, atom in enumerate(order.binary_atoms):
            args = (cy, cx) if atom.swapped else (cx, cy)
            if omega.holds(atom.pred, args):
                v |= 1 << (order.b - 1 - pos)
        return v

    types = [type_of(c) for c in range(n)]
    k = [0] * (1 << u)
    for t in types:
        k[t] += 1
    h: dict[tuple[int, int], dict[int, int]] = {}
    for c in range(n):
        for d in range(c + 1, n):
            if types[c] <= types[d]:
                i, j, cx, cy = types[c], types[d], c, d
            else:
                i, j, cx, cy = types[d], types[c], d, c
            v = vtype_of(cx, cy)
            cell = h.setdefault((i, j), {})
            cell[v] = cell.get(v, 0) + 1
    return tuple(k), h


def cardinality_from_stats(k, h, order: AtomOrder, pred: str, arity: int) -> int:
    """Recompute |pred| from (k, h) via the statistics formulas; used to
    validate that (k, h) determines every cardinality."""
    u = order.u
    if arity == 1:
        pos = order.unary_pos(pred, False)
        return sum(((i >> (u - 1 - pos)) & 1) * ki for i, ki in enumerate(k))
    dpos = order.unary_pos(pred, True)
    total = sum(((i >> (u - 1 - dpos)) & 1) * ki for i, ki in enumerate(k))
    lpos = order.binary_pos(pred, False)
    rpos = order.binary_pos(pred, True)
    for (_i, _j), cell in h.items():
        for v, cnt in cell.items():
            total += (order.binary_bit(v, lpos) + order.binary_bit(v, rpos)) * cnt
    return total
