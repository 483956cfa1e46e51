"""Weight functions over predicate-cardinality statistics.

Every supported weight is a function of the tuple of predicate
cardinalities that a (k, h) statistics cell determines: the symmetric
per-predicate form, an explicit table keyed on selected cardinalities, a
programmatic callable, or the trivial unweighted case.  Values are exact
rationals; negative entries are allowed in tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional, Union


class EmptyDistributionError(ZeroDivisionError):
    """The partition function is zero, so no distribution exists."""


@dataclass(frozen=True)
class Unweighted:
    entries = ()  # no literal weights; not a dataclass field

    def referenced_preds(self) -> tuple[str, ...]:
        return ()

    def value(self, stats: Mapping[str, int], n: int) -> Fraction:
        return Fraction(1)


@dataclass(frozen=True)
class SymmetricWeights:
    """Per-predicate literal weights: w(P) per true ground atom and
    wbar(P) per false one.  The false count is n - |P| for unary and
    n^2 - |P| for binary predicates (ordered pairs, diagonal included)."""

    entries: tuple[tuple[str, int, Fraction, Fraction], ...]  # (pred, arity, w, wbar)

    @classmethod
    def for_signature(cls, sig, per_pred: Mapping[str, tuple[Fraction, Fraction]]):
        entries = []
        for pred, (w, wbar) in per_pred.items():
            w, wbar = Fraction(w), Fraction(wbar)
            if (w, wbar) == (1, 1):
                continue  # no-op weight
            entries.append((pred, sig.arity(pred), w, wbar))
        return cls(tuple(entries))

    def referenced_preds(self) -> tuple[str, ...]:
        return tuple(pred for pred, _a, _w, _wb in self.entries)

    def value(self, stats: Mapping[str, int], n: int) -> Fraction:
        total = Fraction(1)
        for pred, arity, w, wbar in self.entries:
            size = n if arity == 1 else n * n
            count = stats[pred]
            total *= w ** count * wbar ** (size - count)
        return total


@dataclass(frozen=True)
class StatTableWeights:
    """Explicit table keyed on the cardinalities of ``preds``; missing keys
    fall back to ``default`` (0 unless stated otherwise)."""

    preds: tuple[str, ...]
    table: dict[tuple[int, ...], Fraction] = field(default_factory=dict)
    default: Fraction = Fraction(0)

    def referenced_preds(self) -> tuple[str, ...]:
        return self.preds

    def value(self, stats: Mapping[str, int], n: int) -> Fraction:
        key = tuple(stats[p] for p in self.preds)
        return self.table.get(key, self.default)


@dataclass(frozen=True)
class CallableStatWeight:
    """Programmatic weight: ``fn`` receives the cardinality tuple of
    ``preds`` and returns an exact rational."""

    preds: tuple[str, ...]
    fn: Callable[[tuple[int, ...]], Fraction]

    def referenced_preds(self) -> tuple[str, ...]:
        return self.preds

    def value(self, stats: Mapping[str, int], n: int) -> Fraction:
        return Fraction(self.fn(tuple(stats[p] for p in self.preds)))


WeightSpec = Union[Unweighted, SymmetricWeights, StatTableWeights, CallableStatWeight]


def weight_of(spec: Optional[WeightSpec], stats: Mapping[str, int], n: int) -> Fraction:
    """Weight of one statistics cell under ``spec`` (None = unweighted)."""
    if spec is None:
        return Fraction(1)
    return spec.value(stats, n)


@dataclass(frozen=True)
class DistributionQuery:
    """Predicates whose true-grounding counts are tabulated.  An entry
    ``!P`` stands for the complement count (n^arity - |P|).  ``vector``
    restricts the result to one count vector; None tabulates the full
    support."""

    preds: tuple[str, ...]
    vector: Optional[tuple[int, ...]] = None

    @classmethod
    def default(cls, problem) -> "DistributionQuery":
        """The weighted predicates, or else the unary ones."""
        spec = problem.weights
        weighted = spec.referenced_preds() if spec is not None else ()
        return cls(tuple(weighted) or problem.signature.unary)


def _base_pred(entry: str) -> str:
    return entry[1:] if entry.startswith("!") else entry


def count_distribution(problem, query: Optional[DistributionQuery] = None,
                       threads: int = 1) -> dict[tuple[int, ...], Fraction]:
    """Distribution of count vectors over the problem's weighted models.

    Returns a map from count vector to exact probability.  It lists the
    vectors that some model realizes, as
    :func:`liftcount.oracle_distribution` does, so a vector whose models
    all weigh 0 appears with probability 0, and a vector that no model
    realizes does not appear.  A ``query.vector`` outside that support maps
    to 0.  Raises :class:`EmptyDistributionError` when the partition
    function is zero.
    """
    from . import celltypes, engine, transform

    query = query if query is not None else DistributionQuery.default(problem)
    if not query.preds:
        raise ValueError("distribution query needs at least one predicate")
    for entry in query.preds:
        if _base_pred(entry) not in problem.signature:
            raise KeyError(_base_pred(entry))

    base = tuple(dict.fromkeys(_base_pred(e) for e in query.preds))
    program = transform.compile_problem(problem)
    tables = celltypes.build_tables(program.kernel, program.signature)
    n = problem.domain_size
    grouped = engine.evaluate_grouped(program, tables, n, problem.weights,
                                      group_preds=base, threads=threads)

    z = sum(grouped.values(), Fraction(0))
    if z == 0:
        raise EmptyDistributionError("partition function is zero")
    # an exact zero is a vector that no model realizes, unless weights
    # make it one; then the plain model count of each vector tells which
    zeros = [key for key, val in grouped.items() if val == 0]
    if zeros and problem.weights not in (None, Unweighted()):
        models = engine.evaluate_grouped(program, tables, n, None,
                                         group_preds=base, threads=threads)
        zeros = [key for key in zeros if not models.get(key)]
    for key in zeros:
        del grouped[key]

    sizes = {p: (n if problem.signature.arity(p) == 1 else n * n) for p in base}
    result: dict[tuple[int, ...], Fraction] = {}
    for key, numer in grouped.items():
        cards = dict(zip(base, key))
        out_key = tuple(
            sizes[_base_pred(e)] - cards[_base_pred(e)] if e.startswith("!")
            else cards[e]
            for e in query.preds)
        result[out_key] = result.get(out_key, Fraction(0)) + numer / z

    if query.vector is not None:
        return {query.vector: result.get(query.vector, Fraction(0))}
    return dict(sorted(result.items()))
