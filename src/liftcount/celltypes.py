"""Atom orderings, lifted-interpretation evaluation, and the satisfaction
tables of a pure-universal kernel.

A 1-type is a truth assignment to the ``u`` atoms mentioning only one
variable (plain unary atoms plus the diagonals ``R(x,x)``); a 2-type
assigns the ``b`` atoms mentioning both variables (``R(x,y)`` and
``R(y,x)`` separately).  Types are indexed by reading the atom list as a
binary number, first listed atom in the most significant position, so with
order (A(x), R(x,x)) index 1 means "A false, R(x,x) true".

``n_ijv`` is 1 iff the kernel holds on a two-element structure whose
elements have 1-types i and j and whose cross atoms follow v, with x = y
fixed false; ``n_ij`` sums over v.  Both are independent of the domain
size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .formula import (And, Atom, Bottom, CountExists, Eq, Exists, Forall,
                      Formula, Iff, Implies, Neq, Not, Or, Signature, Top)


class CapacityError(RuntimeError):
    """Table would exceed the 1-type/2-type atom limits."""


MAX_U = MAX_B = 20  # atom limits: the tables are exponential in u and b


@dataclass(frozen=True)
class UnaryAtom:
    pred: str
    diagonal: bool  # True for R(x,x), False for P(x)

    def text(self, var: str = "x") -> str:
        return f"{self.pred}({var},{var})" if self.diagonal else f"{self.pred}({var})"


@dataclass(frozen=True)
class BinaryAtom:
    pred: str
    swapped: bool  # False for R(x,y), True for R(y,x)

    def text(self) -> str:
        return f"{self.pred}(y,x)" if self.swapped else f"{self.pred}(x,y)"


@dataclass(frozen=True)
class AtomOrder:
    """Deterministic atom lists for a signature, with bit accessors."""

    unary_atoms: tuple[UnaryAtom, ...]
    binary_atoms: tuple[BinaryAtom, ...]

    @classmethod
    def from_signature(cls, sig: Signature) -> "AtomOrder":
        unary = [UnaryAtom(p, False) for p in sig.unary]
        unary += [UnaryAtom(p, True) for p in sig.binary]
        binary = []
        for p in sig.binary:
            binary.append(BinaryAtom(p, False))
            binary.append(BinaryAtom(p, True))
        return cls(tuple(unary), tuple(binary))

    @property
    def u(self) -> int:
        return len(self.unary_atoms)

    @property
    def b(self) -> int:
        return len(self.binary_atoms)

    def unary_pos(self, pred: str, diagonal: bool) -> int:
        return self.unary_atoms.index(UnaryAtom(pred, diagonal))

    def binary_pos(self, pred: str, swapped: bool) -> int:
        return self.binary_atoms.index(BinaryAtom(pred, swapped))

    def unary_bit(self, i: int, pos: int) -> int:
        return (i >> (self.u - 1 - pos)) & 1

    def binary_bit(self, v: int, pos: int) -> int:
        return (v >> (self.b - 1 - pos)) & 1

    def swap_vtype(self, v: int) -> int:
        """The 2-type seen from the opposite orientation (x and y swapped)."""
        out = 0
        for pos, atom in enumerate(self.binary_atoms):
            bit = self.binary_bit(v, pos)
            partner = self.binary_pos(atom.pred, not atom.swapped)
            out |= bit << (self.b - 1 - partner)
        return out


# ---------------------------------------------------------------------------
# Reference evaluator (slow, readable): the compiled table builder is
# cross-checked against this in the tests.
# ---------------------------------------------------------------------------

def _atom_truth(pred: str, args: tuple[str, ...], i: int, j: int, v: int,
                order: AtomOrder) -> bool:
    if len(args) == 1 or args[0] == args[1]:
        side = args[0]
        pos = order.unary_pos(pred, diagonal=len(args) == 2)
        idx = i if side == "x" else j
        return order.unary_bit(idx, pos) == 1
    pos = order.binary_pos(pred, swapped=args == ("y", "x"))
    return order.binary_bit(v, pos) == 1


def _eval_instance(f: Formula, m: dict[str, str], i: int, j: int, v: int,
                   order: AtomOrder) -> bool:
    if isinstance(f, Atom):
        return _atom_truth(f.pred, tuple(m[a] for a in f.args), i, j, v, order)
    if isinstance(f, Eq):
        return m[f.left] == m[f.right]
    if isinstance(f, Neq):
        return m[f.left] != m[f.right]
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Not):
        return not _eval_instance(f.body, m, i, j, v, order)
    if isinstance(f, And):
        return (_eval_instance(f.left, m, i, j, v, order)
                and _eval_instance(f.right, m, i, j, v, order))
    if isinstance(f, Or):
        return (_eval_instance(f.left, m, i, j, v, order)
                or _eval_instance(f.right, m, i, j, v, order))
    if isinstance(f, Implies):
        return (not _eval_instance(f.left, m, i, j, v, order)
                or _eval_instance(f.right, m, i, j, v, order))
    if isinstance(f, Iff):
        return (_eval_instance(f.left, m, i, j, v, order)
                == _eval_instance(f.right, m, i, j, v, order))
    if isinstance(f, (Forall, Exists, CountExists)):
        raise ValueError("kernel must be quantifier-free")
    raise TypeError(f"not a formula node: {f!r}")


def eval_lifted(kernel: Formula, order: AtomOrder, i: int, j: int, v: int) -> bool:
    """Truth of the kernel on the two-variable set: the conjunction of all
    four instantiations over {x, y}, with unary atoms read from the 1-types
    i and j, cross atoms from the 2-type v, and x = y fixed false."""
    for mx, my in (("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")):
        if not _eval_instance(kernel, {"x": mx, "y": my}, i, j, v, order):
            return False
    return True


# ---------------------------------------------------------------------------
# Compiled table construction
# ---------------------------------------------------------------------------

def _codegen(f: Formula, m: dict[str, str], order: AtomOrder,
             bitparallel: bool) -> str:
    """Expression over (i, j): a bool when bitparallel is False, otherwise
    an integer mask over the whole v-space (_F = all ones, _P = per-binary-
    atom bit patterns)."""
    full, zero = ("_F", "0") if bitparallel else ("True", "False")

    def gen(g: Formula) -> str:
        if isinstance(g, Atom):
            args = tuple(m[a] for a in g.args)
            if len(args) == 1 or args[0] == args[1]:
                pos = order.unary_pos(g.pred, diagonal=len(args) == 2)
                side = "i" if args[0] == "x" else "j"
                bit = f"(({side}>>{order.u - 1 - pos})&1)"
                return f"({full} if {bit} else {zero})" if bitparallel else f"({bit}==1)"
            pos = order.binary_pos(g.pred, swapped=args == ("y", "x"))
            if not bitparallel:
                raise AssertionError("cross atom in a diagonal instance")
            return f"_P[{pos}]"
        if isinstance(g, Eq):
            return full if m[g.left] == m[g.right] else zero
        if isinstance(g, Neq):
            return full if m[g.left] != m[g.right] else zero
        if isinstance(g, Top):
            return full
        if isinstance(g, Bottom):
            return zero
        if isinstance(g, Not):
            return f"(_F^{gen(g.body)})" if bitparallel else f"(not {gen(g.body)})"
        if isinstance(g, And):
            op = "&" if bitparallel else "and"
            return f"({gen(g.left)} {op} {gen(g.right)})"
        if isinstance(g, Or):
            op = "|" if bitparallel else "or"
            return f"({gen(g.left)} {op} {gen(g.right)})"
        if isinstance(g, Implies):
            if bitparallel:
                return f"((_F^{gen(g.left)}) | {gen(g.right)})"
            return f"((not {gen(g.left)}) or {gen(g.right)})"
        if isinstance(g, Iff):
            if bitparallel:
                return f"(_F^({gen(g.left)} ^ {gen(g.right)}))"
            return f"({gen(g.left)} == {gen(g.right)})"
        raise ValueError("kernel must be quantifier-free")

    return gen(f)


def _bit_pattern(weight: int, b: int) -> int:
    """Integer whose bit v is set iff bit ``weight`` of v is set, over the
    full v-space 0 <= v < 2**b."""
    block_width = 1 << weight
    period = block_width * 2
    block = ((1 << block_width) - 1) << block_width
    reps = (1 << b) // period
    return block * (((1 << (reps * period)) - 1) // ((1 << period) - 1))


@dataclass
class TypeTables:
    """Satisfaction tables of a quantifier-free kernel.

    ``alive`` lists the 1-types whose diagonal instantiation holds; all
    other 1-types admit no one-element structure and every n_ij involving
    them is zero.  ``masks[(i, j)]`` (i <= j, both alive) has bit v set iff
    n_ijv = 1.
    """

    order: AtomOrder
    alive: tuple[int, ...]
    masks: dict[tuple[int, int], int] = field(default_factory=dict)

    def mask(self, i: int, j: int) -> int:
        if i > j:
            raise ValueError("tables are stored for i <= j")
        return self.masks.get((i, j), 0)

    def n_ijv(self, i: int, j: int, v: int) -> int:
        return (self.mask(i, j) >> v) & 1

    def n_ij(self, i: int, j: int) -> int:
        return self.mask(i, j).bit_count()

    def satisfying_vtypes(self, i: int, j: int) -> list[int]:
        mask = self.mask(i, j)
        out = []
        v = 0
        while mask:
            if mask & 1:
                out.append(v)
            mask >>= 1
            v += 1
        return out


def build_tables(kernel: Formula, sig: Signature) -> TypeTables:
    """Construct the full n_ijv / n_ij tables for a pure-universal kernel.

    Work is O(4^u * 2^b) bit operations after diagonal pruning; the
    ``MAX_U``/``MAX_B`` caps fail fast because the table is inherently
    exponential in the signature size.
    """
    order = AtomOrder.from_signature(sig)
    u, b = order.u, order.b
    if u > MAX_U:
        raise CapacityError(f"{u} one-variable atoms exceed the limit {MAX_U}")
    if b > MAX_B:
        raise CapacityError(f"{b} two-variable atoms exceed the limit {MAX_B}")

    diag_src = "lambda i: " + _codegen(kernel, {"x": "x", "y": "x"}, order, False)
    diag = eval(diag_src, {})  # noqa: S307 - generated from our own AST
    alive = tuple(i for i in range(1 << u) if diag(i))

    full = (1 << (1 << b)) - 1
    patterns = tuple(_bit_pattern(b - 1 - pos, b) for pos in range(b))
    cross_src = ("lambda i, j, _F, _P: ("
                 + _codegen(kernel, {"x": "x", "y": "y"}, order, True)
                 + " & "
                 + _codegen(kernel, {"x": "y", "y": "x"}, order, True)
                 + ")")
    cross = eval(cross_src, {})  # noqa: S307

    masks: dict[tuple[int, int], int] = {}
    for a, i in enumerate(alive):
        for j in alive[a:]:
            masks[(i, j)] = cross(i, j, full, patterns)
    return TypeTables(order, alive, masks)
