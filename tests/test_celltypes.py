import random

import pytest

import liftcount as lc
from liftcount.celltypes import (AtomOrder, CapacityError, build_tables,
                                 eval_lifted)
from liftcount.formula import Atom, Eq, Signature, Top

from conftest import KERNEL_SIG, RUNNING_EXAMPLE, compiled, random_kernel


@pytest.fixture(scope="module")
def running():
    problem, program, tables = compiled(RUNNING_EXAMPLE)
    return problem, program, tables


def test_atom_order_running_example(running):
    _p, _prog, tables = running
    order = tables.order
    assert [a.text() for a in order.unary_atoms] == ["A(x)", "R(x,x)"]
    assert [a.text() for a in order.binary_atoms] == ["R(x,y)", "R(y,x)"]
    assert order.u == 2 and order.b == 2
    # index 1 with order (A(x), R(x,x)) reads "A false, R(x,x) true"
    assert order.unary_bit(1, 0) == 0
    assert order.unary_bit(1, 1) == 1


def test_atom_order_mixed_signature():
    order = AtomOrder.from_signature(Signature(("U", "W"), ("R", "S")))
    assert [a.text() for a in order.unary_atoms] == \
        ["U(x)", "W(x)", "R(x,x)", "S(x,x)"]
    assert [a.text() for a in order.binary_atoms] == \
        ["R(x,y)", "R(y,x)", "S(x,y)", "S(y,x)"]


def test_eval_lifted_paper_case(running):
    problem, program, tables = running
    kernel = program.kernel
    order = tables.order
    # 1-types i=1 (A false, R(x,x) true) and j=3 (both true); the 2-type
    # with R(x,y) false and R(y,x) true violates the kernel
    assert eval_lifted(kernel, order, 1, 3, 1) is False
    assert eval_lifted(kernel, order, 1, 3, 0) is True


def test_eval_lifted_trivial():
    order = AtomOrder.from_signature(Signature(("A",), ("R",)))
    for i in range(4):
        for j in range(4):
            for v in range(4):
                assert eval_lifted(Top(), order, i, j, v) is True
                assert eval_lifted(Eq("x", "y"), order, i, j, v) is False


def test_n_ij_fixture(running):
    _p, _prog, tables = running
    got = [tables.n_ij(i, j) for i in range(4) for j in range(i, 4)]
    assert got == [4, 4, 2, 2, 4, 2, 2, 4, 4, 4]


def test_n_ijv_fixture(running):
    _p, _prog, tables = running
    assert [tables.n_ijv(1, 3, v) for v in range(4)] == [1, 0, 1, 0]


def test_tables_kernel_true_single_binary():
    tables = build_tables(Top(), Signature((), ("R",)))
    assert tables.order.u == 1 and tables.order.b == 2
    for i in range(2):
        for j in range(i, 2):
            assert tables.n_ij(i, j) == 4


def test_diagonal_pruning():
    # a kernel violated on the diagonal kills the 1-type entirely
    tables = build_tables(lc.formula.Not(Atom("R", ("x", "x"))),
                          Signature((), ("R",)))
    assert tables.alive == (0,)
    assert tables.n_ij(0, 0) == 4
    assert tables.n_ij(0, 1) == 0 and tables.n_ij(1, 1) == 0


def test_capacity_error():
    sig = Signature(tuple(f"U{i}" for i in range(25)), ())
    with pytest.raises(CapacityError, match="one-variable"):
        build_tables(Top(), sig)
    # 11 binary predicates: u = 11 passes, b = 22 does not
    sig = Signature((), tuple(f"R{i}" for i in range(11)))
    with pytest.raises(CapacityError, match="two-variable"):
        build_tables(Top(), sig)


def test_tables_match_reference_evaluator():
    rng = random.Random(99)
    for _ in range(25):
        kernel = random_kernel(rng)
        tables = build_tables(kernel, KERNEL_SIG)
        order = tables.order
        for i in tables.alive:
            for j in tables.alive:
                if i > j:
                    continue
                mask = tables.mask(i, j)
                for v in range(1 << order.b):
                    assert ((mask >> v) & 1 == 1) == \
                        eval_lifted(kernel, order, i, j, v)
        # a dead type fails every lifted evaluation it takes part in
        for i in range(1 << order.u):
            if i not in tables.alive:
                assert eval_lifted(kernel, order, i, i, 0) is False


def test_sum_v_equals_n_ij():
    rng = random.Random(5)
    for _ in range(20):
        kernel = random_kernel(rng)
        tables = build_tables(kernel, KERNEL_SIG)
        for (i, j), mask in tables.masks.items():
            assert mask.bit_count() == tables.n_ij(i, j)
            assert sum(tables.n_ijv(i, j, v)
                       for v in range(1 << tables.order.b)) == tables.n_ij(i, j)


def test_orientation_symmetry():
    # swapping the 1-types together with the orientation-swapped 2-type
    # preserves satisfaction, so storing i <= j loses nothing
    rng = random.Random(17)
    for _ in range(15):
        kernel = random_kernel(rng)
        tables = build_tables(kernel, KERNEL_SIG)
        order = tables.order
        for i in tables.alive:
            for j in tables.alive:
                if i > j:
                    continue
                for v in range(1 << order.b):
                    assert tables.n_ijv(i, j, v) == \
                        (1 if eval_lifted(kernel, order, j, i,
                                          order.swap_vtype(v)) else 0)


def test_swap_vtype_involution():
    order = AtomOrder.from_signature(Signature((), ("R", "S")))
    for v in range(1 << order.b):
        assert order.swap_vtype(order.swap_vtype(v)) == v
