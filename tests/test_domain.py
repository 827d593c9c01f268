"""Interval domain unit tests, including the pinned example values."""
from __future__ import annotations

import pytest

from relaxcheck.domain import (
    NEG_INF, POS_INF, AbstractEnv, Interval, eval_expr, may_be_false, refine,
    transfer,
)
from relaxcheck.ir import (
    Assert, Assume, BinOp, Cmp, Const, Fence, Load, LocalAssign, Membar, Nop,
    Store, ThreadCreate, ThreadJoin, Var, VarId, negate,
)

X = VarId("x")
A = VarId("a", "t")
B = VarId("b", "t")


def iv(lo, hi) -> Interval:
    return Interval(lo, hi)


# ---------------------------------------------------------------------------
# Pinned lattice values
# ---------------------------------------------------------------------------

def test_join_examples():
    assert iv(1, 3).join(iv(7, 10)) == iv(1, 10)
    assert Interval.bottom().join(iv(4, 6)) == iv(4, 6)
    assert iv(0, 0).join(iv(10, 10)) == iv(0, 10)


def test_leq_examples():
    assert iv(4, 6).leq(iv(1, 10))
    assert not iv(1, 10).leq(iv(4, 6))
    assert Interval.bottom().leq(Interval.bottom())


def test_widen_examples():
    assert iv(0, 1).widen(iv(0, 2)) == Interval(0, POS_INF)
    assert iv(0, 5).widen(iv(0, 5)) == iv(0, 5)
    assert iv(0, 1).widen(iv(-1, 1)) == Interval(NEG_INF, 1)


def test_transfer_store_example():
    env = AbstractEnv({X: iv(1, 3), A: iv(2, 5)})
    out = transfer(Store(X, BinOp("+", Var(A), Const(1))), env)
    assert out.get(X) == iv(3, 6)
    assert out.get(A) == iv(2, 5)


def test_env_join_example():
    j = AbstractEnv({X: iv(0, 0)}).join(AbstractEnv({X: iv(5, 5)}))
    assert j.get(X) == iv(0, 5)


def test_env_leq_bottom():
    assert AbstractEnv.bottom().leq(AbstractEnv({X: iv(0, 0)}))
    assert AbstractEnv.bottom().leq(AbstractEnv.bottom())


# ---------------------------------------------------------------------------
# Assume refinement and assert checking
# ---------------------------------------------------------------------------

def test_assume_eq_refines_to_singleton():
    env = AbstractEnv({A: iv(0, 10)})
    out = transfer(Assume(Cmp("==", Var(A), Const(10))), env)
    assert out.get(A) == iv(10, 10)


def test_assume_eq_unsatisfiable_is_bottom():
    env = AbstractEnv({A: iv(0, 5)})
    out = transfer(Assume(Cmp("==", Var(A), Const(10))), env)
    assert out.is_bottom


def test_assume_lt_refines_upper_bound():
    env = AbstractEnv({A: iv(0, 10)})
    out = transfer(Assume(Cmp("<", Var(A), Const(3))), env)
    assert out.get(A) == iv(0, 2)


def test_may_be_false_examples():
    assert not may_be_false(Cmp("==", Var(B), Const(5)),
                            AbstractEnv({B: iv(5, 5)}))
    assert may_be_false(Cmp("==", Var(B), Const(5)),
                        AbstractEnv({B: iv(0, 5)}))
    assert not may_be_false(Cmp("==", Var(B), Const(5)),
                            AbstractEnv.bottom())


def test_negate_roundtrip():
    c = Cmp("<", Var(A), Const(3))
    assert negate(negate(c)) == c


def test_refine_disjunction_joins_branches():
    env = AbstractEnv({A: iv(0, 10)})
    # a <= 1 || a >= 9
    from relaxcheck.ir import Or
    out = refine(Or(Cmp("<=", Var(A), Const(1)),
                    Cmp(">=", Var(A), Const(9))), env)
    assert out.get(A) == iv(0, 10)  # join of [0,1] and [9,10]


# ---------------------------------------------------------------------------
# Arithmetic and transfer structure
# ---------------------------------------------------------------------------

def test_interval_mul_four_corners():
    assert iv(-2, 3).mul(iv(-1, 4)) == iv(-8, 12)
    assert iv(0, 0).mul(Interval(NEG_INF, POS_INF)) == iv(0, 0)


HUGE = 10 ** 400  # past float range: Python cannot convert it to float


def test_huge_bounds_meet_infinite_ones():
    huge, top = iv(HUGE, HUGE), Interval(NEG_INF, POS_INF)
    assert iv(1, POS_INF).add(huge) == iv(HUGE + 1, POS_INF)
    assert Interval(NEG_INF, 5).add(huge) == Interval(NEG_INF, HUGE + 5)
    assert top.add(huge) == top and huge.add(top) == top
    assert huge.sub(iv(0, POS_INF)) == Interval(NEG_INF, HUGE)
    assert iv(1, POS_INF).sub(huge) == iv(1 - HUGE, POS_INF)
    assert top.sub(huge) == top and huge.sub(top) == top
    assert iv(1, POS_INF).mul(huge) == iv(HUGE, POS_INF)
    assert Interval(NEG_INF, -1).mul(huge) == Interval(NEG_INF, -HUGE)
    assert iv(-HUGE, HUGE).mul(top) == top
    assert iv(0, POS_INF).mul(huge) == iv(0, POS_INF)
    # a huge int on both sides stays exact
    assert huge.mul(huge) == iv(HUGE * HUGE, HUGE * HUGE)


def test_eval_expr_mixed():
    env = AbstractEnv({A: iv(1, 2), B: iv(3, 4)})
    e = BinOp("-", BinOp("*", Var(A), Var(B)), Const(1))
    assert eval_expr(e, env) == iv(2, 7)


def test_transfer_identity_instructions():
    env = AbstractEnv({A: iv(1, 2)})
    for instr in (Fence(), Membar(frozenset({"SL"})), Nop(),
                  Assert(Cmp("==", Var(A), Const(9))), ThreadCreate("u"),
                  ThreadJoin("u")):
        assert transfer(instr, env) is env


def test_transfer_rejects_an_unknown_instruction_type():
    env = AbstractEnv({A: iv(1, 2)})
    for instr in (object(), Cmp("==", Var(A), Const(1)), Const(1)):
        with pytest.raises(TypeError):
            transfer(instr, env)


def test_eval_expr_rejects_an_unknown_operator():
    env = AbstractEnv({A: iv(1, 2)})
    for op in ("/", "%", "<"):
        with pytest.raises(ValueError, match="unknown operator"):
            eval_expr(BinOp(op, Var(A), Const(1)), env)


def test_transfer_load_copies_global():
    env = AbstractEnv({X: iv(7, 9)})
    out = transfer(Load(A, X), env)
    assert out.get(A) == iv(7, 9)


def test_transfer_local_assign():
    env = AbstractEnv({A: iv(1, 1)})
    out = transfer(LocalAssign(B, BinOp("+", Var(A), Const(1))), env)
    assert out.get(B) == iv(2, 2)


def test_transfer_on_bottom_is_bottom():
    assert transfer(Store(X, Const(1)), AbstractEnv.bottom()).is_bottom


def test_unmapped_variable_reads_top():
    assert AbstractEnv({}).get(X).is_top()
