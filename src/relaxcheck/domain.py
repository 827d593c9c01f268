"""Interval abstract domain: values, environments, transfer functions.

Bounds are mathematical integers extended with +/-infinity (represented by
float inf, only ever used as a sentinel).  Environments map variables to
intervals; unmapped variables read as Top.

Intervals and environments are immutable: an `Interval` is a slotted
object whose attributes cannot be assigned or deleted (AttributeError).
Top, bottom and `Interval.const` of each int in a small fixed range are
shared objects, built once at import.  Operations may return an operand by
identity: a join or widening whose result equals an operand returns that
operand, a widening to Top returns the shared Top, `set` returns the env
itself when the variable already maps to that very interval, and the
bottom environment is one shared object.  So a fixpoint visit in which
nothing changes allocates nothing, and `new is old` is a cheap "no change"
test.  Environments may share their maps with each other: nothing writes
to an env's map once the env is built.
"""
from __future__ import annotations

from .ir import (
    And, Assert, Assume, Cmp, Cond, Const, Expr, Fence, Instruction,
    Load, LocalAssign, Membar, Nop, Not, Or, Store, ThreadCreate, ThreadJoin,
    Var, VarId, negate,
)

NEG_INF = float("-inf")
POS_INF = float("inf")

Bound = int | float

_SWAP = {"==": "==", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


# Python raises OverflowError when an int past float range (about 1.8e308)
# meets an infinity in `+` or `*`; the bound helpers return the infinity.

def _add_bound(a: Bound, b: Bound) -> Bound:
    try:
        return a + b
    except OverflowError:
        return a if a.__class__ is float else b


def _mul_bound(a: Bound, b: Bound) -> Bound:
    # four-corner helper with 0 * inf = 0
    if a == 0 or b == 0:
        return 0
    try:
        return a * b
    except OverflowError:
        return POS_INF if (a > 0) == (b > 0) else NEG_INF


class Interval:
    """[lo, hi] with lo <= hi, or bottom when `is_bottom` (the shared
    `Interval.bottom()` has bounds 0 and 0).  Equality and hash are those
    of the field tuple.  Immutable: `__init__` fills the slots through
    their descriptors, and assigning or deleting an attribute raises
    AttributeError."""

    __slots__ = ("lo", "hi", "is_bottom")

    def __init__(self, lo: Bound, hi: Bound, is_bottom: bool = False):
        if not is_bottom and lo > hi:
            raise ValueError(f"bad interval [{lo}, {hi}]")
        _set_lo(self, lo)
        _set_hi(self, hi)
        _set_is_bottom(self, is_bottom)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Interval, (self.lo, self.hi, self.is_bottom)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not Interval:
            return NotImplemented
        return ((self.lo, self.hi, self.is_bottom)
                == (other.lo, other.hi, other.is_bottom))

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.is_bottom))

    def __repr__(self) -> str:
        return (f"Interval(lo={self.lo!r}, hi={self.hi!r}, "
                f"is_bottom={self.is_bottom!r})")

    @classmethod
    def bottom(cls) -> "Interval":
        return _BOTTOM

    @classmethod
    def const(cls, v: int) -> "Interval":
        """[v, v]: one shared object for each int in the fixed range of
        `_CONSTS`, a new one outside it."""
        if v.__class__ is int and _CONST_MIN <= v <= _CONST_MAX:
            return _CONSTS[v - _CONST_MIN]
        return cls(v, v)

    def is_top(self) -> bool:
        return not self.is_bottom and self.lo == NEG_INF and self.hi == POS_INF

    def join(self, other: "Interval") -> "Interval":
        if self is other or other.is_bottom:
            return self
        if self.is_bottom:
            return other
        if self.lo <= other.lo:
            if self.hi >= other.hi:
                return self
            if self.lo == other.lo:
                return other
            return Interval(self.lo, other.hi)
        if other.hi >= self.hi:
            return other
        return Interval(other.lo, self.hi)

    def meet(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return _BOTTOM
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo > hi:
            return _BOTTOM
        return Interval(lo, hi)

    def leq(self, other: "Interval") -> bool:
        if self.is_bottom:
            return True
        if other.is_bottom:
            return False
        return self.lo >= other.lo and self.hi <= other.hi

    def widen(self, other: "Interval") -> "Interval":
        if self is other or other.is_bottom:
            return self
        if self.is_bottom:
            return other
        lo = self.lo if self.lo <= other.lo else NEG_INF
        hi = self.hi if self.hi >= other.hi else POS_INF
        if lo == self.lo and hi == self.hi:
            return self
        if lo == other.lo and hi == other.hi:
            return other
        if lo == NEG_INF and hi == POS_INF:
            return _TOP
        return Interval(lo, hi)

    def add(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return _BOTTOM
        return Interval(_add_bound(self.lo, other.lo),
                        _add_bound(self.hi, other.hi))

    def sub(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return _BOTTOM
        return Interval(_add_bound(self.lo, -other.hi),
                        _add_bound(self.hi, -other.lo))

    def mul(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return _BOTTOM
        corners = [_mul_bound(a, b)
                   for a in (self.lo, self.hi) for b in (other.lo, other.hi)]
        return Interval(min(corners), max(corners))

    def __str__(self) -> str:
        if self.is_bottom:
            return "⊥"
        lo = "-inf" if self.lo == NEG_INF else str(self.lo)
        hi = "+inf" if self.hi == POS_INF else str(self.hi)
        return f"[{lo},{hi}]"


_set_lo = Interval.lo.__set__
_set_hi = Interval.hi.__set__
_set_is_bottom = Interval.is_bottom.__set__

_BOTTOM = Interval(0, 0, is_bottom=True)
_TOP = Interval(NEG_INF, POS_INF)
# built once at import: the table never grows with the input
_CONST_MIN, _CONST_MAX = -16, 255
_CONSTS = tuple(Interval(v, v) for v in range(_CONST_MIN, _CONST_MAX + 1))


class AbstractEnv:
    """Map from variables to intervals, with a distinguished bottom."""

    __slots__ = ("_map", "is_bottom")

    def __init__(self, mapping: dict[VarId, Interval] | None = None,
                 is_bottom: bool = False):
        self.is_bottom = is_bottom
        self._map: dict[VarId, Interval] = {} if is_bottom else dict(mapping or {})

    @classmethod
    def _adopt(cls, mapping: dict[VarId, Interval]) -> "AbstractEnv":
        """A non-bottom env that owns `mapping` (no copy)."""
        env = cls.__new__(cls)
        env.is_bottom = False
        env._map = mapping
        return env

    @classmethod
    def bottom(cls) -> "AbstractEnv":
        return _BOTTOM_ENV

    def get(self, var: VarId) -> Interval:
        if self.is_bottom:
            return _BOTTOM
        return self._map.get(var, _TOP)

    def set(self, var: VarId, value: Interval) -> "AbstractEnv":
        if self.is_bottom or value.is_bottom:
            return _BOTTOM_ENV
        if self._map.get(var) is value:
            return self
        m = dict(self._map)
        m[var] = value
        return AbstractEnv._adopt(m)

    def variables(self) -> list[VarId]:
        return sorted(self._map, key=str)

    def join(self, other: "AbstractEnv") -> "AbstractEnv":
        return self._pointwise(other, Interval.join)

    def widen(self, other: "AbstractEnv") -> "AbstractEnv":
        return self._pointwise(other, Interval.widen)

    # _pointwise and leq read both maps directly.  A variable mapped on one
    # side only is Top on the other, so it joins and widens to Top and the
    # result keeps the union of the key sets.  Identical intervals are their
    # own join, widening and bound.  `op` returns its first operand when the
    # result equals it, so the map is copied only at the first variable that
    # changes, and `self` comes back when none does and no key is added.
    # The walk counts the keys of `a` missing from `b`: `b` holds a key
    # outside `a`, to add as Top, exactly when len(b) > len(a) - missing.

    def _pointwise(self, other: "AbstractEnv", op) -> "AbstractEnv":
        if self is other or other.is_bottom:
            return self
        if self.is_bottom:
            return other
        a, b = self._map, other._map
        m, missing = None, 0
        for v, x in a.items():
            y = b.get(v)
            if y is x:
                continue
            if y is None:
                missing += 1
                z = _TOP
            else:
                z = op(x, y)
            if z is not x:
                if m is None:
                    m = dict(a)
                m[v] = z
        if len(b) > len(a) - missing:
            if m is None:
                m = dict(a)
            for v in b:
                if v not in a:
                    m[v] = _TOP
        return self if m is None else AbstractEnv._adopt(m)

    def leq(self, other: "AbstractEnv") -> bool:
        if self.is_bottom:
            return True
        if other.is_bottom:
            return False
        a, b = self._map, other._map
        for v, y in b.items():
            x = a.get(v)
            if x is None:
                if not y.is_top():
                    return False
            elif x is not y and not x.leq(y):
                return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, AbstractEnv):
            return NotImplemented
        return self.leq(other) and other.leq(self)

    def __str__(self) -> str:
        if self.is_bottom:
            return "⊥"
        parts = [f"{v}↦{self._map[v]}" for v in self.variables()
                 if not self._map[v].is_top()]
        return "{" + ", ".join(parts) + "}"


_BOTTOM_ENV = AbstractEnv(is_bottom=True)


def eval_expr(expr: Expr, env: AbstractEnv) -> Interval:
    if env.is_bottom:
        return Interval.bottom()
    if isinstance(expr, Const):
        return Interval.const(expr.value)
    if isinstance(expr, Var):
        return env.get(expr.var)
    left, right = eval_expr(expr.left, env), eval_expr(expr.right, env)
    if expr.op == "+":
        return left.add(right)
    if expr.op == "-":
        return left.sub(right)
    if expr.op == "*":
        return left.mul(right)
    raise ValueError(f"unknown operator {expr.op!r}")


def _bound_for(op: str, rhs: Interval) -> Interval:
    """Interval of values v for which 'v op rhs' may hold."""
    if rhs.is_bottom:
        return Interval.bottom()
    if op == "==":
        return rhs
    if op == "<":
        return Interval(NEG_INF, rhs.hi - 1)
    if op == "<=":
        return Interval(NEG_INF, rhs.hi)
    if op == ">":
        return Interval(rhs.lo + 1, POS_INF)
    if op == ">=":
        return Interval(rhs.lo, POS_INF)
    raise ValueError(op)


def _refine_cmp(cmp: Cmp, env: AbstractEnv) -> AbstractEnv:
    left_i = eval_expr(cmp.left, env)
    right_i = eval_expr(cmp.right, env)
    if left_i.is_bottom or right_i.is_bottom:
        return AbstractEnv.bottom()

    # the left values for which the comparison may hold: none means it is
    # definitely false, and the env is bottom
    new = left_i.meet(_refine_point(cmp.op, right_i, left_i))
    if new.is_bottom:
        return AbstractEnv.bottom()

    out = env
    # one forward pass: tighten bare-variable sides
    if isinstance(cmp.left, Var):
        out = out.set(cmp.left.var, new)
    if isinstance(cmp.right, Var):
        swapped = _SWAP[cmp.op]
        new = out.get(cmp.right.var).meet(_refine_point(swapped, left_i,
                                                        out.get(cmp.right.var)))
        if new.is_bottom:
            return AbstractEnv.bottom()
        out = out.set(cmp.right.var, new)
    return out


def _refine_point(op: str, rhs: Interval, current: Interval) -> Interval:
    if op == "!=":
        # shrink only when the excluded point sits on a boundary
        if rhs.lo == rhs.hi and not current.is_bottom:
            p = rhs.lo
            if current.lo == current.hi == p:
                return Interval.bottom()
            if current.lo == p:
                return Interval(p + 1, current.hi)
            if current.hi == p:
                return Interval(current.lo, p - 1)
        return current
    return _bound_for(op, rhs)


def refine(cond: Cond, env: AbstractEnv) -> AbstractEnv:
    """Meet the environment with the condition (sound over-approximation)."""
    if env.is_bottom:
        return env
    if isinstance(cond, Cmp):
        return _refine_cmp(cond, env)
    if isinstance(cond, Not):
        return refine(negate(cond.cond), env)
    if isinstance(cond, And):
        return refine(cond.right, refine(cond.left, env))
    if isinstance(cond, Or):
        return refine(cond.left, env).join(refine(cond.right, env))
    raise TypeError(cond)


def may_be_false(cond: Cond, env: AbstractEnv) -> bool:
    """False only if every concrete valuation in env satisfies cond."""
    if env.is_bottom:
        return False
    return not refine(negate(cond), env).is_bottom


def transfer(instr: Instruction, env: AbstractEnv) -> AbstractEnv:
    if env.is_bottom:
        return env
    if isinstance(instr, Load):
        return env.set(instr.dst, env.get(instr.src))
    if isinstance(instr, Store):
        return env.set(instr.dst, eval_expr(instr.src, env))
    if isinstance(instr, LocalAssign):
        return env.set(instr.dst, eval_expr(instr.src, env))
    if isinstance(instr, Assume):
        return refine(instr.cond, env)
    if isinstance(instr, (Fence, Membar, Nop, Assert, ThreadCreate,
                          ThreadJoin)):
        return env
    raise TypeError(instr)
