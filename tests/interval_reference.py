"""The interval value as it stood before it became a slotted class: a
frozen dataclass.  `test_interval_contract.py` checks that the domain's
`Interval` keeps its value contract (equality, hash, repr, str, the
lattice and arithmetic operations, validation and immutability)."""
from __future__ import annotations

from dataclasses import dataclass

NEG_INF = float("-inf")
POS_INF = float("inf")

Bound = int | float


def _mul_bound(a: Bound, b: Bound) -> Bound:
    # four-corner helper with 0 * inf = 0
    if a == 0 or b == 0:
        return 0
    return a * b


@dataclass(frozen=True)
class Interval:
    lo: Bound
    hi: Bound
    is_bottom: bool = False

    def __post_init__(self):
        if not self.is_bottom and self.lo > self.hi:
            raise ValueError(f"bad interval [{self.lo}, {self.hi}]")

    @classmethod
    def bottom(cls) -> "Interval":
        return _BOTTOM

    @classmethod
    def const(cls, v: int) -> "Interval":
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
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def sub(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return _BOTTOM
        return Interval(self.lo - other.hi, self.hi - other.lo)

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


_BOTTOM = Interval(0, 0, is_bottom=True)
_TOP = Interval(NEG_INF, POS_INF)
