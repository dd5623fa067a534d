"""The interval domain: "abstract values are intervals that are
guaranteed to contain the exact values" (paper, Section 1).

Intervals are over the signed 32-bit view of a word.  Any operation
whose exact result range would leave the signed 32-bit range wraps on
the hardware, so the transfer function conservatively returns ``top``
in that case — sound and, for embedded control code that does not rely
on deliberate overflow, precise enough (measured in experiment E2).

Widening supports *threshold sets*: the fixpoint engine seeds them with
the comparison constants found in the program, so a loop counter widens
to its tested limit instead of jumping to the type bounds.  This is the
D1 ablation of DESIGN.md.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .domain import AbstractValue, INT_MAX, INT_MIN, to_signed


class Interval(AbstractValue):
    """A signed interval [lo, hi]; empty (lo > hi) means bottom."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        if lo > hi:
            lo, hi = 1, 0  # canonical bottom
        self.lo = lo
        self.hi = hi

    # -- Constructors --------------------------------------------------------

    @classmethod
    def top(cls) -> "Interval":
        return _TOP

    @classmethod
    def bottom(cls) -> "Interval":
        return _BOTTOM

    @classmethod
    def const(cls, value: int) -> "Interval":
        value = to_signed(value)
        return cls(value, value)

    @classmethod
    def range(cls, low: int, high: int) -> "Interval":
        return cls(max(low, INT_MIN), min(high, INT_MAX))

    @classmethod
    def from_bounds(cls, lo, hi) -> "Interval":
        """Interval from packed (possibly numpy-integer) bounds.

        Converts to Python ints at the boundary so downstream
        arithmetic stays arbitrary-precision instead of silently
        wrapping in fixed-width numpy scalars.
        """
        return cls(int(lo), int(hi))

    # -- Lattice --------------------------------------------------------------

    def is_top(self) -> bool:
        return self.lo == INT_MIN and self.hi == INT_MAX

    def is_bottom(self) -> bool:
        return self.lo > self.hi

    def join(self, other: "Interval") -> "Interval":
        if self.is_bottom():
            return other
        if other.is_bottom():
            return self
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def meet(self, other: "Interval") -> "Interval":
        if self.is_bottom() or other.is_bottom():
            return _BOTTOM
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def widen(self, other: "Interval",
              thresholds: Sequence[int] = ()) -> "Interval":
        if self.is_bottom():
            return other
        if other.is_bottom():
            return self
        lo, hi = self.lo, self.hi
        if other.lo < lo:
            lo = max((t for t in thresholds if t <= other.lo),
                     default=INT_MIN)
        if other.hi > hi:
            hi = min((t for t in thresholds if t >= other.hi),
                     default=INT_MAX)
        return Interval(lo, hi)

    def narrow(self, other: "Interval") -> "Interval":
        """Replace infinite bounds by the refined ones (standard interval
        narrowing)."""
        if self.is_bottom() or other.is_bottom():
            return _BOTTOM
        lo = other.lo if self.lo == INT_MIN else self.lo
        hi = other.hi if self.hi == INT_MAX else self.hi
        return Interval(lo, hi)

    def leq(self, other: "Interval") -> bool:
        if self.is_bottom():
            return True
        if other.is_bottom():
            return False
        return other.lo <= self.lo and self.hi <= other.hi

    # -- Concretisation --------------------------------------------------------

    def contains(self, value: int) -> bool:
        return self.lo <= to_signed(value) <= self.hi

    def as_constant(self) -> Optional[int]:
        return self.lo if self.lo == self.hi else None

    def signed_bounds(self) -> Tuple[int, int]:
        return (self.lo, self.hi)

    # -- Arithmetic -------------------------------------------------------------

    def _lift(self, other: "Interval", lo: int, hi: int) -> "Interval":
        if self.is_bottom() or other.is_bottom():
            return _BOTTOM
        if lo < INT_MIN or hi > INT_MAX:
            return _TOP  # may wrap on the machine
        return Interval(lo, hi)

    def add(self, other: "Interval") -> "Interval":
        if self.is_bottom() or other.is_bottom():
            return _BOTTOM
        return self._lift(other, self.lo + other.lo, self.hi + other.hi)

    def sub(self, other: "Interval") -> "Interval":
        if self.is_bottom() or other.is_bottom():
            return _BOTTOM
        return self._lift(other, self.lo - other.hi, self.hi - other.lo)

    def mul(self, other: "Interval") -> "Interval":
        if self.is_bottom() or other.is_bottom():
            return _BOTTOM
        products = (self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi)
        return self._lift(other, min(products), max(products))

    def bitand(self, other: "Interval") -> "Interval":
        if self.is_bottom() or other.is_bottom():
            return _BOTTOM
        a, b = self.as_constant(), other.as_constant()
        if a is not None and b is not None:
            return Interval.const(a & b)
        if self.lo >= 0 and other.lo >= 0:
            return Interval(0, min(self.hi, other.hi))
        if other.lo >= 0:
            return Interval(0, other.hi)
        if self.lo >= 0:
            return Interval(0, self.hi)
        return _TOP

    def bitor(self, other: "Interval") -> "Interval":
        if self.is_bottom() or other.is_bottom():
            return _BOTTOM
        a, b = self.as_constant(), other.as_constant()
        if a is not None and b is not None:
            return Interval.const(to_signed(a | b))
        if self.lo >= 0 and other.lo >= 0:
            bound = _next_power_of_two_mask(max(self.hi, other.hi))
            return Interval(0, min(bound, INT_MAX))
        return _TOP

    def bitxor(self, other: "Interval") -> "Interval":
        if self.is_bottom() or other.is_bottom():
            return _BOTTOM
        a, b = self.as_constant(), other.as_constant()
        if a is not None and b is not None:
            return Interval.const(to_signed(a ^ b))
        if self.lo >= 0 and other.lo >= 0:
            bound = _next_power_of_two_mask(max(self.hi, other.hi))
            return Interval(0, min(bound, INT_MAX))
        return _TOP

    def shl(self, other: "Interval") -> "Interval":
        if self.is_bottom() or other.is_bottom():
            return _BOTTOM
        shifts = _shift_range(other)
        if shifts is None:
            return _TOP
        lo_s, hi_s = shifts
        candidates = [self.lo << lo_s, self.lo << hi_s,
                      self.hi << lo_s, self.hi << hi_s]
        return self._lift(other, min(candidates), max(candidates))

    def shr(self, other: "Interval") -> "Interval":
        if self.is_bottom() or other.is_bottom():
            return _BOTTOM
        shifts = _shift_range(other)
        if shifts is None or self.lo < 0:
            # Logical shift of a possibly-negative word reinterprets the
            # sign bit; only constant operands stay precise.
            a, b = self.as_constant(), other.as_constant()
            if a is not None and b is not None:
                return Interval.const(to_signed((a & 0xFFFFFFFF) >> (b & 31)))
            return _TOP
        lo_s, hi_s = shifts
        return Interval(self.lo >> hi_s, self.hi >> lo_s)

    def asr(self, other: "Interval") -> "Interval":
        if self.is_bottom() or other.is_bottom():
            return _BOTTOM
        shifts = _shift_range(other)
        if shifts is None:
            return _TOP
        lo_s, hi_s = shifts
        candidates = [self.lo >> lo_s, self.lo >> hi_s,
                      self.hi >> lo_s, self.hi >> hi_s]
        return Interval(min(candidates), max(candidates))

    # -- Comparisons -------------------------------------------------------------

    def refine_signed(self, op: str, other: "Interval") -> "Interval":
        if self.is_bottom() or other.is_bottom():
            return _BOTTOM
        if op == "<":
            return self.meet(Interval(INT_MIN, other.hi - 1))
        if op == "<=":
            return self.meet(Interval(INT_MIN, other.hi))
        if op == ">":
            return self.meet(Interval(other.lo + 1, INT_MAX))
        if op == ">=":
            return self.meet(Interval(other.lo, INT_MAX))
        if op == "==":
            return self.meet(other)
        if op == "!=":
            constant = other.as_constant()
            if constant is not None:
                if self.lo == constant:
                    return Interval(self.lo + 1, self.hi)
                if self.hi == constant:
                    return Interval(self.lo, self.hi - 1)
            return self
        raise ValueError(f"unknown comparison {op!r}")

    def compare_signed(self, op: str, other: "Interval") -> Optional[bool]:
        if self.is_bottom() or other.is_bottom():
            return None
        if op == "<":
            if self.hi < other.lo:
                return True
            if self.lo >= other.hi:
                return False
            return None
        if op == "<=":
            if self.hi <= other.lo:
                return True
            if self.lo > other.hi:
                return False
            return None
        if op == ">":
            return other.compare_signed("<", self)
        if op == ">=":
            return other.compare_signed("<=", self)
        if op == "==":
            if self.as_constant() is not None \
                    and self.as_constant() == other.as_constant():
                return True
            if self.meet(other).is_bottom():
                return False
            return None
        if op == "!=":
            equal = self.compare_signed("==", other)
            return None if equal is None else not equal
        raise ValueError(f"unknown comparison {op!r}")

    # -- Dunder ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Interval) and self.lo == other.lo
                and self.hi == other.hi)

    def __hash__(self) -> int:
        return hash((Interval, self.lo, self.hi))

    def __repr__(self) -> str:
        if self.is_bottom():
            return "⊥"
        if self.is_top():
            return "⊤"
        if self.lo == self.hi:
            return f"[{self.lo}]"
        lo = "-∞" if self.lo == INT_MIN else str(self.lo)
        hi = "+∞" if self.hi == INT_MAX else str(self.hi)
        return f"[{lo}, {hi}]"


def _shift_range(amount: Interval) -> Optional[Tuple[int, int]]:
    """Usable [lo, hi] shift amounts, or None if out of the 0..31 range
    (hardware masks the amount, which reorders bounds unpredictably)."""
    if amount.lo < 0 or amount.hi > 31:
        constant = amount.as_constant()
        if constant is not None:
            masked = constant & 31
            return (masked, masked)
        return None
    return (amount.lo, amount.hi)


def _next_power_of_two_mask(value: int) -> int:
    """Smallest ``2**k - 1`` covering ``value``."""
    mask = 1
    while mask < value + 1:
        mask <<= 1
    return mask - 1


_TOP = Interval(INT_MIN, INT_MAX)
_BOTTOM = Interval(1, 0)
