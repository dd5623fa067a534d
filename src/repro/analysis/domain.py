"""Abstract-domain interface for value analysis.

Value analysis "determines abstract values ... that stand for sets of
concrete values" (paper, Section 1).  The paper names a hierarchy of
domains — constant propagation, intervals, and relational refinements —
all of which implement this interface and plug into the same fixpoint
engine (:mod:`repro.analysis.solver`).

A domain models the *signed 32-bit* view of a KRISC register or memory
word.  All transfer functions must over-approximate the concrete wrapping
semantics defined in :mod:`repro.sim.cpu`; the property-based tests in
``tests/test_domain_soundness.py`` check this against random concrete
values.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple

INT_MIN = -(1 << 31)
INT_MAX = (1 << 31) - 1
WORD_MASK = 0xFFFFFFFF


def to_signed(word: int) -> int:
    """Signed 32-bit view of an unsigned word."""
    word &= WORD_MASK
    return word - (1 << 32) if word & (1 << 31) else word


class AbstractValue(abc.ABC):
    """One abstract value: a description of a set of 32-bit words.

    Instances are immutable.  ``bottom`` denotes the empty set (dead
    code); ``top`` denotes all words.
    """

    # -- Lattice -----------------------------------------------------------

    @classmethod
    @abc.abstractmethod
    def top(cls) -> "AbstractValue": ...

    @classmethod
    @abc.abstractmethod
    def bottom(cls) -> "AbstractValue": ...

    @classmethod
    @abc.abstractmethod
    def const(cls, value: int) -> "AbstractValue":
        """The abstraction of the single signed value ``value``."""

    @classmethod
    def range(cls, low: int, high: int) -> "AbstractValue":
        """Abstraction of the signed range [low, high].  Domains that
        cannot express ranges return ``top``."""
        if low == high:
            return cls.const(low)
        return cls.top()

    @abc.abstractmethod
    def is_top(self) -> bool: ...

    @abc.abstractmethod
    def is_bottom(self) -> bool: ...

    @abc.abstractmethod
    def join(self, other: "AbstractValue") -> "AbstractValue": ...

    @abc.abstractmethod
    def meet(self, other: "AbstractValue") -> "AbstractValue": ...

    @abc.abstractmethod
    def widen(self, other: "AbstractValue") -> "AbstractValue":
        """Widening: an upper bound of ``self`` and ``other`` chosen so
        that repeated widening stabilises in finitely many steps."""

    def narrow(self, other: "AbstractValue") -> "AbstractValue":
        """Narrowing: refine a post-widening value.  Default: keep the
        more precise of the two when comparable."""
        return other if other.leq(self) else self

    @abc.abstractmethod
    def leq(self, other: "AbstractValue") -> bool:
        """Partial order: does ``self`` describe a subset of ``other``?"""

    # -- Concretisation ----------------------------------------------------

    @abc.abstractmethod
    def contains(self, value: int) -> bool:
        """Does the concretisation include the signed value ``value``?"""

    def as_constant(self) -> Optional[int]:
        """The single signed value described, if exactly one."""
        return None

    def signed_bounds(self) -> Tuple[int, int]:
        """Sound signed bounds [lo, hi] on the concretisation.

        ``bottom`` has no bounds; callers must check ``is_bottom`` first.
        """
        return (INT_MIN, INT_MAX)

    def possible_values(self, limit: int = 64):
        """Explicit list of all concretisations when at most ``limit``
        remain, else ``None``.  Domains with congruence information
        override this to expose sparse value sets (used by the data
        cache analysis to trim candidate lines)."""
        constant = self.as_constant()
        if constant is not None:
            return [constant]
        return None

    # -- Transfer functions -------------------------------------------------

    @abc.abstractmethod
    def add(self, other: "AbstractValue") -> "AbstractValue": ...

    @abc.abstractmethod
    def sub(self, other: "AbstractValue") -> "AbstractValue": ...

    @abc.abstractmethod
    def mul(self, other: "AbstractValue") -> "AbstractValue": ...

    @abc.abstractmethod
    def bitand(self, other: "AbstractValue") -> "AbstractValue": ...

    @abc.abstractmethod
    def bitor(self, other: "AbstractValue") -> "AbstractValue": ...

    @abc.abstractmethod
    def bitxor(self, other: "AbstractValue") -> "AbstractValue": ...

    @abc.abstractmethod
    def shl(self, other: "AbstractValue") -> "AbstractValue": ...

    @abc.abstractmethod
    def shr(self, other: "AbstractValue") -> "AbstractValue":
        """Logical (unsigned) right shift."""

    @abc.abstractmethod
    def asr(self, other: "AbstractValue") -> "AbstractValue":
        """Arithmetic (sign-preserving) right shift."""

    # -- Comparison refinement ----------------------------------------------

    def refine_signed(self, op: str, other: "AbstractValue"
                      ) -> "AbstractValue":
        """Refine ``self`` under the assumption ``self <op> other``
        (signed), where ``op`` is one of ``< <= > >= == !=``.

        The default implementation returns ``self`` (no refinement),
        which is always sound.
        """
        return self

    def compare_signed(self, op: str, other: "AbstractValue"
                       ) -> Optional[bool]:
        """Decide ``self <op> other`` if it has the same truth value for
        all concretisations; ``None`` if undecided.  Used to detect
        conditions that "always evaluate to true or always evaluate to
        false" (paper, Section 3)."""
        return None
