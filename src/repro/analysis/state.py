"""Abstract machine states: registers, compare flags, and memory.

A state maps every processor resource to an abstract value from a
chosen domain — "value analysis ... tries to determine the values
stored in the processor's memory for every program point" (paper,
Section 1).

Memory is a partial map from concrete word addresses to abstract
values; an absent address means *top* (any word).  Initial contents are
seeded from the program image, stores with exactly-known addresses are
strong updates, small address ranges are weak updates, and anything
larger havocs the affected range — each case sound with respect to the
concrete semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Type

from ..isa.registers import NUM_REGISTERS, SP
from .domain import AbstractValue

#: Address ranges wider than this many bytes are not enumerated for
#: weak updates; the whole overlapped range is havocked instead.
WEAK_UPDATE_LIMIT = 4096


@dataclass(frozen=True)
class FlagsInfo:
    """Provenance of the current condition flags: the last compare.

    ``left_reg``/``right_reg`` name the registers that were compared (if
    still valid — a register write invalidates the link), and ``left``/
    ``right`` are the abstract operand values at compare time.
    """

    left: AbstractValue
    right: AbstractValue
    left_reg: Optional[int] = None
    right_reg: Optional[int] = None

    def invalidate_register(self, reg: int) -> "FlagsInfo":
        """Drop register links after ``reg`` is overwritten."""
        if reg not in (self.left_reg, self.right_reg):
            return self
        return FlagsInfo(
            self.left, self.right,
            None if self.left_reg == reg else self.left_reg,
            None if self.right_reg == reg else self.right_reg)


class AbstractMemory:
    """Partial map from word addresses to abstract values (absent=top).

    Copies are copy-on-write: :meth:`copy` shares the entry dict with
    the original in O(1) and the first mutating operation on either
    side materialises a private dict.  ``entries`` may therefore be
    *read* freely but must never be mutated from outside this class.
    """

    __slots__ = ("domain", "entries", "_shared")

    #: Class-wide instrumentation: COW copies handed out and the number
    #: that actually had to materialise a private dict.  Recorded by
    #: ``benchmarks/run_perf.py`` alongside the state-level counters.
    copies = 0
    materializations = 0

    def __init__(self, domain: Type[AbstractValue],
                 entries: Optional[Dict[int, AbstractValue]] = None):
        self.domain = domain
        self.entries = entries if entries is not None else {}
        self._shared = False

    def copy(self) -> "AbstractMemory":
        AbstractMemory.copies += 1
        self._shared = True
        clone = AbstractMemory(self.domain, self.entries)
        clone._shared = True
        return clone

    def _materialize(self) -> None:
        """Give this memory a private entry dict before mutating."""
        if self._shared:
            self.entries = dict(self.entries)
            self._shared = False
            AbstractMemory.materializations += 1

    # -- Accesses -------------------------------------------------------------

    def load(self, address: AbstractValue) -> AbstractValue:
        """Abstract value read through an abstract address."""
        if address.is_bottom():
            return self.domain.bottom()
        constant = address.as_constant()
        if constant is not None:
            return self.entries.get(_align(constant), self.domain.top())
        lo, hi = address.signed_bounds()
        if hi - lo > WEAK_UPDATE_LIMIT:
            return self.domain.top()
        result = self.domain.bottom()
        for word in range(_align(lo), hi + 1, 4):
            value = self.entries.get(word)
            if value is None:
                return self.domain.top()
            result = result.join(value)
        return result

    def store(self, address: AbstractValue, value: AbstractValue) -> None:
        """Abstract store; strong update only for exact addresses."""
        if address.is_bottom():
            return
        constant = address.as_constant()
        if constant is not None:
            self._materialize()
            self.entries[_align(constant)] = value
            return
        lo, hi = address.signed_bounds()
        if hi - lo > WEAK_UPDATE_LIMIT:
            self._havoc(lo, hi)
            return
        words = [word for word in range(_align(lo), hi + 1, 4)
                 if word in self.entries]
        if not words:
            return      # nothing tracked in range: keep sharing
        self._materialize()
        for word in words:
            self.entries[word] = self.entries[word].join(value)

    def seed(self, address: int, value: AbstractValue) -> None:
        """Strong update at a concrete address (entry-state seeding)."""
        self._materialize()
        self.entries[_align(address)] = value

    def _havoc(self, lo: int, hi: int) -> None:
        doomed = [w for w in self.entries if lo - 3 <= w <= hi]
        if not doomed:
            return
        self._materialize()
        for word in doomed:
            del self.entries[word]

    # -- Lattice ----------------------------------------------------------------

    def same_entries(self, other: "AbstractMemory") -> bool:
        """Structural fingerprint: sharing the entry dict (as COW copies
        do until one side mutates) proves the memories are equal."""
        return self.entries is other.entries

    def join(self, other: "AbstractMemory") -> "AbstractMemory":
        if self.same_entries(other):
            return self.copy()
        merged = {}
        get = other.entries.get
        for word, value in self.entries.items():
            other_value = get(word)
            if other_value is not None:
                # Identity fast path: abstract values are immutable and
                # COW propagation shares them, so `x is y` proves x == y.
                merged[word] = value if value is other_value \
                    else value.join(other_value)
        return AbstractMemory(self.domain, merged)

    def widen(self, other: "AbstractMemory",
              thresholds: Sequence[int] = ()) -> "AbstractMemory":
        if self.same_entries(other):
            return self.copy()
        merged = {}
        get = other.entries.get
        for word, value in self.entries.items():
            other_value = get(word)
            if other_value is not None:
                merged[word] = value if value is other_value \
                    else value.widen(other_value, thresholds)
        return AbstractMemory(self.domain, merged)

    def narrow(self, other: "AbstractMemory") -> "AbstractMemory":
        if self.same_entries(other):
            return self.copy()
        merged = dict(other.entries)
        get = other.entries.get
        for word, value in self.entries.items():
            other_value = get(word)
            if other_value is None or value is other_value:
                merged[word] = value
            else:
                merged[word] = value.narrow(other_value)
        return AbstractMemory(self.domain, merged)

    def leq(self, other: "AbstractMemory") -> bool:
        """Partial order with absent-means-top on *both* sides: entries
        of ``self`` that ``other`` does not track are below other's
        implicit top and never fail the comparison; entries of ``other``
        that ``self`` does not track require other's value to be top.
        (Pinned by a regression test — the COW fast path below depends
        on this order being reflexive.)"""
        if self.same_entries(other):
            return True
        get = self.entries.get
        for word, other_value in other.entries.items():
            value = get(word)
            if value is None:
                if not other_value.is_top():
                    return False
            elif value is not other_value and not value.leq(other_value):
                return False
        return True

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"AbstractMemory({len(self.entries)} tracked words)"


def _align(address: int) -> int:
    return address & ~3


class AbstractState:
    """Register file + flags + memory under one abstract domain.

    Besides per-register values, the state tracks *difference aliases*
    ``rd = base + offset`` established by ``MOV``/``ADDI``/``SUBI`` —
    the paper's "upper and lower bounds for their differences"
    refinement (Section 1).  When a branch refines an aliased register,
    the refinement propagates to its base and dependents, which is what
    keeps loop counters bounded when the compiled exit test compares a
    derived temporary (e.g. ``i + 3 < n``).
    """

    __slots__ = ("domain", "regs", "flags", "memory", "aliases",
                 "_bottom", "_bottom_regs", "_shared")

    #: Class-wide instrumentation: state copies handed out (all O(1)
    #: under COW) and the number that had to materialise registers.
    copies = 0
    materializations = 0

    def __init__(self, domain: Type[AbstractValue],
                 regs: Optional[List[AbstractValue]] = None,
                 flags: Optional[FlagsInfo] = None,
                 memory: Optional[AbstractMemory] = None,
                 aliases: Optional[Dict[int, Tuple[int, int]]] = None,
                 bottom: bool = False):
        self.domain = domain
        #: Bit ``reg`` is set while register ``reg`` holds bottom; every
        #: later register write goes through :meth:`_write`.
        if regs is None:
            self.regs = [domain.top() for _ in range(NUM_REGISTERS)]
            self._bottom_regs = 0
        else:
            self.regs = regs
            self._bottom_regs = sum(1 << reg for reg, value
                                    in enumerate(regs) if value.is_bottom())
        self.flags = flags
        self.memory = memory if memory is not None else \
            AbstractMemory(domain)
        #: reg -> (base_reg, offset): reg == base_reg + offset holds.
        self.aliases = aliases if aliases is not None else {}
        self._bottom = bottom
        self._shared = False

    # -- Construction ------------------------------------------------------------

    @classmethod
    def entry_state(cls, domain: Type[AbstractValue], stack_pointer: int,
                    initial_memory: Optional[Dict[int, int]] = None,
                    register_ranges: Optional[
                        Dict[int, Tuple[int, int]]] = None,
                    memory_ranges: Optional[
                        Dict[int, Tuple[int, int]]] = None,
                    memory: Optional[AbstractMemory] = None
                    ) -> "AbstractState":
        """The abstract state at task entry.

        ``register_ranges`` plays the role of aiT's user annotations on
        input registers (e.g. "R0 is in [0, 100]").  ``memory_ranges``
        is the memory-side counterpart: per word address, the value
        range the environment may have placed there before the task
        runs (input buffers) — overriding the binary's initial image,
        so the analysis never treats externally-written data as the
        constants the image happens to contain.  ``memory`` overrides
        the backing abstract memory (e.g. a vectorized one).
        """
        state = cls(domain, memory=memory)
        state._write(SP, domain.const(stack_pointer))
        if initial_memory:
            for address, word in initial_memory.items():
                state.memory.seed(address, domain.const(word))
        if memory_ranges:
            for address, (low, high) in memory_ranges.items():
                state.memory.seed(address, domain.range(low, high))
        if register_ranges:
            for reg, (low, high) in register_ranges.items():
                state._write(reg, domain.range(low, high))
        return state

    @classmethod
    def bottom_state(cls, domain: Type[AbstractValue]) -> "AbstractState":
        return cls(domain, bottom=True)

    def copy(self) -> "AbstractState":
        """O(1) copy-on-write copy: registers, aliases, and memory are
        shared with the original until either side mutates."""
        AbstractState.copies += 1
        self._shared = True
        # Bypasses __init__, which would rescan the shared registers.
        clone = AbstractState.__new__(AbstractState)
        clone.domain = self.domain
        clone.regs = self.regs
        clone.flags = self.flags
        clone.memory = self.memory.copy()
        clone.aliases = self.aliases
        clone._bottom = self._bottom
        clone._bottom_regs = self._bottom_regs
        clone._shared = True
        return clone

    def _materialize(self) -> None:
        """Privatise the register file and alias map before mutating."""
        if self._shared:
            self.regs = list(self.regs)
            self.aliases = dict(self.aliases)
            self._shared = False
            AbstractState.materializations += 1

    # -- Registers ------------------------------------------------------------------

    def get(self, reg: int) -> AbstractValue:
        return self.regs[reg]

    def _write(self, reg: int, value: AbstractValue) -> None:
        """Store into a private register file, keeping the bottom mask."""
        self.regs[reg] = value
        if value.is_bottom():
            self._bottom_regs |= 1 << reg
        else:
            self._bottom_regs &= ~(1 << reg)

    def set(self, reg: int, value: AbstractValue) -> None:
        """Write a register, invalidating flag and alias links to it."""
        self._materialize()
        self._write(reg, value)
        if self.flags is not None:
            self.flags = self.flags.invalidate_register(reg)
        self.aliases.pop(reg, None)
        for dependent in [d for d, (base, _off) in self.aliases.items()
                          if base == reg]:
            del self.aliases[dependent]

    def set_alias(self, reg: int, base: int, offset: int) -> None:
        """Record ``reg == base + offset`` (call after :meth:`set`)."""
        if reg != base:
            self._materialize()
            self.aliases[reg] = (base, offset)

    def refine_register(self, reg: int, value: AbstractValue) -> None:
        """Meet a register with a refined value, propagating through
        difference aliases one hop in each direction."""
        self._materialize()
        refined = self.regs[reg].meet(value)
        self._write(reg, refined)
        alias = self.aliases.get(reg)
        if alias is not None:
            base, offset = alias
            base_value = refined.sub(self.domain.const(offset))
            self._write(base, self.regs[base].meet(base_value))
        for dependent, (base, offset) in self.aliases.items():
            if base == reg and dependent != reg:
                dep_value = refined.add(self.domain.const(offset))
                self._write(dependent,
                            self.regs[dependent].meet(dep_value))

    @property
    def stack_pointer(self) -> AbstractValue:
        return self.regs[SP]

    # -- Lattice -----------------------------------------------------------------------

    def is_bottom(self) -> bool:
        return self._bottom or self._bottom_regs != 0

    def same_structure(self, other: "AbstractState") -> bool:
        """Structural fingerprint: two states sharing all underlying
        containers (as COW copies do until mutated) are equal, so
        ``join``/``widen``/``narrow``/``leq`` can short-circuit."""
        if self is other:
            return True
        return (self._bottom == other._bottom
                and self.regs is other.regs
                and self.flags is other.flags
                and self.aliases is other.aliases
                and self.memory.same_entries(other.memory))

    def join(self, other: "AbstractState") -> "AbstractState":
        if self.same_structure(other):
            return self.copy()
        if self.is_bottom():
            return other
        if other.is_bottom():
            return self
        regs = [a if a is b else a.join(b)
                for a, b in zip(self.regs, other.regs)]
        flags = self.flags if self._flags_compatible(other) else None
        if flags is not None and other.flags is not None:
            flags = FlagsInfo(self.flags.left.join(other.flags.left),
                              self.flags.right.join(other.flags.right),
                              self.flags.left_reg, self.flags.right_reg)
        aliases = {reg: link for reg, link in self.aliases.items()
                   if other.aliases.get(reg) == link}
        return AbstractState(self.domain, regs, flags,
                             self.memory.join(other.memory), aliases)

    def widen(self, other: "AbstractState",
              thresholds: Sequence[int] = ()) -> "AbstractState":
        if self.same_structure(other):
            result = self.copy()
            result.flags = None     # widening always drops flags
            return result
        if self.is_bottom():
            return other
        if other.is_bottom():
            return self
        regs = [a if a is b else a.widen(b, thresholds)
                for a, b in zip(self.regs, other.regs)]
        # Flags are block-local derived information; dropping them at
        # widening points is sound and guarantees termination.  Aliases
        # shrink monotonically under intersection, so keeping the
        # common ones preserves termination.
        aliases = {reg: link for reg, link in self.aliases.items()
                   if other.aliases.get(reg) == link}
        return AbstractState(self.domain, regs, None,
                             self.memory.widen(other.memory, thresholds),
                             aliases)

    def narrow(self, other: "AbstractState") -> "AbstractState":
        if self.same_structure(other):
            return self.copy()
        if self.is_bottom() or other.is_bottom():
            return other
        regs = [a if a is b else a.narrow(b)
                for a, b in zip(self.regs, other.regs)]
        aliases = {reg: link for reg, link in self.aliases.items()
                   if other.aliases.get(reg) == link}
        return AbstractState(self.domain, regs, other.flags,
                             self.memory.narrow(other.memory), aliases)

    def leq(self, other: "AbstractState") -> bool:
        if self.same_structure(other):
            return True
        if self.is_bottom():
            return True
        if other.is_bottom():
            return False
        if not all(a is b or a.leq(b)
                   for a, b in zip(self.regs, other.regs)):
            return False
        if other.flags is not None and self.flags is None:
            return False
        if other.flags is not None:
            if (self.flags.left_reg, self.flags.right_reg) != \
                    (other.flags.left_reg, other.flags.right_reg):
                return False
            if not (self.flags.left.leq(other.flags.left)
                    and self.flags.right.leq(other.flags.right)):
                return False
        for reg, link in other.aliases.items():
            if self.aliases.get(reg) != link:
                return False
        return self.memory.leq(other.memory)

    def _flags_compatible(self, other: "AbstractState") -> bool:
        if self.flags is None or other.flags is None:
            return False
        return (self.flags.left_reg == other.flags.left_reg
                and self.flags.right_reg == other.flags.right_reg)

    def __repr__(self) -> str:
        if self.is_bottom():
            return "AbstractState(⊥)"
        interesting = {i: r for i, r in enumerate(self.regs)
                       if not r.is_top()}
        regs = ", ".join(f"R{i}={v!r}" for i, v in interesting.items())
        return f"AbstractState({regs}, mem={len(self.memory)})"
