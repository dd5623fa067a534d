"""Unit tests for the abstract machine state: registers, flags,
memory, and difference aliases."""

import pytest

from repro.analysis import Interval
from repro.analysis.state import (AbstractMemory, AbstractState,
                                  FlagsInfo)
from repro.analysis.transfer import (refine_by_condition,
                                     transfer_instruction)
from repro.isa.instructions import Cond, Instruction, Opcode


def fresh_state(**regs):
    state = AbstractState(Interval)
    for reg, (lo, hi) in regs.items():
        state.set(int(reg[1:]), Interval(lo, hi))
    return state


class TestAbstractMemory:
    def test_strong_update_exact_address(self):
        memory = AbstractMemory(Interval)
        memory.store(Interval.const(0x8000), Interval.const(5))
        assert memory.load(Interval.const(0x8000)) == Interval.const(5)

    def test_load_unknown_address_is_top(self):
        memory = AbstractMemory(Interval)
        assert memory.load(Interval.const(0x9000)).is_top()

    def test_weak_update_joins(self):
        memory = AbstractMemory(Interval)
        memory.store(Interval.const(0x8000), Interval.const(1))
        memory.store(Interval.const(0x8004), Interval.const(2))
        memory.store(Interval(0x8000, 0x8004), Interval.const(9))
        assert memory.load(Interval.const(0x8000)) == Interval(1, 9)
        assert memory.load(Interval.const(0x8004)) == Interval(2, 9)

    def test_wide_store_havocs_range(self):
        memory = AbstractMemory(Interval)
        memory.store(Interval.const(0x8000), Interval.const(1))
        memory.store(Interval.const(0x20000), Interval.const(2))
        memory.store(Interval(0x7000, 0x10000), Interval.const(0))
        assert memory.load(Interval.const(0x8000)).is_top()
        assert memory.load(Interval.const(0x20000)) == Interval.const(2)

    def test_range_load_joins_entries(self):
        memory = AbstractMemory(Interval)
        memory.store(Interval.const(0x8000), Interval.const(3))
        memory.store(Interval.const(0x8004), Interval.const(7))
        loaded = memory.load(Interval(0x8000, 0x8004))
        assert loaded == Interval(3, 7)

    def test_range_load_with_gap_is_top(self):
        memory = AbstractMemory(Interval)
        memory.store(Interval.const(0x8000), Interval.const(3))
        # 0x8004 untracked -> join with top.
        assert memory.load(Interval(0x8000, 0x8004)).is_top()

    def test_join_intersects_keys(self):
        a, b = AbstractMemory(Interval), AbstractMemory(Interval)
        a.store(Interval.const(0x8000), Interval.const(1))
        a.store(Interval.const(0x8004), Interval.const(2))
        b.store(Interval.const(0x8004), Interval.const(5))
        joined = a.join(b)
        assert 0x8000 not in joined.entries
        assert joined.entries[0x8004] == Interval(2, 5)

    def test_leq(self):
        small, big = AbstractMemory(Interval), AbstractMemory(Interval)
        small.store(Interval.const(0x8000), Interval.const(2))
        big.store(Interval.const(0x8000), Interval(0, 5))
        assert small.leq(big)
        assert not big.leq(small)
        assert big.leq(AbstractMemory(Interval))   # empty = all top


class TestDifferenceAliases:
    def test_alias_created_by_addi(self):
        state = fresh_state(R1=(0, 10))
        instr = Instruction(Opcode.ADDI, rd=2, rs1=1, imm=3,
                            address=0x1000)
        transfer_instruction(state, instr)
        assert state.aliases[2] == (1, 3)

    def test_alias_cleared_on_base_write(self):
        state = fresh_state(R1=(0, 10))
        transfer_instruction(state, Instruction(
            Opcode.ADDI, rd=2, rs1=1, imm=3, address=0))
        transfer_instruction(state, Instruction(
            Opcode.MOVI, rd=1, imm=0, address=4))
        assert 2 not in state.aliases

    def test_refinement_propagates_to_base(self):
        # R2 = R1 + 3; assume R2 < 10  ==>  R1 < 7.
        state = fresh_state(R1=(0, 100))
        transfer_instruction(state, Instruction(
            Opcode.ADDI, rd=2, rs1=1, imm=3, address=0))
        transfer_instruction(state, Instruction(
            Opcode.CMPI, rs1=2, imm=10, address=4))
        refined = refine_by_condition(state, Cond.LT)
        assert refined.get(2).signed_bounds() == (3, 9)
        assert refined.get(1).signed_bounds() == (0, 6)

    def test_refinement_propagates_to_dependents(self):
        # R2 = R1 + 4; assume R1 >= 8  ==>  R2 >= 12.
        state = fresh_state(R1=(0, 100))
        transfer_instruction(state, Instruction(
            Opcode.ADDI, rd=2, rs1=1, imm=4, address=0))
        transfer_instruction(state, Instruction(
            Opcode.CMPI, rs1=1, imm=8, address=4))
        refined = refine_by_condition(state, Cond.GE)
        assert refined.get(1).signed_bounds()[0] == 8
        assert refined.get(2).signed_bounds()[0] == 12

    def test_mov_creates_zero_offset_alias(self):
        state = fresh_state(R1=(5, 9))
        transfer_instruction(state, Instruction(
            Opcode.MOV, rd=3, rs1=1, address=0))
        assert state.aliases[3] == (1, 0)

    def test_join_keeps_only_common_aliases(self):
        a = fresh_state(R1=(0, 10))
        transfer_instruction(a, Instruction(
            Opcode.ADDI, rd=2, rs1=1, imm=3, address=0))
        b = fresh_state(R1=(0, 10))
        transfer_instruction(b, Instruction(
            Opcode.ADDI, rd=2, rs1=1, imm=5, address=0))
        assert 2 not in a.join(b).aliases
        c = fresh_state(R1=(0, 10))
        transfer_instruction(c, Instruction(
            Opcode.ADDI, rd=2, rs1=1, imm=3, address=0))
        assert a.join(c).aliases[2] == (1, 3)


class TestFlags:
    def test_flags_recorded_by_cmp(self):
        state = fresh_state(R1=(0, 5), R2=(3, 3))
        transfer_instruction(state, Instruction(
            Opcode.CMP, rs1=1, rs2=2, address=0))
        assert state.flags.left_reg == 1
        assert state.flags.right_reg == 2

    def test_flag_link_invalidated_on_write(self):
        state = fresh_state(R1=(0, 5))
        transfer_instruction(state, Instruction(
            Opcode.CMPI, rs1=1, imm=3, address=0))
        transfer_instruction(state, Instruction(
            Opcode.MOVI, rd=1, imm=9, address=4))
        assert state.flags.left_reg is None
        # The recorded value is still usable for feasibility.
        assert state.flags.left == Interval(0, 5)

    def test_refinement_after_invalidation_skips_register(self):
        state = fresh_state(R1=(0, 5))
        transfer_instruction(state, Instruction(
            Opcode.CMPI, rs1=1, imm=3, address=0))
        transfer_instruction(state, Instruction(
            Opcode.MOVI, rd=1, imm=9, address=4))
        refined = refine_by_condition(state, Cond.LT)
        # R1 now holds 9 and must not be refined by the stale compare.
        assert refined.get(1) == Interval.const(9)

    def test_infeasible_condition_gives_bottom(self):
        state = fresh_state(R1=(5, 5))
        transfer_instruction(state, Instruction(
            Opcode.CMPI, rs1=1, imm=5, address=0))
        assert refine_by_condition(state, Cond.NE).is_bottom()
        assert not refine_by_condition(state, Cond.EQ).is_bottom()

    def test_unsigned_condition_refines_when_nonnegative(self):
        state = fresh_state(R1=(0, 100))
        transfer_instruction(state, Instruction(
            Opcode.CMPI, rs1=1, imm=10, address=0))
        refined = refine_by_condition(state, Cond.LO)
        assert refined.get(1).signed_bounds() == (0, 9)

    def test_unsigned_condition_skipped_when_possibly_negative(self):
        state = fresh_state(R1=(-5, 100))
        transfer_instruction(state, Instruction(
            Opcode.CMPI, rs1=1, imm=10, address=0))
        refined = refine_by_condition(state, Cond.LO)
        # Signed/unsigned views differ: no refinement, but no bottom.
        assert refined.get(1).signed_bounds() == (-5, 100)


class TestStateLattice:
    def test_join_pointwise(self):
        a = fresh_state(R1=(0, 3))
        b = fresh_state(R1=(5, 9))
        assert a.join(b).get(1) == Interval(0, 9)

    def test_bottom_absorbs(self):
        a = fresh_state(R1=(0, 3))
        bottom = AbstractState.bottom_state(Interval)
        assert bottom.join(a).get(1) == Interval(0, 3)
        assert a.join(bottom).get(1) == Interval(0, 3)

    def test_bottom_register_tracked_through_writes_and_copies(self):
        # is_bottom means "the flag or any register is bottom", kept up
        # to date on every write (not sticky) and carried by COW copies.
        state = fresh_state(R1=(0, 3))
        state.refine_register(1, Interval(5, 9))
        assert state.is_bottom()
        copy = state.copy()
        assert copy.is_bottom()
        state.set(1, Interval(0, 1))
        assert not state.is_bottom()
        assert copy.is_bottom()
        built = AbstractState(Interval, [Interval.top()] * 15
                              + [Interval.bottom()])
        assert built.is_bottom()
        # An empty entry range is refused rather than analysed as a
        # bottom (unreachable) task.
        with pytest.raises(ValueError, match="R2 is empty"):
            AbstractState.entry_state(Interval, 0x1000,
                                      register_ranges={2: (5, 4)})

    def test_leq_reflexive_and_ordered(self):
        small = fresh_state(R1=(2, 3))
        big = fresh_state(R1=(0, 9))
        assert small.leq(small)
        assert small.leq(big)
        assert not big.leq(small)

    def test_widen_drops_flags(self):
        a = fresh_state(R1=(0, 3))
        transfer_instruction(a, Instruction(
            Opcode.CMPI, rs1=1, imm=3, address=0))
        b = fresh_state(R1=(0, 4))
        widened = a.widen(b)
        assert widened.flags is None


class TestMemoryPartialOrder:
    """Regression pins for AbstractMemory.leq: an absent address means
    *top* on BOTH sides of the comparison.  The copy-on-write
    structural fast path (shared entry dict => leq) is only sound if
    this order is reflexive, and the fixpoint kernel's convergence
    check relies on the asymmetric absent-entry handling below."""

    def test_absent_on_right_means_top_accepts_anything(self):
        tracked = AbstractMemory(Interval)
        tracked.store(Interval.const(0x8000), Interval(0, 5))
        empty = AbstractMemory(Interval)
        # {0x8000: [0,5]} <= {} because the right side is all-top.
        assert tracked.leq(empty)

    def test_absent_on_left_means_top_fails_bounded_right(self):
        tracked = AbstractMemory(Interval)
        tracked.store(Interval.const(0x8000), Interval(0, 5))
        empty = AbstractMemory(Interval)
        # {} is all-top, which is NOT below a bounded entry.
        assert not empty.leq(tracked)

    def test_absent_left_accepts_explicit_top_right(self):
        explicit_top = AbstractMemory(Interval)
        explicit_top.entries[0x8000] = Interval.top()
        empty = AbstractMemory(Interval)
        # {} <= {0x8000: top}: implicit and explicit top coincide.
        assert empty.leq(explicit_top)
        assert explicit_top.leq(empty)

    def test_disjoint_tracked_words_are_asymmetric(self):
        a = AbstractMemory(Interval)
        a.store(Interval.const(0x8000), Interval(0, 5))
        b = AbstractMemory(Interval)
        b.store(Interval.const(0x9000), Interval(0, 5))
        # Each side's extra word is below the other's implicit top only
        # when the *other* side demands nothing non-top of it.
        assert not a.leq(b)     # a lacks bounded 0x9000
        assert not b.leq(a)     # b lacks bounded 0x8000

    def test_reflexive_and_pointwise(self):
        a = AbstractMemory(Interval)
        a.store(Interval.const(0x8000), Interval(2, 3))
        assert a.leq(a)
        wider = AbstractMemory(Interval)
        wider.store(Interval.const(0x8000), Interval(0, 9))
        assert a.leq(wider)
        assert not wider.leq(a)

    def test_join_drops_words_absent_in_either_side(self):
        a = AbstractMemory(Interval)
        a.store(Interval.const(0x8000), Interval(0, 5))
        a.store(Interval.const(0x8004), Interval(1, 1))
        b = AbstractMemory(Interval)
        b.store(Interval.const(0x8000), Interval(3, 7))
        joined = a.join(b)
        assert joined.entries.get(0x8000) == Interval(0, 7)
        # 0x8004 is top in b, so it must be top (absent) in the join.
        assert 0x8004 not in joined.entries


class TestCopyOnWrite:
    """AbstractState/AbstractMemory copies are O(1) and share storage
    until one side mutates."""

    def test_memory_copy_shares_until_store(self):
        memory = AbstractMemory(Interval)
        memory.store(Interval.const(0x8000), Interval.const(1))
        clone = memory.copy()
        assert clone.entries is memory.entries
        clone.store(Interval.const(0x8004), Interval.const(2))
        assert clone.entries is not memory.entries
        assert 0x8004 not in memory.entries
        assert memory.load(Interval.const(0x8000)) == Interval.const(1)

    def test_original_can_mutate_after_copy_without_leaking(self):
        memory = AbstractMemory(Interval)
        memory.store(Interval.const(0x8000), Interval.const(1))
        clone = memory.copy()
        memory.store(Interval.const(0x8000), Interval.const(9))
        assert clone.load(Interval.const(0x8000)) == Interval.const(1)

    def test_state_copy_shares_registers_until_set(self):
        state = fresh_state(R1=(0, 3))
        clone = state.copy()
        assert clone.regs is state.regs
        clone.set(2, Interval.const(7))
        assert clone.regs is not state.regs
        assert state.get(2).is_top()
        assert clone.get(1) == Interval(0, 3)

    def test_alias_maps_do_not_leak_across_copies(self):
        state = fresh_state(R1=(0, 3))
        state.set(2, state.get(1))
        state.set_alias(2, 1, 0)
        clone = state.copy()
        clone.set(2, Interval.const(5))     # drops the alias in clone
        assert state.aliases.get(2) == (1, 0)
        assert 2 not in clone.aliases

    def test_refine_register_materialises(self):
        state = fresh_state(R1=(0, 10))
        clone = state.copy()
        clone.refine_register(1, Interval(0, 4))
        assert clone.get(1) == Interval(0, 4)
        assert state.get(1) == Interval(0, 10)

    def test_same_structure_fast_paths(self):
        state = fresh_state(R1=(0, 3))
        clone = state.copy()
        assert state.same_structure(clone)
        assert state.leq(clone) and clone.leq(state)
        joined = state.join(clone)
        assert joined.leq(state) and state.leq(joined)
        clone.set(1, Interval(0, 99))
        assert not state.same_structure(clone)
        assert state.get(1) == Interval(0, 3)
