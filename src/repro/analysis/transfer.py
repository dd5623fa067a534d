"""Abstract transfer functions for KRISC instructions.

Each function over-approximates the concrete semantics implemented by
the simulator (:mod:`repro.sim.cpu`); the correspondence is enforced by
property tests.  Conditional-branch refinement implements the paper's
observation that "value analysis can also determine that certain
conditions always evaluate to true or always evaluate to false"
(Section 3): an edge whose refined state is bottom is infeasible and is
excluded from the WCET path analysis (ablation D5).
"""

from __future__ import annotations

from typing import Optional, Type

from ..isa.instructions import Cond, Instruction, Opcode
from ..isa.registers import LR, SP
from .domain import AbstractValue
from .state import AbstractState, FlagsInfo

#: Signed comparison operator asserted by each condition code, applied
#: as ``left <op> right`` for the compare ``CMP left, right``.
_SIGNED_OPS = {
    Cond.EQ: "==", Cond.NE: "!=",
    Cond.LT: "<", Cond.GE: ">=", Cond.GT: ">", Cond.LE: "<=",
}

#: Unsigned conditions map to the same signed operator when both
#: operands are known non-negative (then the views coincide).
_UNSIGNED_OPS = {
    Cond.LO: "<", Cond.HS: ">=", Cond.HI: ">", Cond.LS: "<=",
}

_SWAPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
            "==": "==", "!=": "!="}

_ALU_REG = {
    Opcode.ADD: "add", Opcode.SUB: "sub", Opcode.MUL: "mul",
    Opcode.AND: "bitand", Opcode.OR: "bitor", Opcode.XOR: "bitxor",
    Opcode.SHL: "shl", Opcode.SHR: "shr", Opcode.ASR: "asr",
}

_ALU_IMM = {
    Opcode.ADDI: "add", Opcode.SUBI: "sub", Opcode.MULI: "mul",
    Opcode.ANDI: "bitand", Opcode.ORI: "bitor", Opcode.XORI: "bitxor",
    Opcode.SHLI: "shl", Opcode.SHRI: "shr", Opcode.ASRI: "asr",
}


def transfer_instruction(state: AbstractState,
                         instr: Instruction) -> AbstractState:
    """Abstractly execute one instruction, mutating and returning
    ``state`` (callers copy at block boundaries)."""
    if state.is_bottom():
        return state
    domain = state.domain
    op = instr.opcode

    method = _ALU_REG.get(op)
    if method is not None:
        result = getattr(state.get(instr.rs1), method)(state.get(instr.rs2))
        state.set(instr.rd, result)
        return state
    method = _ALU_IMM.get(op)
    if method is not None:
        result = getattr(state.get(instr.rs1), method)(
            domain.const(instr.imm))
        state.set(instr.rd, result)
        # Difference alias: rd == rs1 +/- imm (paper Section 1's
        # "bounds for differences" refinement).
        if op is Opcode.ADDI:
            state.set_alias(instr.rd, instr.rs1, instr.imm)
        elif op is Opcode.SUBI:
            state.set_alias(instr.rd, instr.rs1, -instr.imm)
        return state

    if op is Opcode.MOV:
        state.set(instr.rd, state.get(instr.rs1))
        state.set_alias(instr.rd, instr.rs1, 0)
    elif op is Opcode.MOVI:
        state.set(instr.rd, domain.const(instr.imm))
    elif op is Opcode.MOVHI:
        low = state.get(instr.rd).bitand(domain.const(0xFFFF))
        state.set(instr.rd, low.bitor(domain.const(instr.imm << 16)))
    elif op is Opcode.CMP:
        state.flags = FlagsInfo(state.get(instr.rs1), state.get(instr.rs2),
                                instr.rs1, instr.rs2)
    elif op is Opcode.CMPI:
        state.flags = FlagsInfo(state.get(instr.rs1),
                                domain.const(instr.imm), instr.rs1, None)
    elif op is Opcode.LDR:
        address = state.get(instr.rs1).add(domain.const(instr.imm))
        state.set(instr.rd, state.memory.load(address))
    elif op is Opcode.LDRX:
        address = state.get(instr.rs1).add(state.get(instr.rs2))
        state.set(instr.rd, state.memory.load(address))
    elif op is Opcode.STR:
        address = state.get(instr.rs1).add(domain.const(instr.imm))
        state.memory.store(address, state.get(instr.rs2))
    elif op is Opcode.STRX:
        address = state.get(instr.rs1).add(state.get(instr.rs2))
        state.memory.store(address, state.get(instr.rd))
    elif op is Opcode.PUSH:
        _transfer_push(state, instr)
    elif op is Opcode.POP:
        _transfer_pop(state, instr)
    elif op in (Opcode.BL, Opcode.BLR):
        state.set(LR, domain.const(instr.address + 4))
    # B, BCC, BR, RET, NOP, HALT have no data effect.
    return state


def _transfer_push(state: AbstractState, instr: Instruction) -> None:
    """PUSH stores ascending registers at ascending addresses starting
    at the decremented stack pointer (ARM STMDB convention)."""
    domain = state.domain
    count = len(instr.reglist)
    new_sp = state.stack_pointer.sub(domain.const(4 * count))
    for slot, reg in enumerate(instr.reglist):
        address = new_sp.add(domain.const(4 * slot))
        state.memory.store(address, state.get(reg))
    state.set(SP, new_sp)


def _transfer_pop(state: AbstractState, instr: Instruction) -> None:
    """POP loads ascending registers from ascending addresses at the old
    stack pointer (ARM LDMIA convention)."""
    domain = state.domain
    old_sp = state.stack_pointer
    for slot, reg in enumerate(instr.reglist):
        address = old_sp.add(domain.const(4 * slot))
        state.set(reg, state.memory.load(address))
    count = len(instr.reglist)
    state.set(SP, old_sp.add(domain.const(4 * count)))


def transfer_block(state: AbstractState, instructions) -> AbstractState:
    """Abstractly execute a basic block on a copy of ``state``."""
    current = state.copy()
    for instr in instructions:
        current = transfer_instruction(current, instr)
        if current.is_bottom():
            break
    return current


def compile_block(instructions, domain: Type[AbstractValue]):
    """Compile a basic block into a fused transfer function.

    The returned callable has the exact semantics of
    :func:`transfer_block` but pays the per-instruction costs — opcode
    dispatch, method lookup, immediate-to-abstract-constant lifting —
    once at compile time instead of at every fixpoint iteration: each
    instruction becomes a closure over a prebound domain operation and
    preallocated abstract constants.  Opcodes with no data effect
    (branches, ``NOP``, ``HALT``) compile to nothing.

    Each closure returns True when the value it wrote is bottom, which
    reproduces ``transfer_block``'s early exit: a non-bottom entry
    state can only become bottom through the value just written.
    """
    const = domain.const
    steps = []
    for instr in instructions:
        op = instr.opcode
        method = _ALU_REG.get(op)
        if method is not None:
            fn = getattr(domain, method)

            def step(s, fn=fn, rd=instr.rd, rs1=instr.rs1, rs2=instr.rs2):
                v = fn(s.regs[rs1], s.regs[rs2])
                s.set(rd, v)
                return v.is_bottom()
        elif (method := _ALU_IMM.get(op)) is not None:
            fn = getattr(domain, method)
            imm_value = const(instr.imm)
            if op is Opcode.ADDI or op is Opcode.SUBI:
                offset = instr.imm if op is Opcode.ADDI else -instr.imm

                def step(s, fn=fn, rd=instr.rd, rs1=instr.rs1,
                         c=imm_value, off=offset):
                    v = fn(s.regs[rs1], c)
                    s.set(rd, v)
                    s.set_alias(rd, rs1, off)
                    return v.is_bottom()
            else:
                def step(s, fn=fn, rd=instr.rd, rs1=instr.rs1,
                         c=imm_value):
                    v = fn(s.regs[rs1], c)
                    s.set(rd, v)
                    return v.is_bottom()
        elif op is Opcode.MOV:
            def step(s, rd=instr.rd, rs1=instr.rs1):
                v = s.regs[rs1]
                s.set(rd, v)
                s.set_alias(rd, rs1, 0)
                return v.is_bottom()
        elif op is Opcode.MOVI:
            def step(s, rd=instr.rd, c=const(instr.imm)):
                s.set(rd, c)
                return False
        elif op is Opcode.MOVHI:
            def step(s, rd=instr.rd, mask=const(0xFFFF),
                     high=const(instr.imm << 16)):
                v = s.regs[rd].bitand(mask).bitor(high)
                s.set(rd, v)
                return v.is_bottom()
        elif op is Opcode.CMP:
            def step(s, rs1=instr.rs1, rs2=instr.rs2):
                s.flags = FlagsInfo(s.regs[rs1], s.regs[rs2], rs1, rs2)
                return False
        elif op is Opcode.CMPI:
            def step(s, rs1=instr.rs1, right=const(instr.imm)):
                s.flags = FlagsInfo(s.regs[rs1], right, rs1, None)
                return False
        elif op is Opcode.LDR:
            def step(s, rd=instr.rd, rs1=instr.rs1, c=const(instr.imm)):
                v = s.memory.load(s.regs[rs1].add(c))
                s.set(rd, v)
                return v.is_bottom()
        elif op is Opcode.LDRX:
            def step(s, rd=instr.rd, rs1=instr.rs1, rs2=instr.rs2):
                v = s.memory.load(s.regs[rs1].add(s.regs[rs2]))
                s.set(rd, v)
                return v.is_bottom()
        elif op is Opcode.STR:
            def step(s, rs1=instr.rs1, rs2=instr.rs2, c=const(instr.imm)):
                s.memory.store(s.regs[rs1].add(c), s.regs[rs2])
                return False
        elif op is Opcode.STRX:
            def step(s, rd=instr.rd, rs1=instr.rs1, rs2=instr.rs2):
                s.memory.store(s.regs[rs1].add(s.regs[rs2]), s.regs[rd])
                return False
        elif op is Opcode.PUSH:
            def step(s, instr=instr):
                _transfer_push(s, instr)
                return False
        elif op is Opcode.POP:
            def step(s, instr=instr):
                _transfer_pop(s, instr)
                return False
        elif op in (Opcode.BL, Opcode.BLR):
            def step(s, link=const(instr.address + 4)):
                s.set(LR, link)
                return False
        else:
            continue    # B, BCC, BR, RET, NOP, HALT: no data effect
        steps.append(step)

    def run(state: AbstractState) -> AbstractState:
        current = state.copy()
        if current.is_bottom():
            return current
        for step in steps:
            if step(current):
                break
        return current

    return run


def condition_operator(cond: Cond, left: AbstractValue,
                       right: AbstractValue) -> Optional[str]:
    """The signed operator asserted by ``cond``, or ``None`` when the
    unsigned/signed views may differ for these operands."""
    op = _SIGNED_OPS.get(cond)
    if op is not None:
        return op
    op = _UNSIGNED_OPS.get(cond)
    if op is not None:
        left_lo, _ = left.signed_bounds()
        right_lo, _ = right.signed_bounds()
        if left_lo >= 0 and right_lo >= 0:
            return op
    return None


def evaluate_condition(state: AbstractState,
                       cond: Cond) -> Optional[bool]:
    """Decide the branch condition from the recorded compare, if its
    truth value is the same in all concrete runs."""
    flags = state.flags
    if flags is None:
        return None
    op = condition_operator(cond, flags.left, flags.right)
    if op is None:
        return None
    return flags.left.compare_signed(op, flags.right)


def refine_by_condition(state: AbstractState,
                        cond: Cond) -> AbstractState:
    """The state restricted to executions where ``cond`` holds.

    Returns a bottom state when the condition is infeasible.
    """
    if state.is_bottom():
        return state
    flags = state.flags
    if flags is None:
        return state
    op = condition_operator(cond, flags.left, flags.right)
    if op is None:
        return state
    outcome = flags.left.compare_signed(op, flags.right)
    if outcome is False:
        return AbstractState.bottom_state(state.domain)
    refined = state.copy()
    new_left = flags.left.refine_signed(op, flags.right)
    new_right = flags.right.refine_signed(_SWAPPED[op], flags.left)
    if new_left.is_bottom() or new_right.is_bottom():
        return AbstractState.bottom_state(state.domain)
    if flags.left_reg is not None:
        refined.refine_register(flags.left_reg, new_left)
    if flags.right_reg is not None:
        refined.refine_register(flags.right_reg, new_right)
    refined.flags = FlagsInfo(new_left, new_right, flags.left_reg,
                              flags.right_reg)
    if refined.is_bottom():
        return AbstractState.bottom_state(state.domain)
    return refined
