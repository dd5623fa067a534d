"""Binary encoding and decoding of KRISC instructions.

Every instruction occupies one 32-bit little-endian word.  The top six
bits hold the opcode; the remaining 26 bits are interpreted according to
the opcode's :class:`~repro.isa.instructions.Format`:

=============  =====================================================
``ALU_RRR``    ``rd`` [25:22]  ``rs1`` [21:18]  ``rs2`` [17:14]
``ALU_RRI``    ``rd`` [25:22]  ``rs1`` [21:18]  ``imm16`` [15:0]
``MOV_RR``     ``rd`` [25:22]  ``rs1`` [21:18]
``MOV_RI``     ``rd`` [25:22]  ``imm16`` [15:0]
``CMP_RR``     ``rs1`` [25:22] ``rs2`` [21:18]
``CMP_RI``     ``rs1`` [25:22] ``imm16`` [15:0]
``MEM``        reg [25:22]     ``rs1`` [21:18]  ``imm16`` [15:0]
``MEM_X``      reg [25:22]     ``rs1`` [21:18]  ``rs2`` [17:14]
``BRANCH``     ``imm26`` [25:0]   (signed word offset from PC+4)
``CBRANCH``    ``cond`` [25:22]   ``imm22`` [21:0] (signed word offset)
``IBRANCH``    ``rs1`` [25:22]
``REGLIST``    ``mask16`` [15:0]
=============  =====================================================

Immediates are two's-complement.  Branch offsets are in units of
instruction words relative to the *following* instruction, matching the
semantics of :meth:`Instruction.branch_target`.
"""

from __future__ import annotations

import struct
from typing import Optional

from .instructions import Cond, Format, Instruction, OPCODE_FORMATS, Opcode

INSTRUCTION_SIZE = 4

_WORD = struct.Struct("<I")

_VALID_OPCODES = {int(op) for op in Opcode}


class EncodingError(ValueError):
    """An instruction cannot be encoded (e.g. immediate out of range)."""


class DecodingError(ValueError):
    """A word does not decode to a valid KRISC instruction."""

    def __init__(self, message: str, address: Optional[int] = None):
        super().__init__(message)
        self.address = address


def _signed_fits(value: int, bits: int) -> bool:
    return -(1 << (bits - 1)) <= value < (1 << (bits - 1))


def _to_twos(value: int, bits: int) -> int:
    return value & ((1 << bits) - 1)


def _from_twos(value: int, bits: int) -> int:
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


def _check_reg(value: Optional[int], what: str) -> int:
    if value is None or not 0 <= value < 16:
        raise EncodingError(f"invalid {what} register: {value}")
    return value


def _encode_imm(value: Optional[int], bits: int, unsigned: bool = False) -> int:
    if value is None:
        raise EncodingError("missing immediate")
    if unsigned:
        if not 0 <= value < (1 << bits):
            raise EncodingError(
                f"immediate {value} does not fit in unsigned {bits} bits")
        return value
    if not _signed_fits(value, bits):
        raise EncodingError(
            f"immediate {value} does not fit in signed {bits} bits")
    return _to_twos(value, bits)


def encode(instr: Instruction) -> int:
    """Encode ``instr`` into a 32-bit word."""
    op = instr.opcode
    word = int(op) << 26
    fmt = instr.format

    if fmt is Format.ALU_RRR:
        word |= _check_reg(instr.rd, "destination") << 22
        word |= _check_reg(instr.rs1, "source 1") << 18
        word |= _check_reg(instr.rs2, "source 2") << 14
    elif fmt is Format.ALU_RRI:
        word |= _check_reg(instr.rd, "destination") << 22
        word |= _check_reg(instr.rs1, "source 1") << 18
        word |= _encode_imm(instr.imm, 16)
    elif fmt is Format.MOV_RR:
        word |= _check_reg(instr.rd, "destination") << 22
        word |= _check_reg(instr.rs1, "source") << 18
    elif fmt is Format.MOV_RI:
        word |= _check_reg(instr.rd, "destination") << 22
        word |= _encode_imm(instr.imm, 16, unsigned=op is Opcode.MOVHI)
    elif fmt is Format.CMP_RR:
        word |= _check_reg(instr.rs1, "source 1") << 22
        word |= _check_reg(instr.rs2, "source 2") << 18
    elif fmt is Format.CMP_RI:
        word |= _check_reg(instr.rs1, "source 1") << 22
        word |= _encode_imm(instr.imm, 16)
    elif fmt is Format.MEM:
        reg = instr.rd if op is Opcode.LDR else instr.rs2
        word |= _check_reg(reg, "data") << 22
        word |= _check_reg(instr.rs1, "base") << 18
        word |= _encode_imm(instr.imm, 16)
    elif fmt is Format.MEM_X:
        word |= _check_reg(instr.rd, "data") << 22
        word |= _check_reg(instr.rs1, "base") << 18
        word |= _check_reg(instr.rs2, "index") << 14
    elif fmt is Format.BRANCH:
        word |= _encode_imm(instr.imm, 26)
    elif fmt is Format.CBRANCH:
        if instr.cond is None:
            raise EncodingError("conditional branch without condition")
        word |= int(instr.cond) << 22
        word |= _encode_imm(instr.imm, 22)
    elif fmt is Format.IBRANCH:
        word |= _check_reg(instr.rs1, "target") << 22
    elif fmt is Format.REGLIST:
        mask = 0
        for reg in instr.reglist:
            _check_reg(reg, "list")
            mask |= 1 << reg
        if mask == 0:
            raise EncodingError(f"{op.name} with empty register list")
        word |= mask
    elif fmt is Format.NONE:
        pass
    else:  # pragma: no cover - formats are exhaustive
        raise EncodingError(f"unhandled format {fmt}")
    return word


def decode(word: int, address: Optional[int] = None) -> Instruction:
    """Decode a 32-bit word into an :class:`Instruction`.

    Raises :class:`DecodingError` for invalid opcodes or operand fields,
    which CFG reconstruction treats as "not code".
    """
    opnum = (word >> 26) & 0x3F
    if opnum not in _VALID_OPCODES:
        raise DecodingError(f"invalid opcode 0x{opnum:02x}", address)
    op = Opcode(opnum)
    fmt = OPCODE_FORMATS[op]

    f_rd = (word >> 22) & 0xF
    f_rs1 = (word >> 18) & 0xF
    f_rs2 = (word >> 14) & 0xF
    f_imm16 = word & 0xFFFF

    if fmt is Format.ALU_RRR:
        return Instruction(op, rd=f_rd, rs1=f_rs1, rs2=f_rs2,
                           address=address)
    if fmt is Format.ALU_RRI:
        return Instruction(op, rd=f_rd, rs1=f_rs1,
                           imm=_from_twos(f_imm16, 16), address=address)
    if fmt is Format.MOV_RR:
        return Instruction(op, rd=f_rd, rs1=f_rs1, address=address)
    if fmt is Format.MOV_RI:
        imm = f_imm16 if op is Opcode.MOVHI else _from_twos(f_imm16, 16)
        return Instruction(op, rd=f_rd, imm=imm, address=address)
    if fmt is Format.CMP_RR:
        return Instruction(op, rs1=f_rd, rs2=f_rs1, address=address)
    if fmt is Format.CMP_RI:
        return Instruction(op, rs1=f_rd, imm=_from_twos(f_imm16, 16),
                           address=address)
    if fmt is Format.MEM:
        imm = _from_twos(f_imm16, 16)
        if op is Opcode.LDR:
            return Instruction(op, rd=f_rd, rs1=f_rs1, imm=imm,
                               address=address)
        return Instruction(op, rs2=f_rd, rs1=f_rs1, imm=imm,
                           address=address)
    if fmt is Format.MEM_X:
        return Instruction(op, rd=f_rd, rs1=f_rs1, rs2=f_rs2,
                           address=address)
    if fmt is Format.BRANCH:
        return Instruction(op, imm=_from_twos(word & 0x3FFFFFF, 26),
                           address=address)
    if fmt is Format.CBRANCH:
        condnum = (word >> 22) & 0xF
        try:
            cond = Cond(condnum)
        except ValueError:
            raise DecodingError(
                f"invalid condition code 0x{condnum:x}", address) from None
        return Instruction(op, cond=cond,
                           imm=_from_twos(word & 0x3FFFFF, 22),
                           address=address)
    if fmt is Format.IBRANCH:
        return Instruction(op, rs1=f_rd, address=address)
    if fmt is Format.REGLIST:
        mask = f_imm16
        if mask == 0:
            raise DecodingError(f"{op.name} with empty register list",
                                address)
        regs = tuple(i for i in range(16) if mask & (1 << i))
        return Instruction(op, reglist=regs, address=address)
    return Instruction(op, address=address)


def encode_to_bytes(instr: Instruction) -> bytes:
    """Encode ``instr`` to four little-endian bytes."""
    return _WORD.pack(encode(instr))


def decode_from_bytes(data: bytes, address: Optional[int] = None
                      ) -> Instruction:
    """Decode four little-endian bytes starting at ``data[0]``."""
    if len(data) < INSTRUCTION_SIZE:
        raise DecodingError("truncated instruction", address)
    (word,) = _WORD.unpack_from(data)
    return decode(word, address)
