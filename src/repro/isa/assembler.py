"""Two-pass assembler for KRISC.

The assembler exists so the test suite, the workload corpus, and the
mini-C compiler can all produce *real binaries* — the analyses never see
assembly text, only the encoded bytes, exactly as aiT only sees the
executable.

Syntax
------

* one statement per line; comments start with ``;`` or ``//``
* labels: ``name:`` (may share a line with an instruction)
* registers: ``R0``..``R15``, ``SP``, ``LR``
* immediates: ``#10``, ``#-3``, ``#0x1F``
* memory operands: ``[Rb, #off]``, ``[Rb, Rx]``, ``[Rb]``
* register lists: ``{R4, R6-R8, LR}``
* conditional branches: ``BEQ BNE BLT BGE BGT BLE BLO BHS BHI BLS label``
* directives: ``.text``, ``.data``, ``.global name``, ``.word v, ...``,
  ``.space n``, ``.align n``, ``.equ name, value``
* pseudo-instructions:
  ``LDA rd, symbol``  — load a symbol's address (expands to MOVI+MOVHI);
  ``LDI rd, #imm32``  — load an arbitrary 32-bit constant.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from .encoding import INSTRUCTION_SIZE, encode_to_bytes
from .instructions import Cond, Format, Instruction, OPCODE_FORMATS, Opcode
from .program import MemoryMap, Program, Section
from .registers import parse_register


class AssemblyError(ValueError):
    """A syntax or semantic error in assembly source."""

    def __init__(self, message: str, line: Optional[int] = None):
        location = f"line {line}: " if line is not None else ""
        super().__init__(f"{location}{message}")
        self.line = line


_COND_BRANCHES = {f"B{cond.name}": cond for cond in Cond}

#: Alignment of a ``.data`` section moved past a ``.text`` that grew
#: into it.
DATA_RELOCATION_ALIGN = 0x1000

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):")
_NAME_RE = re.compile(r"^[A-Za-z_.$][\w.$]*$")


def _parse_int(text: str, line: int) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise AssemblyError(f"invalid integer {text!r}", line) from None


@dataclass
class _Statement:
    """One instruction or data directive, pending symbol resolution."""

    line: int
    address: int = 0
    # Instruction statements:
    mnemonic: Optional[str] = None
    operands: List[str] = field(default_factory=list)
    # Data statements:
    directive: Optional[str] = None
    args: List[str] = field(default_factory=list)
    size: int = 0


class Assembler:
    """Two-pass assembler producing a :class:`Program`."""

    def __init__(self, memory_map: Optional[MemoryMap] = None):
        self.memory_map = memory_map or MemoryMap()

    def assemble(self, source: str) -> Program:
        layout = self.memory_map
        text_stmts, data_stmts, symbols, text_end, data_end = (
            self._pass_one(source, layout))
        if layout.text_base < data_end and layout.data_base < text_end \
                and data_end > layout.data_base:
            # .text has grown into .data: lay .data out again at the
            # first boundary past .text, and record that base in the
            # program's memory map (and so in its digests).
            aligned = -(-text_end // DATA_RELOCATION_ALIGN)
            layout = replace(layout,
                             data_base=aligned * DATA_RELOCATION_ALIGN)
            text_stmts, data_stmts, symbols, text_end, data_end = (
                self._pass_one(source, layout))
        if data_end > layout.stack_limit:
            raise AssemblyError(
                f".data [0x{layout.data_base:x}, 0x{data_end:x}) reaches "
                f"the stack limit 0x{layout.stack_limit:x}")
        text_bytes = self._emit_text(text_stmts, symbols)
        data_bytes = self._emit_data(data_stmts, symbols, layout.data_base)
        sections = [Section(".text", layout.text_base, bytes(text_bytes))]
        if data_bytes:
            sections.append(Section(".data", layout.data_base,
                                    bytes(data_bytes)))
        entry = symbols.get("main", symbols.get("_start", layout.text_base))
        return Program(sections, symbols, entry, layout)

    # -- Pass 1: layout ----------------------------------------------------

    def _pass_one(self, source: str, layout: MemoryMap):
        """Statements with their addresses, the symbol table (labels
        and ``.equ`` names), and the end addresses of .text and .data."""
        in_text = True
        text_addr = layout.text_base
        data_addr = layout.data_base
        text_stmts: List[_Statement] = []
        data_stmts: List[_Statement] = []
        symbols: Dict[str, int] = {}
        equates: Dict[str, int] = {}

        for lineno, raw in enumerate(source.splitlines(), start=1):
            line = _strip_comment(raw).strip()
            while line:
                match = _LABEL_RE.match(line)
                if not match:
                    break
                name = match.group(1)
                if name in symbols or name in equates:
                    raise AssemblyError(f"duplicate label {name!r}", lineno)
                symbols[name] = text_addr if in_text else data_addr
                line = line[match.end():].strip()
            if not line:
                continue

            if line.startswith("."):
                parts = line.split(None, 1)
                directive = parts[0].lower()
                rest = parts[1] if len(parts) > 1 else ""
                if directive == ".text":
                    in_text = True
                elif directive == ".data":
                    in_text = False
                elif directive == ".global":
                    pass        # every label is visible already
                elif directive == ".equ":
                    args = [a.strip() for a in rest.split(",")]
                    if len(args) != 2 or not _NAME_RE.match(args[0]):
                        raise AssemblyError(".equ expects name, value",
                                            lineno)
                    equates[args[0]] = _parse_int(args[1], lineno)
                elif directive in (".word", ".space", ".align"):
                    stmt = _Statement(line=lineno, directive=directive,
                                      args=[a.strip() for a in
                                            rest.split(",") if a.strip()])
                    if in_text:
                        raise AssemblyError(
                            f"{directive} not allowed in .text", lineno)
                    stmt.address = data_addr
                    stmt.size = self._data_size(stmt, data_addr, lineno)
                    data_addr += stmt.size
                    data_stmts.append(stmt)
                    # .align may move labels defined on the same line: the
                    # label was recorded before alignment, so re-point it.
                    if directive == ".align":
                        for name, value in symbols.items():
                            if value == stmt.address:
                                symbols[name] = data_addr
                else:
                    raise AssemblyError(f"unknown directive {directive}",
                                        lineno)
                continue

            mnemonic, operands = _split_instruction(line, lineno)
            stmt = _Statement(line=lineno, mnemonic=mnemonic,
                              operands=operands)
            if not in_text:
                raise AssemblyError("instruction outside .text", lineno)
            stmt.address = text_addr
            stmt.size = self._instruction_size(stmt)
            text_addr += stmt.size
            text_stmts.append(stmt)

        symbols.update(equates)
        return text_stmts, data_stmts, symbols, text_addr, data_addr

    def _instruction_size(self, stmt: _Statement) -> int:
        mnemonic = stmt.mnemonic
        if mnemonic == "LDA":
            return 2 * INSTRUCTION_SIZE
        if mnemonic == "LDI":
            if len(stmt.operands) == 2 and stmt.operands[1].startswith("#"):
                try:
                    value = int(stmt.operands[1][1:], 0)
                except ValueError:
                    value = 1 << 20
                if -(1 << 15) <= value < (1 << 15):
                    return INSTRUCTION_SIZE
            return 2 * INSTRUCTION_SIZE
        return INSTRUCTION_SIZE

    def _data_size(self, stmt: _Statement, address: int, lineno: int) -> int:
        if stmt.directive == ".word":
            if not stmt.args:
                raise AssemblyError(".word needs at least one value", lineno)
            return 4 * len(stmt.args)
        if stmt.directive == ".space":
            if len(stmt.args) != 1:
                raise AssemblyError(".space expects a size", lineno)
            size = _parse_int(stmt.args[0], lineno)
            if size < 0:
                raise AssemblyError(".space size must be non-negative",
                                    lineno)
            return size
        if stmt.directive == ".align":
            if len(stmt.args) != 1:
                raise AssemblyError(".align expects an alignment", lineno)
            alignment = _parse_int(stmt.args[0], lineno)
            if alignment <= 0 or alignment & (alignment - 1):
                raise AssemblyError("alignment must be a power of two",
                                    lineno)
            return (-address) % alignment
        raise AssemblyError(f"unknown directive {stmt.directive}", lineno)

    # -- Pass 2: emission ---------------------------------------------------

    def _emit_text(self, stmts: List[_Statement],
                   symbols: Dict[str, int]) -> bytearray:
        output = bytearray()
        for stmt in stmts:
            for instr in self._build_instructions(stmt, symbols):
                output += encode_to_bytes(instr)
        return output

    def _emit_data(self, stmts: List[_Statement], symbols: Dict[str, int],
                   base: int) -> bytearray:
        output = bytearray()
        for stmt in stmts:
            assert stmt.address == base + len(output), "layout mismatch"
            if stmt.directive == ".word":
                for arg in stmt.args:
                    value = self._value_or_symbol(arg, symbols, stmt.line)
                    output += (value & 0xFFFFFFFF).to_bytes(4, "little")
            elif stmt.directive in (".space", ".align"):
                output += bytes(stmt.size)
        return output

    def _value_or_symbol(self, text: str, symbols: Dict[str, int],
                         line: int) -> int:
        if _NAME_RE.match(text) and not re.match(r"^-?\d|^0[xX]", text):
            if text not in symbols:
                raise AssemblyError(f"undefined symbol {text!r}", line)
            return symbols[text]
        return _parse_int(text, line)

    def _build_instructions(self, stmt: _Statement,
                            symbols: Dict[str, int]) -> List[Instruction]:
        mnemonic = stmt.mnemonic
        line = stmt.line
        ops = stmt.operands
        address = stmt.address

        if mnemonic == "LDA":
            if len(ops) != 2:
                raise AssemblyError("LDA expects rd, symbol", line)
            rd = _reg(ops[0], line)
            value = self._value_or_symbol(ops[1], symbols, line)
            # Pass 1 reserved two slots (the symbol value was unknown
            # then), so always emit the full MOVI+MOVHI pair.
            return _load_constant(rd, value, address, force_pair=True)
        if mnemonic == "LDI":
            if len(ops) != 2 or not ops[1].startswith("#"):
                raise AssemblyError("LDI expects rd, #imm", line)
            rd = _reg(ops[0], line)
            value = _parse_int(ops[1][1:], line)
            instrs = _load_constant(rd, value, address)
            if stmt.size == INSTRUCTION_SIZE:
                if len(instrs) != 1:
                    raise AssemblyError(
                        f"LDI immediate {value} changed size between passes",
                        line)
            return instrs

        if mnemonic in _COND_BRANCHES:
            cond = _COND_BRANCHES[mnemonic]
            target = self._branch_target(ops, symbols, stmt, 1)
            return [Instruction(Opcode.BCC, cond=cond, imm=target,
                                address=address)]

        try:
            opcode = Opcode[mnemonic]
        except KeyError:
            raise AssemblyError(f"unknown mnemonic {mnemonic!r}",
                                line) from None
        fmt = OPCODE_FORMATS[opcode]

        if fmt is Format.ALU_RRR:
            _expect(ops, 3, mnemonic, line)
            return [Instruction(opcode, rd=_reg(ops[0], line),
                                rs1=_reg(ops[1], line),
                                rs2=_reg(ops[2], line), address=address)]
        if fmt is Format.ALU_RRI:
            _expect(ops, 3, mnemonic, line)
            return [Instruction(opcode, rd=_reg(ops[0], line),
                                rs1=_reg(ops[1], line),
                                imm=_imm(ops[2], line), address=address)]
        if fmt is Format.MOV_RR:
            _expect(ops, 2, mnemonic, line)
            return [Instruction(opcode, rd=_reg(ops[0], line),
                                rs1=_reg(ops[1], line), address=address)]
        if fmt is Format.MOV_RI:
            _expect(ops, 2, mnemonic, line)
            return [Instruction(opcode, rd=_reg(ops[0], line),
                                imm=_imm(ops[1], line), address=address)]
        if fmt is Format.CMP_RR:
            _expect(ops, 2, mnemonic, line)
            return [Instruction(opcode, rs1=_reg(ops[0], line),
                                rs2=_reg(ops[1], line), address=address)]
        if fmt is Format.CMP_RI:
            _expect(ops, 2, mnemonic, line)
            return [Instruction(opcode, rs1=_reg(ops[0], line),
                                imm=_imm(ops[1], line), address=address)]
        if fmt in (Format.MEM, Format.MEM_X):
            return [self._build_memory(opcode, ops, stmt)]
        if fmt is Format.BRANCH:
            target = self._branch_target(ops, symbols, stmt, 0)
            return [Instruction(opcode, imm=target, address=address)]
        if fmt is Format.IBRANCH:
            _expect(ops, 1, mnemonic, line)
            return [Instruction(opcode, rs1=_reg(ops[0], line),
                                address=address)]
        if fmt is Format.REGLIST:
            _expect(ops, 1, mnemonic, line)
            regs = _parse_reglist(ops[0], line)
            return [Instruction(opcode, reglist=regs, address=address)]
        if fmt is Format.NONE:
            _expect(ops, 0, mnemonic, line)
            return [Instruction(opcode, address=address)]
        raise AssemblyError(f"unhandled format for {mnemonic}",
                            line)  # pragma: no cover

    def _build_memory(self, opcode: Opcode, ops: List[str],
                      stmt: _Statement) -> Instruction:
        line = stmt.line
        if len(ops) != 2 or not ops[1].startswith("["):
            raise AssemblyError(
                f"{opcode.name} expects reg, [base, offset]", line)
        data_reg = _reg(ops[0], line)
        inner = ops[1].strip()
        if not inner.endswith("]"):
            raise AssemblyError("unterminated memory operand", line)
        parts = [p.strip() for p in inner[1:-1].split(",")]
        base = _reg(parts[0], line)
        indexed = len(parts) == 2 and not parts[1].startswith("#")
        if indexed:
            index = _reg(parts[1], line)
            opcode = Opcode.LDRX if opcode in (Opcode.LDR, Opcode.LDRX) \
                else Opcode.STRX
            if opcode is Opcode.LDRX:
                return Instruction(opcode, rd=data_reg, rs1=base, rs2=index,
                                   address=stmt.address)
            return Instruction(opcode, rd=data_reg, rs1=base, rs2=index,
                               address=stmt.address)
        offset = 0
        if len(parts) == 2:
            if not parts[1].startswith("#"):
                raise AssemblyError("offset must be #imm or register", line)
            offset = _parse_int(parts[1][1:], line)
        elif len(parts) > 2:
            raise AssemblyError("too many memory operand components", line)
        opcode = Opcode.LDR if opcode in (Opcode.LDR, Opcode.LDRX) \
            else Opcode.STR
        if opcode is Opcode.LDR:
            return Instruction(opcode, rd=data_reg, rs1=base, imm=offset,
                               address=stmt.address)
        return Instruction(opcode, rs2=data_reg, rs1=base, imm=offset,
                           address=stmt.address)

    def _branch_target(self, ops: List[str], symbols: Dict[str, int],
                       stmt: _Statement, extra: int) -> int:
        if len(ops) != 1:
            raise AssemblyError("branch expects one target", stmt.line)
        target = self._value_or_symbol(ops[0], symbols, stmt.line)
        delta = target - (stmt.address + 4)
        if delta % 4:
            raise AssemblyError(
                f"branch target 0x{target:x} not word-aligned", stmt.line)
        return delta // 4


def _load_constant(rd: int, value: int, address: int,
                   force_pair: bool = False) -> List[Instruction]:
    """MOVI(+MOVHI) sequence materialising an arbitrary 32-bit constant."""
    value &= 0xFFFFFFFF
    low = value & 0xFFFF
    high = (value >> 16) & 0xFFFF
    signed_low = low - 0x10000 if low & 0x8000 else low
    movi = Instruction(Opcode.MOVI, rd=rd, imm=signed_low, address=address)
    # MOVI sign-extends; if the sign-extension already yields the right
    # upper half, a single instruction suffices (MOVHI is still correct
    # and is emitted when the caller pre-reserved two slots).
    extended_high = 0xFFFF if low & 0x8000 else 0x0000
    if high == extended_high and not force_pair:
        return [movi]
    movhi = Instruction(Opcode.MOVHI, rd=rd, imm=high, address=address + 4)
    return [movi, movhi]


def _strip_comment(line: str) -> str:
    for marker in (";", "//"):
        index = line.find(marker)
        if index >= 0:
            line = line[:index]
    return line


def _split_instruction(line: str, lineno: int) -> Tuple[str, List[str]]:
    parts = line.split(None, 1)
    mnemonic = parts[0].upper()
    if len(parts) == 1:
        return mnemonic, []
    rest = parts[1].strip()
    operands: List[str] = []
    depth = 0
    current = []
    for char in rest:
        if char in "[{":
            depth += 1
        elif char in "]}":
            depth -= 1
        if char == "," and depth == 0:
            operands.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    if current:
        operands.append("".join(current).strip())
    if depth != 0:
        raise AssemblyError("unbalanced brackets", lineno)
    return mnemonic, [op for op in operands if op]


def _expect(ops: List[str], count: int, mnemonic: str, line: int) -> None:
    if len(ops) != count:
        raise AssemblyError(
            f"{mnemonic} expects {count} operand(s), got {len(ops)}", line)


def _reg(text: str, line: int) -> int:
    try:
        return parse_register(text.strip())
    except ValueError as exc:
        raise AssemblyError(str(exc), line) from None


def _imm(text: str, line: int) -> int:
    text = text.strip()
    if not text.startswith("#"):
        raise AssemblyError(f"expected immediate, got {text!r}", line)
    return _parse_int(text[1:], line)


def _parse_reglist(text: str, line: int) -> Tuple[int, ...]:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise AssemblyError("register list must be {{...}}", line)
    registers: List[int] = []
    for item in text[1:-1].split(","):
        item = item.strip()
        if not item:
            continue
        if "-" in item:
            first, last = (part.strip() for part in item.split("-", 1))
            start, end = _reg(first, line), _reg(last, line)
            if start > end:
                raise AssemblyError(f"bad register range {item!r}", line)
            registers.extend(range(start, end + 1))
        else:
            registers.append(_reg(item, line))
    if not registers:
        raise AssemblyError("empty register list", line)
    return tuple(sorted(set(registers)))


def assemble(source: str, memory_map: Optional[MemoryMap] = None) -> Program:
    """Assemble KRISC source text into a :class:`Program`."""
    return Assembler(memory_map).assemble(source)
