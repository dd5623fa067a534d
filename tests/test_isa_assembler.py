"""Unit tests for the KRISC two-pass assembler."""

import pytest

from repro.isa import (AssemblyError, Cond, DATA_BASE, Opcode, TEXT_BASE,
                       assemble, disassemble)


def first_instructions(source, count=None):
    program = assemble(source)
    instrs = list(program.iter_instructions())
    return instrs if count is None else instrs[:count]


class TestBasicAssembly:
    def test_single_instruction(self):
        program = assemble("MOVI R0, #5\n")
        (instr,) = program.iter_instructions()
        assert instr.opcode is Opcode.MOVI
        assert instr.rd == 0
        assert instr.imm == 5
        assert instr.address == TEXT_BASE

    def test_addresses_are_sequential(self):
        program = assemble("NOP\nNOP\nHALT\n")
        addresses = [i.address for i in program.iter_instructions()]
        assert addresses == [TEXT_BASE, TEXT_BASE + 4, TEXT_BASE + 8]

    def test_comments_and_blank_lines(self):
        program = assemble("""
        ; full-line comment
        MOVI R0, #1   // trailing comment
        NOP           ; another
        """)
        assert len(list(program.iter_instructions())) == 2

    def test_case_insensitive_mnemonics(self):
        (instr,) = first_instructions("movi r0, #5\n")
        assert instr.opcode is Opcode.MOVI

    def test_hex_and_negative_immediates(self):
        instrs = first_instructions("MOVI R0, #0x10\nMOVI R1, #-7\n")
        assert instrs[0].imm == 16
        assert instrs[1].imm == -7

    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblyError):
            assemble("FROB R0, R1\n")

    def test_wrong_operand_count(self):
        with pytest.raises(AssemblyError):
            assemble("ADD R0, R1\n")


class TestLabelsAndBranches:
    def test_backward_branch(self):
        program = assemble("""
        loop:
            SUBI R0, R0, #1
            CMPI R0, #0
            BNE loop
            HALT
        """)
        instrs = list(program.iter_instructions())
        bne = instrs[2]
        assert bne.opcode is Opcode.BCC
        assert bne.cond is Cond.NE
        assert bne.branch_target() == program.symbols["loop"]

    def test_forward_branch(self):
        program = assemble("""
            B end
            NOP
        end:
            HALT
        """)
        b = next(program.iter_instructions())
        assert b.branch_target() == program.symbols["end"]

    def test_label_on_same_line(self):
        program = assemble("start: NOP\n B start\n")
        assert program.symbols["start"] == TEXT_BASE

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("x:\nNOP\nx:\nNOP\n")

    def test_undefined_symbol(self):
        with pytest.raises(AssemblyError):
            assemble("B nowhere\n")

    def test_call_and_ret(self):
        program = assemble("""
        main:
            BL helper
            HALT
        helper:
            RET
        """)
        instrs = list(program.iter_instructions())
        assert instrs[0].opcode is Opcode.BL
        assert instrs[0].branch_target() == program.symbols["helper"]
        assert program.entry == program.symbols["main"]

    def test_all_conditional_mnemonics(self):
        names = ["BEQ", "BNE", "BLT", "BGE", "BGT", "BLE", "BLO", "BHS",
                 "BHI", "BLS"]
        body = "t:\n" + "\n".join(f"{name} t" for name in names)
        program = assemble(body)
        conds = [i.cond for i in program.iter_instructions()]
        assert conds == [Cond.EQ, Cond.NE, Cond.LT, Cond.GE, Cond.GT,
                         Cond.LE, Cond.LO, Cond.HS, Cond.HI, Cond.LS]


class TestMemoryOperands:
    def test_ldr_with_offset(self):
        (instr,) = first_instructions("LDR R0, [SP, #8]\n")
        assert instr.opcode is Opcode.LDR
        assert instr.rs1 == 13
        assert instr.imm == 8

    def test_ldr_without_offset(self):
        (instr,) = first_instructions("LDR R0, [R1]\n")
        assert instr.imm == 0

    def test_indexed_load_selects_ldrx(self):
        (instr,) = first_instructions("LDR R0, [R1, R2]\n")
        assert instr.opcode is Opcode.LDRX
        assert (instr.rs1, instr.rs2) == (1, 2)

    def test_indexed_store_selects_strx(self):
        (instr,) = first_instructions("STR R0, [R1, R2]\n")
        assert instr.opcode is Opcode.STRX
        assert instr.rd == 0

    def test_store_with_offset(self):
        (instr,) = first_instructions("STR R3, [SP, #-4]\n")
        assert instr.opcode is Opcode.STR
        assert instr.rs2 == 3
        assert instr.imm == -4

    def test_malformed_memory_operand(self):
        with pytest.raises(AssemblyError):
            assemble("LDR R0, [R1\n")


class TestRegisterLists:
    def test_push_list(self):
        (instr,) = first_instructions("PUSH {R4, R5, LR}\n")
        assert instr.opcode is Opcode.PUSH
        assert instr.reglist == (4, 5, 14)

    def test_register_range(self):
        (instr,) = first_instructions("POP {R4-R7}\n")
        assert instr.reglist == (4, 5, 6, 7)

    def test_mixed_range_and_singles(self):
        (instr,) = first_instructions("PUSH {R4-R6, R11, LR}\n")
        assert instr.reglist == (4, 5, 6, 11, 14)

    def test_empty_list_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("PUSH {}\n")


class TestDataSection:
    def test_word_directive(self):
        program = assemble("""
        .data
        table: .word 1, 2, 0x30
        """)
        data = program.section(".data")
        assert data.base == DATA_BASE
        assert data.data == (1).to_bytes(4, "little") + \
            (2).to_bytes(4, "little") + (0x30).to_bytes(4, "little")
        assert program.symbols["table"] == DATA_BASE

    def test_space_directive(self):
        program = assemble("""
        .data
        a: .word 7
        buf: .space 12
        b: .word 9
        """)
        assert program.symbols["buf"] == DATA_BASE + 4
        assert program.symbols["b"] == DATA_BASE + 16

    def test_word_with_symbol_value(self):
        program = assemble("""
        .text
        main: HALT
        .data
        ptr: .word main
        """)
        data = program.section(".data")
        assert int.from_bytes(data.data[:4], "little") == \
            program.symbols["main"]

    def test_equ(self):
        program = assemble("""
        .equ SIZE, 32
        .data
        buf: .space 32
        """)
        assert program.symbols["SIZE"] == 32

    def test_directive_in_text_rejected(self):
        with pytest.raises(AssemblyError):
            assemble(".text\n.word 5\n")

    def test_data_moves_past_a_text_that_reaches_it(self):
        # 7205 instructions from TEXT_BASE end at 0x8094, past
        # DATA_BASE: .data goes to the next 4 KB boundary instead of
        # overlapping the code, and the memory map records the move.
        body = "ADDI R3, R3, #1\n" * 7200
        source = (f"main: LDA R1, table\nLDR R2, [R1]\n{body}"
                  "STR R3, [R1, #4]\nHALT\n.data\ntable: .word 5, 0\n")
        program = assemble(source)
        text, data = program.text, program.section(".data")
        assert text.end == TEXT_BASE + 4 * 7205 > DATA_BASE
        assert data.base == 0x9000 == program.memory_map.data_base
        assert program.symbols["table"] == data.base
        assert program.initial_memory()[data.base] == 5
        assert assemble("main: HALT").memory_map.data_base == DATA_BASE

    def test_data_reaching_the_stack_rejected(self):
        with pytest.raises(AssemblyError, match="stack limit 0x18000"):
            assemble(".data\nbuf: .space 0x10004\n")


class TestPseudoInstructions:
    def test_lda_materialises_symbol_address(self):
        program = assemble("""
        main:
            LDA R1, table
            HALT
        .data
        table: .word 1
        """)
        instrs = list(program.iter_instructions())
        assert instrs[0].opcode is Opcode.MOVI
        assert instrs[1].opcode is Opcode.MOVHI
        low = instrs[0].imm & 0xFFFF
        value = (instrs[1].imm << 16) | low
        assert value == program.symbols["table"]

    def test_ldi_small_constant_is_single_instruction(self):
        program = assemble("LDI R0, #100\nHALT\n")
        instrs = list(program.iter_instructions())
        assert len(instrs) == 2
        assert instrs[0].opcode is Opcode.MOVI

    def test_ldi_large_constant_is_pair(self):
        program = assemble("LDI R0, #0x12345678\nHALT\n")
        instrs = list(program.iter_instructions())
        assert instrs[0].opcode is Opcode.MOVI
        assert instrs[1].opcode is Opcode.MOVHI
        low = instrs[0].imm & 0xFFFF
        assert ((instrs[1].imm << 16) | low) == 0x12345678

    def test_ldi_negative_small(self):
        program = assemble("LDI R0, #-5\nHALT\n")
        instrs = list(program.iter_instructions())
        assert instrs[0].imm == -5
        assert instrs[1].opcode is Opcode.HALT

    def test_lda_of_code_symbol_keeps_layout(self):
        # Regression: LDA of a small (text) address must still occupy
        # the two slots pass 1 reserved, or all later addresses shift.
        program = assemble("""
        main:
            LDA R0, finish
            NOP
        finish:
            HALT
        """)
        instrs = list(program.iter_instructions())
        assert [i.opcode for i in instrs] == [
            Opcode.MOVI, Opcode.MOVHI, Opcode.NOP, Opcode.HALT]
        assert program.symbols["finish"] == instrs[3].address
        low = instrs[0].imm & 0xFFFF
        assert ((instrs[1].imm << 16) | low) == program.symbols["finish"]


class TestEntryPoint:
    def test_main_is_entry(self):
        program = assemble("NOP\nmain: HALT\n")
        assert program.entry == TEXT_BASE + 4

    def test_start_fallback(self):
        program = assemble("_start: HALT\n")
        assert program.entry == TEXT_BASE

    def test_default_entry_is_text_base(self):
        program = assemble("HALT\n")
        assert program.entry == TEXT_BASE


class TestDisassembler:
    def test_roundtrip_through_disassembly(self):
        source = """
        main:
            MOVI R0, #10
        loop:
            SUBI R0, R0, #1
            CMPI R0, #0
            BNE loop
            HALT
        """
        program = assemble(source)
        listing = disassemble(program)
        assert "MOVI R0, #10" in listing
        assert "SUBI R0, R0, #1" in listing
        assert "-> loop" in listing
        assert "main:" in listing

    def test_data_words_render_as_words(self):
        # Opcode 0x3E is unassigned, so this word is not an instruction.
        from repro.isa.disassembler import disassemble_section
        word = (0x3E << 26).to_bytes(4, "little")
        rendered = list(disassemble_section(word, 0x1000))
        assert rendered == [(0x1000, None)]
