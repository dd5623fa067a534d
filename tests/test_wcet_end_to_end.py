"""End-to-end WCET analysis tests: the verified bound must cover every
concrete execution (soundness obligation S1) and stay reasonably tight.
"""

import pytest

from repro.isa import assemble
from repro.cache.config import CacheConfig, MachineConfig
from repro.sim import run_program
from repro.wcet import analyze_wcet
from repro.path import UnboundedLoopError

CONFIG = MachineConfig.default()


def wcet_and_run(source, arguments=None, **kwargs):
    program = assemble(source)
    result = analyze_wcet(program, config=CONFIG, **kwargs)
    execution = run_program(program, config=CONFIG, arguments=arguments)
    return result, execution


class TestStraightLine:
    def test_bound_covers_and_is_exact_for_straightline(self):
        result, execution = wcet_and_run("""
        main:
            MOVI R0, #1
            ADDI R0, R0, #2
            MUL R0, R0, R0
            HALT
        """)
        assert result.wcet_cycles >= execution.cycles
        # Single path: the bound should be exact.
        assert result.wcet_cycles == execution.cycles

    def test_memory_program_exact(self):
        result, execution = wcet_and_run("""
        main:
            LDA R1, buf
            MOVI R0, #5
            STR R0, [R1]
            LDR R2, [R1]
            ADD R0, R0, R2
            HALT
        .data
        buf: .word 0
        """)
        assert result.wcet_cycles >= execution.cycles
        assert result.wcet_cycles == execution.cycles


class TestBranches:
    SOURCE = """
    main:
        CMPI R0, #10
        BGE big
        MOVI R1, #1
        MUL R1, R1, R1
        B end
    big:
        MOVI R1, #2
    end:
        HALT
    """

    def test_bound_covers_both_arms(self):
        program = assemble(self.SOURCE)
        result = analyze_wcet(program, config=CONFIG)
        for r0 in (0, 10, 5, 100):
            execution = run_program(program, config=CONFIG,
                                    arguments={0: r0})
            assert result.wcet_cycles >= execution.cycles, f"R0={r0}"

    def test_infeasible_path_pruning_tightens(self):
        source = """
        main:
            MOVI R0, #1
            CMPI R0, #5
            BGE expensive
            MOVI R1, #0
            B end
        expensive:
            MUL R2, R2, R2
            MUL R2, R2, R2
            MUL R2, R2, R2
            MUL R2, R2, R2
            MUL R2, R2, R2
            MUL R2, R2, R2
        end:
            HALT
        """
        program = assemble(source)
        with_pruning = analyze_wcet(program, config=CONFIG,
                                    use_infeasible_paths=True)
        without_pruning = analyze_wcet(program, config=CONFIG,
                                       use_infeasible_paths=False)
        execution = run_program(program, config=CONFIG)
        assert with_pruning.wcet_cycles >= execution.cycles
        # The dead expensive loop is excluded only with pruning.
        assert with_pruning.wcet_cycles < without_pruning.wcet_cycles


class TestLoops:
    def test_counted_loop_bound_close_to_actual(self):
        result, execution = wcet_and_run("""
        main:
            MOVI R0, #0
            MOVI R1, #0
        loop:
            ADDI R1, R1, #3
            ADDI R0, R0, #1
            CMPI R0, #25
            BLT loop
            HALT
        """)
        assert result.wcet_cycles >= execution.cycles
        # Tightness: within 20% for this simple shape.
        assert result.wcet_cycles <= execution.cycles * 1.2

    def test_nested_loops(self):
        result, execution = wcet_and_run("""
        main:
            MOVI R0, #0
        outer:
            MOVI R1, #0
        inner:
            ADDI R1, R1, #1
            CMPI R1, #6
            BLT inner
            ADDI R0, R0, #1
            CMPI R0, #4
            BLT outer
            HALT
        """)
        assert result.wcet_cycles >= execution.cycles
        assert result.wcet_cycles <= execution.cycles * 1.3

    def test_input_dependent_loop_worst_case(self):
        # Loop count depends on R0 in [1, 20]; the bound must cover the
        # worst input.
        source = """
        main:
        loop:
            SUBI R0, R0, #1
            CMPI R0, #0
            BGT loop
            HALT
        """
        program = assemble(source)
        result = analyze_wcet(program, config=CONFIG,
                              register_ranges={0: (1, 20)})
        worst = 0
        for r0 in (1, 5, 20):
            execution = run_program(program, config=CONFIG,
                                    arguments={0: r0})
            worst = max(worst, execution.cycles)
            assert result.wcet_cycles >= execution.cycles
        # Tight against the actual worst case.
        assert result.wcet_cycles <= worst * 1.2

    def test_unbounded_loop_raises(self):
        source = """
        main:
        loop:
            SUBI R0, R0, #1
            CMPI R0, #0
            BGT loop
            HALT
        """
        with pytest.raises(UnboundedLoopError):
            analyze_wcet(assemble(source), config=CONFIG)

    def test_manual_annotation_rescues_unbounded_loop(self):
        source = """
        main:
        loop:
            SUBI R0, R0, #1
            CMPI R0, #0
            BGT loop
            HALT
        """
        program = assemble(source)
        header = program.symbols["loop"]
        result = analyze_wcet(program, config=CONFIG,
                              manual_loop_bounds={header: 20})
        execution = run_program(program, config=CONFIG, arguments={0: 15})
        assert result.wcet_cycles >= execution.cycles

    @pytest.mark.parametrize("register_ranges, bound, message", [
        ({99: (0, 5)}, None, "register index out of range"),
        ({0: (5, 1)}, None, "range for R0 is empty"),
        ({0: (0, 0xFFFFFFFF)}, None,
         r"R0 \[0, 4294967295\] leaves the signed 32-bit range "
         r"\[-2147483648, 2147483647\]"),
        ({0: (3000000000, 3000000001)}, None, "R0 .* leaves the signed"),
        ({0: (-(1 << 31) - 1, 0)}, None, "R0 .* leaves the signed"),
        (None, 0, "must be at least 1"),
        (None, -3, "must be at least 1"),
    ], ids=["register-99", "empty-range", "unsigned-range", "above-word",
            "below-word", "zero-bound", "negative-bound"])
    def test_malformed_annotation_is_value_error(self, register_ranges,
                                                 bound, message):
        # Rejected before any phase runs, instead of surfacing as an
        # index error or an infeasible IPET program.
        program = assemble("""
        main:
        loop:
            SUBI R0, R0, #1
            CMPI R0, #0
            BGT loop
            HALT
        """)
        bounds = {program.symbols["loop"]: bound} \
            if bound is not None else None
        with pytest.raises(ValueError, match=message):
            analyze_wcet(program, config=CONFIG,
                         register_ranges=register_ranges,
                         manual_loop_bounds=bounds)

    @pytest.mark.parametrize("span, message", [
        ((7, 3), "memory range at 0x2000 is empty: 7 > 3"),
        ((0, 1 << 32), r"memory range at 0x2000 \[0, 4294967296\] leaves"),
    ], ids=["empty", "beyond-word"])
    def test_malformed_memory_range_is_value_error(self, span, message):
        program = assemble("main:\n    HALT\n")
        with pytest.raises(ValueError, match=message):
            analyze_wcet(program, config=CONFIG,
                         memory_ranges={0x2000: span})

    def test_unsigned_register_range_is_refused_not_clamped(self):
        # Clamped to [0, 2**31 - 1], R0 = 0xFFFFFFFF (-1 as a signed
        # word) would never take the slow branch: a 13-cycle bound
        # for a 274-cycle run.  Written as a signed range the bound
        # covers the run.
        source = """
        main:
            CMPI R0, #0
            BLT slow
            HALT
        slow:
            MOVI R1, #0
        loop:
            ADDI R1, R1, #1
            CMPI R1, #50
            BLT loop
            HALT
        """
        with pytest.raises(ValueError, match="signed 32-bit range"):
            analyze_wcet(assemble(source), config=CONFIG,
                         register_ranges={0: (0, 0xFFFFFFFF)})
        result, execution = wcet_and_run(
            source, arguments={0: 0xFFFFFFFF},
            register_ranges={0: (-(1 << 31), (1 << 31) - 1)})
        assert execution.cycles == 274
        assert result.wcet_cycles >= execution.cycles


class TestCalls:
    def test_call_heavy_program(self):
        result, execution = wcet_and_run("""
        main:
            MOVI R0, #3
            BL work
            BL work
            HALT
        work:
            PUSH {R4, LR}
            MOVI R4, #0
        wloop:
            ADDI R4, R4, #1
            CMPI R4, #5
            BLT wloop
            POP {R4, LR}
            RET
        """)
        assert result.wcet_cycles >= execution.cycles
        assert result.wcet_cycles <= execution.cycles * 1.3

    def test_arrays_and_cache(self):
        result, execution = wcet_and_run("""
        main:
            MOVI R0, #0
            LDA R1, arr
            MOVI R5, #0
        loop:
            SHLI R3, R0, #2
            LDR R2, [R1, R3]
            ADD R5, R5, R2
            ADDI R0, R0, #1
            CMPI R0, #8
            BLT loop
            HALT
        .data
        arr: .word 1, 2, 3, 4, 5, 6, 7, 8
        """)
        assert result.wcet_cycles >= execution.cycles
        assert result.wcet_cycles <= int(execution.cycles * 1.6)


class TestWorstCasePath:
    def test_path_counts_reflect_loop(self):
        source = """
        main:
            MOVI R0, #0
        loop:
            ADDI R0, R0, #1
            CMPI R0, #7
            BLT loop
            HALT
        """
        program = assemble(source)
        result = analyze_wcet(program, config=CONFIG)
        loop_addr = program.symbols["loop"]
        loop_counts = [count for node, count
                       in result.path.path.node_counts.items()
                       if node.block == loop_addr]
        assert loop_counts == [7]

    def test_summary_renders(self):
        source = "main: HALT\n"
        result = analyze_wcet(assemble(source), config=CONFIG)
        text = result.summary()
        assert "WCET bound" in text
        assert "I-cache" in text


class TestAblations:
    LOOP_ARRAY = """
    main:
        MOVI R0, #0
        LDA R1, arr
    loop:
        SHLI R3, R0, #2
        LDR R2, [R1, R3]
        ADDI R0, R0, #1
        CMPI R0, #16
        BLT loop
        HALT
    .data
    arr: .word 0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15
    """

    def test_value_analysis_improves_dcache(self):
        program = assemble(self.LOOP_ARRAY)
        smart = analyze_wcet(program, config=CONFIG,
                             use_value_analysis_for_dcache=True)
        blind = analyze_wcet(program, config=CONFIG,
                             use_value_analysis_for_dcache=False)
        execution = run_program(program, config=CONFIG)
        assert smart.wcet_cycles >= execution.cycles
        assert blind.wcet_cycles >= execution.cycles
        assert smart.wcet_cycles <= blind.wcet_cycles

    def test_phase_timings_recorded(self):
        program = assemble(self.LOOP_ARRAY)
        result = analyze_wcet(program, config=CONFIG)
        for phase in ("cfg", "value", "loopbounds", "icache", "dcache",
                      "pipeline", "path"):
            assert phase in result.phase_seconds
