"""Integration tests for whole-task value analysis."""

import pytest

from repro.isa import STACK_BASE, assemble
from repro.isa.registers import SP
from repro.cfg import build_cfg, expand_task
from repro.analysis import (Const, Interval, analyze_loop_bounds,
                            analyze_values)


def analyze(source, **kwargs):
    graph = expand_task(build_cfg(assemble(source)))
    return graph, analyze_values(graph, **kwargs)


def node_for(graph, address):
    return next(n for n in graph.nodes() if n.block == address)


class TestStraightLine:
    def test_constant_tracking(self):
        source = """
        main:
            MOVI R0, #5
            ADDI R1, R0, #3
            MUL R2, R0, R1
            HALT
        """
        graph, values = analyze(source)
        final = values.state_after_block(graph.entry)
        assert final.get(0).as_constant() == 5
        assert final.get(1).as_constant() == 8
        assert final.get(2).as_constant() == 40

    def test_stack_pointer_initialised(self):
        graph, values = analyze("main: HALT\n")
        state = values.fixpoint.state_at(graph.entry)
        assert state.get(SP).as_constant() == STACK_BASE

    def test_push_pop_roundtrip(self):
        source = """
        main:
            MOVI R4, #77
            PUSH {R4}
            MOVI R4, #0
            POP {R4}
            HALT
        """
        graph, values = analyze(source)
        final = values.state_after_block(graph.entry)
        assert final.get(4).as_constant() == 77
        assert final.get(SP).as_constant() == STACK_BASE

    def test_store_load_via_memory(self):
        source = """
        main:
            LDA R1, cell
            MOVI R0, #99
            STR R0, [R1]
            LDR R2, [R1]
            HALT
        .data
        cell: .word 0
        """
        graph, values = analyze(source)
        final = values.state_after_block(graph.entry)
        assert final.get(2).as_constant() == 99

    def test_initialised_data_is_seeded(self):
        source = """
        main:
            LDA R1, answer
            LDR R0, [R1]
            HALT
        .data
        answer: .word 42
        """
        graph, values = analyze(source)
        final = values.state_after_block(graph.entry)
        assert final.get(0).as_constant() == 42


class TestBranching:
    def test_join_of_two_branches(self):
        source = """
        main:
            CMPI R0, #0
            BLT neg
            MOVI R1, #1
            B join
        neg:
            MOVI R1, #2
        join:
            HALT
        """
        graph, values = analyze(source)
        program = assemble(source)
        join = node_for(graph, program.symbols["join"])
        state = values.fixpoint.state_at(join)
        lo, hi = state.get(1).signed_bounds()
        assert (lo, hi) == (1, 2)

    def test_branch_refinement(self):
        source = """
        main:
            CMPI R0, #10
            BGE big
            MOVI R2, #0
            HALT
        big:
            MOVI R2, #1
            HALT
        """
        graph, values = analyze(source)
        program = assemble(source)
        big = node_for(graph, program.symbols["big"])
        state = values.fixpoint.state_at(big)
        lo, _hi = state.get(0).signed_bounds()
        assert lo >= 10

    def test_infeasible_edge_detected(self):
        source = """
        main:
            MOVI R0, #3
            CMPI R0, #5
            BGE never
            MOVI R1, #1
            HALT
        never:
            MOVI R1, #2
            HALT
        """
        graph, values = analyze(source)
        program = assemble(source)
        never = node_for(graph, program.symbols["never"])
        assert not values.fixpoint.reachable(never)
        assert len(values.infeasible_edges) == 1
        assert values.infeasible_edges[0].target == never

    def test_condition_outcome_recorded(self):
        source = """
        main:
            MOVI R0, #3
            CMPI R0, #5
            BLT always
            MOVI R1, #1
            HALT
        always:
            HALT
        """
        graph, values = analyze(source)
        outcomes = list(values.condition_outcomes.values())
        assert outcomes == [True]


class TestLoops:
    def test_counter_interval_stabilises(self):
        source = """
        main:
            MOVI R0, #0
        loop:
            ADDI R0, R0, #1
            CMPI R0, #10
            BLT loop
            HALT
        """
        graph, values = analyze(source)
        program = assemble(source)
        loop = node_for(graph, program.symbols["loop"])
        state = values.fixpoint.state_at(loop)
        lo, hi = state.get(0).signed_bounds()
        assert lo == 0
        assert hi <= 10   # narrowed back after widening

    def test_exit_state_is_limit(self):
        source = """
        main:
            MOVI R0, #0
        loop:
            ADDI R0, R0, #1
            CMPI R0, #10
            BLT loop
        done:
            HALT
        """
        graph, values = analyze(source)
        program = assemble(source)
        done = node_for(graph, program.symbols["done"])
        state = values.fixpoint.state_at(done)
        lo, hi = state.get(0).signed_bounds()
        assert (lo, hi) == (10, 10)

    def test_memory_access_ranges_in_loop(self):
        source = """
        main:
            MOVI R0, #0
            LDA R1, arr
        loop:
            SHLI R3, R0, #2
            LDR R2, [R1, R3]
            ADDI R0, R0, #1
            CMPI R0, #8
            BLT loop
            HALT
        .data
        arr: .word 1, 2, 3, 4, 5, 6, 7, 8
        """
        graph, values = analyze(source)
        program = assemble(source)
        array_loads = [a for a in values.accesses
                       if a.is_load and a.instruction.opcode.name == "LDRX"]
        assert array_loads
        base = program.symbols["arr"]
        for access in array_loads:
            lo, hi = access.byte_range
            assert lo >= base
            assert hi <= base + 7 * 4


class TestInterprocedural:
    def test_argument_flows_into_callee(self):
        source = """
        main:
            MOVI R0, #21
            BL double
            HALT
        double:
            ADD R0, R0, R0
            RET
        """
        graph, values = analyze(source)
        # Find the callee's block in its call context.
        callee_nodes = [n for n in graph.nodes() if len(n.context.calls) == 1]
        assert callee_nodes
        program = assemble(source)
        # After the call returns, R0 is 42 at the HALT block.
        halt_addr = program.symbols["main"] + 8
        halt = node_for(graph, halt_addr)
        state = values.fixpoint.state_at(halt)
        assert state.get(0).as_constant() == 42

    def test_per_context_precision(self):
        source = """
        main:
            MOVI R0, #1
            BL id
            MOV R4, R0
            MOVI R0, #2
            BL id
            HALT
        id:
            RET
        """
        graph, values = analyze(source)
        # Each call context sees its own argument value.
        id_nodes = [n for n in graph.nodes() if len(n.context.calls) == 1]
        constants = set()
        for node in id_nodes:
            state = values.fixpoint.state_at(node)
            constants.add(state.get(0).as_constant())
        assert constants == {1, 2}

    def test_callee_saved_registers_restored(self):
        source = """
        main:
            MOVI R4, #7
            BL clobber
            HALT
        clobber:
            PUSH {R4}
            MOVI R4, #0
            POP {R4}
            RET
        """
        graph, values = analyze(source)
        program = assemble(source)
        halt = node_for(graph, program.symbols["main"] + 8)
        state = values.fixpoint.state_at(halt)
        assert state.get(4).as_constant() == 7


class TestEntryAnnotations:
    def test_register_range_annotation(self):
        source = """
        main:
            CMPI R0, #50
            BGE high
            MOVI R1, #1
            HALT
        high:
            MOVI R1, #2
            HALT
        """
        graph, values = analyze(source, register_ranges={0: (0, 30)})
        program = assemble(source)
        high = node_for(graph, program.symbols["high"])
        assert not values.fixpoint.reachable(high)


class TestPrecisionStats:
    def test_all_exact_for_direct_accesses(self):
        source = """
        main:
            LDA R1, cell
            LDR R0, [R1]
            STR R0, [R1]
            HALT
        .data
        cell: .word 5
        """
        _graph, values = analyze(source)
        stats = values.precision()
        assert stats.total == 2
        assert stats.exact == 2
        assert stats.exact_ratio == 1.0

    def test_bounded_access_counted(self):
        source = """
        main:
            MOVI R0, #0
            LDA R1, arr
        loop:
            SHLI R3, R0, #2
            LDR R2, [R1, R3]
            ADDI R0, R0, #1
            CMPI R0, #4
            BLT loop
            HALT
        .data
        arr: .word 1, 2, 3, 4
        """
        _graph, values = analyze(source)
        stats = values.precision()
        assert stats.bounded >= 1
        assert stats.unknown == 0


class TestConstantPropagationDomain:
    def test_consts_tracked(self):
        source = """
        main:
            MOVI R0, #5
            ADDI R1, R0, #2
            HALT
        """
        graph, values = analyze(source, domain=Const)
        final = values.state_after_block(graph.entry)
        assert final.get(1).as_constant() == 7

    def test_join_loses_to_top(self):
        source = """
        main:
            CMPI R0, #0
            BLT neg
            MOVI R1, #1
            B join
        neg:
            MOVI R1, #2
        join:
            HALT
        """
        graph, values = analyze(source, domain=Const)
        program = assemble(source)
        join = node_for(graph, program.symbols["join"])
        state = values.fixpoint.state_at(join)
        assert state.get(1).is_top()
