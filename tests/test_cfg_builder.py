"""Tests for CFG reconstruction from binaries."""

import pytest

from repro.isa import Opcode, assemble
from repro.cfg import (CFGError, EdgeKind, build_cfg, expand_task,
                       find_loops)

SIMPLE_LOOP = """
main:
    MOVI R0, #10
loop:
    SUBI R0, R0, #1
    CMPI R0, #0
    BNE loop
    HALT
"""

IF_ELSE = """
main:
    CMPI R0, #5
    BLT less
    MOVI R1, #1
    B join
less:
    MOVI R1, #2
join:
    HALT
"""

CALLS = """
main:
    MOVI R0, #3
    BL double
    BL double
    HALT
double:
    ADD R0, R0, R0
    RET
"""


class TestBlockFormation:
    def test_simple_loop_blocks(self):
        binary = build_cfg(assemble(SIMPLE_LOOP))
        cfg = binary.entry_function
        starts = sorted(cfg.blocks)
        # main block, loop body, halt block
        symbols = binary.program.symbols
        assert symbols["main"] in starts
        assert symbols["loop"] in starts
        assert len(starts) == 3

    def test_block_instructions_are_contiguous(self):
        binary = build_cfg(assemble(SIMPLE_LOOP))
        for cfg in binary.functions.values():
            for block in cfg.blocks.values():
                addresses = [i.address for i in block]
                assert addresses == list(
                    range(block.start, block.end, 4))

    def test_branch_edges(self):
        binary = build_cfg(assemble(SIMPLE_LOOP))
        cfg = binary.entry_function
        loop = binary.program.symbols["loop"]
        edges = cfg.successors(loop)
        kinds = {(e.kind, e.target) for e in edges}
        halt_block = loop + 12
        assert (EdgeKind.TAKEN, loop) in kinds
        assert (EdgeKind.FALLTHROUGH, halt_block) in kinds

    def test_conditional_edges_carry_conditions(self):
        binary = build_cfg(assemble(IF_ELSE))
        cfg = binary.entry_function
        entry_edges = cfg.successors(cfg.entry)
        conds = {e.kind: e.cond for e in entry_edges}
        assert conds[EdgeKind.TAKEN].name == "LT"
        assert conds[EdgeKind.FALLTHROUGH].name == "GE"

    def test_diamond_shape(self):
        binary = build_cfg(assemble(IF_ELSE))
        cfg = binary.entry_function
        join = binary.program.symbols["join"]
        preds = cfg.predecessors(join)
        assert len(preds) == 2


class TestCallGraph:
    def test_functions_discovered(self):
        binary = build_cfg(assemble(CALLS))
        names = {f.name for f in binary.functions.values()}
        assert names == {"main", "double"}

    def test_call_sites_recorded(self):
        binary = build_cfg(assemble(CALLS))
        main = binary.program.symbols["main"]
        double = binary.program.symbols["double"]
        callees = binary.call_graph.calls[main]
        assert [callee for _, callee in callees] == [double, double]

    def test_call_block_fallthrough(self):
        binary = build_cfg(assemble(CALLS))
        cfg = binary.entry_function
        for block in cfg.call_sites():
            succs = cfg.successors(block.start)
            assert len(succs) == 1
            assert succs[0].kind is EdgeKind.FALLTHROUGH
            assert succs[0].target == block.last.address + 4

    def test_recursion_rejected(self):
        source = """
        main:
            BL main
            HALT
        """
        binary = build_cfg(assemble(source))
        with pytest.raises(RecursionError):
            binary.call_graph.topological_order(binary.entry)

    def test_mutual_recursion_rejected(self):
        source = """
        main:
            BL even
            HALT
        even:
            BL odd
            RET
        odd:
            BL even
            RET
        """
        binary = build_cfg(assemble(source))
        with pytest.raises(RecursionError) as excinfo:
            binary.call_graph.topological_order(binary.entry)
        assert "even" in str(excinfo.value)


class TestReconstructionErrors:
    def test_unannotated_indirect_branch(self):
        source = """
        main:
            BR R0
        """
        with pytest.raises(CFGError):
            build_cfg(assemble(source))

    def test_indirect_branch_with_annotation(self):
        program = assemble("""
        main:
            BR R0
        a:  HALT
        b:  HALT
        """)
        a, b = program.symbols["a"], program.symbols["b"]
        br_addr = program.symbols["main"]
        binary = build_cfg(program, indirect_targets={br_addr: [a, b]})
        cfg = binary.entry_function
        targets = {e.target for e in cfg.successors(cfg.entry)}
        assert targets == {a, b}

    def test_branch_to_non_code(self):
        source = """
        main:
            B far
        .data
        far: .word 0
        """
        # "far" is a data symbol; branching there must fail.
        program = assemble(source)
        with pytest.raises(CFGError):
            build_cfg(program)


class TestTaskGraphExpansion:
    def test_each_call_site_gets_a_context(self):
        binary = build_cfg(assemble(CALLS))
        graph = expand_task(binary)
        contexts = graph.contexts()
        # Root context plus one per call site.
        assert len(contexts) == 3

    def test_call_and_return_edges(self):
        binary = build_cfg(assemble(CALLS))
        graph = expand_task(binary)
        kinds = {e.kind for node in graph.nodes()
                 for e in graph.successors(node)}
        assert EdgeKind.CALL in kinds
        assert EdgeKind.RETURN in kinds

    def test_entry_node(self):
        binary = build_cfg(assemble(CALLS))
        graph = expand_task(binary)
        assert graph.entry.context.calls == ()
        assert graph.entry.block == binary.entry

    def test_single_exit_for_straightline(self):
        binary = build_cfg(assemble("main: HALT\n"))
        graph = expand_task(binary)
        assert graph.exit_nodes() == [graph.entry]

    def test_return_edge_reaches_return_site(self):
        binary = build_cfg(assemble(CALLS))
        graph = expand_task(binary)
        return_edges = [e for node in graph.nodes()
                        for e in graph.successors(node)
                        if e.kind is EdgeKind.RETURN]
        for edge in return_edges:
            # Return site is the instruction after its context's call site.
            call_site = edge.source.context.calls[-1]
            assert edge.target.block == call_site + 4
            assert edge.target.context.calls \
                == edge.source.context.calls[:-1]

    def test_nested_calls_expand_transitively(self):
        source = """
        main:
            BL outer
            HALT
        outer:
            BL inner
            RET
        inner:
            RET
        """
        binary = build_cfg(assemble(source))
        graph = expand_task(binary)
        depths = {len(node.context.calls) for node in graph.nodes()}
        assert depths == {0, 1, 2}

    def test_topological_order_starts_at_entry(self):
        binary = build_cfg(assemble(CALLS))
        graph = expand_task(binary)
        order = graph.topological_order()
        assert order[0] == graph.entry
        assert len(order) == graph.node_count()


class TestLoopDetection:
    def test_single_loop(self):
        binary = build_cfg(assemble(SIMPLE_LOOP))
        graph = expand_task(binary)
        forest = find_loops(graph.entry, graph.adjacency())
        assert len(forest) == 1
        (loop,) = forest
        assert loop.header.block == binary.program.symbols["loop"]
        assert loop.depth == 1

    def test_nested_loops(self):
        source = """
        main:
            MOVI R0, #0
        outer:
            MOVI R1, #0
        inner:
            ADDI R1, R1, #1
            CMPI R1, #4
            BLT inner
            ADDI R0, R0, #1
            CMPI R0, #3
            BLT outer
            HALT
        """
        binary = build_cfg(assemble(source))
        graph = expand_task(binary)
        forest = find_loops(graph.entry, graph.adjacency())
        assert len(forest) == 2
        inner = next(l for l in forest
                     if l.header.block == binary.program.symbols["inner"])
        outer = next(l for l in forest
                     if l.header.block == binary.program.symbols["outer"])
        assert inner.parent is outer
        assert inner.depth == 2
        assert inner.body < outer.body

    def test_loop_exit_edges(self):
        binary = build_cfg(assemble(SIMPLE_LOOP))
        graph = expand_task(binary)
        forest = find_loops(graph.entry, graph.adjacency())
        (loop,) = forest
        exits = loop.exit_edges(graph.adjacency())
        assert len(exits) == 1

    def test_no_loops_in_straightline(self):
        binary = build_cfg(assemble(IF_ELSE))
        graph = expand_task(binary)
        forest = find_loops(graph.entry, graph.adjacency())
        assert len(forest) == 0

    def test_loop_in_callee_appears_per_context(self):
        source = """
        main:
            BL spin
            BL spin
            HALT
        spin:
            MOVI R0, #8
        w:
            SUBI R0, R0, #1
            CMPI R0, #0
            BNE w
            RET
        """
        binary = build_cfg(assemble(source))
        graph = expand_task(binary)
        forest = find_loops(graph.entry, graph.adjacency())
        # The callee loop is instantiated once per call context.
        assert len(forest) == 2
