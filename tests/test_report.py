"""Tests for report generation and DOT export."""

import pytest

from repro.cfg import VIVU
from repro.isa import assemble
from repro.report import wcet_dot, wcet_report, worst_case_path_table
from repro.stack import analyze_stack
from repro.wcet import analyze_wcet
from repro.workloads.suite import analyze_workload, get_workload

SOURCE = """
main:
    MOVI R4, #0
loop:
    BL helper
    ADDI R4, R4, #1
    CMPI R4, #5
    BLT loop
    HALT
helper:
    PUSH {R4}
    MOVI R4, #1
    POP {R4}
    RET
"""


@pytest.fixture(scope="module")
def analysis():
    program = assemble(SOURCE)
    return program, analyze_wcet(program), analyze_stack(program)


class TestTextReport:
    def test_contains_all_phases(self, analysis):
        _program, wcet, stack = analysis
        text = wcet_report(wcet, stack)
        for phase in ("CFG reconstruction", "value analysis",
                      "loop bounds", "cache analysis",
                      "pipeline analysis", "path analysis"):
            assert phase in text

    def test_reports_bound_and_loops(self, analysis):
        _program, wcet, stack = analysis
        text = wcet_report(wcet, stack)
        assert f"WCET BOUND: {wcet.wcet_cycles} cycles" in text
        assert "5 iterations [affine]" in text

    def test_stack_section(self, analysis):
        _program, wcet, stack = analysis
        text = wcet_report(wcet, stack)
        assert "StackAnalyzer" in text
        assert "helper" in text

    def test_without_stack_result(self, analysis):
        _program, wcet, _stack = analysis
        text = wcet_report(wcet)
        assert "StackAnalyzer" not in text
        assert "WCET BOUND" in text

    def test_work_counter_lines_list_every_field(self):
        # One line per work-counter record, every field as name=value:
        # a krisc5 VIVU point has all six records, and calltree's path
        # LP pivots.
        result = analyze_workload(get_workload("calltree"),
                                  context_policy=VIVU(peel=1),
                                  pipeline_model="krisc5")
        records = dict(result.solver_stats,
                       states=result.timing.state_stats)
        assert list(records) == ["value", "icache", "dcache", "pipeline",
                                 "path", "states"]
        assert records["path"].pivots > 0
        lines = wcet_report(result).splitlines()
        assert (f"   ILP: {result.path.num_variables} variables, "
                f"{result.path.num_constraints} constraints") in lines
        counters = lines[lines.index("-- Work counters") + 1:]
        for name, record in records.items():
            words = next(line.split() for line in counters
                         if line.split()[0] == name)
            assert words[1:] == [f"{field}={value}" for field, value
                                 in vars(record).items()]

    def test_path_table_lists_loop_block(self, analysis):
        program, wcet, _stack = analysis
        table = worst_case_path_table(wcet)
        assert "count" in table
        # The helper body executes 5 times in the worst case.
        assert " 5 " in table


class TestDotExport:
    def test_valid_digraph_structure(self, analysis):
        _program, wcet, _stack = analysis
        dot = wcet_dot(wcet)
        assert dot.startswith("digraph wcet {")
        assert dot.rstrip().endswith("}")
        assert dot.count("->") == wcet.graph.edge_count()

    def test_call_and_return_edges_styled(self, analysis):
        _program, wcet, _stack = analysis
        dot = wcet_dot(wcet)
        assert "darkgreen" in dot    # call edge
        assert "purple" in dot       # return edge

    def test_counts_annotated(self, analysis):
        _program, wcet, _stack = analysis
        dot = wcet_dot(wcet)
        assert "cyc x" in dot

    def test_instruction_listing_mode(self, analysis):
        _program, wcet, _stack = analysis
        dot = wcet_dot(wcet, include_instructions=True)
        assert "ADDI R4, R4, #1" in dot

    def test_condition_labels_on_edges(self, analysis):
        _program, wcet, _stack = analysis
        dot = wcet_dot(wcet)
        assert "[LT]" in dot or "[GE]" in dot
