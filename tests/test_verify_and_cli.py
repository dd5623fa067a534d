"""Tests for the bound-verification API and the command-line tool."""

import pytest

from repro.isa import assemble
from repro.lang import compile_program
from repro.stack import analyze_stack
from repro.verify import verify_bounds
from repro.wcet import analyze_wcet
from repro.__main__ import main as cli_main


LOOP_TASK = """
main:
    MOVI R4, #0
loop:
    ADDI R4, R4, #1
    CMPI R4, #10
    BLT loop
    HALT
"""

INPUT_TASK = """
main:
loop:
    SUBI R0, R0, #1
    CMPI R0, #0
    BGT loop
    HALT
"""


class TestVerifyBounds:
    def test_clean_program_passes(self):
        program = assemble(LOOP_TASK)
        wcet = analyze_wcet(program)
        stack = analyze_stack(program)
        report = verify_bounds(program, wcet, stack)
        assert report.ok, [str(v) for v in report.violations]
        assert report.runs == 1
        assert report.worst_cycles <= wcet.wcet_cycles

    def test_multiple_input_sets(self):
        program = assemble(INPUT_TASK)
        wcet = analyze_wcet(program, register_ranges={0: (1, 50)})
        report = verify_bounds(
            program, wcet,
            input_sets=[{0: 1}, {0: 25}, {0: 50}])
        assert report.ok
        assert report.runs == 4

    def test_detects_fabricated_violation(self):
        # Sanity check of the checker itself: tamper with the bound.
        program = assemble(LOOP_TASK)
        wcet = analyze_wcet(program)
        wcet.path.wcet_cycles = 1   # deliberately wrong
        report = verify_bounds(program, wcet)
        assert not report.ok
        assert any(v.kind == "S1" for v in report.violations)

    def test_workload_corpus_spot_check(self):
        from repro.workloads import analyze_workload, get_workload
        workload = get_workload("matmult")
        program = workload.compile()
        wcet = analyze_workload(workload)
        stack = analyze_stack(program)
        report = verify_bounds(program, wcet, stack)
        assert report.ok, [str(v) for v in report.violations]

    def test_summary_text(self):
        program = assemble(LOOP_TASK)
        wcet = analyze_wcet(program)
        report = verify_bounds(program, wcet)
        assert "OK" in report.summary()


class TestCLI:
    @pytest.fixture()
    def asm_file(self, tmp_path):
        path = tmp_path / "task.s"
        path.write_text(LOOP_TASK)
        return str(path)

    @pytest.fixture()
    def c_file(self, tmp_path):
        path = tmp_path / "task.c"
        path.write_text("""
        int r;
        void main() {
            int i;
            r = 0;
            for (i = 0; i < 5; i = i + 1) { r = r + i; }
        }
        """)
        return str(path)

    def test_wcet_command(self, asm_file, capsys):
        assert cli_main(["wcet", asm_file]) == 0
        output = capsys.readouterr().out
        assert "WCET BOUND" in output
        assert "StackAnalyzer" in output

    def test_wcet_on_minic(self, c_file, capsys):
        assert cli_main(["wcet", c_file, "--path"]) == 0
        output = capsys.readouterr().out
        assert "WCET BOUND" in output
        assert "block" in output

    def test_wcet_dot_export(self, asm_file, tmp_path, capsys):
        dot_path = str(tmp_path / "graph.dot")
        assert cli_main(["wcet", asm_file, "--dot", dot_path]) == 0
        content = open(dot_path).read()
        assert content.startswith("digraph wcet")

    def test_wcet_with_annotations(self, tmp_path, capsys):
        path = tmp_path / "input.s"
        path.write_text(INPUT_TASK)
        assert cli_main(["wcet", str(path),
                         "--reg-range", "R0=1:20"]) == 0
        expected = analyze_wcet(assemble(INPUT_TASK),
                                register_ranges={0: (1, 20)})
        assert f"WCET BOUND: {expected.wcet_cycles} cycles" \
            in capsys.readouterr().out

    @pytest.mark.parametrize("argv, flag", [
        (["wcet", "FILE", "--reg-range", "R0=5"], "--reg-range"),
        (["wcet", "FILE", "--reg-range", "R0"], "--reg-range"),
        (["wcet", "FILE", "--loop-bound", "0x10=abc"], "--loop-bound"),
        (["run", "FILE", "--reg", "Rx=1"], "--reg"),
        (["wcet", "FILE", "--reg-range", "R0=5:1"], "--reg-range"),
        (["wcet", "FILE", "--loop-bound", "0x10=0"], "--loop-bound"),
        (["wcet", "FILE", "--loop-bound", "0x10=-3"], "--loop-bound"),
        (["batch", "--matrix", "fibcall:full:additive", "--jobs", "0"],
         "--jobs"),
        (["batch", "--matrix", "fibcall:full:additive", "--jobs", "-2"],
         "--jobs"),
        (["batch", "--matrix", "fibcall:full:additive",
          "--cache-limit-mb", "-5"], "--cache-limit-mb"),
        (["serve", "--workers", "0"], "--workers"),
        (["serve", "--max-jobs", "0"], "--max-jobs"),
        (["serve", "--memo-entries", "0"], "--memo-entries"),
        (["serve", "--memo-mb", "0"], "--memo-mb"),
    ], ids=["range-without-hi", "range-without-value", "bound-not-int",
            "unknown-register", "empty-range", "zero-bound",
            "negative-bound", "zero-jobs", "negative-jobs",
            "negative-cache-limit", "zero-workers", "zero-max-jobs",
            "zero-memo-entries", "zero-memo-mb"])
    def test_malformed_annotation_is_usage_error(self, c_file, capsys,
                                                 argv, flag):
        # FILE stands for the input file of the commands that take one.
        with pytest.raises(SystemExit) as exit_info:
            cli_main([c_file if arg == "FILE" else arg for arg in argv])
        assert exit_info.value.code == 2
        assert f"argument {flag}: expected" in capsys.readouterr().err

    def test_wcet_runs_value_analysis_once(self, c_file, monkeypatch,
                                           capsys):
        # The StackAnalyzer section reads the WCET run's own value
        # artifact instead of running a second value analysis.
        from repro.analysis import valueanalysis

        solver = valueanalysis.FixpointSolver
        analyses = []

        def counting_solver(*args, **kwargs):
            analyses.append(args)
            return solver(*args, **kwargs)

        monkeypatch.setattr(valueanalysis, "FixpointSolver",
                            counting_solver)
        assert cli_main(["wcet", c_file]) == 0
        assert "StackAnalyzer" in capsys.readouterr().out
        assert len(analyses) == 1

    def test_wcet_manual_loop_bound(self, tmp_path, capsys):
        path = tmp_path / "input.s"
        path.write_text(INPUT_TASK)
        program = assemble(INPUT_TASK)
        header = program.symbols["loop"]
        assert cli_main(["wcet", str(path),
                         "--loop-bound", f"0x{header:x}=20"]) == 0

    def test_stack_command(self, asm_file, capsys):
        assert cli_main(["stack", asm_file]) == 0
        assert "stack usage" in capsys.readouterr().out

    def test_run_command(self, asm_file, capsys):
        assert cli_main(["run", asm_file]) == 0
        output = capsys.readouterr().out
        assert "halted after" in output
        assert "R4 =0x0000000a" in output.replace("R4=", "R4 =")

    def test_run_with_register(self, tmp_path, capsys):
        path = tmp_path / "input.s"
        path.write_text(INPUT_TASK)
        assert cli_main(["run", str(path), "--reg", "R0=7"]) == 0
        assert "halted" in capsys.readouterr().out

    def test_disasm_command(self, asm_file, capsys):
        assert cli_main(["disasm", asm_file]) == 0
        output = capsys.readouterr().out
        assert "MOVI R4, #0" in output
        assert "loop:" in output
