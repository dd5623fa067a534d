"""Tests for the bound-verification API and the command-line tool."""

import json
import socket
import threading
from pathlib import Path

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

#: A task that sets SP from an input register: its timing is bounded,
#: its stack usage is not.
FREE_SP_TASK = """
main:
    MOV SP, R0
    PUSH {R1}
    POP {R1}
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


def one_task_set(top=None, **task):
    """Task-set JSON with one valid task, whose keys ``task`` overrides;
    ``top`` adds keys to the set itself."""
    return json.dumps({"name": "s", **(top or {}), "tasks": [
        {"name": "t", "workload": "fibcall", "priority": 1, "period": 6000,
         **task}]})


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
        (["wcet", "FILE", "--reg-range", "R0=0:0xFFFFFFFF"],
         "--reg-range"),
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
        (["wcet", "FILE", "--context-policy", "vivu@0"],
         "--context-policy"),
        (["wcet", "FILE", "--context-policy", "klimited@1@2"],
         "--context-policy"),
        (["wcet", "FILE", "--context-policy", "full@1"],
         "--context-policy"),
        (["wcet", "FILE", "--context-policy", "nonsense"],
         "--context-policy"),
        (["wcet", "FILE", "--context-policy", "vivu@@2"],
         "--context-policy"),
        (["wcet", "FILE", "--context-policy", "klimited@"],
         "--context-policy"),
        (["batch", "--matrix", "fibcall:nonsense"], "--matrix"),
        (["batch", "--matrix", "nosuch"], "--matrix"),
        (["rta", "FILE", "--sweep", "--orderings", "bogus"],
         "--orderings"),
        (["rta", "FILE", "--sweep", "--geometries", "3x2x16"],
         "--geometries"),
        (["run", "FILE", "--max-steps", "0"], "--max-steps"),
    ], ids=["range-without-hi", "range-without-value", "bound-not-int",
            "unknown-register", "empty-range", "unsigned-range",
            "zero-bound", "negative-bound", "zero-jobs", "negative-jobs",
            "negative-cache-limit", "zero-workers", "zero-max-jobs",
            "zero-memo-entries", "zero-memo-mb", "zero-peel",
            "klimited-two-params", "full-with-param", "unknown-policy",
            "empty-peel", "empty-k",
            "matrix-unknown-policy", "matrix-unknown-workload",
            "unknown-ordering", "bad-geometry", "zero-max-steps"])
    def test_malformed_annotation_is_usage_error(self, c_file, capsys,
                                                 argv, flag):
        # FILE stands for the input file of the commands that take one.
        with pytest.raises(SystemExit) as exit_info:
            cli_main([c_file if arg == "FILE" else arg for arg in argv])
        assert exit_info.value.code == 2
        assert f"argument {flag}: expected" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag, other", [
        (["rta", "TASKSET", "--sweep", "--verify"], "--verify", "--sweep"),
        (["rta", "TASKSET", "--golden", "DIR/golden.json"], "--golden",
         "--sweep"),
        (["rta", "TASKSET", "--write-golden", "DIR/golden.json"],
         "--write-golden", "--sweep"),
        (["rta", "TASKSET", "--orderings", "given"], "--orderings",
         "--sweep"),
        (["rta", "TASKSET", "--geometries", "16x2x16"], "--geometries",
         "--sweep"),
        (["batch", "--matrix", "fibcall:full:additive",
          "--cache-limit-mb", "5"], "--cache-limit-mb", "--cache-dir"),
        (["serve", "--port", "0", "--cache-limit-mb", "5"],
         "--cache-limit-mb", "--cache-dir"),
        (["batch", "--matrix", "fibcall:full:additive", "--no-cache",
          "--cache-dir", "DIR/cache"], "--no-cache", "--cache-dir"),
    ], ids=["rta-verify-with-sweep", "rta-golden-without-sweep",
            "rta-write-golden-without-sweep",
            "rta-orderings-without-sweep",
            "rta-geometries-without-sweep",
            "batch-cache-limit-without-dir",
            "serve-cache-limit-without-dir", "batch-no-cache-with-dir"])
    def test_ignored_flag_is_usage_error(self, tmp_path, capsys,
                                         monkeypatch, argv, flag, other):
        # A flag that would do nothing is refused before any command
        # runs: no service starts and no cache directory appears.
        from repro.serve import AnalysisService

        def refuse(service, **options):
            raise AssertionError("the service started")

        monkeypatch.setattr(AnalysisService, "__init__", refuse)
        taskset = str(Path(__file__).resolve().parent.parent
                      / "tasksets" / "ecu_mix.json")
        argv = [arg.replace("TASKSET", taskset)
                .replace("DIR", str(tmp_path)) for arg in argv]
        with pytest.raises(SystemExit) as exit_info:
            cli_main(argv)
        assert exit_info.value.code == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert flag in error and other in error
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, error", [
        (["wcet", "unbounded.s"], "UnboundedLoopError"),
        (["wcet", "recursive.c"], "ExpansionError"),
        (["stack", "recursive.c"], "ExpansionError"),
        (["stack", "free_sp.s"], "StackAnalysisError"),
        (["wcet", "irreducible.s"], "IrreducibleLoopError"),
        (["wcet", "syntax.c"], "ParseError"),
        (["wcet", "nested.c"], "ParseError"),
        (["wcet", "mnemonic.s"], "AssemblyError"),
        (["wcet", "missing.c"], "FileNotFoundError"),
        (["rta", "missing.json"], "FileNotFoundError"),
        (["analyze", "task.c", "--url", "URL"], "URLError"),
        (["run", "task.c", "--max-steps", "3"], "OutOfFuel"),
        (["rta", "nosuch.json"], "ValueError"),
        (["rta", "nosuch.json", "--sweep"], "ValueError"),
        (["rta", "bogus.json"], "ValueError"),
        (["rta", "priority.json"], "ValueError"),
        (["rta", "boolean.json"], "ValueError"),
        (["rta", "fraction.json"], "ValueError"),
    ], ids=["unbounded-loop", "recursion", "stack-recursion",
            "stack-free-sp", "irreducible-loop",
            "syntax-error", "deep-nesting", "unknown-mnemonic",
            "missing-source", "missing-taskset", "no-server", "out-of-fuel",
            "unknown-workload", "unknown-workload-sweep",
            "unknown-taskset-key", "string-priority", "boolean-priority",
            "fractional-period"])
    def test_rejected_input_is_one_error_line(self, tmp_path, capsys,
                                              argv, error):
        inputs = {
            "unbounded.s": INPUT_TASK,
            "recursive.c": "int f(int n) { if (n < 1) { return 0; } "
                           "return f(n - 1); }\n"
                           "void main() { f(3); }\n",
            "syntax.c": "void main() { int; }\n",
            "nested.c": "int r; void main() { r = "
                        + "(" * 500 + "1" + ")" * 500 + "; }\n",
            "mnemonic.s": "main:\n    FROB R1, R2\n    HALT\n",
            "free_sp.s": FREE_SP_TASK,
            "irreducible.s": "main:\n    CMPI R0, #0\n    BEQ middle\n"
                             "head:\n    ADDI R1, R1, #1\n"
                             "middle:\n    ADDI R2, R2, #1\n"
                             "    CMPI R2, #10\n    BLT head\n    HALT\n",
            "task.c": "int r;\nvoid main() { int i; "
                      "for (i = 0; i < 5; i = i + 1) { r = r + i; } }\n",
            "nosuch.json": one_task_set(workload="nosuch"),
            "bogus.json": one_task_set(top={"bogus": 1}),
            "priority.json": one_task_set(priority="x"),
            "boolean.json": one_task_set(priority=True),
            "fraction.json": one_task_set(period=1000.7),
        }
        for name, text in inputs.items():
            (tmp_path / name).write_text(text)
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            # Closed on leaving the block: nothing listens there.
            url = f"http://127.0.0.1:{sock.getsockname()[1]}"
        argv = [url if arg == "URL" else
                str(tmp_path / arg) if "." in arg else arg
                for arg in argv]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"repro: error: {error}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_serve_whose_loop_never_starts_exits(self, capsys,
                                                 monkeypatch):
        # serve_forever failing before its loop runs ends `repro serve`
        # with one error line; the command must not wait in shutdown()
        # for a loop that never started.
        from repro.serve import AnalysisServer

        def no_loop(server, *args, **kwargs):
            raise OSError("the serve loop cannot start")

        monkeypatch.setattr(AnalysisServer, "serve_forever", no_loop)
        status = []
        thread = threading.Thread(
            target=lambda: status.append(
                cli_main(["serve", "--port", "0"])),
            daemon=True)
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive(), "repro serve did not return"
        assert status == [1]
        err = capsys.readouterr().err
        assert err.startswith("repro: error: OSError: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_wcet_reports_bound_when_stack_pointer_is_unbounded(
            self, tmp_path, capsys):
        # `repro stack` refuses this task (exit 1, see above); `repro
        # wcet` still prints its timing bound, without the
        # StackAnalyzer section, and says why on one line.
        path = tmp_path / "free_sp.s"
        path.write_text(FREE_SP_TASK)
        assert cli_main(["wcet", str(path)]) == 0
        captured = capsys.readouterr()
        assert "==> WCET BOUND: 34 cycles" in captured.out
        assert "StackAnalyzer" not in captured.out
        assert captured.err == (
            "repro: warning: no stack bound: StackAnalysisError: stack "
            "pointer unbounded in block <root:0x1000>\n")

    def test_wcet_runs_value_analysis_once(self, c_file, monkeypatch,
                                           capsys):
        # The StackAnalyzer section reads the WCET run's own value
        # artifact instead of running a second value analysis.
        from repro.analysis import valueanalysis

        solve = valueanalysis.solve_values
        analyses = []

        def counting_solve(*args, **kwargs):
            analyses.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(valueanalysis, "solve_values", counting_solve)
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
