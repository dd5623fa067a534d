"""Tests for the mini-C compiler: compiled programs must execute
correctly on the simulator and remain analysable."""

import pytest

from repro.lang import CodegenError, ParseError, compile_program, parse
from repro.sim import run_program
from repro.wcet import analyze_wcet


def run_main(source, arguments=None, **kwargs):
    program = compile_program(source)
    return run_program(program, arguments=arguments, **kwargs)


class TestParser:
    def test_function_structure(self):
        unit = parse("""
        int add(int a, int b) { return a + b; }
        void main() { }
        """)
        assert [f.name for f in unit.functions] == ["add", "main"]
        assert len(unit.function("add").parameters) == 2
        assert not unit.function("main").returns_value

    def test_globals(self):
        unit = parse("""
        int x;
        int y = 5;
        int table[4] = {1, 2, 3};
        void main() { }
        """)
        assert len(unit.globals) == 3
        assert unit.globals[1].initializer == [5]
        assert unit.globals[2].array_size == 4

    def test_precedence(self):
        unit = parse("void main() { int x; x = 1 + 2 * 3; }")
        assign = unit.function("main").body[1]
        assert assign.value.op == "+"
        assert assign.value.right.op == "*"

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse("void main() { int; }")
        with pytest.raises(ParseError):
            parse("void main() { 1 = 2; }")
        with pytest.raises(ParseError):
            parse("int f(int a, int b, int c, int d, int e) { return 0; } "
                  "void main() { }")

    @pytest.mark.parametrize("source", [
        "int r; void main() { r = " + "(" * 500 + "1" + ")" * 500 + "; }",
        "int r; void main() { r = " + "-" * 2000 + "1; }",
        "int r; void main() { " + "{" * 600 + "r = 1;" + "}" * 600 + " }",
        "int r; void main() { " + "if (r) " * 400 + "r = 1; }",
        "int r; void main() { r = " + "+".join(["1"] * 2000) + "; }",
    ], ids=["parentheses", "unary-minus", "blocks", "ifs", "binary-chain"])
    def test_deep_nesting_is_a_parse_error(self, source):
        # Each shape used to end in a RecursionError, in the parser or
        # (the binary chain) in codegen.
        with pytest.raises(ParseError,
                           match="^line 1: nesting deeper than 100 levels$"):
            compile_program(source)

    def test_moderate_nesting_compiles(self):
        compile_program("int r; void main() { r = "
                        + "(" * 60 + "1" + ")" * 60 + "; }")
        compile_program("int r; void main() { r = "
                        + "+".join(["1"] * 90) + "; }")


class TestExecution:
    def test_arithmetic(self):
        result = run_main("""
        int r;
        void main() {
            r = (2 + 3) * 4 - 1;
        }
        """)
        # r is a global; read it back from memory.
        program = compile_program("""
        int r;
        void main() { r = (2 + 3) * 4 - 1; }
        """)
        from repro.sim import Simulator
        simulator = Simulator(program)
        simulator.run()
        address = program.symbols["g_r"]
        assert simulator.memory[address] == 19

    def test_function_call_result(self):
        source = """
        int square(int x) { return x * x; }
        int r;
        void main() { r = square(7); }
        """
        program = compile_program(source)
        from repro.sim import Simulator
        simulator = Simulator(program)
        simulator.run()
        assert simulator.memory[program.symbols["g_r"]] == 49

    def test_recursion_free_fib(self):
        source = """
        int r;
        void main() {
            int a = 0;
            int b = 1;
            int i;
            for (i = 0; i < 10; i = i + 1) {
                int t = a + b;
                a = b;
                b = t;
            }
            r = a;
        }
        """
        program = compile_program(source)
        from repro.sim import Simulator
        simulator = Simulator(program)
        simulator.run()
        assert simulator.memory[program.symbols["g_r"]] == 55

    def test_arrays_and_loops(self):
        source = """
        int data[8];
        int sum;
        void main() {
            int i;
            for (i = 0; i < 8; i = i + 1) {
                data[i] = i * i;
            }
            sum = 0;
            for (i = 0; i < 8; i = i + 1) {
                sum = sum + data[i];
            }
        }
        """
        program = compile_program(source)
        from repro.sim import Simulator
        simulator = Simulator(program)
        simulator.run()
        assert simulator.memory[program.symbols["g_sum"]] == \
            sum(i * i for i in range(8))

    def test_local_arrays(self):
        source = """
        int r;
        void main() {
            int buf[4];
            int i;
            for (i = 0; i < 4; i = i + 1) { buf[i] = i + 10; }
            r = buf[0] + buf[3];
        }
        """
        program = compile_program(source)
        from repro.sim import Simulator
        simulator = Simulator(program)
        simulator.run()
        assert simulator.memory[program.symbols["g_r"]] == 23

    def test_if_else_chains(self):
        source = """
        int classify(int x) {
            if (x < 0) { return 0 - 1; }
            else if (x == 0) { return 0; }
            else { return 1; }
        }
        int r1; int r2; int r3;
        void main() {
            r1 = classify(0 - 5);
            r2 = classify(0);
            r3 = classify(9);
        }
        """
        program = compile_program(source)
        from repro.sim import Simulator
        simulator = Simulator(program)
        simulator.run()
        assert simulator.memory[program.symbols["g_r1"]] == 0xFFFFFFFF
        assert simulator.memory[program.symbols["g_r2"]] == 0
        assert simulator.memory[program.symbols["g_r3"]] == 1

    def test_logical_operators_short_circuit(self):
        source = """
        int calls;
        int bump() { calls = calls + 1; return 1; }
        int r;
        void main() {
            calls = 0;
            if (0 && bump()) { r = 1; } else { r = 2; }
            if (1 || bump()) { r = r + 10; }
        }
        """
        program = compile_program(source)
        from repro.sim import Simulator
        simulator = Simulator(program)
        simulator.run()
        assert simulator.memory[program.symbols["g_calls"]] == 0
        assert simulator.memory[program.symbols["g_r"]] == 12

    def test_while_and_do_while(self):
        source = """
        int r;
        void main() {
            int i = 0;
            int n = 0;
            while (i < 5) { n = n + 2; i = i + 1; }
            do { n = n + 1; i = i - 1; } while (i > 0);
            r = n;
        }
        """
        program = compile_program(source)
        from repro.sim import Simulator
        simulator = Simulator(program)
        simulator.run()
        assert simulator.memory[program.symbols["g_r"]] == 15

    def test_break_continue(self):
        source = """
        int r;
        void main() {
            int i;
            int n = 0;
            for (i = 0; i < 10; i = i + 1) {
                if (i == 3) { continue; }
                if (i == 7) { break; }
                n = n + i;
            }
            r = n;
        }
        """
        program = compile_program(source)
        from repro.sim import Simulator
        simulator = Simulator(program)
        simulator.run()
        assert simulator.memory[program.symbols["g_r"]] == 0 + 1 + 2 + 4 + 5 + 6

    def test_nested_calls_with_temps(self):
        source = """
        int add(int a, int b) { return a + b; }
        int r;
        void main() {
            r = add(add(1, 2), add(3, add(4, 5)));
        }
        """
        program = compile_program(source)
        from repro.sim import Simulator
        simulator = Simulator(program)
        simulator.run()
        assert simulator.memory[program.symbols["g_r"]] == 15

    def test_deep_expression_spills(self):
        # Deep right-leaning expression forces temp spilling.
        source = """
        int r;
        void main() {
            int a = 1; int b = 2; int c = 3; int d = 4;
            int e = 5; int f = 6; int g = 7;
            r = a + (b * (c + (d * (e + (f * g)))));
        }
        """
        program = compile_program(source)
        from repro.sim import Simulator
        simulator = Simulator(program)
        simulator.run()
        expected = 1 + (2 * (3 + (4 * (5 + (6 * 7)))))
        assert simulator.memory[program.symbols["g_r"]] == expected

    def test_shifts_and_bitops(self):
        source = """
        int r;
        void main() {
            r = ((0xF0 >> 4) | (1 << 8)) ^ 0xFF & 0x0F;
        }
        """
        program = compile_program(source)
        from repro.sim import Simulator
        simulator = Simulator(program)
        simulator.run()
        expected = ((0xF0 >> 4) | (1 << 8)) ^ 0xFF & 0x0F
        assert simulator.memory[program.symbols["g_r"]] == expected

    def test_boolean_value_materialisation(self):
        source = """
        int r;
        void main() {
            int a = 5;
            r = (a > 3) + (a < 3) * 10;
        }
        """
        program = compile_program(source)
        from repro.sim import Simulator
        simulator = Simulator(program)
        simulator.run()
        assert simulator.memory[program.symbols["g_r"]] == 1

    def test_many_locals_spill_to_stack(self):
        # More scalars than variable registers.
        source = """
        int r;
        void main() {
            int a = 1; int b = 2; int c = 3; int d = 4;
            int e = 5; int f = 6; int g = 7; int h = 8;
            int i = 9;
            r = a + b + c + d + e + f + g + h + i;
        }
        """
        program = compile_program(source)
        from repro.sim import Simulator
        simulator = Simulator(program)
        simulator.run()
        assert simulator.memory[program.symbols["g_r"]] == 45


class TestCodegenErrors:
    def test_undefined_variable(self):
        with pytest.raises(CodegenError):
            compile_program("void main() { x = 1; }")

    def test_undefined_function(self):
        with pytest.raises(CodegenError):
            compile_program("void main() { frob(); }")

    def test_missing_main(self):
        with pytest.raises(CodegenError):
            compile_program("int f() { return 1; }")

    def test_division_unsupported(self):
        from repro.lang import LexerError
        with pytest.raises((CodegenError, ParseError, LexerError)):
            compile_program("int r; void main() { r = 6 / 2; }")

    def test_break_outside_loop(self):
        with pytest.raises(CodegenError):
            compile_program("void main() { break; }")


class TestCompiledProgramsAreAnalysable:
    def test_wcet_of_compiled_loop(self):
        source = """
        int acc;
        void main() {
            int i;
            acc = 0;
            for (i = 0; i < 12; i = i + 1) {
                acc = acc + i;
            }
        }
        """
        program = compile_program(source)
        result = analyze_wcet(program)
        execution = run_program(program)
        assert result.wcet_cycles >= execution.cycles
        assert result.wcet_cycles <= execution.cycles * 1.35

    def test_compiled_loop_bounds_are_affine(self):
        source = """
        int a[10];
        void main() {
            int i;
            for (i = 0; i < 10; i = i + 1) { a[i] = i; }
        }
        """
        program = compile_program(source)
        result = analyze_wcet(program)
        methods = {b.method for b in result.loop_bounds.values()}
        assert methods == {"affine"}
        bounds = {b.max_iterations for b in result.loop_bounds.values()}
        assert bounds == {10}

    def test_compiled_nest_analysable(self):
        source = """
        int m[16];
        void main() {
            int i; int j;
            for (i = 0; i < 4; i = i + 1) {
                for (j = 0; j < 4; j = j + 1) {
                    m[i * 4 + j] = i + j;
                }
            }
        }
        """
        program = compile_program(source)
        result = analyze_wcet(program)
        execution = run_program(program)
        assert result.wcet_cycles >= execution.cycles
        assert all(b.is_bounded for b in result.loop_bounds.values())
