"""Tests for StackAnalyzer and the OSEK system-level analysis
(soundness obligation S2)."""

import time

import pytest

from repro.isa import assemble
from repro.isa.program import MemoryMap
from repro.sim import run_program
from repro.batch import parse_policy
from repro.stack import (StackAnalysisError, StackAnalyzer, TaskSpec,
                         analyze_stack, analyze_system_stack)
from repro.workloads.suite import analyze_workload, get_workload


#: A loop entered both at its head and in its middle (irreducible),
#: pushing and popping 8 bytes per iteration.
IRREDUCIBLE_PUSH_POP = """
main:
    CMPI R0, #0
    BEQ middle
head:
    ADDI R1, R1, #1
middle:
    PUSH {R1, R2}
    POP {R1, R2}
    ADDI R2, R2, #1
    CMPI R2, #10
    BLT head
    HALT
"""


def bound_and_actual(source, arguments=None):
    program = assemble(source)
    result = analyze_stack(program)
    execution = run_program(program, arguments=arguments)
    return result, execution


class TestStackAnalyzer:
    def test_leaf_function(self):
        result, execution = bound_and_actual("""
        main:
            PUSH {R4-R7}
            POP {R4-R7}
            HALT
        """)
        assert result.bound == 16
        assert result.bound >= execution.max_stack_usage
        assert result.bound == execution.max_stack_usage

    def test_nested_calls_accumulate(self):
        result, execution = bound_and_actual("""
        main:
            PUSH {LR}
            BL middle
            POP {LR}
            HALT
        middle:
            PUSH {R4, LR}
            BL leaf
            POP {R4, LR}
            RET
        leaf:
            PUSH {R4-R11}
            POP {R4-R11}
            RET
        """)
        assert result.bound == 4 + 8 + 32
        assert result.bound == execution.max_stack_usage

    def test_branch_dependent_usage_takes_max(self):
        source = """
        main:
            CMPI R0, #0
            BEQ shallow
            PUSH {R4-R11}
            POP {R4-R11}
            HALT
        shallow:
            PUSH {R4}
            POP {R4}
            HALT
        """
        program = assemble(source)
        result = analyze_stack(program)
        deep = run_program(program, arguments={0: 1})
        shallow = run_program(program, arguments={0: 0})
        assert result.bound == 32
        assert result.bound >= deep.max_stack_usage
        assert result.bound >= shallow.max_stack_usage

    def test_explicit_sp_arithmetic(self):
        result, execution = bound_and_actual("""
        main:
            SUBI SP, SP, #64
            MOVI R0, #1
            STR R0, [SP, #0]
            ADDI SP, SP, #64
            HALT
        """)
        assert result.bound == 64
        assert result.bound == execution.max_stack_usage

    def test_loop_neutral_stack(self):
        result, execution = bound_and_actual("""
        main:
            MOVI R0, #0
        loop:
            PUSH {R4}
            POP {R4}
            ADDI R0, R0, #1
            CMPI R0, #10
            BLT loop
            HALT
        """)
        assert result.bound == 4
        assert result.bound == execution.max_stack_usage

    def test_per_function_breakdown(self):
        result, _ = bound_and_actual("""
        main:
            PUSH {LR}
            BL leaf
            POP {LR}
            HALT
        leaf:
            PUSH {R4, R5}
            POP {R4, R5}
            RET
        """)
        assert result.per_function["main"] >= 4
        assert result.per_function["leaf"] == 12

    def test_overflow_detection(self):
        # Tiny reserved stack region: 32 bytes.
        tight = MemoryMap(stack_base=0x20000, stack_limit=0x20000 - 32)
        source = """
        main:
            PUSH {R4-R11}
            PUSH {R4-R11}
            POP {R4-R11}
            POP {R4-R11}
            HALT
        """
        program = assemble(source, memory_map=tight)
        result = analyze_stack(program)
        assert result.bound == 64
        assert result.overflows

    def test_unbounded_sp_raises(self):
        # SP derived from an unknown input register.
        source = """
        main:
            SUB SP, SP, R0
            HALT
        """
        with pytest.raises(StackAnalysisError):
            analyze_stack(assemble(source))

    def test_summary_text(self):
        result, _ = bound_and_actual("main: HALT\n")
        assert "stack usage" in result.summary()

    def test_irreducible_loop_gets_a_stack_bound(self):
        # Value analysis converges on a two-entry loop; only the loop
        # forest (loop bounds, IPET) needs a reducible graph.
        result, execution = bound_and_actual(IRREDUCIBLE_PUSH_POP)
        assert result.bound == 8
        assert result.bound == execution.max_stack_usage

    def test_irreducible_loop_fails_wcet_in_loopbounds(self):
        from repro.cfg import IrreducibleLoopError
        from repro.wcet import analyze_wcet

        with pytest.raises(IrreducibleLoopError) as info:
            analyze_wcet(assemble(IRREDUCIBLE_PUSH_POP))
        raised_in = {entry.name for entry in info.traceback}
        assert "analyze_loop_bounds" in raised_in
        assert "solve_values" not in raised_in

    def test_irreducible_loop_is_a_serve_job_error(self):
        from repro.serve import AnalysisService

        service = AnalysisService(workers=1)
        try:
            job_id = service.submit({"assembly": IRREDUCIBLE_PUSH_POP})
            deadline = time.monotonic() + 60
            while service.job(job_id)["status"] not in ("done", "error"):
                assert time.monotonic() < deadline, "serve job stuck"
                time.sleep(0.01)
            record = service.job(job_id)
        finally:
            service.close()
        assert record["status"] == "error"
        assert record["error"].startswith("IrreducibleLoopError: ")

    @pytest.mark.parametrize("policy", ["full", "klimited", "vivu"])
    def test_wcet_value_artifact_gives_the_same_bound(self, policy):
        # `repro wcet` runs StackAnalyzer on the WCET run's own value
        # artifact, whatever its context policy.
        workload = get_workload("calltree")
        program = workload.compile()
        wcet = analyze_workload(workload, program=program,
                                context_policy=parse_policy(policy))
        own = StackAnalyzer(program, wcet.values).analyze()
        reference = analyze_stack(program)
        assert (own.bound, own.per_function) \
            == (reference.bound, reference.per_function)


class TestOSEKSystemAnalysis:
    def test_single_task(self):
        result = analyze_system_stack([TaskSpec("t1", 100, priority=1)])
        assert result.bound == 100
        assert [t.name for t in result.chain] == ["t1"]

    def test_priority_chain(self):
        result = analyze_system_stack([
            TaskSpec("low", 200, priority=1),
            TaskSpec("mid", 150, priority=2),
            TaskSpec("high", 100, priority=3),
        ])
        # All three can nest.
        assert result.bound == 450
        assert result.naive_sum == 450

    def test_equal_priorities_do_not_nest(self):
        result = analyze_system_stack([
            TaskSpec("a", 200, priority=1),
            TaskSpec("b", 300, priority=1),
        ])
        assert result.bound == 300
        assert result.naive_sum == 500
        assert result.savings == 200

    def test_mixed_levels(self):
        result = analyze_system_stack([
            TaskSpec("a1", 100, priority=1),
            TaskSpec("a2", 400, priority=1),
            TaskSpec("b", 150, priority=2),
            TaskSpec("isr", 50, priority=10),
        ])
        # Worst chain: a2 (400) -> b (150) -> isr (50).
        assert result.bound == 600
        assert [t.name for t in result.chain] == ["a2", "b", "isr"]

    def test_preemption_threshold_blocks_nesting(self):
        result = analyze_system_stack([
            TaskSpec("worker", 300, priority=1, threshold=5),
            TaskSpec("mid", 200, priority=3),
            TaskSpec("urgent", 100, priority=9),
        ])
        # mid (prio 3 <= threshold 5) cannot preempt worker; urgent can.
        assert result.bound == max(300 + 100, 200 + 100)
        assert [t.name for t in result.chain] == ["worker", "urgent"]

    def test_kernel_overhead_counted(self):
        result = analyze_system_stack([
            TaskSpec("low", 100, priority=1),
            TaskSpec("high", 100, priority=2),
        ], kernel_overhead_per_preemption=32)
        assert result.bound == 232

    def test_naive_sum_uses_the_same_preemption_rule(self):
        # One shared threshold group: no task can preempt any other,
        # so the naive reference must not charge kernel overhead
        # either — a flat (n-1) would overstate the reported savings.
        result = analyze_system_stack([
            TaskSpec("a", 100, priority=1, threshold=3),
            TaskSpec("b", 200, priority=2, threshold=3),
            TaskSpec("c", 300, priority=3, threshold=3),
        ], kernel_overhead_per_preemption=64)
        assert result.bound == 300
        assert result.naive_sum == 600      # zero preemption overheads
        assert result.savings == 300
        # Fully preemptive distinct priorities: the classic (n-1)
        # overhead charge is unchanged.
        result = analyze_system_stack([
            TaskSpec("a", 100, priority=1),
            TaskSpec("b", 200, priority=2),
            TaskSpec("c", 300, priority=3),
        ], kernel_overhead_per_preemption=64)
        assert result.naive_sum == 600 + 2 * 64

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            analyze_system_stack([])
        with pytest.raises(ValueError):
            analyze_system_stack([TaskSpec("x", -1, priority=1)])
        with pytest.raises(ValueError):
            analyze_system_stack([TaskSpec("x", 1, priority=5,
                                           threshold=1)])
        with pytest.raises(ValueError):
            analyze_system_stack([TaskSpec("a", 1, priority=1),
                                  TaskSpec("a", 2, priority=2)])

    def test_bound_covers_random_schedules(self):
        """Simulate random preemption nestings; none may exceed the
        bound."""
        import random
        rng = random.Random(7)
        tasks = [
            TaskSpec("t1", 120, priority=1),
            TaskSpec("t2", 80, priority=2),
            TaskSpec("t3", 60, priority=2),
            TaskSpec("t4", 200, priority=4, threshold=6),
            TaskSpec("t5", 40, priority=7),
        ]
        result = analyze_system_stack(tasks)
        for _ in range(500):
            # Build a random legal preemption nesting.
            stack, usage, peak = [], 0, 0
            candidates = list(tasks)
            rng.shuffle(candidates)
            for task in candidates:
                if not stack or \
                        task.priority > stack[-1].effective_threshold:
                    stack.append(task)
                    usage += task.stack_bound
                    peak = max(peak, usage)
            assert peak <= result.bound
