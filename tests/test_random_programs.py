"""End-to-end soundness on randomly generated programs (S3).

Hypothesis generates structured random KRISC programs (straight-line
arithmetic, if/else diamonds, small counted loops, memory traffic) and
random inputs.  For each: the value fixpoint must pass the
post-fixpoint check and the concrete run's final register and memory
values must be contained in the abstract state value analysis computed
at the exit — over every domain — and the WCET/stack bounds must cover
the run.

The model×policy soundness matrix re-checks the WCET obligation in
every combination of timing model (``additive``, ``krisc5``) and
context policy (``full``, ``klimited``, ``vivu``): the simulated
cycles under a model must never exceed the bound derived under that
model, whatever the expansion scheme.  ``REPRO_FUZZ_EXAMPLES``
overrides the per-combination example budget (CI smoke uses a reduced
one).
"""

import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import (Const, Interval, StridedInterval, analyze_values,
                            check_postfixpoint)
from repro.analysis.solver import _ValueSemantics
from repro.cache.config import CacheConfig, MachineConfig
from repro.cfg import build_cfg, expand_task
from repro.cfg.contexts import parse_policy
from repro.isa import assemble
from repro.sim import run_program
from repro.stack import analyze_stack
from repro.wcet import analyze_wcet

MATRIX_MAX_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "10"))

#: Machine configurations the soundness matrix sweeps: the default
#: point plus an adversarial one (tiny direct-mapped caches, odd
#: penalties, a 2-cycle interlock window, state-set cap forced to 1)
#: so violations that hide at the default parameters surface in CI.
MACHINES = {
    "default": MachineConfig.default(),
    "adverse": MachineConfig(
        icache=CacheConfig(num_sets=2, associativity=1, line_size=8,
                           miss_penalty=13),
        dcache=CacheConfig(num_sets=2, associativity=1, line_size=8,
                           miss_penalty=7),
        branch_penalty=3, mul_extra=5, load_use_stall=2,
        pipeline_state_cap=1),
}

# Registers the generator assigns freely (R1 is the data base pointer,
# R0 the input; SP/LR stay untouched).
WORK_REGS = (2, 3, 4, 5, 6)

_ALU_RRR = ("ADD", "SUB", "MUL", "AND", "OR", "XOR")
_ALU_RRI = ("ADDI", "SUBI", "ANDI", "ORI", "XORI")


@st.composite
def straightline(draw, max_ops=6):
    lines = []
    for _ in range(draw(st.integers(0, max_ops))):
        choice = draw(st.integers(0, 5))
        rd = draw(st.sampled_from(WORK_REGS))
        rs = draw(st.sampled_from(WORK_REGS))
        rt = draw(st.sampled_from(WORK_REGS))
        imm = draw(st.integers(-100, 100))
        if choice == 0:
            lines.append(f"MOVI R{rd}, #{imm}")
        elif choice == 1:
            op = draw(st.sampled_from(_ALU_RRR))
            lines.append(f"{op} R{rd}, R{rs}, R{rt}")
        elif choice == 2:
            op = draw(st.sampled_from(_ALU_RRI))
            lines.append(f"{op} R{rd}, R{rs}, #{imm}")
        elif choice == 3:
            shift = draw(st.integers(0, 7))
            op = draw(st.sampled_from(("SHLI", "SHRI", "ASRI")))
            lines.append(f"{op} R{rd}, R{rs}, #{shift}")
        elif choice == 4:
            offset = 4 * draw(st.integers(0, 7))
            lines.append(f"STR R{rs}, [R1, #{offset}]")
        else:
            offset = 4 * draw(st.integers(0, 7))
            lines.append(f"LDR R{rd}, [R1, #{offset}]")
    return lines


@st.composite
def programs(draw):
    label_counter = [0]

    def fresh():
        label_counter[0] += 1
        return f"gen{label_counter[0]}"

    body = []
    body.extend(draw(straightline()))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.integers(0, 1))
        if kind == 0:
            # if/else diamond on a random comparison.
            reg = draw(st.sampled_from(WORK_REGS + (0,)))
            value = draw(st.integers(-50, 50))
            cond = draw(st.sampled_from(
                ("EQ", "NE", "LT", "GE", "GT", "LE")))
            l_else, l_end = fresh(), fresh()
            body.append(f"CMPI R{reg}, #{value}")
            body.append(f"B{cond} {l_else}")
            body.extend(draw(straightline(4)))
            body.append(f"B {l_end}")
            body.append(f"{l_else}:")
            body.extend(draw(straightline(4)))
            body.append(f"{l_end}:")
        else:
            # Counted do-while loop with a dedicated counter (R7).
            count = draw(st.integers(1, 6))
            l_loop = fresh()
            body.append("MOVI R7, #0")
            body.append(f"{l_loop}:")
            body.extend(draw(straightline(3)))
            body.append("ADDI R7, R7, #1")
            body.append(f"CMPI R7, #{count}")
            body.append(f"BLT {l_loop}")
    source = "main:\n    LDA R1, buf\n" + \
        "\n".join(f"    {line}" for line in body) + \
        "\n    HALT\n.data\nbuf: .space 64\n"
    input_low = draw(st.integers(-100, 100))
    input_high = input_low + draw(st.integers(0, 50))
    input_value = draw(st.integers(input_low, input_high))
    return source, (input_low, input_high), input_value


@pytest.mark.parametrize("domain", [Interval, StridedInterval, Const])
@given(data=programs())
@settings(max_examples=40, deadline=None)
def test_abstract_state_contains_concrete_run(domain, data):
    source, input_range, input_value = data
    program = assemble(source)
    graph = expand_task(build_cfg(program))
    values = analyze_values(graph, domain=domain,
                            register_ranges={0: input_range})
    fixpoint = values.fixpoint
    assert check_postfixpoint(_ValueSemantics(graph), graph,
                              fixpoint.task_entry_state,
                              fixpoint.entry_states) == []
    execution = run_program(program, arguments={0: input_value},
                            max_steps=100_000)

    exit_nodes = graph.exit_nodes()
    final_states = [values.state_after_block(node)
                    for node in exit_nodes]
    final_states = [s for s in final_states
                    if s is not None and not s.is_bottom()]
    assert final_states, "no reachable exit state"
    joined = final_states[0]
    for state in final_states[1:]:
        joined = joined.join(state)

    for reg in range(16):
        concrete = execution.registers[reg]
        assert joined.get(reg).contains(concrete), (
            f"R{reg}={concrete:#x} not in {joined.get(reg)!r}")


@given(data=programs())
@settings(max_examples=25, deadline=None)
def test_wcet_and_stack_bounds_cover_random_runs(data):
    source, input_range, input_value = data
    program = assemble(source)
    wcet = analyze_wcet(program, register_ranges={0: input_range})
    stack = analyze_stack(program, register_ranges={0: input_range})
    execution = run_program(program, arguments={0: input_value},
                            max_steps=100_000)
    assert execution.cycles <= wcet.wcet_cycles
    assert execution.max_stack_usage <= stack.bound


@pytest.mark.parametrize("machine,model,policy", [
    (machine, model, policy)
    for machine in MACHINES
    for model in ("additive", "krisc5")
    for policy in ("full", "klimited", "vivu")])
@given(data=programs())
@settings(max_examples=MATRIX_MAX_EXAMPLES, deadline=None)
def test_model_policy_soundness_matrix(machine, model, policy, data):
    """Simulated cycles ≤ WCET bound in every machine×model×policy
    combination.

    The run is simulated under the same machine config the bound was
    derived for, so the krisc5 rows check the overlapped pipeline
    end to end (abstract pipeline states vs the cycle-accurate
    5-stage simulator) and the additive rows guard the baseline —
    both at the default machine parameters and at an adversarial
    point (tiny caches, large penalties, cap 1).
    """
    source, input_range, input_value = data
    program = assemble(source)
    config = MACHINES[machine].with_model(model)
    wcet = analyze_wcet(program, config=config,
                        register_ranges={0: input_range},
                        context_policy=parse_policy(policy))
    assert wcet.config.pipeline_model == model
    assert wcet.timing.model == model
    execution = run_program(program, config=wcet.config,
                            arguments={0: input_value},
                            max_steps=100_000)
    assert execution.cycles <= wcet.wcet_cycles, (
        f"{machine}/{model}/{policy}: run took {execution.cycles}, "
        f"bound is {wcet.wcet_cycles}")


#: A load whose D-cache miss still stalls the first instruction of the
#: loop entered right after it: under krisc5 only the entry edge may
#: pay that stall, not every iteration.
LOOP_AFTER_LOAD = """main:
    LDA R1, buf
    LDR R2, [R1, #0]
    MOVI R7, #0
gen1:
    ADD R2, R2, R2
    ADDI R7, R7, #1
    CMPI R7, #2
    BLT gen1
    HALT
.data
buf: .space 64
"""


@given(data=programs())
@example(data=(LOOP_AFTER_LOAD, (0, 0), 0))
@settings(max_examples=MATRIX_MAX_EXAMPLES, deadline=None)
def test_krisc5_bound_not_looser_than_additive(data):
    """Overlap can only tighten: krisc5 WCET ≤ additive WCET, and the
    krisc5 machine is never slower than the additive one on a run."""
    source, input_range, input_value = data
    program = assemble(source)
    additive = analyze_wcet(program, register_ranges={0: input_range})
    krisc5 = analyze_wcet(program, register_ranges={0: input_range},
                          pipeline_model="krisc5")
    assert krisc5.wcet_cycles <= additive.wcet_cycles
    run_additive = run_program(program, arguments={0: input_value},
                               max_steps=100_000)
    run_krisc5 = run_program(program, config=krisc5.config,
                             arguments={0: input_value},
                             max_steps=100_000)
    assert run_krisc5.cycles <= run_additive.cycles


@given(data=programs())
@settings(max_examples=25, deadline=None)
def test_abstract_memory_contains_concrete_memory(data):
    source, input_range, input_value = data
    program = assemble(source)
    graph = expand_task(build_cfg(program))
    values = analyze_values(graph, register_ranges={0: input_range})

    from repro.sim import Simulator
    simulator = Simulator(program)
    simulator.run(arguments={0: input_value}, max_steps=100_000)

    exit_states = [values.state_after_block(node)
                   for node in graph.exit_nodes()]
    exit_states = [s for s in exit_states
                   if s is not None and not s.is_bottom()]
    joined = exit_states[0]
    for state in exit_states[1:]:
        joined = joined.join(state)
    for address, abstract in joined.memory.entries.items():
        concrete = simulator.memory.get(address, 0)
        assert abstract.contains(concrete), (
            f"mem[{address:#x}]={concrete:#x} not in {abstract!r}")
