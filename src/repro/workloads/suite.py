"""Workload registry and analysis/simulation helpers.

Provides the benchmark corpus as first-class objects: compile a kernel
to a binary, run the full aiT pipeline on it (applying any loop
annotations the kernel is documented to need), and simulate it on
random inputs to measure observed execution times, stack depths, and
cache behaviour — the machinery behind experiments E1-E8.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..cache.config import MachineConfig
from ..isa.program import Program
from ..lang.compiler import compile_program
from ..sim.cpu import ExecutionResult, Simulator
from ..wcet.ait import WCETResult
from . import kernels


@dataclass(frozen=True)
class Workload:
    """One benchmark kernel."""

    name: str
    description: str
    category: str
    source: str
    #: Randomisable input arrays: global name -> (length, (lo, hi)).
    input_arrays: Dict[str, Tuple[int, Tuple[int, int]]] = \
        field(default_factory=dict)
    #: Bounds for loops the analysis cannot bound, in address order of
    #: the unbounded loop headers (the aiT annotation workflow).
    manual_bounds_in_order: Tuple[int, ...] = ()

    def compile(self) -> Program:
        return compile_program(self.source)

    def memory_ranges(self, program: Program) -> Dict[int, Tuple[int, int]]:
        """Value-range annotations for the input arrays: the analysis
        must assume any value the randomiser may store, not the zeros
        (or constants) of the binary image — otherwise input-dependent
        branches would be statically decided and pruned, and the bound
        would not cover randomised runs."""
        ranges: Dict[int, Tuple[int, int]] = {}
        for name, (length, (low, high)) in self.input_arrays.items():
            base = program.symbol_address(f"g_{name}")
            for offset in range(length):
                ranges[base + 4 * offset] = (low, high)
        return ranges


WORKLOADS: Dict[str, Workload] = {}


def _register(workload: Workload) -> Workload:
    WORKLOADS[workload.name] = workload
    return workload


_register(Workload(
    name="fibcall",
    description="iterative Fibonacci, tight scalar loop",
    category="scalar",
    source=kernels.FIBCALL))

_register(Workload(
    name="insertsort",
    description="insertion sort, data-dependent triangular inner loop",
    category="sorting",
    source=kernels.INSERTSORT,
    input_arrays={"a": (10, (0, 100))}))

_register(Workload(
    name="bsort",
    description="bubble sort, triangular nest",
    category="sorting",
    source=kernels.BSORT,
    input_arrays={"a": (12, (0, 1000))}))

_register(Workload(
    name="matmult",
    description="4x4 integer matrix multiplication",
    category="math",
    source=kernels.MATMULT,
    input_arrays={"ma": (16, (-50, 50)), "mb": (16, (-50, 50))}))

_register(Workload(
    name="crc",
    description="CRC-8 over a 16-byte message, bit loops",
    category="bitops",
    source=kernels.CRC,
    input_arrays={"message": (16, (0, 255))}))

_register(Workload(
    name="fir",
    description="8-tap FIR filter over 32 outputs",
    category="dsp",
    source=kernels.FIR))

_register(Workload(
    name="bs",
    description="binary search (needs a loop annotation, like aiT)",
    category="search",
    source=kernels.BINARY_SEARCH,
    manual_bounds_in_order=(5,)))    # ceil(log2(16)) + 1

_register(Workload(
    name="ns",
    description="nested search with early exit",
    category="search",
    source=kernels.NSEARCH))

_register(Workload(
    name="cnt",
    description="count and sum matrix elements by sign",
    category="scalar",
    source=kernels.CNT,
    input_arrays={"m": (20, (-100, 100))}))

_register(Workload(
    name="fdct",
    description="fixed-point butterfly transform, straight-line",
    category="dsp",
    source=kernels.FDCT_LITE,
    input_arrays={"block": (8, (-128, 127))}))

_register(Workload(
    name="statemate",
    description="protocol state machine over an event trace",
    category="control",
    source=kernels.STATE_MACHINE,
    input_arrays={"events": (24, (0, 2))}))

_register(Workload(
    name="edn",
    description="vector MAC and max with saturation",
    category="dsp",
    source=kernels.EDN_LITE,
    input_arrays={"vec1": (16, (-100, 100)), "vec2": (16, (-100, 100))}))

_register(Workload(
    name="calltree",
    description="3-level call tree with stack frames",
    category="calls",
    source=kernels.CALL_TREE))

_register(Workload(
    name="duff",
    description="stride-4 copy with remainder loop",
    category="memory",
    source=kernels.DUFF_LITE))

_register(Workload(
    name="janne",
    description="interacting loop counters (needs annotations, like "
                "the original janne_complex)",
    category="control",
    source=kernels.JANNE_COMPLEX,
    manual_bounds_in_order=(16, 40)))

_register(Workload(
    name="lcdnum",
    description="seven-segment display encoder, table driven",
    category="bitops",
    source=kernels.LCDNUM,
    input_arrays={"input": (10, (0, 255))}))

_register(Workload(
    name="ludchain",
    description="dependent table walk, back-to-back load-use chains",
    category="pipeline",
    source=kernels.LOADUSE_CHAIN))

_register(Workload(
    name="branchy",
    description="branch-dense control, tiny blocks, redirect pressure",
    category="pipeline",
    source=kernels.BRANCH_DENSE,
    input_arrays={"flags": (24, (0, 3))}))

_register(Workload(
    name="mulburst",
    description="multiply bursts keeping the EX stage busy",
    category="pipeline",
    source=kernels.MUL_BURST))


def workload_names() -> List[str]:
    return sorted(WORKLOADS)


def get_workload(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; available: "
                       f"{', '.join(workload_names())}") from None


# -- Analysis with annotations --------------------------------------------------


def derive_manual_bounds(workload: Workload, bounds) -> Dict[int, int]:
    """Turn the discovery prefix's loop-bound table into the manual
    annotation mapping: the workload's documented bounds applied to
    the unbounded loop headers in address order (the aiT
    discover-then-annotate workflow)."""
    manual: Dict[int, int] = {}
    if workload.manual_bounds_in_order:
        unbounded = sorted(
            {header.block for header, bound in bounds.items()
             if not bound.is_bounded})
        for address, bound in zip(unbounded,
                                  workload.manual_bounds_in_order):
            manual[address] = bound
    return manual


def analyze_workload(workload: Workload,
                     config: Optional[MachineConfig] = None,
                     program: Optional[Program] = None,
                     phase_cache=None,
                     **kwargs) -> WCETResult:
    """Run the full WCET pipeline, applying the workload's documented
    loop annotations (found by the same discover-then-annotate loop an
    aiT user follows).

    ``program`` reuses an already-compiled binary (a caller that
    analyzes one workload repeatedly compiles it once); ``phase_cache``
    threads a content-addressed artifact cache (:mod:`repro.batch`)
    through both the annotation-discovery prefix and the main analysis,
    which run as one job on the batch layer's DAG executor and share a
    task wherever their keys coincide.
    """
    from ..batch.dag import JobPlan
    from ..batch.scheduler import run_plans

    program = program or workload.compile()
    plan = JobPlan(program, workload, config=config, manual_loop_bounds={},
                   memory_ranges=workload.memory_ranges(program), **kwargs)
    return run_plans([plan], store=phase_cache)[1].artifact(0, "row")


def sweep_suite(matrix: str = "all:all:all",
                parallel: int = 1,
                cache_dir: Optional[str] = None,
                use_cache: bool = True,
                jsonl_path: Optional[str] = None,
                cache_limit_mb: Optional[float] = None):
    """Run a workload-suite sweep through the batch engine.

    The sweep entry point the ``repro batch`` CLI (and through it the
    CI batch-smoke job) and ``benchmarks/run_perf.py`` share; see
    :mod:`repro.batch.jobs` for the matrix syntax.  Returns a
    :class:`~repro.batch.engine.SweepResult`.
    """
    from ..batch import expand_matrix, run_sweep

    return run_sweep(expand_matrix(matrix), parallel=parallel,
                     cache_dir=cache_dir, use_cache=use_cache,
                     jsonl_path=jsonl_path,
                     cache_limit_mb=cache_limit_mb)


# -- Simulation with input randomisation ----------------------------------------


def simulate_workload(workload: Workload,
                      program: Optional[Program] = None,
                      config: Optional[MachineConfig] = None,
                      array_overrides: Optional[
                          Dict[str, Sequence[int]]] = None,
                      collect_trace: bool = False,
                      max_steps: int = 2_000_000) -> ExecutionResult:
    """Simulate one concrete run, optionally overriding input arrays."""
    program = program or workload.compile()
    simulator = Simulator(program, config, collect_trace)
    if array_overrides:
        for name, values in array_overrides.items():
            base = program.symbol_address(f"g_{name}")
            for offset, value in enumerate(values):
                simulator.memory[base + 4 * offset] = value & 0xFFFFFFFF
    return simulator.run(max_steps=max_steps)


def random_inputs(workload: Workload,
                  rng: random.Random) -> Dict[str, List[int]]:
    """Draw a random instantiation of the workload's input arrays."""
    overrides = {}
    for name, (length, (low, high)) in workload.input_arrays.items():
        overrides[name] = [rng.randint(low, high) for _ in range(length)]
    return overrides


def observed_worst_case(workload: Workload,
                        program: Optional[Program] = None,
                        config: Optional[MachineConfig] = None,
                        runs: int = 20,
                        seed: int = 12345) -> Tuple[int, int]:
    """(max cycles, max stack bytes) over the default input plus
    ``runs`` random input instantiations — the measurement-based
    estimate the paper argues is unsafe on its own."""
    program = program or workload.compile()
    rng = random.Random(seed)
    result = simulate_workload(workload, program, config)
    worst_cycles = result.cycles
    worst_stack = result.max_stack_usage
    for _ in range(runs if workload.input_arrays else 0):
        result = simulate_workload(
            workload, program, config,
            array_overrides=random_inputs(workload, rng))
        worst_cycles = max(worst_cycles, result.cycles)
        worst_stack = max(worst_stack, result.max_stack_usage)
    return worst_cycles, worst_stack
