"""StackAnalyzer: verified worst-case stack usage (paper Section 2).

"By concentrating on the value of the stack pointer during value
analysis, the tool can figure out how the stack increases and decreases
along the various control-flow paths."  The analysis walks every
reachable program point, takes the lower bound of the stack-pointer
interval, and reports ``stack_base - min(SP)`` — an upper bound on the
stack usage of *any* run, unlike testing which "cannot guarantee that
the maximum stack usage is ever observed".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..analysis.transfer import transfer_instruction
from ..analysis.valueanalysis import ValueAnalysisResult
from ..cfg.expand import NodeId
from ..isa.program import Program
from ..isa.registers import SP
from ..wcet.ait import PHASES


class StackAnalysisError(ValueError):
    """The stack pointer escaped the analysable range (e.g. SP computed
    from unknown input), so no finite bound exists."""


@dataclass
class StackAnalysisResult:
    """Verified stack bound for one task."""

    program: Program
    bound: int                       # bytes, >= any run's usage
    worst_node: Optional[NodeId]     # where the minimum SP is reached
    per_function: Dict[str, int]     # deepest usage while in function
    overflows: bool                  # bound exceeds the reserved region

    @property
    def stack_capacity(self) -> int:
        return self.program.memory_map.stack_capacity()

    def summary(self) -> str:
        verdict = "OVERFLOW POSSIBLE" if self.overflows else "fits"
        return (f"worst-case stack usage: {self.bound} bytes of "
                f"{self.stack_capacity} reserved ({verdict})")


class StackAnalyzer:
    """Whole-task stack usage analysis over a value-analysis artifact
    (e.g. ``WCETResult.values``, or :func:`analyze_stack`'s own)."""

    def __init__(self, program: Program, values: ValueAnalysisResult):
        self.program = program
        self.values = values

    def analyze(self) -> StackAnalysisResult:
        base = self.program.memory_map.stack_base
        graph = self.values.graph
        min_sp = base
        worst_node: Optional[NodeId] = None
        per_function: Dict[str, int] = {}

        for node in graph.nodes():
            state = self.values.fixpoint.state_at(node)
            if state is None or state.is_bottom():
                continue
            node_min = self._min_sp_in_block(node, state)
            if node_min is None:
                raise StackAnalysisError(
                    f"stack pointer unbounded in block {node!r}")
            if node_min < min_sp:
                min_sp = node_min
                worst_node = node
            name = graph.function_name(node)
            usage = base - node_min
            if usage > per_function.get(name, 0):
                per_function[name] = usage

        bound = base - min_sp
        return StackAnalysisResult(
            program=self.program,
            bound=bound,
            worst_node=worst_node,
            per_function=per_function,
            overflows=bound > self.program.memory_map.stack_capacity())

    def _min_sp_in_block(self, node: NodeId, entry_state) -> Optional[int]:
        """Minimum SP lower bound at any point within the block."""
        state = entry_state.copy()
        lo, _hi = state.get(SP).signed_bounds()
        minimum = lo
        if state.get(SP).is_top():
            return None
        for instr in self.values.graph.blocks[node]:
            state = transfer_instruction(state, instr)
            if state.is_bottom():
                break
            sp = state.get(SP)
            if sp.is_top():
                return None
            lo, _hi = sp.signed_bounds()
            minimum = min(minimum, lo)
        return minimum


def analyze_stack(program: Program,
                  register_ranges: Optional[
                      Dict[int, Tuple[int, int]]] = None,
                  indirect_targets: Optional[
                      Dict[int, Sequence[int]]] = None
                  ) -> StackAnalysisResult:
    """Run StackAnalyzer on a task binary: the cfg/value prefix of the
    aiT pipeline as a one-job plan on the batch executor (the same
    phase steps :func:`~repro.wcet.ait.analyze_wcet` runs), then the
    stack-pointer walk over its value artifact."""
    from ..batch.dag import JobPlan
    from ..batch.scheduler import run_plans

    plan = JobPlan(program, phases=PHASES[:2],
                   register_ranges=register_ranges,
                   indirect_targets=indirect_targets)
    values = run_plans([plan])[1].artifact(0, "value")
    return StackAnalyzer(program, values).analyze()
