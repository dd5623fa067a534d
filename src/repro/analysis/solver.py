"""Value-analysis fixpoint with widening and narrowing.

This is the Cousot & Cousot machinery the paper rests on (reference
[1]): iteration to a post-fixpoint with widening at loop headers,
followed by bounded narrowing passes to recover precision.  Thresholds
for widening are harvested from the program's comparison immediates, so
loop counters stabilise at their tested limits instead of jumping to
the type bounds (ablation D1).

Iteration itself is delegated to the shared WTO kernel
(:mod:`repro.analysis.fixpoint`): Bourdoncle's recursive strategy
stabilises inner loops before re-entering outer ones and widens only at
component heads, with copy-on-write states and cached out-states.
The tests check its result with
:func:`repro.analysis.fixpoint.check_postfixpoint` over
:class:`_ValueSemantics` with per-instruction transfers, so the check
does not reuse the compiled block closures it is checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..cfg.expand import NodeId, TaskEdge, TaskGraph
from ..isa.instructions import Opcode
from .fixpoint import FixpointKernel, FixpointSemantics, FixpointStats
from .state import AbstractState
from .transfer import compile_block, refine_by_condition, transfer_block

#: Visits of a loop header before widening kicks in (delayed widening
#: buys precision for short loops at negligible cost).
DEFAULT_WIDEN_DELAY = 3

#: Narrowing passes after the ascending fixpoint.
DEFAULT_NARROWING_PASSES = 2


@dataclass
class FixpointResult:
    """Solver output: entry states per node plus iteration statistics."""

    entry_states: Dict[NodeId, AbstractState]
    #: The abstract state at task entry (before the entry block), kept
    #: for analyses that must distinguish the implicit entry edge from
    #: loop back edges when the entry block heads a loop.
    task_entry_state: Optional[AbstractState] = None
    #: Full work counters of the solve (kernel instrumentation).
    stats: Optional[FixpointStats] = None

    def state_at(self, node: NodeId) -> Optional[AbstractState]:
        return self.entry_states.get(node)

    def reachable(self, node: NodeId) -> bool:
        state = self.entry_states.get(node)
        return state is not None and not state.is_bottom()


class _ValueSemantics(FixpointSemantics):
    """Kernel adapter for abstract machine states over a task graph.

    With ``compiled=True`` every basic block is compiled once into a
    fused transfer closure (:func:`compile_block`) keyed by block
    identity — context copies of the same block share one compilation
    — and the kernel's transfers (including narrowing passes, which
    route through the same hook) run the compiled form.
    """

    widening = True

    def __init__(self, graph: TaskGraph, thresholds: Sequence[int] = (),
                 compiled: bool = False):
        self.blocks = graph.blocks
        self.thresholds = thresholds
        self.compiled = compiled
        # id -> (block, fn); the block reference keeps the id alive.
        self._compiled_blocks: Dict[int, Tuple[object, object]] = {}

    def transfer(self, node: NodeId, state: AbstractState) -> AbstractState:
        block = self.blocks[node]
        if self.compiled:
            entry = self._compiled_blocks.get(id(block))
            if entry is None:
                entry = (block, compile_block(block, state.domain))
                self._compiled_blocks[id(block)] = entry
            return entry[1](state)
        return transfer_block(state, block)

    def edge_state(self, edge: TaskEdge,
                   out_state: AbstractState) -> Optional[AbstractState]:
        if edge.cond is None:
            return out_state
        return refine_by_condition(out_state, edge.cond)

    def widen(self, old: AbstractState,
              new: AbstractState) -> AbstractState:
        return old.widen(new, self.thresholds)


def solve_values(graph: TaskGraph, entry_state: AbstractState,
                 narrowing_passes: int = DEFAULT_NARROWING_PASSES,
                 use_widening_thresholds: bool = True,
                 compiled_transfer: bool = False) -> FixpointResult:
    """Value-analysis fixpoint of ``graph`` from ``entry_state``.

    The shared WTO kernel iterates with widening at component heads
    after :data:`DEFAULT_WIDEN_DELAY` joins, then runs
    ``narrowing_passes`` descending passes in topological order.
    ``compiled_transfer`` runs every block as its fused closure
    (:func:`compile_block`) instead of instruction by instruction.
    """
    thresholds = tuple(collect_thresholds(graph)) \
        if use_widening_thresholds else ()
    kernel = FixpointKernel(
        graph.entry, graph.successors, lambda e: e.target,
        _ValueSemantics(graph, thresholds, compiled=compiled_transfer),
        widen_delay=DEFAULT_WIDEN_DELAY,
        sort_key=TaskGraph.node_key,
        predecessor_edges=graph.predecessors,
        edge_source=lambda e: e.source, wto=graph.wto())
    states = kernel.solve(entry_state)
    if narrowing_passes:
        entry = graph.entry

        def entry_inputs(node: NodeId) -> List[AbstractState]:
            return [entry_state] if node == entry else []

        kernel.narrow(narrowing_passes, entry_inputs,
                      order=graph.topological_order())
    return FixpointResult(states, task_entry_state=entry_state,
                          stats=kernel.stats)


def collect_thresholds(graph: TaskGraph) -> List[int]:
    """Widening thresholds: comparison constants (and neighbours) of the
    program, which are exactly the bounds loops are tested against."""
    thresholds: Set[int] = {0}
    seen: Set[int] = set()
    for block in graph.blocks.values():
        if id(block) in seen:
            continue
        seen.add(id(block))
        for instr in block:
            if instr.opcode is Opcode.CMPI:
                thresholds.update((instr.imm - 1, instr.imm,
                                   instr.imm + 1))
            elif instr.opcode is Opcode.MOVI:
                thresholds.add(instr.imm)
    return sorted(thresholds)
