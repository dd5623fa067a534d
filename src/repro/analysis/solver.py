"""Value-analysis fixpoint solver with widening and narrowing.

This is the Cousot & Cousot machinery the paper rests on (reference
[1]): iteration to a post-fixpoint with widening at loop headers,
followed by bounded narrowing passes to recover precision.  Thresholds
for widening are harvested from the program's comparison immediates, so
loop counters stabilise at their tested limits instead of jumping to
the type bounds (ablation D1).

Iteration itself is delegated to the shared WTO kernel
(:mod:`repro.analysis.fixpoint`): Bourdoncle's recursive strategy
stabilises inner loops before re-entering outer ones and widens only at
component heads, which — together with copy-on-write states and cached
out-states — replaces the historical FIFO worklist at a fraction of the
transfer count.  The FIFO engine is retained behind
``strategy="fifo"`` as a reference implementation for differential
testing and benchmarking; its counters now also include narrowing
transfers so the two strategies are compared honestly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..cfg.expand import NodeId, TaskEdge, TaskGraph
from ..cfg.loops import LoopForest, find_loops
from ..isa.instructions import Opcode
from .fixpoint import (MAX_TRANSFERS, FixpointKernel, FixpointSemantics,
                       FixpointStats)
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
    loop_forest: LoopForest
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

    def states_equal(self, other: "FixpointResult") -> bool:
        """Same nodes and lattice-equal entry states (mutual ``leq``) —
        the notion of precision-neutrality used by the differential
        tests and the perf harness's CI guard."""
        if set(self.entry_states) != set(other.entry_states):
            return False
        return all(state.leq(other.entry_states[node])
                   and other.entry_states[node].leq(state)
                   for node, state in self.entry_states.items())


class _ValueSemantics(FixpointSemantics):
    """Kernel adapter for abstract machine states over a task graph.

    With ``compiled=True`` every basic block is compiled once into a
    fused transfer closure (:func:`compile_block`) keyed by block
    identity — context copies of the same block share one compilation
    — and the kernel's transfers (including narrowing passes, which
    route through the same hook) run the compiled form.
    """

    widening = True

    def __init__(self, graph: TaskGraph, thresholds: Sequence[int],
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


class FixpointSolver:
    """Value-analysis fixpoint over a :class:`TaskGraph`.

    ``strategy="wto"`` (default) runs the shared WTO kernel;
    ``strategy="fifo"`` runs the legacy FIFO worklist for differential
    testing and perf comparison.
    """

    def __init__(self, graph: TaskGraph,
                 widen_delay: int = DEFAULT_WIDEN_DELAY,
                 narrowing_passes: int = DEFAULT_NARROWING_PASSES,
                 use_widening_thresholds: bool = True,
                 strategy: str = "wto",
                 compiled_transfer: bool = False):
        if strategy not in ("wto", "fifo"):
            raise ValueError(f"unknown solver strategy {strategy!r}")
        self.graph = graph
        self.widen_delay = widen_delay
        self.narrowing_passes = narrowing_passes
        self.strategy = strategy
        self.compiled_transfer = compiled_transfer
        self.thresholds = tuple(collect_thresholds(graph)) \
            if use_widening_thresholds else ()

    def solve(self, entry_state: AbstractState) -> FixpointResult:
        if self.strategy == "fifo":
            return self._solve_fifo(entry_state)
        return self._solve_wto(entry_state)

    # -- WTO strategy (shared kernel) --------------------------------------

    def _solve_wto(self, entry_state: AbstractState) -> FixpointResult:
        graph = self.graph
        loop_forest = find_loops(graph.entry, graph.adjacency())
        kernel = FixpointKernel(
            graph.entry, graph.successors, lambda e: e.target,
            _ValueSemantics(graph, self.thresholds,
                            compiled=self.compiled_transfer),
            widen_delay=self.widen_delay,
            sort_key=TaskGraph.node_key,
            predecessor_edges=graph.predecessors,
            edge_source=lambda e: e.source)
        states = kernel.solve(entry_state)
        if self.narrowing_passes:
            entry = graph.entry

            def entry_inputs(node: NodeId) -> List[AbstractState]:
                return [entry_state] if node == entry else []

            kernel.narrow(self.narrowing_passes, entry_inputs,
                          order=graph.topological_order())
        stats = kernel.stats
        return FixpointResult(states, loop_forest,
                              task_entry_state=entry_state, stats=stats)

    # -- FIFO strategy (legacy reference) ----------------------------------

    def _solve_fifo(self, entry_state: AbstractState) -> FixpointResult:
        graph = self.graph
        loop_forest = find_loops(graph.entry, graph.adjacency())
        headers = loop_forest.headers()
        stats = FixpointStats()

        states: Dict[NodeId, AbstractState] = {graph.entry: entry_state}
        visits: Dict[NodeId, int] = {}

        worklist = deque([graph.entry])
        queued: Set[NodeId] = {graph.entry}
        while worklist:
            node = worklist.popleft()
            queued.discard(node)
            state = states[node]
            if state.is_bottom():
                continue
            out_state = transfer_block(state, graph.blocks[node])
            stats.transfers += 1
            if stats.transfers > MAX_TRANSFERS:
                raise RuntimeError("value analysis exceeded transfer budget")
            for edge in graph.successors(node):
                edge_state = out_state
                if edge.cond is not None:
                    edge_state = refine_by_condition(out_state, edge.cond)
                if edge_state.is_bottom():
                    continue
                target = edge.target
                old = states.get(target)
                if old is None:
                    states[target] = edge_state.copy()
                    stats.copies += 1
                    if target not in queued:
                        worklist.append(target)
                        queued.add(target)
                    continue
                new = old.join(edge_state)
                stats.joins += 1
                if target in headers:
                    count = visits.get(target, 0) + 1
                    visits[target] = count
                    if count > self.widen_delay:
                        new = old.widen(new, self.thresholds)
                        stats.widenings += 1
                stats.leq_calls += 1
                if not new.leq(old):
                    states[target] = new
                    if target not in queued:
                        worklist.append(target)
                        queued.add(target)

        for _ in range(self.narrowing_passes):
            if not self._narrow_pass(states, entry_state, stats):
                break

        return FixpointResult(states, loop_forest,
                              task_entry_state=entry_state, stats=stats)

    def _narrow_pass(self, states: Dict[NodeId, AbstractState],
                     entry_state: AbstractState,
                     stats: FixpointStats) -> bool:
        """One decreasing pass; returns True if anything changed."""
        graph = self.graph
        changed = False
        for node in graph.topological_order():
            if node not in states:
                continue
            if node == graph.entry:
                incoming = [entry_state]
            else:
                incoming = []
            for edge in graph.predecessors(node):
                pred_state = states.get(edge.source)
                if pred_state is None or pred_state.is_bottom():
                    continue
                out_state = transfer_block(pred_state,
                                           graph.blocks[edge.source])
                stats.transfers += 1
                if stats.transfers > MAX_TRANSFERS:
                    raise RuntimeError(
                        "value analysis exceeded transfer budget")
                if edge.cond is not None:
                    out_state = refine_by_condition(out_state, edge.cond)
                if not out_state.is_bottom():
                    incoming.append(out_state)
            if not incoming:
                continue
            joined = incoming[0]
            for other in incoming[1:]:
                joined = joined.join(other)
                stats.joins += 1
            narrowed = states[node].narrow(joined)
            stats.narrowings += 1
            stats.leq_calls += 2
            if not states[node].leq(narrowed) \
                    or not narrowed.leq(states[node]):
                states[node] = narrowed
                changed = True
        return changed


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
