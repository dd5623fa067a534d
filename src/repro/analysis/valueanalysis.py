"""Whole-task value analysis (phase 2 of the aiT pipeline).

Runs the fixpoint engine over the expanded task graph and derives the
artifacts the later phases need:

* per-point abstract states (registers and memory),
* **address ranges of every memory access** — "possible addresses of
  indirect memory accesses — important for cache analysis" (Section 3),
* **infeasible edges** from conditions that always evaluate the same
  way — such paths "need not be determined in the first place".

:class:`~repro.stack.analyzer.StackAnalyzer` reads the stack pointer
from the per-point states itself; this module derives nothing for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple, Type

from ..cfg.expand import NodeId, TaskEdge, TaskGraph
from ..cfg.loops import LoopForest, find_loops
from ..domainimpl import value_effective_impl
from ..isa.instructions import Instruction, Opcode
from .domain import AbstractValue
from .interval import Interval
from .solver import DEFAULT_NARROWING_PASSES, FixpointResult, solve_values
from .state import AbstractState
from .transfer import (evaluate_condition, refine_by_condition,
                       transfer_instruction)
from .vectorized import AddressSpace, VectorMemory


@dataclass(frozen=True)
class MemoryAccess:
    """One dynamic memory reference site with its abstract address."""

    node: NodeId
    index: int                 # instruction index within the block
    instruction: Instruction
    address: AbstractValue
    is_load: bool

    @property
    def is_exact(self) -> bool:
        """Is the address determined exactly (a single word)?"""
        return self.address.as_constant() is not None

    @property
    def byte_range(self) -> Tuple[int, int]:
        """Sound [lo, hi] byte-address bounds of the access."""
        return self.address.signed_bounds()

    @property
    def span(self) -> int:
        """Width of the address uncertainty in bytes (0 when exact)."""
        lo, hi = self.byte_range
        return hi - lo


@dataclass
class PrecisionStats:
    """Experiment E2's measurement: how well are addresses determined?"""

    exact: int = 0      # single concrete address
    bounded: int = 0    # non-trivial range
    unknown: int = 0    # top

    @property
    def total(self) -> int:
        return self.exact + self.bounded + self.unknown

    @property
    def exact_ratio(self) -> float:
        return self.exact / self.total if self.total else 1.0


class ValueAnalysisResult:
    """Value analysis output consumed by the cache, path, and stack
    analyses."""

    def __init__(self, graph: TaskGraph, fixpoint: FixpointResult,
                 domain: Type[AbstractValue]):
        self.graph = graph
        self.fixpoint = fixpoint
        self.domain = domain
        self.accesses: List[MemoryAccess] = []
        self.infeasible_edges: List[TaskEdge] = []
        self.condition_outcomes: Dict[NodeId, Optional[bool]] = {}
        self._derive()

    # -- Derivation -------------------------------------------------------------

    def _derive(self) -> None:
        graph = self.graph
        for node in graph.nodes():
            state = self.fixpoint.state_at(node)
            if state is None or state.is_bottom():
                continue
            out_state = self._walk_block(node, state)
            self._classify_edges(node, out_state)

    def _walk_block(self, node: NodeId,
                    entry: AbstractState) -> AbstractState:
        state = entry.copy()
        for index, instr in enumerate(self.graph.blocks[node]):
            self._record_accesses(node, index, instr, state)
            state = transfer_instruction(state, instr)
            if state.is_bottom():
                break
        return state

    def _record_accesses(self, node: NodeId, index: int,
                         instr: Instruction, state: AbstractState) -> None:
        domain = state.domain
        op = instr.opcode
        if op in (Opcode.LDR, Opcode.STR):
            address = state.get(instr.rs1).add(domain.const(instr.imm))
            self.accesses.append(MemoryAccess(
                node, index, instr, address, op is Opcode.LDR))
        elif op in (Opcode.LDRX, Opcode.STRX):
            address = state.get(instr.rs1).add(state.get(instr.rs2))
            self.accesses.append(MemoryAccess(
                node, index, instr, address, op is Opcode.LDRX))
        elif op is Opcode.PUSH:
            count = len(instr.reglist)
            base = state.stack_pointer.sub(domain.const(4 * count))
            for slot in range(count):
                self.accesses.append(MemoryAccess(
                    node, index, instr,
                    base.add(domain.const(4 * slot)), False))
        elif op is Opcode.POP:
            base = state.stack_pointer
            for slot in range(len(instr.reglist)):
                self.accesses.append(MemoryAccess(
                    node, index, instr,
                    base.add(domain.const(4 * slot)), True))

    def _classify_edges(self, node: NodeId,
                        out_state: AbstractState) -> None:
        cond_edges = [e for e in self.graph.successors(node)
                      if e.cond is not None]
        if not cond_edges:
            return
        block = self.graph.blocks[node]
        branch_cond = block.last.cond
        outcome = evaluate_condition(out_state, branch_cond) \
            if branch_cond is not None else None
        self.condition_outcomes[node] = outcome
        for edge in cond_edges:
            refined = refine_by_condition(out_state, edge.cond)
            if refined.is_bottom():
                self.infeasible_edges.append(edge)

    # -- Queries ---------------------------------------------------------------------

    @cached_property
    def loop_forest(self) -> LoopForest:
        """The task's loop forest, read off the graph's WTO on first
        use.  Loop-bound analysis and IPET read it; the value fixpoint
        itself does not, so an irreducible graph is analysed and raises
        :class:`~repro.cfg.loops.IrreducibleLoopError` only here."""
        graph = self.graph
        return find_loops(graph.entry, graph.adjacency(), graph.wto())

    def state_after_block(self, node: NodeId) -> Optional[AbstractState]:
        entry = self.fixpoint.state_at(node)
        if entry is None:
            return None
        return self._walk_block(node, entry)

    def precision(self) -> PrecisionStats:
        """Address-determination statistics over all accesses (E2)."""
        stats = PrecisionStats()
        for access in self.accesses:
            if access.is_exact:
                stats.exact += 1
            elif access.address.is_top():
                stats.unknown += 1
            else:
                stats.bounded += 1
        return stats

    def reachable_nodes(self) -> List[NodeId]:
        return [node for node in self.graph.nodes()
                if self.fixpoint.reachable(node)]


def analyze_values(graph: TaskGraph,
                   domain: Type[AbstractValue] = Interval,
                   register_ranges: Optional[
                       Dict[int, Tuple[int, int]]] = None,
                   narrowing_passes: int = DEFAULT_NARROWING_PASSES,
                   use_widening_thresholds: bool = True,
                   memory_ranges: Optional[
                       Dict[int, Tuple[int, int]]] = None,
                   domain_impl: Optional[str] = None,
                   program=None
                   ) -> ValueAnalysisResult:
    """Run value analysis on a task (phase 2 of the aiT pipeline).

    ``register_ranges`` corresponds to aiT's annotations constraining
    input registers at task entry; ``memory_ranges`` constrains memory
    words the environment writes before the task runs (input buffers),
    overriding the values the binary image happens to contain.
    The fixpoint is :func:`~repro.analysis.solver.solve_values` on the
    shared WTO kernel; ``narrowing_passes`` and
    ``use_widening_thresholds`` are the D1 ablation knobs.
    ``domain_impl`` selects the domain implementation
    (:func:`repro.domainimpl.value_effective_impl`: domains other than
    intervals always run the python one, and the numpy one runs every
    block as its compiled closure).
    ``program`` supplies the binary whose image seeds the entry state;
    it defaults to the graph's own program but MUST be passed when the
    graph may come from a cache keyed on a code slice
    (:meth:`repro.isa.program.Program.reachable_slice`) — the cached
    graph then embeds a predecessor binary whose data sections may be
    stale.
    """
    impl = value_effective_impl(domain, domain_impl)
    if program is None:
        program = graph.binary.program
    if impl == "numpy":
        # The code image is one read-only layer of the address space,
        # shared by every state; only the other sections are seeded.
        text = program.text
        memory = VectorMemory(domain, AddressSpace(text.base, text.data))
        initial_memory = program.initial_memory(exclude=(text.name,))
    else:
        memory, initial_memory = None, program.initial_memory()
    entry_state = AbstractState.entry_state(
        domain, program.memory_map.stack_base, initial_memory,
        register_ranges, memory_ranges, memory=memory)
    fixpoint = solve_values(graph, entry_state, narrowing_passes,
                            use_widening_thresholds,
                            compiled_transfer=(impl == "numpy"))
    return ValueAnalysisResult(graph, fixpoint, domain)
