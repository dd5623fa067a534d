"""Pipeline analysis (phase 5 of the aiT pipeline).

"Pipeline analysis predicts the behavior of the program on the
processor pipeline" using "the results of cache analysis ... allowing
the prediction of pipeline stalls due to cache misses" (Section 3).

Two timing models are supported, selected by
:attr:`~repro.cache.config.MachineConfig.pipeline_model`:

* ``additive`` — the per-block worst-case contribution is a sum over
  instructions where each cache access contributes its classified
  worst case (always-hit: the hit cost; always-miss / not-classified:
  the miss penalty on every execution; persistent: hit cost per
  execution plus a *one-time* miss penalty).  The only timing state
  crossing block boundaries is a possibly pending load (load-use
  hazard), charged to edges in the worst case.

* ``krisc5`` — the overlapped 5-stage pipeline.  Per-block costs come
  from *sets of abstract pipeline states* (:mod:`repro.pipeline.states`)
  computed to a fixpoint over the whole (context-expanded, possibly
  VIVU-peeled) task graph on the shared WTO kernel: each entry state
  is walked through the block's stage-occupancy recurrence under the
  worst-case cache classifications, yielding the block's worst-case
  elapsed cycles and the successor boundary states.  Peeled
  first-iteration contexts are separate task-graph nodes with their
  own (compulsory-miss) classifications, so first-iteration and
  steady-state stalls are distinguished without extra machinery.

Both models produce the same :class:`TimingModel` shape, so IPET
(phase 6) is model-agnostic.  Taken-branch penalties are charged per
edge in both, so IPET can distinguish taken from fall-through
executions of a conditional branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis.fixpoint import (FixpointKernel, FixpointSemantics,
                                 FixpointStats)
from ..cache.abstract import Classification
from ..cache.analysis import DCacheResult, ICacheResult
from ..cache.config import MachineConfig
from ..cfg.expand import NodeId, TaskGraph
from ..cfg.graph import EdgeKind
from ..isa.instructions import Opcode
from .states import (PipeState, PipeStateSet, StateSetStats,
                     UNCONDITIONAL_TRANSFERS, loads_registers, walk_block)


@dataclass
class BlockTiming:
    """Worst-case cycle contribution of one task-graph node."""

    node: NodeId
    base_cycles: int          # paid on every execution
    onetime_cycles: int = 0   # paid at most once per task run (PS misses)


@dataclass
class TimingModel:
    """Per-block and per-edge worst-case costs for IPET."""

    blocks: Dict[NodeId, BlockTiming]
    edges: Dict[Tuple[NodeId, NodeId, EdgeKind], int]
    #: Which timing model produced these costs.
    model: str = "additive"
    #: WTO-kernel counters of the pipeline-state fixpoint (krisc5 only).
    fixpoint_stats: Optional[FixpointStats] = None
    #: State-set size/merge counters (krisc5 only).
    state_stats: Optional[StateSetStats] = None

    def block_cost(self, node: NodeId) -> int:
        return self.blocks[node].base_cycles

    def onetime_cost(self, node: NodeId) -> int:
        return self.blocks[node].onetime_cycles

    def total_onetime(self) -> int:
        return sum(t.onetime_cycles for t in self.blocks.values())


class PipelineAnalysis:
    """Computes the worst-case timing model of a task."""

    def __init__(self, graph: TaskGraph, config: MachineConfig,
                 icache: ICacheResult, dcache: DCacheResult):
        self.graph = graph
        self.config = config
        self.icache = icache
        self.dcache = dcache

    def analyze(self) -> TimingModel:
        blocks = {node: self._time_block(node)
                  for node in self.graph.nodes()}
        edges = self._time_edges()
        return TimingModel(blocks, edges)

    # -- Per-block cost ----------------------------------------------------------

    def _time_block(self, node: NodeId) -> BlockTiming:
        config = self.config
        block = self.graph.blocks[node]
        fetch_classes = self.icache.for_node(node)
        data_classes = self.dcache.for_node(node)

        base = 0
        onetime = 0

        # Instruction issue + fetch + EX latency.
        for index, instr in enumerate(block):
            base += 1
            if instr.opcode in (Opcode.MUL, Opcode.MULI):
                base += config.mul_extra
            outcome = fetch_classes[index] if index < len(fetch_classes) \
                else Classification.NOT_CLASSIFIED
            if outcome.worst_is_miss:
                base += config.icache.miss_penalty
            elif outcome is Classification.PERSISTENT:
                onetime += config.icache.miss_penalty

        # Data accesses: classified in recording order, grouped by the
        # owning instruction for block-transfer beat costs.
        per_instruction: Dict[int, int] = {}
        for item in data_classes:
            index = item.access.index
            beat = per_instruction.get(index, 0)
            if beat > 0:
                base += 1   # extra beat of a PUSH/POP block transfer
            per_instruction[index] = beat + 1
            outcome = item.classification
            if outcome.worst_is_miss:
                base += config.dcache.miss_penalty
            elif outcome is Classification.PERSISTENT:
                onetime += config.dcache.miss_penalty

        # Intra-block load-use stalls.
        instructions = block.instructions
        for current, following in zip(instructions, instructions[1:]):
            if set(following.read_registers()).intersection(
                    loads_registers(current)):
                base += config.load_use_stall

        # Unconditional control transfers always pay the redirect.
        if block.last.opcode in UNCONDITIONAL_TRANSFERS:
            base += config.branch_penalty

        return BlockTiming(node, base, onetime)

    # -- Per-edge cost ----------------------------------------------------------------

    def _time_edges(self) -> Dict[Tuple[NodeId, NodeId, EdgeKind], int]:
        config = self.config
        costs: Dict[Tuple[NodeId, NodeId, EdgeKind], int] = {}
        for node in self.graph.nodes():
            block = self.graph.blocks[node]
            pending = loads_registers(block.last)
            for edge in self.graph.successors(node):
                cost = 0
                # Taken conditional branches pay the redirect penalty.
                if block.last.opcode is Opcode.BCC \
                        and edge.kind is EdgeKind.TAKEN:
                    cost += config.branch_penalty
                # Cross-block load-use hazard.
                if pending:
                    successor = self.graph.blocks[edge.target]
                    first = successor.instructions[0]
                    if set(first.read_registers()).intersection(pending):
                        cost += config.load_use_stall
                if cost:
                    costs[(edge.source, edge.target, edge.kind)] = cost
        return costs


# -- krisc5: abstract pipeline-state analysis ------------------------------------


class _PipelineSemantics(FixpointSemantics):
    """WTO-kernel adapter for pipeline-state sets.

    The domain is finite (residues and interlock windows are bounded
    by the machine parameters, the set size by the cap), so no
    widening is needed; joins are union + dominance pruning + the
    deterministic cap merge.
    """

    widening = False

    def __init__(self, analysis: "Krisc5PipelineAnalysis"):
        self.analysis = analysis

    def transfer(self, node: NodeId, state: PipeStateSet) -> PipeStateSet:
        return self.analysis.exit_states(node, state)

    def join(self, old: PipeStateSet, new: PipeStateSet) -> PipeStateSet:
        return old.join(new, self.analysis.state_stats)

    def is_bottom(self, state: PipeStateSet) -> bool:
        return state.is_bottom()


class Krisc5PipelineAnalysis:
    """Abstract pipeline-state analysis for the overlapped 5-stage model.

    Runs a fixpoint over sets of entry pipeline states per task-graph
    node (on the shared WTO kernel), then extracts per-node worst-case
    cycles and per-edge redirect penalties and entry surcharges in the
    :class:`TimingModel` shape the additive model produces, keeping
    IPET unchanged.
    """

    def __init__(self, graph: TaskGraph, config: MachineConfig,
                 icache: ICacheResult, dcache: DCacheResult):
        self.graph = graph
        self.config = config
        self.icache = icache
        self.dcache = dcache
        self.state_stats = StateSetStats()
        self.fixpoint_stats: Optional[FixpointStats] = None
        self._data_outcomes: Dict[
            NodeId, List[Tuple[int, Classification]]] = {}
        for node in graph.nodes():
            self._data_outcomes[node] = [
                (item.access.index, item.classification)
                for item in dcache.for_node(node)]
        # (node, entry state) -> BlockWalk: the fixpoint and the final
        # cost extraction walk the same pairs, so walks are memoised
        # (PipeState is frozen/hashable) and counted once.
        self._walk_cache: Dict[Tuple[NodeId, PipeState], object] = {}

    def _walk(self, node: NodeId, state: PipeState):
        key = (node, state)
        walk = self._walk_cache.get(key)
        if walk is None:
            self.state_stats.walked_states += 1
            walk = walk_block(self.graph.blocks[node], state,
                              self.icache.for_node(node),
                              self._data_outcomes[node], self.config,
                              is_exit=not self.graph.successors(node))
            self._walk_cache[key] = walk
        return walk

    def exit_states(self, node: NodeId,
                    entry: PipeStateSet) -> PipeStateSet:
        return PipeStateSet(
            (self._walk(node, state).exit_state for state in entry),
            entry.cap, self.state_stats)

    def _incoming_costs(self, node: NodeId, entries
                        ) -> Dict[Tuple[NodeId, NodeId, EdgeKind], int]:
        """Worst-case cycles of ``node`` per incoming edge, walked from
        the exit states of that edge's source alone."""
        costs = {}
        for edge in self.graph.predecessors(node):
            source = entries.get(edge.source)
            if source is None or source.is_bottom():
                continue    # the edge is never taken
            states = PipeStateSet(
                (self._walk(edge.source, state).exit_state
                 for state in source), source.cap)
            costs[(edge.source, edge.target, edge.kind)] = max(
                self._walk(node, state).elapsed for state in states)
        return costs

    def solve(self) -> Dict[NodeId, PipeStateSet]:
        """Entry state set per node, starting from an empty pipeline;
        ``fixpoint_stats`` carries the kernel's work counters after."""
        graph = self.graph
        kernel = FixpointKernel(
            graph.entry, graph.successors, lambda e: e.target,
            _PipelineSemantics(self), sort_key=TaskGraph.node_key,
            wto=graph.wto())
        entries = kernel.solve(
            PipeStateSet.initial(self.config.pipeline_state_cap))
        self.fixpoint_stats = kernel.stats
        return entries

    def analyze(self) -> TimingModel:
        graph = self.graph
        entries = self.solve()

        fallback = PipeStateSet.initial(self.config.pipeline_state_cap)
        blocks: Dict[NodeId, BlockTiming] = {}
        edges: Dict[Tuple[NodeId, NodeId, EdgeKind], int] = {}
        for node in graph.nodes():
            entry = entries.get(node)
            if entry is None or entry.is_bottom():
                entry = fallback    # unreachable: any sound cost works
            self.state_stats.peak_states = max(
                self.state_stats.peak_states, len(entry))
            base = 0
            onetime = 0
            for state in entry:
                walk = self._walk(node, state)
                base = max(base, walk.elapsed)
                onetime = max(onetime, walk.onetime)
            # Each edge into the block brings its own states: the block
            # pays the cheapest edge's cost and dearer edges the rest,
            # so a stall only the loop-entry edge brings is not paid on
            # every iteration.  The task entry also starts from the
            # initial state, which no edge brings, so it keeps the max.
            incoming = self._incoming_costs(node, entries) \
                if node != graph.entry else {}
            if incoming:
                base = min(incoming.values())
                for key, cost in incoming.items():
                    if cost > base:
                        edges[key] = cost - base
            blocks[node] = BlockTiming(node, base, onetime)

        # Taken conditional branches pay the fetch redirect on the
        # edge, exactly like the additive model; cross-block load-use
        # stalls are part of the entry states instead.
        penalty = self.config.branch_penalty
        for node in graph.nodes():
            if graph.blocks[node].last.opcode is not Opcode.BCC:
                continue
            for edge in graph.successors(node):
                if edge.kind is EdgeKind.TAKEN:
                    key = (edge.source, edge.target, edge.kind)
                    edges[key] = edges.get(key, 0) + penalty
        return TimingModel(blocks, edges, model="krisc5",
                           fixpoint_stats=self.fixpoint_stats,
                           state_stats=self.state_stats)


def analyze_pipeline(graph: TaskGraph, config: MachineConfig,
                     icache: ICacheResult,
                     dcache: DCacheResult) -> TimingModel:
    """Derive the worst-case timing model (phase 5 of the pipeline).

    Dispatches on ``config.pipeline_model``: the bit-compatible
    ``additive`` baseline, or the overlapped ``krisc5`` abstract
    pipeline-state analysis.
    """
    if config.pipeline_model == "krisc5":
        return Krisc5PipelineAnalysis(graph, config, icache,
                                      dcache).analyze()
    return PipelineAnalysis(graph, config, icache, dcache).analyze()
