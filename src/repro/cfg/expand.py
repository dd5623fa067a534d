"""Whole-task context expansion ("virtual inlining / virtual unrolling").

aiT analyses each task interprocedurally by distinguishing *execution
contexts* (the VIVU scheme, Section 3).  We realise this by expanding
the per-function CFGs into a single :class:`TaskGraph` whose nodes are
``(context, block)`` pairs.  What counts as a context is decided by a
pluggable :class:`~repro.cfg.contexts.ContextPolicy`:

* the **call-string component** is built during expansion — one
  function-body copy per chain of call sites (possibly truncated under
  k-limiting), and
* the **loop-iteration component** is built by a post-pass that peels
  the first ``policy.peel`` iterations of every loop of the expanded
  graph into their own copies, rerouting the loop-back edges of the
  peeled copy into the steady-state copy.

On the expanded graph every later phase — value analysis, cache
analysis, pipeline analysis, and IPET — becomes a plain fixpoint /
linear program over one graph, with call and return edges as ordinary
(but specially tagged) edges.  Recursion is rejected up front
(:class:`ExpansionError`), which keeps the expansion finite (the
standard restriction for WCET tools).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Optional, Set, Tuple

from ..isa.instructions import Cond, Opcode
from .builder import BinaryCFG
from .contexts import DEFAULT_POLICY, Context, ContextPolicy
from .graph import BasicBlock, EdgeKind
from .loops import (WeakTopologicalOrder, _postorder, find_loops,
                    weak_topological_order)


@dataclass(frozen=True)
class NodeId:
    """Identity of a task-graph node: a basic block in a call context.

    Every fixpoint phase keys its worklists and state maps by NodeId,
    so ``__hash__``/``__eq__`` are on the hot path of all of them: the
    hash is computed once and cached (contexts hash nested tuples), and
    equality checks the cheap block number before the call context.
    """

    context: Context
    block: int

    def __repr__(self) -> str:
        return f"<{self.context.label}:0x{self.block:x}>"

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.context, self.block))
            object.__setattr__(self, "_hash", h)
        return h

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not NodeId:
            return NotImplemented
        return self.block == other.block and self.context == other.context


@dataclass(frozen=True)
class TaskEdge:
    """A directed edge of the expanded task graph."""

    source: NodeId
    target: NodeId
    kind: EdgeKind
    cond: Optional[Cond] = None


class TaskGraph:
    """The context-expanded whole-task control-flow graph."""

    def __init__(self, binary: BinaryCFG,
                 policy: Optional[ContextPolicy] = None):
        self.binary = binary
        #: The context policy this graph was expanded under.
        self.policy: ContextPolicy = policy or DEFAULT_POLICY
        self.blocks: Dict[NodeId, BasicBlock] = {}
        self.function_of: Dict[NodeId, int] = {}
        self._succs: Dict[NodeId, List[TaskEdge]] = {}
        self._preds: Dict[NodeId, List[TaskEdge]] = {}
        self.entry: Optional[NodeId] = None
        # Derived-structure caches (topological order, adjacency, WTO).
        # The graph is effectively immutable once expand_task returns,
        # so every analysis phase shares them instead of recomputing
        # per narrowing pass / per solver.  (The predecessor index
        # itself is prebuilt in ``_preds`` during construction and
        # served by :meth:`predecessors`.)
        self._topo_cache: Optional[List[NodeId]] = None
        self._adjacency_cache: Optional[Dict[NodeId, List[NodeId]]] = None
        self._wto_cache: Optional[WeakTopologicalOrder] = None

    @staticmethod
    def node_key(node: NodeId) -> Tuple[Context, int]:
        """Deterministic total order on nodes (for reproducible
        worklist iteration and WTO construction)."""
        return (node.context, node.block)

    # -- Construction -------------------------------------------------------

    def _invalidate_caches(self) -> None:
        self._topo_cache = None
        self._adjacency_cache = None
        self._wto_cache = None

    def _add_node(self, node: NodeId, block: BasicBlock,
                  function: int) -> None:
        self.blocks[node] = block
        self.function_of[node] = function
        self._succs.setdefault(node, [])
        self._preds.setdefault(node, [])
        self._invalidate_caches()

    def _add_edge(self, edge: TaskEdge) -> None:
        self._succs[edge.source].append(edge)
        self._preds[edge.target].append(edge)
        self._invalidate_caches()

    # -- Queries -------------------------------------------------------------

    def successors(self, node: NodeId) -> List[TaskEdge]:
        return self._succs[node]

    def predecessors(self, node: NodeId) -> List[TaskEdge]:
        return self._preds[node]

    def nodes(self) -> List[NodeId]:
        return list(self.blocks)

    def exit_nodes(self) -> List[NodeId]:
        """Nodes with no successors (task end: HALT, or final RET)."""
        return [node for node, edges in self._succs.items() if not edges]

    def adjacency(self) -> Dict[NodeId, List[NodeId]]:
        """Successor map in plain-node form (for the WTO and the loop
        forest).

        Cached; callers must treat the result as read-only.
        """
        if self._adjacency_cache is None:
            self._adjacency_cache = {
                node: [e.target for e in edges]
                for node, edges in self._succs.items()}
        return self._adjacency_cache

    def wto(self) -> WeakTopologicalOrder:
        """Weak topological order from the entry, successors visited in
        :meth:`node_key` order.  Every fixpoint phase iterates on it,
        and :func:`~repro.cfg.loops.find_loops` reads the loop forest
        off it.

        Cached; callers must treat the result as read-only.
        """
        if self._wto_cache is None:
            self._wto_cache = weak_topological_order(
                self.entry, self.adjacency().__getitem__, self.node_key)
        return self._wto_cache

    def function_name(self, node: NodeId) -> str:
        return self.binary.functions[self.function_of[node]].name

    def contexts(self) -> Set[Context]:
        return {node.context for node in self.blocks}

    def peeled_contexts(self) -> Set[Context]:
        """Contexts that are first-iteration (peeled) loop copies."""
        peel = self.policy.peel
        if not peel:
            return set()
        return {ctx for ctx in self.contexts()
                if ctx.has_phase_below(peel)}

    def node_count(self) -> int:
        return len(self.blocks)

    def edge_count(self) -> int:
        return sum(len(edges) for edges in self._succs.values())

    def instruction_count(self) -> int:
        return sum(len(block) for block in self.blocks.values())

    def topological_order(self) -> List[NodeId]:
        """Reverse postorder from the entry (a topological order of the
        acyclic condensation; loop headers precede their bodies).

        Cached after the first call (it used to be recomputed inside
        every narrowing pass); callers must treat it as read-only.
        """
        if self._topo_cache is None:
            self._topo_cache = _postorder(self.entry,
                                          self.adjacency())[::-1]
        return self._topo_cache

    def __repr__(self) -> str:
        return (f"TaskGraph({self.node_count()} nodes, "
                f"{self.edge_count()} edges, "
                f"{len(self.contexts())} contexts, "
                f"policy={self.policy.describe()})")


class ExpansionError(ValueError):
    """The task cannot be context-expanded (e.g. recursion)."""


def expand_task(binary: BinaryCFG, max_contexts: int = 100_000,
                policy: Optional[ContextPolicy] = None) -> TaskGraph:
    """Virtually inline all calls (and, under a peeling policy,
    virtually unroll all loops), producing the whole-task graph.

    ``max_contexts`` guards against pathological call-site explosion;
    ``policy`` selects the context-sensitivity scheme (defaults to
    :class:`~repro.cfg.contexts.FullCallString`).
    """
    policy = policy or DEFAULT_POLICY
    # Recursion check: surface call-graph cycles as an ExpansionError
    # naming the offending cycle instead of leaking the call graph's
    # internal RecursionError.
    try:
        binary.call_graph.topological_order(binary.entry)
    except RecursionError as exc:
        raise ExpansionError(f"cannot context-expand task: {exc}") from None

    graph = TaskGraph(binary, policy)
    root_ctx = policy.root()
    worklist: List[Tuple[Context, int]] = [(root_ctx, binary.entry)]
    instantiated: Set[Tuple[Context, int]] = set()

    while worklist:
        context, func_entry = worklist.pop()
        if (context, func_entry) in instantiated:
            continue
        instantiated.add((context, func_entry))
        if len(instantiated) > max_contexts:
            raise ExpansionError(
                f"context expansion exceeds {max_contexts} instances")
        function = binary.functions[func_entry]
        for block in function.blocks.values():
            graph._add_node(NodeId(context, block.start), block, func_entry)
        for block in function.blocks.values():
            source = NodeId(context, block.start)
            if block.is_call_block:
                site = block.last.address
                callee_context = policy.call_context(context, site)
                for callee in _call_targets(binary, func_entry, site):
                    worklist.append((callee_context, callee))
                # Call/return edges are added in a second pass, once the
                # callee instance surely exists.
            else:
                for edge in function.successors(block.start):
                    graph._add_edge(TaskEdge(
                        source, NodeId(context, edge.target), edge.kind,
                        edge.cond))

    # Second pass: connect call and return edges.  Iterated in sorted
    # (context, function) order so edge insertion order — and hence WTO
    # iteration order and reports — is reproducible across runs.
    for (context, func_entry) in sorted(instantiated):
        function = binary.functions[func_entry]
        for block in function.call_sites():
            site = block.last.address
            source = NodeId(context, block.start)
            callee_context = policy.call_context(context, site)
            return_site = site + 4
            for callee in _call_targets(binary, func_entry, site):
                callee_cfg = binary.functions[callee]
                graph._add_edge(TaskEdge(
                    source, NodeId(callee_context, callee_cfg.entry),
                    EdgeKind.CALL))
                for exit_block in callee_cfg.exit_blocks():
                    if exit_block.last.opcode is Opcode.HALT:
                        continue
                    graph._add_edge(TaskEdge(
                        NodeId(callee_context, exit_block.start),
                        NodeId(context, return_site), EdgeKind.RETURN))

    graph.entry = NodeId(root_ctx, binary.functions[binary.entry].entry)
    if policy.peel:
        graph = _peel_loops(graph, policy.peel, max_contexts)
    return graph


def _call_targets(binary: BinaryCFG, caller: int, site: int) -> List[int]:
    return [callee for call_site, callee
            in binary.call_graph.calls.get(caller, [])
            if call_site == site]


# -- Virtual unrolling (the VIVU iteration component) ---------------------------


def _peel_loops(graph: TaskGraph, peel: int,
                max_contexts: int) -> TaskGraph:
    """Peel the first ``peel`` iterations of every loop of the expanded
    graph into their own context copies.

    Every node inside ``d`` nested loops is replicated once per phase
    vector in ``{0..peel}^d``; phases below ``peel`` are the peeled
    iteration copies, phase ``peel`` is the steady state.  Loop-back
    edges of a peeled copy are rerouted into the next phase (the
    steady-state copy once ``peel`` is reached), and loop-entry edges
    target phase 0 — so the peeled copies form an acyclic prologue and
    only the steady-state copy remains a natural loop.  Because loops
    of the *expanded* graph are peeled, a callee invoked from inside a
    loop body is duplicated per iteration context as well (virtual
    inlining before virtual unrolling, as in aiT).
    """
    forest = find_loops(graph.entry, graph.adjacency(), graph.wto())
    if not len(forest):
        return graph

    # Loop chain per node, outermost to innermost.  Loops at equal
    # depth are disjoint, so ascending-depth insertion yields the chain
    # in nesting order.
    chain: Dict[NodeId, List] = {node: [] for node in graph.blocks}
    for loop in sorted(forest.loops, key=lambda l: l.depth):
        for node in loop.body:
            chain[node].append(loop)

    def peeled_id(node: NodeId, phases: Tuple[int, ...]) -> NodeId:
        if not phases:
            return node
        iters = tuple((loop.header.block, phase)
                      for loop, phase in zip(chain[node], phases))
        return NodeId(node.context.with_iters(iters), node.block)

    peeled = TaskGraph(graph.binary, graph.policy)
    ordered = sorted(graph.blocks, key=TaskGraph.node_key)
    contexts: Set[Context] = set()
    for node in ordered:
        block = graph.blocks[node]
        function = graph.function_of[node]
        for phases in product(range(peel + 1), repeat=len(chain[node])):
            copy = peeled_id(node, phases)
            contexts.add(copy.context)
            if len(contexts) > max_contexts:
                raise ExpansionError(
                    f"loop peeling exceeds {max_contexts} contexts; "
                    f"reduce peel or annotate the loop nest")
            peeled._add_node(copy, block, function)

    for node in ordered:
        src_chain = chain[node]
        for edge in graph.successors(node):
            tgt_chain = chain[edge.target]
            tgt_loop = forest.loop_of_header(edge.target)
            is_back = tgt_loop is not None and node in tgt_loop.body
            for phases in product(range(peel + 1), repeat=len(src_chain)):
                phase_of = {loop.header: phase
                            for loop, phase in zip(src_chain, phases)}
                target_phases = []
                for loop in tgt_chain:
                    if loop is tgt_loop:
                        # Entering the loop restarts at the first
                        # peeled iteration; taking a back edge advances
                        # into the next phase (saturating at steady).
                        target_phases.append(
                            min(phase_of[loop.header] + 1, peel)
                            if is_back else 0)
                    else:
                        # An enclosing loop shared with the source
                        # keeps its phase (reducibility guarantees the
                        # source is inside it too).
                        target_phases.append(phase_of[loop.header])
                peeled._add_edge(TaskEdge(
                    peeled_id(node, phases),
                    peeled_id(edge.target, tuple(target_phases)),
                    edge.kind, edge.cond))

    entry_phases = (0,) * len(chain[graph.entry])
    peeled.entry = peeled_id(graph.entry, entry_phases)
    return peeled
