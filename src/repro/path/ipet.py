"""Path analysis by Implicit Path Enumeration (phase 6 of aiT).

The WCET is the optimum of an integer linear program: execution counts
on blocks and edges, structural flow-conservation constraints, loop
bound constraints from phase 3, and infeasible-path exclusions from
value analysis.  "Integer linear programming is used for path analysis"
(Section 3); the solution also yields "a corresponding worst-case
execution path" as the edge-count profile.

Before the program is built, single-entry/single-exit block chains of
the expanded graph are contracted into supernodes: along such a chain
every node and every interior edge executes exactly as often as the
chain head, so one variable (with the summed cost) represents the whole
chain and the LP shrinks severalfold.  Loop headers (including their
peel copies), the task entry, and nodes referenced by infeasible-path
constraints stay uncontracted because later constraints address them
individually; the witness profile is expanded back to full per-node and
per-edge counts afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..analysis.loopbounds import LoopBound
from ..analysis.valueanalysis import ValueAnalysisResult
from ..cfg.expand import NodeId, TaskEdge, TaskGraph
from ..cfg.graph import EdgeKind
from ..ilp.model import LinearProgram, Sense
from ..ilp.branchbound import solve_ilp
from ..ilp.simplex import solve_lp
from ..ilp.stats import ILPStats
from ..pipeline.analysis import TimingModel


class UnboundedLoopError(ValueError):
    """A loop has no iteration bound; WCET cannot be computed without a
    user annotation (exactly aiT's behaviour)."""

    def __init__(self, headers: List[NodeId]):
        names = ", ".join(repr(h) for h in headers)
        super().__init__(f"loops without iteration bounds: {names}; "
                         "provide manual_bounds annotations")
        self.headers = headers


@dataclass
class WorstCasePath:
    """The worst-case execution profile: counts per node and edge."""

    node_counts: Dict[NodeId, int]
    edge_counts: Dict[Tuple[NodeId, NodeId, EdgeKind], int]

    def count(self, node: NodeId) -> int:
        return self.node_counts.get(node, 0)


@dataclass
class PathAnalysisResult:
    """IPET output: the WCET bound and its witness profile."""

    wcet_cycles: int
    path: WorstCasePath
    lp_bound: float                 # relaxation optimum (sound bound)
    integral: bool                  # did the ILP confirm integrality?
    num_variables: int
    num_constraints: int
    #: LP/ILP engine counters (pivots, presolve, B&B warm starts).
    solver_stats: Optional[ILPStats] = None
    #: Task-graph nodes before chain contraction.
    graph_nodes: int = 0
    #: Supernodes the LP was actually built over.
    lp_supernodes: int = 0


class PathAnalysis:
    """Builds and solves the IPET program for one task."""

    def __init__(self, graph: TaskGraph, timing: TimingModel,
                 loop_bounds: Dict[NodeId, LoopBound],
                 values: Optional[ValueAnalysisResult] = None,
                 use_infeasible_paths: bool = True,
                 contract_chains: bool = True):
        self.graph = graph
        self.timing = timing
        self.loop_bounds = loop_bounds
        self.values = values
        self.use_infeasible_paths = use_infeasible_paths and \
            values is not None
        self.contract_chains = contract_chains

    def solve(self, integer: bool = True) -> PathAnalysisResult:
        (program, chains, merge_next, chain_vars, node_vars, edge_vars,
         exit_vars, onetime_vars) = self._build_program()
        stats = ILPStats()
        relaxation = solve_lp(program, stats=stats)
        if relaxation.status == "unbounded":
            raise UnboundedLoopError(self._unbounded_headers())
        if relaxation.status != "optimal":
            raise RuntimeError(
                f"IPET program is {relaxation.status}; the task graph "
                "is malformed")

        solution = relaxation
        integral = relaxation.is_integral()
        if integer and not integral:
            solution = solve_ilp(program, stats=stats)
            integral = True

        # Expand the supernode profile back to per-node/per-edge counts:
        # every chain member and interior edge runs exactly as often as
        # the chain itself.
        node_counts: Dict[NodeId, int] = {}
        edge_counts: Dict[Tuple[NodeId, NodeId, EdgeKind], int] = {}
        for chain, var in zip(chains, chain_vars):
            value = solution.value_of(var)
            if value <= 1e-6:
                continue
            count = int(round(value))
            for node in chain:
                node_counts[node] = count
            for member in chain[:-1]:
                edge = merge_next[member]
                edge_counts[(edge.source, edge.target, edge.kind)] = count
        for key, var in edge_vars.items():
            value = solution.value_of(var)
            if value > 1e-6:
                edge_counts[key] = int(round(value))

        wcet = int(round(solution.objective)) if integral \
            else int(math.ceil(solution.objective - 1e-9))
        return PathAnalysisResult(
            wcet_cycles=wcet,
            path=WorstCasePath(node_counts, edge_counts),
            lp_bound=relaxation.objective,
            integral=integral,
            num_variables=program.num_variables,
            num_constraints=program.num_constraints,
            solver_stats=stats,
            graph_nodes=self.graph.node_count(),
            lp_supernodes=len(chains))

    # -- Chain contraction ------------------------------------------------------

    def _contract_chains(self) -> Tuple[List[List[NodeId]],
                                        Dict[NodeId, TaskEdge]]:
        """Partition the graph into maximal single-entry/single-exit
        chains.  Returns the chains (in deterministic node order) and
        the interior merge edge of every non-tail chain member."""
        graph = self.graph
        nodes = graph.nodes()
        if not self.contract_chains:
            return [[node] for node in nodes], {}

        # Nodes later constraints address individually must head their
        # own supernode: loop headers (all peel phases share the block
        # address), and — when infeasible-path constraints are emitted —
        # unreachable nodes and infeasible-edge endpoints.
        header_blocks: Set[int] = set()
        if self.values is not None:
            for loop in self.values.fixpoint.loop_forest:
                header_blocks.add(loop.header.block)
        infeasible_keys = set()
        unreachable: Set[NodeId] = set()
        if self.use_infeasible_paths:
            infeasible_keys = {
                (edge.source, edge.target, edge.kind)
                for edge in self.values.infeasible_edges}
            unreachable = {
                node for node in nodes
                if not self.values.fixpoint.reachable(node)}

        merge_next: Dict[NodeId, TaskEdge] = {}
        for node in nodes:
            succs = graph.successors(node)
            if len(succs) != 1:
                continue
            edge = succs[0]
            target = edge.target
            if (target == graph.entry
                    or target == node
                    or target.block in header_blocks
                    or node in unreachable
                    or target in unreachable
                    or (edge.source, edge.target, edge.kind)
                    in infeasible_keys
                    or len(graph.predecessors(target)) != 1):
                continue
            merge_next[node] = edge

        merged_targets = {edge.target for edge in merge_next.values()}
        chains: List[List[NodeId]] = []
        assigned: Set[NodeId] = set()
        for node in nodes:
            if node in merged_targets:
                continue
            chain = [node]
            assigned.add(node)
            current = node
            while current in merge_next:
                current = merge_next[current].target
                chain.append(current)
                assigned.add(current)
            chains.append(chain)
        # A cycle of merge edges has no head (possible only for regions
        # no loop-forest header guards, e.g. unreachable cycles with
        # infeasible-path constraints disabled): break it at the first
        # node in deterministic order; the wrap-around edge then stays a
        # real (cross-chain) edge.
        for node in nodes:
            if node in assigned:
                continue
            chain = [node]
            assigned.add(node)
            current = node
            while current in merge_next and \
                    merge_next[current].target not in assigned:
                current = merge_next[current].target
                chain.append(current)
                assigned.add(current)
            chains.append(chain)
        return chains, merge_next

    # -- Program construction ---------------------------------------------------

    def _build_program(self):
        graph = self.graph
        program = LinearProgram("ipet")
        chains, merge_next = self._contract_chains()

        chain_vars = []
        node_vars: Dict[NodeId, object] = {}
        for index, chain in enumerate(chains):
            var = program.add_variable(f"x_{index}")
            chain_vars.append(var)
            for node in chain:
                node_vars[node] = var

        # Cross-chain edges all emanate from chain tails (interior
        # members have exactly one successor: their merge edge).
        edge_vars = {}
        for index, chain in enumerate(chains):
            tail = chain[-1]
            for j, edge in enumerate(graph.successors(tail)):
                key = (edge.source, edge.target, edge.kind)
                edge_vars[key] = program.add_variable(f"y_{index}_{j}")
        exit_vars = {}
        for index, chain in enumerate(chains):
            tail = chain[-1]
            if not graph.successors(tail):
                exit_vars[tail] = program.add_variable(
                    f"exit_{len(exit_vars)}")
        onetime_vars = {}
        for node, timing in self.timing.blocks.items():
            if timing.onetime_cycles > 0:
                onetime_vars[node] = program.add_variable(
                    f"z_{len(onetime_vars)}", upper=1)

        # Flow conservation per supernode: executions = inflow = outflow
        # (inflow arrives at the chain head, outflow leaves the tail).
        for index, chain in enumerate(chains):
            head, tail = chain[0], chain[-1]
            x_var = chain_vars[index]
            inflow = {x_var.index: -1.0}
            for edge in graph.predecessors(head):
                key = (edge.source, edge.target, edge.kind)
                inflow[edge_vars[key].index] = \
                    inflow.get(edge_vars[key].index, 0.0) + 1.0
            rhs = -1.0 if head == graph.entry else 0.0
            program.add_constraint(inflow, Sense.EQ, rhs,
                                   f"in_{x_var.name}")

            outflow = {x_var.index: -1.0}
            for edge in graph.successors(tail):
                key = (edge.source, edge.target, edge.kind)
                outflow[edge_vars[key].index] = \
                    outflow.get(edge_vars[key].index, 0.0) + 1.0
            if tail in exit_vars:
                outflow[exit_vars[tail].index] = 1.0
            program.add_constraint(outflow, Sense.EQ, 0.0,
                                   f"out_{x_var.name}")

        # Exactly one task exit.
        program.add_constraint(
            {var.index: 1.0 for var in exit_vars.values()},
            Sense.EQ, 1.0, "one_exit")

        # Loop bounds (and, under a peeling policy, the structural
        # constraints linking peeled copies to loop entries).  Loop
        # headers are never contracted into a chain, so every edge these
        # constraints mention is a real cross-chain edge.
        self._add_loop_constraints(program, edge_vars, node_vars)

        # Infeasible paths (ablation D5).
        if self.use_infeasible_paths:
            for edge in self.values.infeasible_edges:
                key = (edge.source, edge.target, edge.kind)
                program.add_constraint({edge_vars[key].index: 1.0},
                                       Sense.EQ, 0.0, "infeasible")
            for node, x_var in node_vars.items():
                if not self.values.fixpoint.reachable(node):
                    program.add_constraint({x_var.index: 1.0}, Sense.EQ,
                                           0.0, "unreachable")

        # One-time costs require the block to execute.
        for node, z_var in onetime_vars.items():
            program.add_constraint(
                {z_var.index: 1.0, node_vars[node].index: -1.0},
                Sense.LE, 0.0, "onetime_gate")

        # Objective: worst-case cycles.  A supernode carries the summed
        # block costs of its members plus its interior edge costs.
        for index, chain in enumerate(chains):
            cost = sum(self.timing.block_cost(node) for node in chain)
            for member in chain[:-1]:
                edge = merge_next[member]
                cost += self.timing.edges.get(
                    (edge.source, edge.target, edge.kind), 0)
            program.set_objective_coefficient(chain_vars[index], cost)
        for key, y_var in edge_vars.items():
            cost = self.timing.edges.get(key, 0)
            if cost:
                program.set_objective_coefficient(y_var, cost)
        for node, z_var in onetime_vars.items():
            program.set_objective_coefficient(
                z_var, self.timing.onetime_cost(node))

        return (program, chains, merge_next, chain_vars, node_vars,
                edge_vars, exit_vars, onetime_vars)

    def _add_loop_constraints(self, program: LinearProgram,
                              edge_vars, node_vars) -> None:
        unbounded = []
        if self.values is None:
            return
        for loop in self.values.fixpoint.loop_forest:
            bound = self.loop_bounds.get(loop.header)
            if bound is None or not bound.is_bounded:
                unbounded.append(loop.header)
                continue
            coeffs: Dict[int, float] = {}
            for latch, header in loop.back_edges:
                for edge in self.graph.successors(latch):
                    if edge.target == header:
                        key = (edge.source, edge.target, edge.kind)
                        coeffs[edge_vars[key].index] = 1.0
            for edge in self.graph.predecessors(loop.header):
                if edge.source not in loop.body:
                    key = (edge.source, edge.target, edge.kind)
                    coeffs[edge_vars[key].index] = \
                        coeffs.get(edge_vars[key].index, 0.0) \
                        - (bound.max_iterations - 1)
            # The task entry is an implicit loop-entry edge executed once.
            rhs = float(bound.max_iterations - 1) \
                if loop.header == self.graph.entry else 0.0
            program.add_constraint(coeffs, Sense.LE, rhs,
                                   f"loop_{loop.header!r}")
            self._add_peel_constraints(program, edge_vars, node_vars,
                                       loop)
        if unbounded:
            raise UnboundedLoopError(unbounded)

    def _add_peel_constraints(self, program: LinearProgram, edge_vars,
                              node_vars, loop) -> None:
        """Structural VIVU constraints for a peeled loop.

        The forest only contains the steady-state copy; its peeled
        prologue copies are separate (acyclic) nodes.  Flow
        conservation alone bounds them on a DAG, but merged call/return
        edges under k-limited call strings can introduce spurious
        cycles through a prologue, so the linkage is stated explicitly:
        each peeled header copy runs at most as often as the previous
        one, and the steady-state copy is entered at most once per
        execution of the last peeled copy.
        """
        header = loop.header
        peel = header.context.peel_of(header.block)
        if not peel:
            return

        def header_copy(phase: int):
            node = NodeId(header.context.with_phase(header.block, phase),
                          header.block)
            return node_vars.get(node)

        for phase in range(1, peel):
            later, earlier = header_copy(phase), header_copy(phase - 1)
            if later is not None and earlier is not None:
                program.add_constraint(
                    {later.index: 1.0, earlier.index: -1.0}, Sense.LE,
                    0.0, f"peel_{phase}_{header!r}")
        last_peeled = header_copy(peel - 1)
        if last_peeled is not None:
            coeffs = {last_peeled.index: -1.0}
            for edge in self.graph.predecessors(header):
                if edge.source not in loop.body:
                    key = (edge.source, edge.target, edge.kind)
                    coeffs[edge_vars[key].index] = \
                        coeffs.get(edge_vars[key].index, 0.0) + 1.0
            program.add_constraint(coeffs, Sense.LE, 0.0,
                                   f"peel_entry_{header!r}")

    def _unbounded_headers(self) -> List[NodeId]:
        return [loop.header
                for loop in self.values.fixpoint.loop_forest
                if not self.loop_bounds.get(
                    loop.header,
                    LoopBound(loop.header, None, "none")).is_bounded] \
            if self.values is not None else []


def analyze_paths(graph: TaskGraph, timing: TimingModel,
                  loop_bounds: Dict[NodeId, LoopBound],
                  values: Optional[ValueAnalysisResult] = None,
                  use_infeasible_paths: bool = True,
                  integer: bool = True,
                  contract_chains: bool = True) -> PathAnalysisResult:
    """Compute the WCET bound and worst-case path (phase 6 of aiT)."""
    analysis = PathAnalysis(graph, timing, loop_bounds, values,
                            use_infeasible_paths, contract_chains)
    return analysis.solve(integer=integer)
