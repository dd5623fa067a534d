"""Path analysis by Implicit Path Enumeration (phase 6 of aiT).

The WCET is the optimum of an integer linear program: execution counts
on blocks and edges, structural flow-conservation constraints, loop
bound constraints from phase 3, and infeasible-path exclusions from
value analysis.  "Integer linear programming is used for path analysis"
(Section 3); the solution also yields "a corresponding worst-case
execution path" as the edge-count profile.

The program is the textbook one: a count per task-graph node, per edge
and per task exit, plus a 0/1 gate per one-time cost.  Presolve
(:mod:`repro.ilp.presolve`) is its only reduction: doubleton
substitution folds the equal counts along straight-line block chains,
so the LP that is solved is the IPET program itself.  The bound is the
witness's cost recomputed in exact integers; when the float optimum
disagrees with it (a bound past 2**53 cycles), the bound is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis.loopbounds import LoopBound
from ..analysis.valueanalysis import ValueAnalysisResult
from ..cfg.expand import NodeId, TaskGraph
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


class InexactBoundError(ValueError):
    """The float LP optimum and the exact cost of its own witness path
    disagree: the bound is beyond what the LP represents exactly."""

    def __init__(self, objective: int, witness_cost: int):
        super().__init__(
            f"the LP optimum rounds to {objective} cycles but its witness "
            f"path costs {witness_cost}; the bound is too large for the "
            "float LP to represent exactly")
        self.objective = objective
        self.witness_cost = witness_cost


@dataclass
class WorstCasePath:
    """The worst-case execution profile: counts per node and edge."""

    node_counts: Dict[NodeId, int]
    edge_counts: Dict[Tuple[NodeId, NodeId, EdgeKind], int]


@dataclass
class PathAnalysisResult:
    """IPET output: the WCET bound and its witness profile."""

    wcet_cycles: int
    path: WorstCasePath
    lp_bound: float                 # relaxation optimum (sound bound)
    integral: bool                  # did the ILP confirm integrality?
    num_variables: int
    num_constraints: int
    #: LP/ILP engine counters (pivots, presolve, B&B nodes).
    solver_stats: Optional[ILPStats] = None


class PathAnalysis:
    """Builds and solves the IPET program for one task."""

    def __init__(self, graph: TaskGraph, timing: TimingModel,
                 loop_bounds: Dict[NodeId, LoopBound],
                 values: ValueAnalysisResult,
                 use_infeasible_paths: bool = True):
        self.graph = graph
        self.timing = timing
        self.loop_bounds = loop_bounds
        self.values = values
        self.use_infeasible_paths = use_infeasible_paths

    def solve(self, integer: bool = True) -> PathAnalysisResult:
        program, node_vars, edge_vars = self._build_program()
        stats = ILPStats()
        relaxation = solve_lp(program, stats=stats)
        # Building the program gave every loop its bound row (or raised
        # UnboundedLoopError), so no well-formed program is unbounded.
        if relaxation.status != "optimal":
            raise RuntimeError(
                f"IPET program is {relaxation.status}; the task graph "
                "is malformed")

        solution = relaxation
        integral = relaxation.is_integral()
        if integer and not integral:
            solution = solve_ilp(program, stats=stats)
            integral = True

        path = WorstCasePath(_counts(solution, node_vars),
                             _counts(solution, edge_vars))
        if integral:
            wcet = self._witness_cost(path)
            rounded = int(round(solution.objective))
            if wcet != rounded:
                raise InexactBoundError(rounded, wcet)
        else:
            wcet = int(math.ceil(solution.objective - 1e-9))
        return PathAnalysisResult(
            wcet_cycles=wcet,
            path=path,
            lp_bound=relaxation.objective,
            integral=integral,
            num_variables=program.num_variables,
            num_constraints=program.num_constraints,
            solver_stats=stats)

    def _witness_cost(self, path: WorstCasePath) -> int:
        """The cycles of the witness profile in exact integers: every
        execution of a block and an edge, plus the one-time cost of
        every block it executes."""
        timing = self.timing
        return (sum(count * timing.block_cost(node)
                    for node, count in path.node_counts.items())
                + sum(count * timing.edges.get(key, 0)
                      for key, count in path.edge_counts.items())
                + sum(timing.onetime_cost(node)
                      for node in path.node_counts))

    # -- Program construction ---------------------------------------------------

    def _build_program(self):
        """The IPET program: one count per task-graph node, per edge and
        per task exit, and a 0/1 gate per one-time cost.  Returns the
        program and the node and edge count variables."""
        graph = self.graph
        program = LinearProgram("ipet")
        nodes = graph.nodes()
        node_vars = {node: program.add_variable(f"x_{index}")
                     for index, node in enumerate(nodes)}
        edge_vars = {}
        for index, node in enumerate(nodes):
            for j, edge in enumerate(graph.successors(node)):
                key = (edge.source, edge.target, edge.kind)
                edge_vars[key] = program.add_variable(f"y_{index}_{j}")
        exit_vars = {}
        for node in nodes:
            if not graph.successors(node):
                exit_vars[node] = program.add_variable(
                    f"exit_{len(exit_vars)}")
        onetime_vars = {}
        for node, timing in self.timing.blocks.items():
            if timing.onetime_cycles > 0:
                onetime_vars[node] = program.add_variable(
                    f"z_{len(onetime_vars)}", upper=1)

        # Flow conservation per node: executions = inflow = outflow.
        for node, x_var in node_vars.items():
            inflow = {x_var.index: -1.0}
            for edge in graph.predecessors(node):
                key = (edge.source, edge.target, edge.kind)
                inflow[edge_vars[key].index] = \
                    inflow.get(edge_vars[key].index, 0.0) + 1.0
            rhs = -1.0 if node == graph.entry else 0.0
            program.add_constraint(inflow, Sense.EQ, rhs,
                                   f"in_{x_var.name}")

            outflow = {x_var.index: -1.0}
            for edge in graph.successors(node):
                key = (edge.source, edge.target, edge.kind)
                outflow[edge_vars[key].index] = \
                    outflow.get(edge_vars[key].index, 0.0) + 1.0
            if node in exit_vars:
                outflow[exit_vars[node].index] = 1.0
            program.add_constraint(outflow, Sense.EQ, 0.0,
                                   f"out_{x_var.name}")

        # Exactly one task exit.
        program.add_constraint(
            {var.index: 1.0 for var in exit_vars.values()},
            Sense.EQ, 1.0, "one_exit")

        # Loop bounds (and, under a peeling policy, the structural
        # constraints linking peeled copies to loop entries).
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

        # Objective: worst-case cycles.
        for node, x_var in node_vars.items():
            program.set_objective_coefficient(
                x_var, self.timing.block_cost(node))
        for key, y_var in edge_vars.items():
            cost = self.timing.edges.get(key, 0)
            if cost:
                program.set_objective_coefficient(y_var, cost)
        for node, z_var in onetime_vars.items():
            program.set_objective_coefficient(
                z_var, self.timing.onetime_cost(node))

        return program, node_vars, edge_vars

    def _add_loop_constraints(self, program: LinearProgram,
                              edge_vars, node_vars) -> None:
        unbounded = []
        for loop in self.values.loop_forest:
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
            entries = [edge_vars[(edge.source, edge.target, edge.kind)].index
                       for edge in self.graph.predecessors(loop.header)
                       if edge.source not in loop.body]
            for index in entries:
                coeffs[index] = coeffs.get(index, 0.0) \
                    - (bound.max_iterations - 1)
            # The task entry is an implicit loop-entry edge executed once.
            rhs = float(bound.max_iterations - 1) \
                if loop.header == self.graph.entry else 0.0
            program.add_constraint(coeffs, Sense.LE, rhs,
                                   f"loop_{loop.header!r}")
            self._add_peel_constraints(program, node_vars, loop, entries)
        if unbounded:
            raise UnboundedLoopError(unbounded)

    def _add_peel_constraints(self, program: LinearProgram, node_vars,
                              loop, entries: List[int]) -> None:
        """Structural VIVU constraints for a peeled loop, whose loop-entry
        edges have the variable indices ``entries``.

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
            for index in entries:
                coeffs[index] = coeffs.get(index, 0.0) + 1.0
            program.add_constraint(coeffs, Sense.LE, 0.0,
                                   f"peel_entry_{header!r}")


def _counts(solution, variables) -> Dict:
    """The positive counts of ``variables`` (key -> LP variable)."""
    values = {key: solution.value_of(var) for key, var in variables.items()}
    return {key: int(round(value)) for key, value in values.items()
            if value > 1e-6}


def analyze_paths(graph: TaskGraph, timing: TimingModel,
                  loop_bounds: Dict[NodeId, LoopBound],
                  values: ValueAnalysisResult,
                  use_infeasible_paths: bool = True,
                  integer: bool = True) -> PathAnalysisResult:
    """Compute the WCET bound and worst-case path (phase 6 of aiT)."""
    analysis = PathAnalysis(graph, timing, loop_bounds, values,
                            use_infeasible_paths)
    return analysis.solve(integer=integer)
