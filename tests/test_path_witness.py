"""The IPET witness, checked in exact integers.

Every matrix point of ``tests/golden_bounds.json`` must come with a
worst-case path that conserves flow at every task-graph node and whose
integer cost is exactly the golden bound; a bound the float LP cannot
represent must be refused rather than rounded.
"""

import os

import pytest

from repro.batch import expand_matrix, flatten_golden, load_golden
from repro.batch.dag import _plan_for
from repro.batch.scheduler import run_plans
from repro.isa.assembler import assemble
from repro.path import InexactBoundError
from repro.wcet import analyze_wcet

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_bounds.json")


def flow_violations(result):
    """Nodes whose witness count differs from its inflow (plus 1 at the
    entry) or, unless it exits the task, from its outflow."""
    graph = result.graph
    nodes = result.path.path.node_counts
    edges = result.path.path.edge_counts

    def flow(edge_list):
        return sum(edges.get((e.source, e.target, e.kind), 0)
                   for e in edge_list)

    violations = []
    for node in graph.nodes():
        count = nodes.get(node, 0)
        inflow = flow(graph.predecessors(node)) + (node == graph.entry)
        successors = graph.successors(node)
        if inflow != count or (successors and flow(successors) != count):
            violations.append(node)
    return violations


def exact_cost(result):
    """Block costs per execution, edge costs per traversal and the
    one-time cost of every executed block, in Python ints."""
    timing = result.timing
    path = result.path.path
    return (sum(count * timing.block_cost(node)
                for node, count in path.node_counts.items())
            + sum(count * timing.edges.get(key, 0)
                  for key, count in path.edge_counts.items())
            + sum(timing.onetime_cost(node) for node in path.node_counts))


def test_witness_conserves_flow_and_costs_the_golden_bound():
    golden = flatten_golden(load_golden(GOLDEN_PATH))
    jobs = expand_matrix("all:all:all")
    _rows, sweep = run_plans([_plan_for(spec)[0] for spec in jobs])
    failures = []
    for index, spec in enumerate(jobs):
        point = (spec.workload, spec.policy, spec.model)
        result = sweep.artifact(index, "row")
        violations = flow_violations(result)
        if violations:
            failures.append(f"{point}: flow broken at {violations[:3]}")
        if exact_cost(result) != golden[point]:
            failures.append(f"{point}: witness costs {exact_cost(result)}, "
                            f"golden bound {golden[point]}")
    assert len(jobs) == len(golden) == 114
    assert failures == []


LOOP = """
main:
    MOVI R1, #0
loop:
    ADDI R1, R1, #1
    MUL R2, R1, R1
    CMP R1, R0
    BLT loop
    HALT
"""


def test_bound_past_float_precision_is_refused():
    # The bound, 8 * (3 * 10**15 + 7) + 20 cycles, is past 2**53: the
    # float LP's optimum comes out as 24000000000000072 while its own
    # witness path costs 24000000000000076.
    program = assemble(LOOP)
    loop = program.symbol_address("loop")
    with pytest.raises(InexactBoundError) as caught:
        analyze_wcet(program, manual_loop_bounds={loop: 3 * 10**15 + 7})
    assert (caught.value.objective, caught.value.witness_cost) == \
        (24000000000000072, 24000000000000076)
    assert isinstance(caught.value, ValueError)
    exact = analyze_wcet(program, manual_loop_bounds={loop: 10**6})
    assert exact.wcet_cycles == exact_cost(exact) == 8 * 10**6 + 20
