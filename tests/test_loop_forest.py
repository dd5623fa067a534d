"""The loop forest read off the weak topological order.

:func:`repro.cfg.loops.find_loops` takes each WTO component as one
natural loop.  These tests hold the forest to the textbook
definitions, written out here, on every suite workload x {full,
klimited@1, vivu@1} and on the large synthetic point:

* each body is its header plus every node that reaches one of its
  latches without passing through the header (the natural loop);
* every edge into a body from outside targets the header, and the back
  edges are exactly the body's edges to the header;
* removing the back edges leaves the graph acyclic (no loop missed);
* each parent is the smallest loop that strictly encloses its child;
* loops and back edges come in latch postorder.

They also check that irreducible shapes raise
:class:`~repro.cfg.loops.IrreducibleLoopError`, and that one analysis
builds one WTO per task graph, shared by every fixpoint phase and the
loop forest.
"""

import pytest

from repro.cfg import IrreducibleLoopError, build_cfg, expand_task, find_loops
from repro.cfg.contexts import parse_policy
from repro.lang import compile_program
from repro.wcet import analyze_wcet
from repro.workloads.suite import get_workload, workload_names
from repro.workloads.synthetic import generate_large_source

POLICIES = ("full", "klimited@1", "vivu@1")


def _graphs():
    for name in workload_names():
        binary = build_cfg(get_workload(name).compile())
        for policy in POLICIES:
            yield f"{name}/{policy}", expand_task(
                binary, policy=parse_policy(policy))
    yield "large", expand_task(build_cfg(compile_program(
        generate_large_source())))


GRAPHS = dict(_graphs())


def natural_loop(header, latches, preds):
    """``header`` plus the backward closure of ``latches`` that stops at
    the header."""
    body = {header}
    stack = []
    for latch in latches:
        if latch not in body:
            body.add(latch)
            stack.append(latch)
    while stack:
        node = stack.pop()
        for pred in preds[node]:
            if pred not in body:
                body.add(pred)
                stack.append(pred)
    return body


def postorder(entry, succs):
    """DFS postorder from ``entry``, successors in list order."""
    order, seen = [], {entry}
    stack = [(entry, iter(succs[entry]))]
    while stack:
        node, successors = stack[-1]
        for succ in successors:
            if succ not in seen:
                seen.add(succ)
                stack.append((succ, iter(succs[succ])))
                break
        else:
            order.append(node)
            stack.pop()
    return order


def assert_natural_loop_forest(entry, succs, forest):
    order = postorder(entry, succs)
    reachable = set(order)
    preds = {node: [] for node in reachable}
    for node in order:
        for succ in succs[node]:
            preds[succ].append(node)

    back_edges = set()
    for loop in forest:
        latches = [latch for latch, _ in loop.back_edges]
        assert loop.body == natural_loop(loop.header, latches, preds)
        # The back edges are all the body's edges to the header, in
        # latch postorder.
        assert loop.back_edges == [
            (node, succ) for node in order if node in loop.body
            for succ in succs[node] if succ == loop.header]
        for node in loop.body:
            for pred in preds[node]:
                if pred not in loop.body:
                    assert node == loop.header, (pred, node, loop)
        enclosing = [outer for outer in forest if outer is not loop
                     and loop.body < outer.body]
        smallest = min(enclosing, key=lambda outer: len(outer.body),
                       default=None)
        assert loop.parent is smallest
        assert loop.depth == len(enclosing) + 1
        assert forest.is_innermost(loop) == (
            not any(inner.parent is loop for inner in forest))
        back_edges.update(loop.back_edges)

    # Loops in the order their first latch appears in postorder.
    first_latch = {}
    for node in order:
        for succ in succs[node]:
            if (node, succ) in back_edges:
                first_latch.setdefault(succ, len(first_latch))
    assert [loop.header for loop in forest] == sorted(
        first_latch, key=first_latch.get)

    # Without its back edges the graph is acyclic: every cycle is in a
    # loop of the forest.
    indegree = {node: 0 for node in reachable}
    for node in reachable:
        for succ in succs[node]:
            if (node, succ) not in back_edges:
                indegree[succ] += 1
    ready = [node for node, count in indegree.items() if not count]
    done = 0
    while ready:
        node = ready.pop()
        done += 1
        for succ in succs[node]:
            if (node, succ) not in back_edges:
                indegree[succ] -= 1
                if not indegree[succ]:
                    ready.append(succ)
    assert done == len(reachable)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_forest_is_the_natural_loop_forest(name):
    graph = GRAPHS[name]
    succs = graph.adjacency()
    forest = find_loops(graph.entry, succs, graph.wto())
    assert_natural_loop_forest(graph.entry, succs, forest)


@pytest.mark.parametrize("succs", [
    # A loop with two latches, then a self loop.
    {"e": ["h"], "h": ["a", "b"], "a": ["h", "s"], "b": ["h"],
     "s": ["s", "x"], "x": []},
    # Two sibling loops inside one outer loop, each holding one of the
    # outer loop's latches.
    {"e": ["o"], "o": ["i", "j", "x"], "i": ["i2"], "i2": ["i", "o"],
     "j": ["j2"], "j2": ["j", "o"], "x": []},
], ids=["latches", "siblings"])
def test_hand_written_graphs(succs):
    forest = find_loops("e", succs)
    assert_natural_loop_forest("e", succs, forest)
    assert max(len(loop.back_edges) for loop in forest) >= 2


def test_suite_has_nested_loops():
    # The property test above must see nesting, not only flat loops.
    depths = {loop.depth for graph in GRAPHS.values()
              for loop in find_loops(graph.entry, graph.adjacency(),
                                     graph.wto())}
    assert max(depths) >= 3


@pytest.mark.parametrize("succs, edge, header", [
    # A two-entry cycle at top level.
    ({"e": ["a", "b"], "a": ["b", "x"], "b": ["a"], "x": []},
     ("e", "b"), "a"),
    # The same cycle nested inside a reducible loop headed by h.
    ({"e": ["h"], "h": ["a", "b", "x"], "a": ["b"], "b": ["a", "h"],
      "x": []},
     ("h", "b"), "a"),
], ids=["top-level", "nested"])
def test_irreducible_cycle_names_edge_and_header(succs, edge, header):
    with pytest.raises(IrreducibleLoopError) as info:
        find_loops("e", succs)
    message = str(info.value)
    assert f"edge {edge[0]!r} -> {edge[1]!r}" in message
    assert f"headed by {header!r}" in message


def test_irreducible_cycle_nested_in_a_program_loop():
    source = """
    main:
        MOVI R3, #0
    outer:
        CMPI R0, #0
        BEQ middle
    head:
        ADDI R1, R1, #1
    middle:
        ADDI R2, R2, #1
        CMPI R2, #10
        BLT head
        ADDI R3, R3, #1
        CMPI R3, #4
        BLT outer
        HALT
    """
    from repro.isa import assemble
    graph = expand_task(build_cfg(assemble(source)))
    with pytest.raises(IrreducibleLoopError):
        find_loops(graph.entry, graph.adjacency(), graph.wto())


@pytest.mark.parametrize("model", ["additive", "krisc5"])
def test_one_wto_per_task_graph(monkeypatch, model):
    # The value, I-cache, D-cache (and krisc5 pipeline) kernels and the
    # loop forest all use the graph's one cached WTO.
    from repro.cfg import expand, loops
    from repro.analysis import fixpoint

    built = []
    original = loops.weak_topological_order

    def counting(*args, **kwargs):
        built.append(args[0])
        return original(*args, **kwargs)

    for module in (loops, expand, fixpoint):
        monkeypatch.setattr(module, "weak_topological_order", counting)
    result = analyze_wcet(compile_program(generate_large_source()),
                          pipeline_model=model)
    assert len(built) == 1
    assert result.values.loop_forest is result.values.loop_forest
