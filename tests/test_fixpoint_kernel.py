"""Tests for the shared WTO fixpoint kernel.

Covers the weak topological ordering itself (including irreducible and
nested-loop graphs the natural-loop machinery cannot express), widening
placement at component heads, and determinism of the instrumentation
counters.  That the kernel's results are sound is checked by
``tests/test_postfixpoint.py``.
"""

from repro.analysis import analyze_values
from repro.analysis.fixpoint import FixpointKernel, FixpointSemantics
from repro.cfg import build_cfg, expand_task
from repro.cfg.loops import WTOComponent, WTOVertex, weak_topological_order
from repro.lang import compile_program


# -- Toy lattice for graph-shape tests ----------------------------------------
#
# Intervals over a single counter, with edges as plain (source, target,
# increment) triples.  Small enough to reason about exactly, unbounded
# enough to need widening.

TOP = (float("-inf"), float("inf"))


class CounterSemantics(FixpointSemantics):
    """State = interval of a counter; an edge adds its increment."""

    widening = True

    def __init__(self, edges):
        self.succs = {}
        for source, target, inc in edges:
            self.succs.setdefault(source, []).append(
                (source, target, inc))

    def successor_edges(self, node):
        return self.succs.get(node, [])

    def transfer(self, node, state):
        return state                    # nodes are pass-through

    def edge_state(self, edge, out):
        lo, hi = out
        inc = edge[2]
        return (lo + inc, hi + inc)

    def join(self, old, new):
        return (min(old[0], new[0]), max(old[1], new[1]))

    def widen(self, old, new):
        lo = old[0] if new[0] >= old[0] else float("-inf")
        hi = old[1] if new[1] <= old[1] else float("inf")
        return (lo, hi)

    def leq(self, a, b):
        return b[0] <= a[0] and a[1] <= b[1]

    def is_bottom(self, state):
        return False

    def copy(self, state):
        return state                    # tuples are immutable


def make_kernel(edges, entry, **kwargs):
    semantics = CounterSemantics(edges)
    return FixpointKernel(entry, semantics.successor_edges,
                          lambda e: e[1], semantics, sort_key=str,
                          predecessor_edges=None, **kwargs)


# -- Weak topological order ---------------------------------------------------


def _render(elements):
    parts = []
    for element in elements:
        if isinstance(element, WTOVertex):
            parts.append(str(element.node))
        else:
            parts.append("(" + " ".join(
                [str(element.head)] + [_render([e]) for e in
                                       element.elements]) + ")")
    return " ".join(parts)


class TestWeakTopologicalOrder:
    def test_bourdoncle_paper_example(self):
        # The example from Bourdoncle 1993, Fig. 1: expected WTO is
        # 1 2 (3 4 (5 6) 7) 8.
        succs = {1: [2], 2: [3, 8], 3: [4], 4: [5, 7], 5: [6],
                 6: [5, 7], 7: [3, 8], 8: []}
        wto = weak_topological_order(1, lambda n: succs[n],
                                     sort_key=lambda n: n)
        assert _render(wto.elements) == "1 2 (3 4 (5 6) 7) 8"
        assert wto.heads == {3, 5}
        assert wto.linear_order() == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_nested_loops(self):
        succs = {"e": ["h1"], "h1": ["h2", "x"], "h2": ["b", "h1"],
                 "b": ["h2"], "x": []}
        wto = weak_topological_order("e", lambda n: succs[n],
                                     sort_key=str)
        assert _render(wto.elements) == "e (h1 (h2 b)) x"
        assert wto.heads == {"h1", "h2"}

    def test_irreducible_graph_gets_single_component(self):
        # Cycle a<->b entered at both a and b: no natural-loop header
        # exists, but the WTO still wraps the cycle in one component.
        succs = {"e": ["a", "b"], "a": ["b", "x"], "b": ["a"], "x": []}
        wto = weak_topological_order("e", lambda n: succs[n],
                                     sort_key=str)
        components = [el for el in wto.elements
                      if isinstance(el, WTOComponent)]
        assert len(components) == 1
        body = {components[0].head} | {
            el.node for el in components[0].elements}
        assert body == {"a", "b"}

    def test_self_loop(self):
        succs = {"e": ["s"], "s": ["s", "x"], "x": []}
        wto = weak_topological_order("e", lambda n: succs[n],
                                     sort_key=str)
        assert wto.heads == {"s"}

    def test_for_every_edge_target_later_or_enclosing_head(self):
        # The defining WTO property, on a messy graph.
        succs = {1: [2, 5], 2: [3], 3: [2, 4], 4: [1, 6], 5: [6, 4],
                 6: [5]}
        wto = weak_topological_order(1, lambda n: succs[n],
                                     sort_key=lambda n: n)
        position = {n: i for i, n in enumerate(wto.linear_order())}

        def heads_containing(node, elements, chain):
            for element in elements:
                if isinstance(element, WTOVertex):
                    if element.node == node:
                        return chain
                else:
                    if element.head == node:
                        return chain + [element.head]
                    found = heads_containing(
                        node, element.elements, chain + [element.head])
                    if found is not None:
                        return found
            return None

        for source, targets in succs.items():
            enclosing = heads_containing(source, wto.elements, [])
            for target in targets:
                assert (position[source] < position[target]
                        or target in enclosing), (source, target)


# -- Kernel iteration on toy graphs -------------------------------------------


class TestKernelIteration:
    EDGES = [("e", "h", 0), ("h", "b", 1), ("b", "h", 0),
             ("h", "x", 0)]

    def test_simple_loop_with_widening_terminates(self):
        kernel = make_kernel(self.EDGES, "e", widen_delay=2)
        states = kernel.solve((0, 0))
        assert states["h"][1] == float("inf")   # widened upward
        assert states["h"][0] == 0
        assert kernel.stats.widenings >= 1

    def test_widen_delay_counts_joins_at_head(self):
        # With a huge delay the (unbounded) loop would iterate forever;
        # with delay 0 it widens on the first re-join.
        kernel = make_kernel(self.EDGES, "e", widen_delay=0)
        kernel.solve((0, 0))
        first_widen_visits = kernel.stats.widenings
        kernel2 = make_kernel(self.EDGES, "e", widen_delay=3)
        kernel2.solve((0, 0))
        assert kernel2.stats.joins > kernel.stats.joins
        assert kernel2.stats.widenings >= 1
        assert first_widen_visits >= 1

    def test_widening_only_at_component_heads(self):
        # Straight-line graph: no components, so no widenings even
        # though states change at every node.
        edges = [("a", "b", 1), ("b", "c", 1), ("c", "d", 1)]
        kernel = make_kernel(edges, "a", widen_delay=0)
        kernel.solve((0, 0))
        assert kernel.stats.wto_components == 0
        assert kernel.stats.widenings == 0

    def test_irreducible_graph_converges(self):
        edges = [("e", "a", 0), ("e", "b", 5), ("a", "b", 1),
                 ("b", "a", 1), ("a", "x", 0)]
        kernel = make_kernel(edges, "e", widen_delay=1)
        states = kernel.solve((0, 0))
        assert "x" in states
        # Sound: both cycle nodes cover the initial arrivals.
        assert states["a"][0] <= 0 and states["b"][1] >= 5

    def test_nested_loop_stabilises_inner_before_outer(self):
        # Inner loop (h2,b) nested in (h1 ...); bounded increments via
        # widening make both converge; the inner component must be
        # iterated at least once per outer iteration.
        edges = [("e", "h1", 0), ("h1", "h2", 0), ("h2", "b", 1),
                 ("b", "h2", 0), ("h2", "h1", 0), ("h1", "x", 0)]
        kernel = make_kernel(edges, "e", widen_delay=1)
        states = kernel.solve((0, 0))
        assert states["x"][1] == float("inf")
        assert kernel.stats.component_iterations >= 4


# -- Determinism --------------------------------------------------------------


class TestDeterminism:
    SOURCE = """
int data[16]; int r;
int f(int seed) {
    int i; int acc = seed;
    for (i = 0; i < 16; i = i + 1) { acc = acc + data[i]; }
    return acc;
}
void main() { int i;
for (i = 0; i < 16; i = i + 1) { data[i] = i; }
r = f(3) + f(7); }"""

    def _counters(self):
        graph = expand_task(build_cfg(compile_program(self.SOURCE)))
        values = analyze_values(graph)
        return dict(vars(values.fixpoint.stats))

    def test_counters_reproducible_across_runs(self):
        first = self._counters()
        second = self._counters()
        assert first == second
        assert first["transfers"] > 0 and first["widenings"] > 0

    def test_wto_reproducible(self):
        graph = expand_task(build_cfg(compile_program(self.SOURCE)))
        succs = graph.adjacency()
        a = weak_topological_order(graph.entry, lambda n: succs[n],
                                   graph.node_key)
        b = weak_topological_order(graph.entry, lambda n: succs[n],
                                   graph.node_key)
        assert a.elements == b.elements
        assert a.linear_order() == b.linear_order()


# -- Cache analysis runs on the shared kernel ---------------------------------


def test_cache_fixpoint_reports_kernel_stats():
    from repro.cache.analysis import analyze_icache
    from repro.cache.config import MachineConfig
    graph = expand_task(build_cfg(compile_program(
        TestDeterminism.SOURCE)))
    result = analyze_icache(graph, MachineConfig.default().icache)
    assert result.fixpoint_stats is not None
    assert result.fixpoint_stats.transfers > 0
    # Finite lattice: the kernel must not widen.
    assert result.fixpoint_stats.widenings == 0
