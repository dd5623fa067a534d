"""Shared WTO fixpoint kernel for the whole analysis pipeline.

Value analysis (:mod:`repro.analysis.solver`), cache analysis
(:mod:`repro.cache.analysis`) and the krisc5 pipeline-state analysis
(:mod:`repro.pipeline.analysis`) are chaotic-iteration fixpoints over
the same expanded task graph.  This module provides the one engine they
run on:

* **Weak topological ordering** (Bourdoncle 1993, built in
  :mod:`repro.cfg.loops`): a hierarchical ordering of the graph whose
  components are the cyclic regions.  A task graph computes its WTO
  once (:meth:`~repro.cfg.expand.TaskGraph.wto`); every phase iterates
  on it, and the loop forest of loop-bound analysis and IPET is read
  off it.  Irreducible graphs are handled too (any cycle entered other
  than through its head still ends up inside a component); only the
  loop forest needs a reducible graph.
* **Recursive iteration strategy**: inner components are stabilised
  before the enclosing component is re-entered, and nodes inside a
  component are visited in (weak) topological order, so no downstream
  node is re-transferred while an upstream loop is still growing.
* **Widening only at component heads** — the minimal set of widening
  points that guarantees termination.
* **Out-state caching**: the transfer of a node is recomputed only when
  its entry state actually changed (tracked by a version counter), so
  stabilisation checks and narrowing passes cost almost no transfers.

The kernel is domain-agnostic: it talks to the abstract domain through
a small :class:`FixpointSemantics` adapter and to the graph through
callables, so it works for abstract machine states, abstract cache
states, and the toy lattices used in its unit tests alike.  All work is
instrumented through :class:`FixpointStats`, which the benchmark
harness (``benchmarks/run_perf.py``) records into
``BENCH_fixpoint.json`` as a regression guard.

:func:`check_postfixpoint` checks a kernel's result without replaying
the iteration that produced it: an entry map is sound when it covers
the task entry state and every state its own transfers send along a
feasible edge (Cousot & Cousot's post-fixpoint condition).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Optional,
                    Sequence, Tuple)

from ..cfg.loops import (WeakTopologicalOrder, WTOComponent, WTOVertex,
                         weak_topological_order)

#: Safety valve on the transfer evaluations of one kernel run (value
#: analysis runs the most; cache fixpoints are far smaller).
MAX_TRANSFERS = 2_000_000


# -- Instrumentation -----------------------------------------------------------


@dataclass
class FixpointStats:
    """Work counters for one fixpoint run.

    ``transfers`` counts *every* transfer-function evaluation, including
    the ones spent in narrowing passes, so the number is a reproducible
    cost measure usable as a CI guard.
    Like every work-counter record, its fields are exactly what it
    reports: rows, ``run_perf.py`` and the text report read it as
    ``vars(stats)``.
    """

    transfers: int = 0
    joins: int = 0
    widenings: int = 0
    narrowings: int = 0
    leq_calls: int = 0
    copies: int = 0
    component_iterations: int = 0
    wto_components: int = 0


# -- Semantics adapter ---------------------------------------------------------


class FixpointSemantics:
    """What the kernel needs to know about an abstract domain.

    Subclasses override the hooks; ``transfer`` must return a *fresh*
    state (it may not mutate its input — the value and cache transfers
    copy at block boundaries, which is O(1) under copy-on-write states).
    """

    #: Whether widening is required for termination (infinite-height
    #: domains).  Finite lattices (abstract caches) leave this False.
    widening: bool = False

    def transfer(self, node: Any, state: Any) -> Any:
        raise NotImplementedError

    def edge_state(self, edge: Any, out_state: Any) -> Optional[Any]:
        """Specialise a node's out-state for one outgoing edge (e.g.
        branch-condition refinement).  ``None`` means the edge is
        infeasible."""
        return out_state

    def join(self, old: Any, new: Any) -> Any:
        return old.join(new)

    def widen(self, old: Any, new: Any) -> Any:
        return old.widen(new)

    def narrow(self, old: Any, new: Any) -> Any:
        return old.narrow(new)

    def leq(self, a: Any, b: Any) -> bool:
        return a.leq(b)

    def is_bottom(self, state: Any) -> bool:
        return state.is_bottom()

    def copy(self, state: Any) -> Any:
        return state.copy()


# -- The kernel ----------------------------------------------------------------


class FixpointKernel:
    """WTO-driven fixpoint iteration with cached out-states.

    Parameters
    ----------
    entry:
        The unique start node; its state is supplied to :meth:`solve`.
    successor_edges / edge_target:
        Graph access.  Edges are opaque to the kernel (the semantics
        adapter interprets them in :meth:`FixpointSemantics.edge_state`).
    predecessor_edges / edge_source:
        Only required for :meth:`narrow` (descending passes).
    widen_delay:
        Joins absorbed at a component head before widening kicks in.
    sort_key:
        Node ordering for deterministic successor visits and WTO
        construction; defaults to the graph's insertion order.
    wto:
        The graph's weak topological order, built with the same
        ``sort_key`` — a task graph's cached
        :meth:`~repro.cfg.expand.TaskGraph.wto`, which every phase
        shares.  Built here for any other graph.
    """

    def __init__(self, entry: Any,
                 successor_edges: Callable[[Any], Iterable[Any]],
                 edge_target: Callable[[Any], Any],
                 semantics: FixpointSemantics, *,
                 widen_delay: int = 0,
                 sort_key: Optional[Callable[[Any], Any]] = None,
                 predecessor_edges: Optional[
                     Callable[[Any], Iterable[Any]]] = None,
                 edge_source: Optional[Callable[[Any], Any]] = None,
                 wto: Optional[WeakTopologicalOrder] = None):
        self.entry = entry
        self.semantics = semantics
        self.widen_delay = widen_delay
        self._edge_target = edge_target
        self._edge_source = edge_source
        self._predecessor_edges = predecessor_edges
        self._sort_key = sort_key
        if sort_key is None:
            self._succ_edges = successor_edges
        else:
            edge_key = lambda e: sort_key(edge_target(e))
            cache: Dict[Any, List[Any]] = {}

            def sorted_edges(node: Any) -> List[Any]:
                edges = cache.get(node)
                if edges is None:
                    edges = sorted(successor_edges(node), key=edge_key)
                    cache[node] = edges
                return edges
            self._succ_edges = sorted_edges
        if wto is None:
            # The WTO walks targets of the (already sorted) edge cache,
            # so successors are enumerated and ordered once per node.
            wto = weak_topological_order(
                entry,
                lambda n: [edge_target(e) for e in self._succ_edges(n)])
        self.wto = wto
        self.stats = FixpointStats(wto_components=self.wto.component_count)
        self._entries: Dict[Any, Any] = {}
        self._versions: Dict[Any, int] = {}
        self._out_cache: Dict[Any, Tuple[int, Any]] = {}
        self._head_visits: Dict[Any, int] = {}

    # -- State bookkeeping -------------------------------------------------

    @property
    def entry_states(self) -> Dict[Any, Any]:
        return self._entries

    def _bump(self, node: Any) -> None:
        self._versions[node] = self._versions.get(node, 0) + 1

    def out_state(self, node: Any) -> Optional[Any]:
        """The node's out-state, recomputed only when its entry state
        changed since the last transfer (the version fast path)."""
        entry = self._entries.get(node)
        if entry is None or self.semantics.is_bottom(entry):
            return None
        version = self._versions.get(node, 0)
        cached = self._out_cache.get(node)
        if cached is not None and cached[0] == version:
            return cached[1]
        out = self.semantics.transfer(node, entry)
        self.stats.transfers += 1
        if self.stats.transfers > MAX_TRANSFERS:
            raise RuntimeError("fixpoint exceeded transfer budget")
        self._out_cache[node] = (version, out)
        return out

    # -- Ascending phase ---------------------------------------------------

    def solve(self, entry_state: Any) -> Dict[Any, Any]:
        """Run the ascending iteration to a (post-)fixpoint and return
        the entry-state map."""
        self._entries[self.entry] = entry_state
        self._bump(self.entry)
        for element in self.wto.elements:
            self._run_element(element)
        return self._entries

    def _run_element(self, element: Any) -> None:
        if isinstance(element, WTOVertex):
            self._process(element.node)
        else:
            self._stabilize(element)

    def _stabilize(self, component: WTOComponent) -> None:
        """Iterate a component until its head's entry state is stable.

        Every cycle inside the component passes through its head (or
        the head of a nested component, stabilised recursively), so an
        unchanged head entry after a full sweep means the whole
        component is at a fixpoint.
        """
        head = component.head
        while True:
            before = self._versions.get(head, 0)
            self.stats.component_iterations += 1
            self._process(head)
            for element in component.elements:
                self._run_element(element)
            if self._versions.get(head, 0) == before:
                return

    def _process(self, node: Any) -> None:
        out = self.out_state(node)
        if out is None:
            return
        semantics = self.semantics
        heads = self.wto.heads
        for edge in self._succ_edges(node):
            state = semantics.edge_state(edge, out)
            if state is None or semantics.is_bottom(state):
                continue
            target = self._edge_target(edge)
            old = self._entries.get(target)
            if old is None:
                self._entries[target] = semantics.copy(state)
                self.stats.copies += 1
                self._bump(target)
                continue
            new = semantics.join(old, state)
            self.stats.joins += 1
            if semantics.widening and target in heads:
                count = self._head_visits.get(target, 0) + 1
                self._head_visits[target] = count
                if count > self.widen_delay:
                    new = semantics.widen(old, new)
                    self.stats.widenings += 1
            self.stats.leq_calls += 1
            if not semantics.leq(new, old):
                self._entries[target] = new
                self._bump(target)

    # -- Descending phase --------------------------------------------------

    def narrow(self, passes: int,
               entry_inputs: Callable[[Any], List[Any]],
               order: Optional[Sequence[Any]] = None) -> int:
        """Bounded narrowing: recompute each node's entry as the join of
        its predecessors' (cached) out-states, narrowed against the
        ascending result.  Returns the number of passes that changed
        anything.

        Because out-states are cached by entry-state version, a pass
        only pays transfers for nodes whose predecessors actually
        changed — the historical per-edge recomputation is gone.
        """
        if self._predecessor_edges is None or self._edge_source is None:
            raise ValueError("narrowing requires predecessor access")
        semantics = self.semantics
        if order is None:
            order = self.wto.linear_order()
        effective = 0
        for _ in range(passes):
            changed = False
            for node in order:
                current = self._entries.get(node)
                if current is None:
                    continue
                incoming = list(entry_inputs(node))
                for edge in self._predecessor_edges(node):
                    out = self.out_state(self._edge_source(edge))
                    if out is None:
                        continue
                    state = semantics.edge_state(edge, out)
                    if state is None or semantics.is_bottom(state):
                        continue
                    incoming.append(state)
                if not incoming:
                    continue
                joined = incoming[0]
                for other in incoming[1:]:
                    joined = semantics.join(joined, other)
                    self.stats.joins += 1
                narrowed = semantics.narrow(current, joined)
                self.stats.narrowings += 1
                self.stats.leq_calls += 2
                if not (semantics.leq(current, narrowed)
                        and semantics.leq(narrowed, current)):
                    self._entries[node] = narrowed
                    self._bump(node)
                    changed = True
            if not changed:
                break
            effective += 1
        return effective


# -- Post-fixpoint check -------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One obligation an entry map fails: the state reaching ``node``
    along ``edge`` (``None`` for the task entry state) is not covered
    by the map's entry state of ``node``."""

    node: Any
    edge: Optional[Any] = None


def check_postfixpoint(semantics: FixpointSemantics, graph: Any,
                       entry_state: Any,
                       entries: Dict[Any, Any]) -> List[Violation]:
    """Every obligation ``entries`` fails as an inductive invariant of
    ``semantics`` over ``graph`` (a :class:`~repro.cfg.expand.TaskGraph`);
    an empty list means the map is sound.

    The obligations are ``entry_state ⊑ entries[graph.entry]`` and, for
    each node ``n`` the map reaches and each edge ``n -> m`` that stays
    feasible, ``edge_state(transfer(n, entries[n])) ⊑ entries[m]``.
    They hold whatever strategy, widening, narrowing or caching
    produced the map, so none of it is replayed: the check costs one
    transfer per reached node and one ``leq`` per feasible edge.
    """
    violations: List[Violation] = []
    held = entries.get(graph.entry)
    if held is None or not semantics.leq(entry_state, held):
        violations.append(Violation(graph.entry))
    for node, state in entries.items():
        if semantics.is_bottom(state):
            continue
        out = semantics.transfer(node, state)
        for edge in graph.successors(node):
            flowing = semantics.edge_state(edge, out)
            if flowing is None or semantics.is_bottom(flowing):
                continue
            held = entries.get(edge.target)
            if held is None or not semantics.leq(flowing, held):
                violations.append(Violation(edge.target, edge))
    return violations
