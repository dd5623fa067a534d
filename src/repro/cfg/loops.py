"""Loop structure: the weak topological order and the loop nesting
forest read off it.

Every fixpoint of the pipeline iterates on Bourdoncle's **weak
topological order** (WTO; "Efficient chaotic iteration strategies with
widenings", 1993): a hierarchical ordering of the graph whose
components are its cyclic regions.  On a reducible graph those
components are exactly the natural loops (a component's head is the
loop header, its members are the body, and component nesting is loop
nesting), so :func:`find_loops` reads the :class:`LoopForest` off the
WTO instead of running a loop detection of its own.

Loop structure drives VIVU loop peeling (context expansion),
loop-bound analysis (trip-count derivation) and IPET (each loop's bound
becomes a linear constraint on its back-edge frequencies).  Only they
need a reducible graph; the WTO kernel converges on any graph, so
value, cache and pipeline analysis, and the stack bound, run on
irreducible ones too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Hashable, Iterable, List,
                    Optional, Sequence, Set, Tuple, TypeVar)

Node = TypeVar("Node", bound=Hashable)


# -- Weak topological ordering -------------------------------------------------


@dataclass(frozen=True)
class WTOVertex:
    """A trivial (acyclic) element of a weak topological order."""

    node: Any


@dataclass(frozen=True)
class WTOComponent:
    """A cyclic element: head followed by the nested sub-ordering."""

    head: Any
    elements: Tuple[Any, ...]


class WeakTopologicalOrder:
    """Bourdoncle's hierarchical ordering of a directed graph.

    For every edge ``u -> v`` either ``v`` occurs after ``u`` in the
    linearisation, or ``v`` is the head of a component containing
    ``u`` — which is exactly what makes the recursive iteration
    strategy's stabilisation check (head unchanged => component stable)
    sound.
    """

    def __init__(self, elements: Sequence[Any]):
        self.elements: Tuple[Any, ...] = tuple(elements)
        self._heads: Set[Any] = set()
        self._linear: List[Any] = []
        self._component_count = 0
        self._flatten(self.elements)

    def _flatten(self, elements: Iterable[Any]) -> None:
        for element in elements:
            if isinstance(element, WTOVertex):
                self._linear.append(element.node)
            else:
                self._component_count += 1
                self._heads.add(element.head)
                self._linear.append(element.head)
                self._flatten(element.elements)

    @property
    def heads(self) -> Set[Any]:
        """Component heads — the widening points."""
        return self._heads

    def linear_order(self) -> List[Any]:
        """The total order underlying the WTO (heads precede bodies)."""
        return list(self._linear)

    @property
    def component_count(self) -> int:
        return self._component_count

    def __repr__(self) -> str:
        return (f"WeakTopologicalOrder({len(self._linear)} nodes, "
                f"{self._component_count} components)")


def weak_topological_order(entry: Any,
                           successors: Callable[[Any], Iterable[Any]],
                           sort_key: Optional[Callable[[Any], Any]] = None
                           ) -> WeakTopologicalOrder:
    """Compute Bourdoncle's WTO of the graph reachable from ``entry``.

    This is the classic algorithm built on Tarjan's SCC numbering,
    converted to an explicit stack so deep graphs cannot overflow the
    Python recursion limit.  ``sort_key`` fixes the successor visit
    order, making the resulting WTO (and therefore every counter of a
    kernel run) deterministic across runs.
    """
    succs_cache: Dict[Any, List[Any]] = {}

    def succs(v: Any) -> List[Any]:
        cached = succs_cache.get(v)
        if cached is None:
            cached = list(successors(v))
            if sort_key is not None:
                cached.sort(key=sort_key)
            succs_cache[v] = cached
        return cached

    INFINITE = float("inf")
    dfn: Dict[Any, Any] = {}
    num = 0
    vertex_stack: List[Any] = []
    top: List[Any] = []   # top-level partition, built back-to-front

    # Explicit call stack.  A frame is a mutable list:
    #   [node, succ_iterator, head, loop_flag, partition, mode, sub]
    # mode "visit" is Bourdoncle's visit(); mode "component" re-visits
    # the just-popped component members into the fresh ``sub`` list.
    VISIT, COMPONENT = 0, 1
    frames: List[list] = []

    def push_visit(v: Any, partition: List[Any]) -> None:
        nonlocal num
        num += 1
        dfn[v] = num
        vertex_stack.append(v)
        frames.append([v, iter(succs(v)), num, False, partition,
                       VISIT, None])

    push_visit(entry, top)
    returned: Optional[Any] = None
    while frames:
        frame = frames[-1]
        v, it, partition, mode = frame[0], frame[1], frame[4], frame[5]
        if mode == VISIT:
            if returned is not None:
                if returned <= frame[2]:
                    frame[2] = returned
                    frame[3] = True
                returned = None
            descended = False
            for w in it:
                d = dfn.get(w, 0)
                if d == 0:
                    push_visit(w, partition)
                    descended = True
                    break
                if d <= frame[2]:
                    frame[2] = d
                    frame[3] = True
            if descended:
                continue
            head, loop = frame[2], frame[3]
            if head == dfn[v]:
                dfn[v] = INFINITE
                element = vertex_stack.pop()
                if loop:
                    while element != v:
                        dfn[element] = 0
                        element = vertex_stack.pop()
                    frame[1] = iter(succs(v))
                    frame[5] = COMPONENT
                    frame[6] = []
                    continue
                partition.append(WTOVertex(v))
            frames.pop()
            returned = head
        else:
            returned = None   # sub-visit return values are ignored
            sub = frame[6]
            descended = False
            for w in it:
                if dfn.get(w, 0) == 0:
                    push_visit(w, sub)
                    descended = True
                    break
            if descended:
                continue
            sub.reverse()
            partition.append(WTOComponent(v, tuple(sub)))
            frames.pop()
            returned = frame[2]

    top.reverse()
    return WeakTopologicalOrder(top)


# -- The loop nesting forest ---------------------------------------------------


@dataclass
class Loop:
    """A natural loop: a header plus the nodes of its body."""

    header: Node
    body: Set[Node] = field(default_factory=set)
    back_edges: List[Tuple[Node, Node]] = field(default_factory=list)
    #: The innermost enclosing loop.  Loops link only outward, so a
    #: forest holds no reference cycle and is freed by reference
    #: counting.
    parent: Optional["Loop"] = None

    @property
    def depth(self) -> int:
        """Nesting depth; top-level loops have depth 1."""
        depth, loop = 0, self
        while loop is not None:
            depth += 1
            loop = loop.parent
        return depth

    def exit_edges(self, succs: Dict[Node, List[Node]]
                   ) -> List[Tuple[Node, Node]]:
        """Edges leaving the loop body."""
        return [(node, succ) for node in self.body
                for succ in succs.get(node, []) if succ not in self.body]

    def __repr__(self) -> str:
        return (f"Loop(header={self.header!r}, |body|={len(self.body)}, "
                f"depth={self.depth})")


class LoopForest:
    """All natural loops of a graph, organised by nesting."""

    def __init__(self, loops: List[Loop]):
        self.loops = loops
        self._by_header = {loop.header: loop for loop in loops}
        self._outer_headers = {loop.parent.header for loop in loops
                               if loop.parent is not None}

    def loop_of_header(self, header: Node) -> Optional[Loop]:
        return self._by_header.get(header)

    def is_innermost(self, loop: Loop) -> bool:
        """Whether no loop of the forest nests inside ``loop``."""
        return loop.header not in self._outer_headers

    def __len__(self) -> int:
        return len(self.loops)

    def __iter__(self):
        return iter(self.loops)


class IrreducibleLoopError(ValueError):
    """The graph has a cycle entered other than through one header, so
    it has no natural-loop forest.  Loop peeling, loop-bound analysis
    and IPET need that forest; the fixpoint phases do not."""


def find_loops(entry: Node, succs: Dict[Node, List[Node]],
               wto: Optional[WeakTopologicalOrder] = None) -> LoopForest:
    """All natural loops reachable from ``entry``, read off ``wto``.

    ``wto`` is the weak topological order of the same graph from
    ``entry`` (in any successor order, e.g. a task graph's cached
    :meth:`~repro.cfg.expand.TaskGraph.wto`); it is built here when
    not given.  Each component is one loop: its head is the header,
    its members (nested components included) are the body, the
    enclosing component is the parent loop, and the body's edges to
    the header are the back edges.  Loops and back edges come in a
    fixed order: nodes in DFS postorder from ``entry``, each node's
    successors in ``succs`` order, and a loop when its first back edge
    is met.

    An edge that enters a component other than through its head raises
    :class:`IrreducibleLoopError` naming the edge and the header.
    """
    if wto is None:
        wto = weak_topological_order(entry, lambda node: succs.get(node, ()))
    position: Dict[Node, int] = {}
    end: Dict[Node, int] = {}
    enclosing: Dict[Node, Optional[Node]] = {}
    _number(wto.elements, None, position, end, enclosing)
    linear = list(position)

    loops: Dict[Node, Loop] = {}
    for node in _postorder(entry, succs):
        at = position[node]
        for succ in succs.get(node, ()):
            outer = enclosing[succ]
            if outer is not None and not position[outer] <= at < end[outer]:
                raise IrreducibleLoopError(
                    f"irreducible loop: edge {node!r} -> {succ!r} enters "
                    f"the loop headed by {outer!r} other than through its "
                    f"header")
            stop = end.get(succ)
            if stop is not None and position[succ] <= at < stop:
                loop = loops.get(succ)
                if loop is None:
                    loop = loops[succ] = Loop(
                        succ, set(linear[position[succ]:stop]))
                loop.back_edges.append((node, succ))

    forest = list(loops.values())
    for loop in forest:
        outer = enclosing[loop.header]
        if outer is not None:
            loop.parent = loops[outer]
    return LoopForest(forest)


def _number(elements: Sequence[Any], outer: Optional[Node],
            position: Dict[Node, int], end: Dict[Node, int],
            enclosing: Dict[Node, Optional[Node]]) -> None:
    """Number the WTO ``elements`` nested in the component headed by
    ``outer``.  Each component occupies a contiguous run of the WTO's
    linear order: head ``h`` spans positions [position[h], end[h]).
    ``enclosing`` maps every node to the head of the innermost
    component holding it other than the one it heads (None at top
    level)."""
    for element in elements:
        component = isinstance(element, WTOComponent)
        node = element.head if component else element.node
        position[node] = len(position)
        enclosing[node] = outer
        if component:
            _number(element.elements, node, position, end, enclosing)
            end[node] = len(position)


def _postorder(entry: Node, succs: Dict[Node, List[Node]]) -> List[Node]:
    order: List[Node] = []
    visited: Set[Node] = {entry}
    stack = [(entry, iter(succs.get(entry, [])))]
    while stack:
        node, it = stack[-1]
        advanced = False
        for succ in it:
            if succ not in visited:
                visited.add(succ)
                stack.append((succ, iter(succs.get(succ, []))))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    return order
