"""Natural-loop detection and the loop nesting forest.

Loop structure drives two phases of the pipeline: loop-bound analysis
(widening points and trip-count derivation) and IPET (each loop's bound
becomes a linear constraint on its back-edge frequencies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Set, Tuple, TypeVar

from .dominators import compute_dominators, dominance_numbering

Node = TypeVar("Node", bound=Hashable)


@dataclass
class Loop:
    """A natural loop: a header plus the nodes of its body."""

    header: Node
    body: Set[Node] = field(default_factory=set)
    back_edges: List[Tuple[Node, Node]] = field(default_factory=list)
    parent: Optional["Loop"] = None
    children: List["Loop"] = field(default_factory=list)

    @property
    def depth(self) -> int:
        """Nesting depth; top-level loops have depth 1."""
        depth, loop = 0, self
        while loop is not None:
            depth += 1
            loop = loop.parent
        return depth

    def contains(self, node: Node) -> bool:
        return node in self.body

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

    def loop_of_header(self, header: Node) -> Optional[Loop]:
        return self._by_header.get(header)

    def headers(self) -> Set[Node]:
        return set(self._by_header)

    def __len__(self) -> int:
        return len(self.loops)

    def __iter__(self):
        return iter(self.loops)


def find_loops(entry: Node, succs: Dict[Node, List[Node]]) -> LoopForest:
    """Find all natural loops reachable from ``entry``.

    Back edges are edges ``t -> h`` where ``h`` dominates ``t``.  Loops
    sharing a header are merged (standard natural-loop convention).  An
    irreducible region (a cycle entered other than through its header)
    raises :class:`IrreducibleLoopError`, since bound analysis and IPET
    constraints are only well-defined for reducible flow graphs.
    """
    idom = compute_dominators(entry, succs)
    preds: Dict[Node, List[Node]] = {node: [] for node in idom}
    for node in idom:
        for succ in succs.get(node, []):
            if succ in preds:
                preds[succ].append(node)

    # One dominance query per edge: use O(1) Euler-tour labels instead
    # of walking the idom chain for each.
    tin, tout = dominance_numbering(idom)
    loops_by_header: Dict[Node, Loop] = {}
    for node in idom:
        node_tin = tin[node]
        for succ in succs.get(node, []):
            succ_tin = tin.get(succ)
            if succ_tin is not None and succ_tin <= node_tin < tout[succ]:
                loop = loops_by_header.setdefault(succ, Loop(header=succ))
                loop.back_edges.append((node, succ))
                loop.body.update(_loop_body(node, succ, preds))

    _check_reducible(entry, succs, idom, tin, tout)

    loops = list(loops_by_header.values())
    _build_nesting(loops)
    return LoopForest(loops)


class IrreducibleLoopError(ValueError):
    """The graph contains a cycle not dominated by a single header."""


def _loop_body(tail: Node, header: Node,
               preds: Dict[Node, List[Node]]) -> Set[Node]:
    body = {header}
    if tail == header:
        return body
    body.add(tail)
    stack = [tail]
    while stack:
        node = stack.pop()
        for pred in preds.get(node, []):
            if pred not in body:
                body.add(pred)
                stack.append(pred)
    return body


def _check_reducible(entry: Node, succs: Dict[Node, List[Node]],
                     idom: Dict[Node, Node],
                     tin: Dict[Node, int],
                     tout: Dict[Node, int]) -> None:
    # A graph is reducible iff removing all back edges (w.r.t. dominance)
    # leaves an acyclic graph.
    forward: Dict[Node, List[Node]] = {node: [] for node in idom}
    for node in idom:
        node_tin = tin[node]
        for succ in succs.get(node, []):
            succ_tin = tin.get(succ)
            if succ_tin is not None \
                    and not (succ_tin <= node_tin < tout[succ]):
                forward[node].append(succ)
    state: Dict[Node, int] = {}

    for start in idom:
        if state.get(start):
            continue
        stack = [(start, iter(forward[start]))]
        state[start] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for succ in it:
                if state.get(succ) == 1:
                    raise IrreducibleLoopError(
                        f"irreducible cycle through {succ!r}")
                if not state.get(succ):
                    state[succ] = 1
                    stack.append((succ, iter(forward[succ])))
                    advanced = True
                    break
            if not advanced:
                state[node] = 2
                stack.pop()


def _build_nesting(loops: List[Loop]) -> None:
    # Smaller bodies nest inside larger ones; ties cannot happen because
    # loops with the same header were merged.
    by_size = sorted(loops, key=lambda loop: len(loop.body))
    for i, inner in enumerate(by_size):
        for outer in by_size[i + 1:]:
            if inner.header in outer.body and inner is not outer:
                inner.parent = outer
                outer.children.append(inner)
                break
