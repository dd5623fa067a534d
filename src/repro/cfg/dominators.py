"""Dominator computation (Cooper-Harvey-Kennedy iterative algorithm).

Works on any directed graph given as adjacency dictionaries, so it
serves both per-function CFGs and the whole-task expanded graph.
"""

from __future__ import annotations

from typing import (Dict, Hashable, Iterator, List, Optional, Set, Tuple,
                    TypeVar)

Node = TypeVar("Node", bound=Hashable)


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


def compute_dominators(entry: Node,
                       succs: Dict[Node, List[Node]]) -> Dict[Node, Node]:
    """Immediate dominators of all nodes reachable from ``entry``.

    Returns a map ``node -> idom(node)``; the entry maps to itself.
    Unreachable nodes are absent.
    """
    order = _postorder(entry, succs)
    index = {node: i for i, node in enumerate(order)}
    reverse_postorder = list(reversed(order))

    preds: Dict[Node, List[Node]] = {node: [] for node in order}
    for node in order:
        for succ in succs.get(node, []):
            if succ in preds:
                preds[succ].append(node)

    idom: Dict[Node, Optional[Node]] = {node: None for node in order}
    idom[entry] = entry

    def intersect(a: Node, b: Node) -> Node:
        while a != b:
            while index[a] < index[b]:
                a = idom[a]
            while index[b] < index[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for node in reverse_postorder:
            if node == entry:
                continue
            candidates = [p for p in preds[node] if idom[p] is not None]
            if not candidates:
                continue
            new_idom = candidates[0]
            for other in candidates[1:]:
                new_idom = intersect(other, new_idom)
            if idom[node] != new_idom:
                idom[node] = new_idom
                changed = True

    return {node: dom for node, dom in idom.items() if dom is not None}


def dominance_numbering(idom: Dict[Node, Node]
                        ) -> Tuple[Dict[Node, int], Dict[Node, int]]:
    """Euler-tour interval labels of the dominator tree.

    Returns ``(tin, tout)`` such that ``a`` dominates ``b`` iff
    ``tin[a] <= tin[b] < tout[a]`` — an O(1) query, versus an
    O(tree-depth) walk up the idom chain.  Loop detection asks one
    dominance question per CFG edge, so on deep expanded task graphs
    chain walks would dominate its runtime.
    """
    children: Dict[Node, List[Node]] = {}
    root: Optional[Node] = None
    for node, parent in idom.items():
        if parent == node:
            root = node
        else:
            children.setdefault(parent, []).append(node)
    tin: Dict[Node, int] = {}
    tout: Dict[Node, int] = {}
    if root is None:
        return tin, tout
    clock = 0
    stack: List[Tuple[Node, Iterator[Node]]] = \
        [(root, iter(children.get(root, [])))]
    tin[root] = clock
    clock += 1
    while stack:
        node, it = stack[-1]
        advanced = False
        for child in it:
            tin[child] = clock
            clock += 1
            stack.append((child, iter(children.get(child, []))))
            advanced = True
            break
        if not advanced:
            tout[node] = clock
            clock += 1
            stack.pop()
    return tin, tout
