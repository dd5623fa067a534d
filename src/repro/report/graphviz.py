"""Annotated control-flow graph export in DOT format.

Stands in for aiT's aiSee/GDL visualisation: each task-graph node shows
its block address, call context, worst-case cycles, and worst-case
execution count; edges show their kind and any extra cycles.  Render
with ``dot -Tsvg``.
"""

from __future__ import annotations

from typing import List

from ..cfg.graph import EdgeKind
from ..wcet.ait import WCETResult

_EDGE_STYLES = {
    EdgeKind.FALLTHROUGH: ("solid", "black"),
    EdgeKind.TAKEN: ("solid", "blue"),
    EdgeKind.CALL: ("dashed", "darkgreen"),
    EdgeKind.RETURN: ("dashed", "purple"),
}


def _node_id(node) -> str:
    context = "_".join(f"{c:x}" for c in node.context.calls)
    iters = "_".join(f"{header:x}i{phase}"
                     for header, phase in node.context.iters)
    return f"n{context}_{iters}_{node.block:x}"


def wcet_dot(result: WCETResult, include_instructions: bool = False) -> str:
    """Render the task graph with WCET annotations as a DOT digraph."""
    lines: List[str] = []
    out = lines.append
    out("digraph wcet {")
    out('  node [shape=box, fontname="monospace", fontsize=10];')
    out(f'  graph [rankdir=TB, labelloc=t, '
        f'label="WCET {result.wcet_cycles} cyc '
        f'({result.timing.model} timing model, '
        f'{result.graph.policy.describe()})"];')

    counts = result.path.path.node_counts
    on_path = set(counts)
    for node in result.graph.nodes():
        block = result.graph.blocks[node]
        cost = result.timing.block_cost(node)
        count = counts.get(node, 0)
        context = node.context.label
        label_lines = [
            f"0x{block.start:x} [{result.graph.function_name(node)}]",
            f"ctx {context}",
            f"{cost} cyc x {count}",
        ]
        if include_instructions:
            label_lines.extend(str(instr) for instr in block)
        label = "\\l".join(label_lines) + "\\l"
        color = "red" if node in on_path and count > 0 else "gray"
        penwidth = "2.0" if count > 0 else "1.0"
        out(f'  {_node_id(node)} [label="{label}", color={color}, '
            f'penwidth={penwidth}];')

    edge_counts = result.path.path.edge_counts
    for node in result.graph.nodes():
        for edge in result.graph.successors(node):
            style, color = _EDGE_STYLES[edge.kind]
            key = (edge.source, edge.target, edge.kind)
            count = edge_counts.get(key, 0)
            extra = result.timing.edges.get(key, 0)
            label = f"{count}"
            if extra:
                label += f" (+{extra} cyc)"
            if edge.cond is not None:
                label += f" [{edge.cond.name}]"
            out(f'  {_node_id(edge.source)} -> {_node_id(edge.target)} '
                f'[style={style}, color={color}, label="{label}"];')
    out("}")
    return "\n".join(lines) + "\n"
