"""Control-flow graph data structures.

The CFG layer mirrors aiT's first phase: starting from the raw binary, it
recovers basic blocks, intra-procedural edges, and the call graph.  Two
graph levels exist:

* :class:`FunctionCFG` — one per function, blocks keyed by start address.
  Calls are *summarised*: a block ending in ``BL`` has a fall-through
  edge to the return site, and the call target is recorded on the block.
* :class:`TaskGraph` (see :mod:`repro.cfg.expand`) — the whole-task,
  context-expanded supergraph on which the value/cache/pipeline analyses
  and IPET run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..isa.instructions import Cond, Instruction, Opcode


class EdgeKind(enum.Enum):
    """Why control may flow along an edge."""

    FALLTHROUGH = "fallthrough"   # sequential successor
    TAKEN = "taken"               # conditional/unconditional branch taken
    CALL = "call"                 # BL/BLR into a callee (TaskGraph only)
    RETURN = "return"             # RET back to the return site (TaskGraph)


@dataclass(frozen=True)
class Edge:
    """A directed CFG edge."""

    source: int
    target: int
    kind: EdgeKind
    #: For TAKEN/FALLTHROUGH edges out of a conditional branch, the
    #: condition that must hold for this edge to be taken (used by value
    #: analysis to refine states per branch outcome).
    cond: Optional[Cond] = None


class BasicBlock:
    """A maximal straight-line instruction sequence."""

    def __init__(self, start: int, instructions: List[Instruction]):
        if not instructions:
            raise ValueError("basic block must contain instructions")
        self.start = start
        self.instructions = list(instructions)

    @property
    def end(self) -> int:
        """One past the last byte of the block."""
        return self.instructions[-1].address + 4

    @property
    def last(self) -> Instruction:
        return self.instructions[-1]

    @property
    def is_call_block(self) -> bool:
        return self.last.is_call

    @property
    def is_return_block(self) -> bool:
        return self.last.is_return

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __repr__(self) -> str:
        return (f"BasicBlock(0x{self.start:x}..0x{self.end - 4:x}, "
                f"{len(self)} instrs)")


class FunctionCFG:
    """The control-flow graph of a single function."""

    def __init__(self, name: str, entry: int):
        self.name = name
        self.entry = entry
        self.blocks: Dict[int, BasicBlock] = {}
        self._succs: Dict[int, List[Edge]] = {}
        self._preds: Dict[int, List[Edge]] = {}

    def add_block(self, block: BasicBlock) -> None:
        if block.start in self.blocks:
            raise ValueError(f"duplicate block at 0x{block.start:x}")
        self.blocks[block.start] = block
        self._succs.setdefault(block.start, [])
        self._preds.setdefault(block.start, [])

    def add_edge(self, edge: Edge) -> None:
        if edge.source not in self.blocks:
            raise ValueError(f"edge from unknown block 0x{edge.source:x}")
        if edge.target not in self.blocks:
            raise ValueError(f"edge to unknown block 0x{edge.target:x}")
        self._succs[edge.source].append(edge)
        self._preds[edge.target].append(edge)

    def successors(self, start: int) -> List[Edge]:
        return self._succs[start]

    def predecessors(self, start: int) -> List[Edge]:
        return self._preds[start]

    def exit_blocks(self) -> List[BasicBlock]:
        """Blocks that leave the function (RET or HALT)."""
        return [block for block in self.blocks.values()
                if block.is_return_block
                or block.last.opcode is Opcode.HALT]

    def call_sites(self) -> List[BasicBlock]:
        """Blocks ending in a call, in address order."""
        return sorted((b for b in self.blocks.values() if b.is_call_block),
                      key=lambda b: b.start)

    def instruction_count(self) -> int:
        return sum(len(block) for block in self.blocks.values())

    def __repr__(self) -> str:
        return (f"FunctionCFG({self.name!r}, entry=0x{self.entry:x}, "
                f"{len(self.blocks)} blocks)")


@dataclass
class CallGraph:
    """Who calls whom, with call-site granularity."""

    #: function entry -> list of (call site address, callee entry)
    calls: Dict[int, List[Tuple[int, int]]] = field(default_factory=dict)
    #: function entry -> name
    names: Dict[int, str] = field(default_factory=dict)

    def add_function(self, entry: int, name: str) -> None:
        self.calls.setdefault(entry, [])
        self.names[entry] = name

    def add_call(self, caller: int, site: int, callee: int) -> None:
        self.calls.setdefault(caller, []).append((site, callee))

    def callees(self, entry: int) -> List[int]:
        return [callee for _, callee in self.calls.get(entry, [])]

    def topological_order(self, root: int) -> List[int]:
        """Callees-first order of functions reachable from ``root``.

        Raises :class:`RecursionError` on call-graph cycles (recursion is
        outside the supported program class, as in most WCET tools).
        """
        order: List[int] = []
        done: Set[int] = set()
        # Depth-first over an explicit stack: the call chain down to the
        # function being visited, and each one's callees left to visit.
        chain, pending = [root], [iter(self.callees(root))]
        while chain:
            callee = next((f for f in pending[-1] if f not in done), None)
            if callee is None:
                pending.pop()
                done.add(chain[-1])
                order.append(chain.pop())
            elif callee in chain:
                names = " -> ".join(self.names.get(f, hex(f))
                                    for f in chain + [callee])
                raise RecursionError(
                    f"recursive call cycle not supported: {names}")
            else:
                chain.append(callee)
                pending.append(iter(self.callees(callee)))
        return order
