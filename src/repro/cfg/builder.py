"""CFG reconstruction from KRISC binaries.

This is phase 1 of the aiT pipeline: "CFG building decodes, i.e.
identifies instructions, and reconstructs the control-flow graph (CFG)
from a binary program".  Reconstruction is recursive-descent: starting
from the program entry, instructions are decoded on demand and control
flow is followed, so data interleaved in the text section is never
misinterpreted as code.

Indirect branches (``BR``/``BLR``) cannot be resolved from the binary
alone.  Like aiT, the builder accepts user *annotations* mapping an
indirect branch address to its possible targets; an unannotated indirect
branch is a hard reconstruction error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..isa.encoding import DecodingError
from ..isa.instructions import Instruction, Opcode
from ..isa.program import Program
from .graph import BasicBlock, CallGraph, Edge, EdgeKind, FunctionCFG


class CFGError(ValueError):
    """The binary's control flow cannot be reconstructed."""


@dataclass
class BinaryCFG:
    """Reconstruction result: per-function CFGs plus the call graph."""

    program: Program
    functions: Dict[int, FunctionCFG]
    call_graph: CallGraph
    entry: int

    @property
    def entry_function(self) -> FunctionCFG:
        return self.functions[self.entry]

    def total_blocks(self) -> int:
        return sum(len(f.blocks) for f in self.functions.values())

    def total_instructions(self) -> int:
        return sum(f.instruction_count() for f in self.functions.values())


class CFGBuilder:
    """Recursive-descent CFG reconstruction."""

    def __init__(self, program: Program,
                 indirect_targets: Optional[Dict[int, Sequence[int]]] = None):
        self.program = program
        self.indirect_targets = {
            addr: list(targets)
            for addr, targets in (indirect_targets or {}).items()}

    def build(self, entry: Optional[int] = None) -> BinaryCFG:
        """Reconstruct all functions reachable from ``entry``."""
        root = self.program.entry if entry is None else entry
        call_graph = CallGraph()
        functions: Dict[int, FunctionCFG] = {}
        pending = [root]
        seen: Set[int] = set()
        while pending:
            func_entry = pending.pop()
            if func_entry in seen:
                continue
            seen.add(func_entry)
            cfg, callees = self._build_function(func_entry)
            functions[func_entry] = cfg
            call_graph.add_function(func_entry, cfg.name)
            for site, callee in callees:
                call_graph.add_call(func_entry, site, callee)
                pending.append(callee)
        return BinaryCFG(self.program, functions, call_graph, root)

    # -- Single function ---------------------------------------------------

    def _build_function(self, entry: int
                        ) -> Tuple[FunctionCFG, List[Tuple[int, int]]]:
        name = self.program.symbol_at(entry) or f"func_0x{entry:x}"
        instructions = self._explore(entry, name)
        leaders = self._find_leaders(entry, instructions)
        cfg = FunctionCFG(name, entry)
        blocks = self._form_blocks(instructions, leaders)
        for block in blocks:
            cfg.add_block(block)
        callees = self._connect(cfg, blocks)
        return cfg, callees

    def _decode(self, address: int, where: str) -> Instruction:
        if not self.program.is_code_address(address):
            raise CFGError(
                f"{where}: control flows to non-code address 0x{address:x}")
        try:
            return self.program.instruction_at(address)
        except DecodingError as exc:
            raise CFGError(
                f"{where}: undecodable instruction at 0x{address:x}: {exc}"
            ) from exc

    def _explore(self, entry: int, name: str) -> Dict[int, Instruction]:
        """Decode every address intraprocedurally reachable from ``entry``."""
        instructions: Dict[int, Instruction] = {}
        worklist = [entry]
        while worklist:
            address = worklist.pop()
            if address in instructions:
                continue
            instr = self._decode(address, name)
            instructions[address] = instr
            worklist.extend(self._intra_successors(instr, name))
        return instructions

    def _intra_successors(self, instr: Instruction, name: str) -> List[int]:
        """Addresses control may reach next, staying inside the function."""
        address = instr.address
        op = instr.opcode
        if op is Opcode.B:
            return [instr.branch_target()]
        if op is Opcode.BCC:
            return [instr.branch_target(), address + 4]
        if op in (Opcode.RET, Opcode.HALT):
            return []
        if op is Opcode.BR:
            targets = self.indirect_targets.get(address)
            if targets is None:
                raise CFGError(
                    f"{name}: unannotated indirect branch at 0x{address:x}")
            return list(targets)
        # BL/BLR: execution continues at the return site; the callee is
        # handled through the call graph.
        return [address + 4]

    def _find_leaders(self, entry: int,
                      instructions: Dict[int, Instruction]) -> Set[int]:
        leaders = {entry}
        for address, instr in instructions.items():
            if not instr.is_control_flow:
                continue
            successor = address + 4
            if successor in instructions:
                leaders.add(successor)
            target = instr.branch_target()
            if target is not None and instr.opcode is not Opcode.BL \
                    and target in instructions:
                leaders.add(target)
            if instr.opcode is Opcode.BR:
                for t in self.indirect_targets.get(address, []):
                    leaders.add(t)
        return leaders

    def _form_blocks(self, instructions: Dict[int, Instruction],
                     leaders: Set[int]) -> List[BasicBlock]:
        blocks: List[BasicBlock] = []
        for leader in sorted(leaders):
            body = []
            address = leader
            while address in instructions:
                instr = instructions[address]
                body.append(instr)
                if instr.is_control_flow or (address + 4) in leaders:
                    break
                address += 4
            blocks.append(BasicBlock(leader, body))
        return blocks

    def _connect(self, cfg: FunctionCFG, blocks: List[BasicBlock]
                 ) -> List[Tuple[int, int]]:
        callees: List[Tuple[int, int]] = []
        for block in blocks:
            last = block.last
            op = last.opcode
            if op is Opcode.B:
                cfg.add_edge(Edge(block.start, last.branch_target(),
                                  EdgeKind.TAKEN))
            elif op is Opcode.BCC:
                cfg.add_edge(Edge(block.start, last.branch_target(),
                                  EdgeKind.TAKEN, cond=last.cond))
                cfg.add_edge(Edge(block.start, last.address + 4,
                                  EdgeKind.FALLTHROUGH,
                                  cond=last.cond.negated()))
            elif op is Opcode.BR:
                for target in self.indirect_targets[last.address]:
                    cfg.add_edge(Edge(block.start, target, EdgeKind.TAKEN))
            elif op in (Opcode.RET, Opcode.HALT):
                pass
            elif op is Opcode.BL:
                callees.append((last.address, last.branch_target()))
                cfg.add_edge(Edge(block.start, last.address + 4,
                                  EdgeKind.FALLTHROUGH))
            elif op is Opcode.BLR:
                targets = self.indirect_targets.get(last.address)
                if targets is None:
                    raise CFGError(
                        f"{cfg.name}: unannotated indirect call at "
                        f"0x{last.address:x}")
                for target in targets:
                    callees.append((last.address, target))
                cfg.add_edge(Edge(block.start, last.address + 4,
                                  EdgeKind.FALLTHROUGH))
            else:
                # Block was split because its successor is a leader.
                cfg.add_edge(Edge(block.start, block.end,
                                  EdgeKind.FALLTHROUGH))
        return callees


def build_cfg(program: Program, entry: Optional[int] = None,
              indirect_targets: Optional[Dict[int, Sequence[int]]] = None
              ) -> BinaryCFG:
    """Reconstruct the CFG of ``program`` (phase 1 of the aiT pipeline)."""
    return CFGBuilder(program, indirect_targets).build(entry)
