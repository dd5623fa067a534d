"""CFG reconstruction from binaries, dominators, loops, and the
context-expanded whole-task graph (phase 1 of the aiT pipeline)."""

from .builder import BinaryCFG, CFGBuilder, CFGError, build_cfg
from .contexts import (Context, ContextPolicy, FullCallString,
                       KLimitedCallString, VIVU, parse_policy)
from .dominators import compute_dominators
from .expand import (ExpansionError, NodeId, TaskEdge, TaskGraph,
                     expand_task)
from .graph import (BasicBlock, CallGraph, Edge, EdgeKind, FunctionCFG)
from .loops import IrreducibleLoopError, Loop, LoopForest, find_loops

__all__ = [
    "BinaryCFG", "CFGBuilder", "CFGError", "build_cfg",
    "compute_dominators",
    "Context", "ContextPolicy", "FullCallString", "KLimitedCallString",
    "VIVU", "parse_policy",
    "ExpansionError", "NodeId", "TaskEdge", "TaskGraph",
    "expand_task",
    "BasicBlock", "CallGraph", "Edge", "EdgeKind", "FunctionCFG",
    "IrreducibleLoopError", "Loop", "LoopForest", "find_loops",
]
