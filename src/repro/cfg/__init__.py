"""CFG reconstruction from binaries, the context-expanded whole-task
graph, and its loop structure: the weak topological order every
fixpoint iterates on and the loop forest read off it (phase 1 of the
aiT pipeline)."""

from .builder import BinaryCFG, CFGBuilder, CFGError, build_cfg
from .contexts import (Context, ContextPolicy, FullCallString,
                       KLimitedCallString, VIVU, parse_policy)
from .expand import (ExpansionError, NodeId, TaskEdge, TaskGraph,
                     expand_task)
from .graph import (BasicBlock, CallGraph, Edge, EdgeKind, FunctionCFG)
from .loops import IrreducibleLoopError, Loop, LoopForest, find_loops

__all__ = [
    "BinaryCFG", "CFGBuilder", "CFGError", "build_cfg",
    "Context", "ContextPolicy", "FullCallString", "KLimitedCallString",
    "VIVU", "parse_policy",
    "ExpansionError", "NodeId", "TaskEdge", "TaskGraph",
    "expand_task",
    "BasicBlock", "CallGraph", "Edge", "EdgeKind", "FunctionCFG",
    "IrreducibleLoopError", "Loop", "LoopForest", "find_loops",
]
