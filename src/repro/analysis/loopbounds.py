"""Loop bound analysis (phase 3 of the aiT pipeline).

"Loop bound analysis determines upper bounds for the number of
iterations of simple loops" (Section 3).  Two methods are combined:

* **Affine pattern analysis** — the classic "simple loop" case: a
  counter register updated by a constant step exactly once per
  iteration and compared against a loop-invariant limit.  The bound
  follows in closed form from the value analysis intervals of the
  initial value and the limit.  Triangular loops fall out naturally:
  the inner limit is an interval covering the outer counter.
* **Abstract unrolling** — fallback for innermost loops that do not
  match the pattern: iterate the loop body abstractly without joining
  until the back edge becomes infeasible (or a budget is exhausted).

Loops neither method can bound are reported unbounded; the WCET driver
then requires a user annotation (as aiT does).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..cfg.expand import NodeId, TaskEdge
from ..cfg.loops import Loop
from ..isa.instructions import Instruction, Opcode
from .state import AbstractState
from .transfer import (condition_operator, refine_by_condition,
                       transfer_block)
from .valueanalysis import ValueAnalysisResult

#: Iteration budget for the abstract-unrolling fallback.
DEFAULT_UNROLL_LIMIT = 1024


@dataclass(frozen=True)
class LoopBound:
    """Maximum executions of the loop header per entry into the loop."""

    header: NodeId
    max_iterations: Optional[int]   # None = could not be bounded
    method: str                     # "affine" | "unroll" | "annotation" | "none"

    @property
    def is_bounded(self) -> bool:
        return self.max_iterations is not None


class LoopBoundAnalysis:
    """Derives per-loop iteration bounds from value-analysis results."""

    def __init__(self, values: ValueAnalysisResult,
                 manual_bounds: Optional[Dict[int, int]] = None,
                 unroll_limit: int = DEFAULT_UNROLL_LIMIT):
        self.values = values
        self.graph = values.graph
        self.manual_bounds = dict(manual_bounds or {})
        self.unroll_limit = unroll_limit

    def analyze(self) -> Dict[NodeId, LoopBound]:
        bounds: Dict[NodeId, LoopBound] = {}
        for loop in self.values.loop_forest:
            bounds[loop.header] = self._bound_loop(loop)
        return bounds

    # -- Per-loop -----------------------------------------------------------

    def _bound_loop(self, loop: Loop) -> LoopBound:
        manual = self.manual_bounds.get(loop.header.block)
        if manual is not None:
            # Annotations state the full iteration count of the source
            # loop.  Under a peeling policy this loop object is the
            # steady-state copy, whose peeled first iterations execute
            # outside it — the bound here covers only the remainder.
            peeled = loop.header.context.peel_of(loop.header.block)
            return LoopBound(loop.header, max(manual - peeled, 0),
                             "annotation")
        header_state = self.values.fixpoint.state_at(loop.header)
        if header_state is None or header_state.is_bottom():
            # Value analysis proved the loop unreachable: it runs zero
            # iterations in every execution.
            return LoopBound(loop.header, 0, "infeasible")
        affine = self._affine_bound(loop)
        if affine is not None:
            return LoopBound(loop.header, affine, "affine")
        if self.values.loop_forest.is_innermost(loop):
            unrolled = self._unroll_bound(loop)
            if unrolled is not None:
                return LoopBound(loop.header, unrolled, "unroll")
        return LoopBound(loop.header, None, "none")

    # -- Affine pattern -------------------------------------------------------

    def _affine_bound(self, loop: Loop) -> Optional[int]:
        if len(loop.back_edges) != 1:
            return None
        latch, header = loop.back_edges[0]
        back_edge = self._edge_between(latch, header)
        if back_edge is None or back_edge.cond is None:
            return None

        latch_block = self.graph.blocks[latch]
        latch_entry = self.values.fixpoint.state_at(latch)
        if latch_entry is None or latch_entry.is_bottom():
            return None
        latch_out = transfer_block(latch_entry, latch_block)
        flags = latch_out.flags
        if flags is None:
            return None
        op = condition_operator(back_edge.cond, flags.left, flags.right)
        if op is None:
            return None

        counter, limit_value, op = self._orient(flags, op)
        if counter is None:
            return None
        step, def_site = self._find_step(loop, counter)
        if step is None:
            return None
        if not self._limit_invariant(loop, flags, counter):
            return None

        init = self._initial_interval(loop, counter)
        if init is None:
            return None
        init_lo, init_hi = init
        limit_lo, limit_hi = limit_value.signed_bounds()
        delta = step if self._def_precedes_compare(
            loop, latch, def_site, counter) else 0
        return _affine_trip_count(op, step, delta, init_lo, init_hi,
                                  limit_lo, limit_hi)

    def _edge_between(self, source: NodeId,
                      target: NodeId) -> Optional[TaskEdge]:
        for edge in self.graph.successors(source):
            if edge.target == target:
                return edge
        return None

    def _orient(self, flags, op: str):
        """Return (counter_reg, limit_abstract_value, oriented_op) so the
        condition reads ``counter <op> limit``."""
        if flags.left_reg is not None and flags.right_reg is None:
            return flags.left_reg, flags.right, op
        if flags.right_reg is not None and flags.left_reg is None:
            swapped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
                       "==": "==", "!=": "!="}[op]
            return flags.right_reg, flags.left, swapped
        if flags.left_reg is not None and flags.right_reg is not None:
            # Register-register compare: the counter is whichever side is
            # updated inside the loop; decided by the caller via
            # _find_step on the left first, then the right.
            return flags.left_reg, flags.right, op
        return None, None, op

    def _register_defs(self, loop: Loop, reg: int
                       ) -> List[Tuple[NodeId, int, Instruction]]:
        """Definitions of ``reg`` along the loop, for the counter check.

        Writes inside *called functions* are ignored for callee-saved
        registers: like aiT, the analysis assumes the calling
        convention, under which a callee restores R4-R11 before
        returning (the simulator's shadow-stack check guards the
        analogous LR assumption).
        """
        from ..isa.registers import is_callee_saved

        header_function = self.graph.function_of[loop.header]
        defs = []
        for node in loop.body:
            if is_callee_saved(reg) \
                    and self.graph.function_of[node] != header_function:
                continue
            for index, instr in enumerate(self.graph.blocks[node]):
                if reg in instr.written_registers():
                    defs.append((node, index, instr))
        return defs

    def _find_step(self, loop: Loop,
                   counter: int) -> Tuple[Optional[int],
                                          Optional[Tuple[NodeId, int]]]:
        """The constant per-iteration step of ``counter``, if the loop
        updates it by exactly one ``ADDI/SUBI counter, counter, #c``."""
        defs = self._register_defs(loop, counter)
        if len(defs) != 1:
            return None, None
        node, index, instr = defs[0]
        if instr.opcode is Opcode.ADDI and instr.rd == instr.rs1 == counter:
            step = instr.imm
        elif instr.opcode is Opcode.SUBI \
                and instr.rd == instr.rs1 == counter:
            step = -instr.imm
        else:
            return None, None
        if step == 0:
            return None, None
        # The update must happen on every path around the loop.
        if not self._on_every_iteration(loop, node):
            return None, None
        return step, (node, index)

    def _on_every_iteration(self, loop: Loop, node: NodeId) -> bool:
        """Does every header-to-back-edge path pass through ``node``?

        Checked by searching for a path from header to any latch that
        avoids ``node`` inside the loop body.
        """
        if node == loop.header:
            return True
        latches = {latch for latch, _ in loop.back_edges}
        stack = [loop.header]
        seen = {loop.header, node}
        while stack:
            current = stack.pop()
            if current in latches and current != node:
                return False
            for edge in self.graph.successors(current):
                target = edge.target
                if target in loop.body and target not in seen:
                    seen.add(target)
                    stack.append(target)
        return True

    def _limit_invariant(self, loop: Loop, flags, counter: int) -> bool:
        other = flags.right_reg if flags.left_reg == counter \
            else flags.left_reg
        if other is None:
            return True  # constant limit
        return not self._register_defs(loop, other)

    def _initial_interval(self, loop: Loop,
                          counter: int) -> Optional[Tuple[int, int]]:
        """Interval of the counter on entry to the loop (outside edges)."""
        lo = hi = None
        if loop.header == self.graph.entry:
            entry_state = self.values.fixpoint.task_entry_state
            if entry_state is not None and not entry_state.is_bottom():
                lo, hi = entry_state.get(counter).signed_bounds()
        for edge in self.graph.predecessors(loop.header):
            if edge.source in loop.body:
                continue
            source_state = self.values.fixpoint.state_at(edge.source)
            if source_state is None or source_state.is_bottom():
                continue
            out = transfer_block(source_state,
                                 self.graph.blocks[edge.source])
            if edge.cond is not None:
                out = refine_by_condition(out, edge.cond)
            if out.is_bottom():
                continue
            value_lo, value_hi = out.get(counter).signed_bounds()
            lo = value_lo if lo is None else min(lo, value_lo)
            hi = value_hi if hi is None else max(hi, value_hi)
        if lo is None:
            return None
        return lo, hi

    def _def_precedes_compare(self, loop: Loop, latch: NodeId,
                              def_site: Tuple[NodeId, int],
                              counter: int) -> bool:
        """True if the counter update executes before the latch compare
        within one iteration (affects the first tested value)."""
        def_node, def_index = def_site
        if def_node != latch:
            # Update in an earlier block: on every path it precedes the
            # latch's compare.
            return True
        compare_index = self._last_compare_index(latch)
        return def_index < compare_index

    def _last_compare_index(self, node: NodeId) -> int:
        block = self.graph.blocks[node]
        last = 0
        for index, instr in enumerate(block):
            if instr.opcode in (Opcode.CMP, Opcode.CMPI):
                last = index
        return last

    # -- Abstract unrolling -----------------------------------------------------

    def _unroll_bound(self, loop: Loop) -> Optional[int]:
        """Iterate the loop abstractly, without joining across
        iterations, until the back edges die; exact for loops whose exit
        depends deterministically on analysable state."""
        header_state = self._entry_state(loop)
        if header_state is None:
            return None
        body_order = [node for node in self.graph.topological_order()
                      if node in loop.body]
        latches = {latch for latch, _ in loop.back_edges}

        iterations = 0
        while header_state is not None:
            iterations += 1
            if iterations > self.unroll_limit:
                return None
            header_state = self._iterate_once(
                loop, header_state, body_order, latches)
        return iterations

    def _entry_state(self, loop: Loop) -> Optional[AbstractState]:
        joined: Optional[AbstractState] = None
        if loop.header == self.graph.entry:
            entry_state = self.values.fixpoint.task_entry_state
            if entry_state is not None and not entry_state.is_bottom():
                joined = entry_state
        for edge in self.graph.predecessors(loop.header):
            if edge.source in loop.body:
                continue
            source_state = self.values.fixpoint.state_at(edge.source)
            if source_state is None or source_state.is_bottom():
                continue
            out = transfer_block(source_state,
                                 self.graph.blocks[edge.source])
            if edge.cond is not None:
                out = refine_by_condition(out, edge.cond)
            if out.is_bottom():
                continue
            joined = out if joined is None else joined.join(out)
        return joined

    def _iterate_once(self, loop: Loop, header_state: AbstractState,
                      body_order: List[NodeId],
                      latches: Set[NodeId]) -> Optional[AbstractState]:
        """Propagate one iteration through the (acyclic) body; return the
        next header state via back edges, or None if the loop must exit."""
        states: Dict[NodeId, AbstractState] = {loop.header: header_state}
        next_header: Optional[AbstractState] = None
        for node in body_order:
            state = states.get(node)
            if state is None or state.is_bottom():
                continue
            out = transfer_block(state, self.graph.blocks[node])
            if out.is_bottom():
                continue
            for edge in self.graph.successors(node):
                if edge.target == loop.header and node in latches:
                    refined = out if edge.cond is None else \
                        refine_by_condition(out, edge.cond)
                    if not refined.is_bottom():
                        next_header = refined if next_header is None \
                            else next_header.join(refined)
                    continue
                if edge.target not in loop.body:
                    continue
                refined = out if edge.cond is None else \
                    refine_by_condition(out, edge.cond)
                if refined.is_bottom():
                    continue
                existing = states.get(edge.target)
                states[edge.target] = refined if existing is None \
                    else existing.join(refined)
        return next_header


def _affine_trip_count(op: str, step: int, delta: int, init_lo: int,
                       init_hi: int, limit_lo: int,
                       limit_hi: int) -> Optional[int]:
    """Closed-form maximum header executions for an affine loop.

    The back edge is taken at the k-th test iff
    ``first_tested + (k-1)*step <op> limit`` can hold, where
    ``first_tested = init + delta``.  Header executions = takes + 1.

    Endpoints at the type bounds mean "unknown", not a usable bound:
    a counter starting anywhere would formally terminate within 2**32
    steps, but reporting that would be useless — aiT reports such loops
    as unbounded and asks for an annotation instead.
    """
    from .domain import INT_MAX, INT_MIN

    if op in ("<", "<="):
        if step <= 0:
            return None
        if init_lo == INT_MIN or limit_hi == INT_MAX:
            return None
        threshold = limit_hi - (1 if op == "<" else 0)
        first = init_lo + delta
        if first > threshold:
            return 1
        takes = (threshold - first) // step + 1
        return takes + 1
    if op in (">", ">="):
        if step >= 0:
            return None
        if init_hi == INT_MAX or limit_lo == INT_MIN:
            return None
        threshold = limit_lo + (1 if op == ">" else 0)
        first = init_hi + delta
        if first < threshold:
            return 1
        takes = (first - threshold) // (-step) + 1
        return takes + 1
    if op == "!=":
        if init_lo != init_hi or limit_lo != limit_hi:
            return None
        distance = limit_lo - (init_lo + delta)
        if step != 0 and distance % step == 0 and distance // step >= 0:
            return distance // step + 1
        return None
    return None


def analyze_loop_bounds(values: ValueAnalysisResult,
                        manual_bounds: Optional[Dict[int, int]] = None,
                        unroll_limit: int = DEFAULT_UNROLL_LIMIT
                        ) -> Dict[NodeId, LoopBound]:
    """Bound every loop of the task (phase 3 of the aiT pipeline)."""
    return LoopBoundAnalysis(values, manual_bounds, unroll_limit).analyze()
