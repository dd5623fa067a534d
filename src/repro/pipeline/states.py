"""Abstract pipeline states for the krisc5 overlapped timing model.

"Pipeline analysis predicts the behavior of the program on the
processor pipeline" by computing *sets of abstract pipeline states* at
program points (Section 3).  For the 5-stage in-order KRISC pipeline
the timing-relevant state crossing a basic-block boundary is small:
``pending`` — per register, how many cycles until a value loaded near
the end of a predecessor block becomes forwardable (the load-use
interlock window).

The MEM unit's state does not cross a boundary: the walker charges an
in-flight cache miss to the block that issued it (the block's elapsed
time covers it, see :func:`walk_block`), so every block starts with a
free MEM unit — that choice is what makes every per-block cost
provably no worse than the additive model's.  Propagating bounded
MEM residues across boundaries instead would tighten blocks that can
hide a predecessor's miss, at the cost of that per-node guarantee.

A :class:`PipeState` is one such boundary condition; the analysis
domain is a *set* of them per task-graph node (:class:`PipeStateSet`)
with a join/leq algebra: join is union followed by dominance pruning,
``leq`` is per-state domination, and set growth is bounded by a
deterministic cap that merges the closest states into their
componentwise upper bound.  Domination is sound because the block
walker (:func:`walk_block`) is a monotone max-plus recurrence: larger
entry components can only delay every downstream event.

The walker itself is the abstract transfer function: it replays a
block's instructions against the worst-case cache classifications
(always-hit → hit, always-miss / not-classified → miss, persistent →
hit now plus a one-time penalty, exactly like the additive model) and
returns the elapsed worst-case cycles together with the exit state,
modelling fetch/EX overlap, miss shadowing, and interlocks *inside*
the block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..cache.abstract import Classification
from ..cache.config import MachineConfig
from ..cfg.graph import BasicBlock
from ..isa.instructions import Instruction, Opcode

#: Opcodes that always redirect fetch (their penalty is part of the
#: block cost; conditional branches pay on the taken edge instead).
UNCONDITIONAL_TRANSFERS = {Opcode.B, Opcode.BL, Opcode.BR, Opcode.BLR,
                           Opcode.RET}


def loads_registers(instr: Instruction) -> Tuple[int, ...]:
    """Registers written *by a load* in ``instr`` (interlock sources)."""
    if instr.opcode in (Opcode.LDR, Opcode.LDRX):
        return (instr.rd,)
    if instr.opcode is Opcode.POP:
        return tuple(instr.reglist)
    return ()


@dataclass(frozen=True)
class PipeState:
    """One abstract pipeline boundary condition.

    ``pending`` is a sorted tuple of ``(register, delay)`` pairs with
    strictly positive delays — the cycles (past the boundary reference
    point) until the register's loaded value is forwardable.
    """

    pending: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self):
        if any(delay < 1 for _, delay in self.pending):
            raise ValueError("pending delays must be positive")
        if list(self.pending) != sorted(self.pending):
            object.__setattr__(self, "pending",
                               tuple(sorted(self.pending)))

    def dominates(self, other: "PipeState") -> bool:
        """Is every timing component at least as late as ``other``'s?

        A dominating state can only produce a later schedule, so
        keeping it and dropping ``other`` over-approximates soundly.
        """
        if other.pending:
            mine = dict(self.pending)
            for reg, delay in other.pending:
                if mine.get(reg, 0) < delay:
                    return False
        return True

    def merge(self, other: "PipeState") -> "PipeState":
        """Componentwise upper bound (the join of two single states)."""
        pending = dict(self.pending)
        for reg, delay in other.pending:
            if pending.get(reg, 0) < delay:
                pending[reg] = delay
        return PipeState(tuple(sorted(pending.items())))

    def _key(self) -> Tuple:
        return self.pending


@dataclass
class StateSetStats:
    """Work/size counters of one krisc5 pipeline analysis."""

    peak_states: int = 0        # largest entry set seen on any node
    cap_merges: int = 0         # state merges forced by the cap
    walked_states: int = 0      # block walks performed


class PipeStateSet:
    """A canonical, dominance-pruned, cap-bounded set of states.

    Canonical form makes equality, hashing, and the capped join
    deterministic: states are dominance-pruned and kept sorted; when
    more than ``cap`` maximal states survive, the two closest (by
    componentwise distance) are merged into their upper bound until
    the cap is met.  The same input set always yields the same capped
    set regardless of arrival order.
    """

    __slots__ = ("states", "cap")

    def __init__(self, states: Iterable[PipeState], cap: int,
                 stats: Optional[StateSetStats] = None):
        self.cap = cap
        self.states: Tuple[PipeState, ...] = self._canonical(
            states, cap, stats)

    @staticmethod
    def _canonical(states: Iterable[PipeState], cap: int,
                   stats: Optional[StateSetStats]) -> Tuple[PipeState, ...]:
        # Mutual domination between *distinct* states is impossible
        # (it forces identical components), so after de-duplication a
        # single strict-domination sweep yields the maximal elements.
        unique = sorted(set(states), key=PipeState._key)
        maximal = [state for state in unique
                   if not any(other is not state and other.dominates(state)
                              for other in unique)]
        while len(maximal) > cap:
            best = None
            for i in range(len(maximal) - 1):
                for j in range(i + 1, len(maximal)):
                    d = _distance(maximal[i], maximal[j])
                    if best is None or d < best[0]:
                        best = (d, i, j)
            _, i, j = best
            merged = maximal[i].merge(maximal[j])
            if stats is not None:
                stats.cap_merges += 1
            del maximal[j], maximal[i]
            if not any(m.dominates(merged) for m in maximal):
                maximal = [m for m in maximal
                           if not merged.dominates(m)] + [merged]
                maximal.sort(key=PipeState._key)
        return tuple(maximal)

    # -- Lattice operations -------------------------------------------------

    def join(self, other: "PipeStateSet",
             stats: Optional[StateSetStats] = None) -> "PipeStateSet":
        return PipeStateSet(self.states + other.states, self.cap, stats)

    def leq(self, other: "PipeStateSet") -> bool:
        """Every behaviour of ``self`` is covered by ``other``."""
        return all(any(theirs.dominates(mine) for theirs in other.states)
                   for mine in self.states)

    def is_bottom(self) -> bool:
        return not self.states

    def copy(self) -> "PipeStateSet":
        return self    # immutable

    def __eq__(self, other) -> bool:
        return isinstance(other, PipeStateSet) \
            and self.states == other.states

    def __hash__(self) -> int:
        return hash(self.states)

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        return iter(self.states)

    def __repr__(self) -> str:
        return f"PipeStateSet({list(self.states)!r})"

    @classmethod
    def initial(cls, cap: int) -> "PipeStateSet":
        """The task-entry set: an empty pipeline."""
        return cls((PipeState(),), cap)


def _distance(a: PipeState, b: PipeState) -> Tuple[int, Tuple]:
    """Deterministic closeness measure for cap merging."""
    pa, pb = dict(a.pending), dict(b.pending)
    total = sum(abs(pa.get(reg, 0) - pb.get(reg, 0))
                for reg in set(pa) | set(pb))
    return (total, a._key(), b._key())


# -- The abstract block walker ---------------------------------------------------


@dataclass
class BlockWalk:
    """Outcome of walking one block from one entry state."""

    elapsed: int                 # worst-case cycles consumed by the block
    exit_state: PipeState        # boundary condition handed to successors
    onetime: int = 0             # persistence penalties (paid once per run)


def walk_block(block: BasicBlock, state: PipeState,
               fetch_outcomes: Sequence[Classification],
               data_outcomes: Sequence[Tuple[int, Classification]],
               config: MachineConfig, is_exit: bool = False) -> BlockWalk:
    """Replay ``block`` on the abstract 5-stage pipeline.

    ``fetch_outcomes`` classifies each instruction fetch;
    ``data_outcomes`` lists ``(instruction_index, classification)``
    per data access in recording order; ``is_exit`` marks task-exit
    blocks, whose elapsed time must cover the full MEM-unit drain.
    The recurrence mirrors
    :meth:`repro.sim.cpu.Simulator._account_krisc5` with every
    unclassified event resolved to its worst case, and it is monotone
    in every component of ``state`` (max-plus), which is what makes
    dominance pruning and cap merging sound.
    """
    icache, dcache = config.icache, config.dcache
    load_use = config.load_use_stall
    accesses_of: Dict[int, List[Classification]] = {}
    for index, outcome in data_outcomes:
        accesses_of.setdefault(index, []).append(outcome)

    fetch_free = 0
    ex_free = 0
    mem_free = 0
    pending: Dict[int, int] = dict(state.pending)
    onetime = 0

    for index, instr in enumerate(block.instructions):
        fetch = fetch_outcomes[index] if index < len(fetch_outcomes) \
            else Classification.NOT_CLASSIFIED
        penalty = 0
        if fetch is Classification.PERSISTENT:
            onetime += icache.miss_penalty
        elif fetch.worst_is_miss:
            penalty = icache.miss_penalty
        fetch_done = fetch_free + 1 + penalty

        operand_ready = 0
        if pending:
            for reg in instr.read_registers():
                when = pending.get(reg)
                if when is not None and when > operand_ready:
                    operand_ready = when
        issue = max(fetch_done, ex_free, operand_ready)
        occupancy = 1
        if instr.opcode in (Opcode.MUL, Opcode.MULI):
            occupancy += config.mul_extra
        ex_done = issue + occupancy

        mem_done = None
        instr_accesses = accesses_of.get(index)
        if instr_accesses:
            clock = max(ex_done, mem_free)
            for beat, outcome in enumerate(instr_accesses):
                if beat:
                    clock += 1
                if outcome is Classification.PERSISTENT:
                    onetime += dcache.miss_penalty
                elif outcome.worst_is_miss:
                    clock += dcache.miss_penalty
            mem_done = clock
            mem_free = clock

        ex_free = ex_done
        fetch_free = issue
        if pending:
            for reg in instr.written_registers():
                pending.pop(reg, None)
        loaded = loads_registers(instr)
        if loaded:
            available = (mem_done if mem_done is not None else ex_done) \
                + load_use
            for reg in loaded:
                pending[reg] = available

    if block.last.opcode in UNCONDITIONAL_TRANSFERS:
        ex_free += config.branch_penalty

    # MEM residue is charged here, at the boundary: the elapsed time
    # covers the in-flight miss, so successors start with a free MEM
    # unit and only the load-use window survives the boundary.  The
    # two ``- 1`` terms are boundary overlaps: the successor's first
    # fetch starts while this block's last instruction is still in EX
    # (the successor walk re-charges that fetch cycle in full), and a
    # 1-cycle MEM residue can never surface downstream — the earliest
    # successor memory access starts at least 2 cycles past the
    # boundary.  Exit blocks must cover the full drain instead,
    # matching the simulator's ``max(ex_free - 1, mem_free)`` count.
    elapsed = max(ex_free - 1, mem_free if is_exit else mem_free - 1)
    exit_pending = tuple(sorted(
        (reg, when - elapsed) for reg, when in pending.items()
        if when > elapsed))
    return BlockWalk(elapsed, PipeState(exit_pending), onetime)
