"""Concrete KRISC machine: the executable ground truth.

The paper's safety claims are universally quantified ("results valid
for every program run and all inputs"), which is only testable against
an executable semantics.  This simulator is that semantics: it executes
the same binaries the analyses consume, with the same LRU caches and
the timing model selected by
:class:`~repro.cache.config.MachineConfig.pipeline_model`:

* ``additive`` — every instruction pays the sum of its worst-case
  components (the historical model),
* ``krisc5`` — the overlapped 5-stage pipeline (IF/ID/EX/MEM/WB):
  fetch of the next instruction overlaps EX of the current one, the
  MEM unit services cache misses while later instructions keep
  executing (in-order issue queues only on the next memory access or
  a load-use interlock), multiplies occupy EX for extra cycles, and
  taken transfers redirect fetch after the branch resolves in EX.

The simulator also *enforces the analyses' structural assumptions*: it
maintains a shadow call stack and traps if a program returns to an
address other than its call site (which would invalidate the statically
reconstructed CFG), and it traps on writes to the code section.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cache.config import MachineConfig
from ..cache.lru import LRUCache
from ..isa.instructions import Cond, Instruction, Opcode
from ..isa.program import Program
from ..isa.registers import LR, NUM_REGISTERS, SP


class SimulationError(RuntimeError):
    """The program violated the machine's execution contract."""


class OutOfFuel(SimulationError):
    """The step budget was exhausted before HALT."""


@dataclass
class AccessEvent:
    """One data-memory access, for cache-soundness checks."""

    pc: int
    address: int
    is_load: bool
    hit: bool


@dataclass
class FetchEvent:
    """One instruction fetch."""

    pc: int
    hit: bool


@dataclass
class PreemptionRecord:
    """One preemption served at an instruction boundary.

    ``cycles``/``steps`` are the preempting task's own execution;
    the hit/miss counters are the cache events *it* caused (attributed
    by snapshotting the shared cache counters around its run), so a
    preempted run's task-side misses stay separable from preemptor
    traffic."""

    step: int           # victim step count when the preemption fired
    pc: int             # victim's resume address
    cycles: int
    steps: int
    fetch_hits: int
    fetch_misses: int
    data_hits: int
    data_misses: int


@dataclass
class ExecutionResult:
    """Outcome of one concrete run."""

    cycles: int
    steps: int
    halted: bool
    registers: List[int]
    max_stack_usage: int
    instruction_counts: Dict[int, int]
    fetch_hits: int
    fetch_misses: int
    data_hits: int
    data_misses: int
    access_trace: List[AccessEvent] = field(default_factory=list)
    fetch_trace: List[FetchEvent] = field(default_factory=list)
    #: Preemptions served during the run (empty for plain ``run()``).
    preemptions: List[PreemptionRecord] = field(default_factory=list)

    def register(self, index: int) -> int:
        return self.registers[index]

    def signed_register(self, index: int) -> int:
        value = self.registers[index]
        return value - (1 << 32) if value & (1 << 31) else value

    # Cache counters are shared between victim and preemptors (they
    # run on the same caches — that is the point of CRPD); these strip
    # the preemptors' own traffic back out.

    @property
    def task_fetch_misses(self) -> int:
        return self.fetch_misses - sum(p.fetch_misses
                                       for p in self.preemptions)

    @property
    def task_data_misses(self) -> int:
        return self.data_misses - sum(p.data_misses
                                      for p in self.preemptions)

    @property
    def task_cycles(self) -> int:
        """Victim-only cycles (total minus preemptor execution)."""
        return self.cycles - sum(p.cycles for p in self.preemptions)


@dataclass
class Flags:
    n: bool = False
    z: bool = False
    c: bool = False
    v: bool = False


_COND_EVAL = {
    Cond.EQ: lambda f: f.z,
    Cond.NE: lambda f: not f.z,
    Cond.LT: lambda f: f.n != f.v,
    Cond.GE: lambda f: f.n == f.v,
    Cond.GT: lambda f: not f.z and f.n == f.v,
    Cond.LE: lambda f: f.z or f.n != f.v,
    Cond.LO: lambda f: not f.c,
    Cond.HS: lambda f: f.c,
    Cond.HI: lambda f: f.c and not f.z,
    Cond.LS: lambda f: not f.c or f.z,
}

_WORD = 0xFFFFFFFF


def _signed(word: int) -> int:
    return word - (1 << 32) if word & (1 << 31) else word


class Simulator:
    """Executes a :class:`Program` cycle-accurately."""

    def __init__(self, program: Program,
                 config: Optional[MachineConfig] = None,
                 collect_trace: bool = False):
        self.program = program
        self.config = config or MachineConfig.default()
        self.collect_trace = collect_trace
        self.icache = LRUCache(self.config.icache)
        self.dcache = LRUCache(self.config.dcache)
        self._decoded: Dict[int, Instruction] = {}
        self._text = program.text
        self.reset()

    def reset(self) -> None:
        self.regs = [0] * NUM_REGISTERS
        self.regs[SP] = self.program.memory_map.stack_base
        self.flags = Flags()
        self.memory: Dict[int, int] = dict(self.program.initial_memory())
        self.pc = self.program.entry
        self.cycles = 0
        self.steps = 0
        self.halted = False
        self.min_sp = self.regs[SP]
        self.instruction_counts: Dict[int, int] = {}
        self.icache.reset()
        self.dcache.reset()
        self.access_trace: List[AccessEvent] = []
        self.fetch_trace: List[FetchEvent] = []
        self._shadow_stack: List[int] = []
        self._pending_load_regs: Tuple[int, ...] = ()
        # krisc5 pipeline clocks (absolute cycles): when the fetch port
        # may start the next fetch, when EX accepts the next
        # instruction, when the MEM unit is free, and per register the
        # cycle a loaded value becomes forwardable.
        self._k5_fetch_free = 0
        self._k5_ex_free = 0
        self._k5_mem_free = 0
        self._k5_load_ready: Dict[int, int] = {}
        # Per-step D-cache access events: (hit, extra_beat) pairs in
        # execution order, consumed by the krisc5 accounting.
        self._step_accesses: List[Tuple[bool, bool]] = []
        self.preemption_records: List[PreemptionRecord] = []

    # -- Public API -----------------------------------------------------------

    def run(self, max_steps: int = 1_000_000,
            arguments: Optional[Dict[int, int]] = None) -> ExecutionResult:
        """Run until HALT (or raise :class:`OutOfFuel`).

        ``arguments`` pre-loads registers, e.g. ``{0: 42}`` to pass 42
        in R0 — the concrete counterpart of the analysis' entry
        annotations.
        """
        return self.run_preemptive((), max_steps, arguments)

    def result(self) -> ExecutionResult:
        return ExecutionResult(
            cycles=self.cycles,
            steps=self.steps,
            halted=self.halted,
            registers=list(self.regs),
            max_stack_usage=self.program.memory_map.stack_base - self.min_sp,
            instruction_counts=dict(self.instruction_counts),
            fetch_hits=self.icache.hits,
            fetch_misses=self.icache.misses,
            data_hits=self.dcache.hits,
            data_misses=self.dcache.misses,
            access_trace=self.access_trace,
            fetch_trace=self.fetch_trace,
            preemptions=list(self.preemption_records),
        )

    # -- Preemption ------------------------------------------------------------

    def preempt(self, program: Program,
                max_steps: int = 1_000_000) -> PreemptionRecord:
        """Run ``program`` to completion *on this simulator's caches*
        and account its cycles, as a preemption at the current
        instruction boundary.

        The preempting task executes on a nested simulator with its
        own registers, memory, and stack (an OSEK context switch saves
        and restores all of those) but shares the I- and D-cache
        objects — the one piece of state a context switch does *not*
        restore, and the source of cache-related preemption delay.
        Cache hit/miss counters are snapshotted around the nested run
        so the record attributes the preemptor's traffic separately.
        """
        nested = Simulator(program, self.config)
        nested.icache = self.icache
        nested.dcache = self.dcache
        fetch_hits = self.icache.hits
        fetch_misses = self.icache.misses
        data_hits = self.dcache.hits
        data_misses = self.dcache.misses
        nested.run(max_steps=max_steps)
        record = PreemptionRecord(
            step=self.steps,
            pc=self.pc,
            cycles=nested.cycles,
            steps=nested.steps,
            fetch_hits=self.icache.hits - fetch_hits,
            fetch_misses=self.icache.misses - fetch_misses,
            data_hits=self.dcache.hits - data_hits,
            data_misses=self.dcache.misses - data_misses,
        )
        self.preemption_records.append(record)
        self.cycles += record.cycles
        if self.config.pipeline_model == "krisc5":
            # Shift every absolute pipeline clock by the preemptor's
            # execution time: krisc5 accounting is shift-invariant, so
            # the victim resumes with identical relative hazards.
            delta = record.cycles
            self._k5_fetch_free += delta
            self._k5_ex_free += delta
            self._k5_mem_free += delta
            self._k5_load_ready = {reg: ready + delta
                                   for reg, ready
                                   in self._k5_load_ready.items()}
        return record

    def run_preemptive(self, preemptions, max_steps: int = 1_000_000,
                       arguments: Optional[Dict[int, int]] = None
                       ) -> ExecutionResult:
        """Run until HALT, serving scheduled preemptions.

        ``preemptions`` is a sequence of ``(step, program)`` pairs: the
        preempting ``program`` runs to completion at the first
        instruction boundary where the victim has executed at least
        ``step`` instructions (several due at the same boundary run
        back to back, in schedule order).  Preemptions scheduled past
        the victim's HALT never fire.
        """
        if arguments:
            for reg, value in arguments.items():
                self.regs[reg] = value & _WORD
        queue = sorted(preemptions, key=lambda item: item[0])
        while not self.halted:
            while queue and queue[0][0] <= self.steps:
                _, preemptor = queue.pop(0)
                self.preempt(preemptor)
            if self.steps >= max_steps:
                raise OutOfFuel(f"no HALT within {max_steps} steps")
            self.step()
        return self.result()

    # -- Execution ---------------------------------------------------------------

    def step(self) -> None:
        """Execute one instruction, accounting its cycles."""
        pc = self.pc
        instr = self._fetch_decoded(pc)
        self.steps += 1
        self.instruction_counts[pc] = self.instruction_counts.get(pc, 0) + 1

        fetch_hit = self.icache.access(pc)
        cost = 1 if fetch_hit else 1 + self.config.icache.miss_penalty
        if self.collect_trace:
            self.fetch_trace.append(FetchEvent(pc, fetch_hit))

        if self._pending_load_regs and \
                set(instr.read_registers()) & set(self._pending_load_regs):
            cost += self.config.load_use_stall
        loaded_regs: Tuple[int, ...] = ()
        taken = False
        self._step_accesses.clear()

        next_pc = pc + 4
        op = instr.opcode

        if op in _ALU_REG_OPS:
            self._write(instr.rd, _ALU_REG_OPS[op](
                self.regs[instr.rs1], self.regs[instr.rs2]))
            if op is Opcode.MUL:
                cost += self.config.mul_extra
        elif op in _ALU_IMM_OPS:
            self._write(instr.rd, _ALU_IMM_OPS[op](
                self.regs[instr.rs1], instr.imm))
            if op is Opcode.MULI:
                cost += self.config.mul_extra
        elif op is Opcode.MOV:
            self._write(instr.rd, self.regs[instr.rs1])
        elif op is Opcode.MOVI:
            self._write(instr.rd, instr.imm & _WORD)
        elif op is Opcode.MOVHI:
            low = self.regs[instr.rd] & 0xFFFF
            self._write(instr.rd, (instr.imm << 16) | low)
        elif op is Opcode.CMP:
            self._compare(self.regs[instr.rs1], self.regs[instr.rs2])
        elif op is Opcode.CMPI:
            self._compare(self.regs[instr.rs1], instr.imm & _WORD)
        elif op is Opcode.LDR:
            address = (self.regs[instr.rs1] + instr.imm) & _WORD
            cost += self._data_access(pc, address, is_load=True)
            self._write(instr.rd, self._load_word(address))
            loaded_regs = (instr.rd,)
        elif op is Opcode.LDRX:
            address = (self.regs[instr.rs1] + self.regs[instr.rs2]) & _WORD
            cost += self._data_access(pc, address, is_load=True)
            self._write(instr.rd, self._load_word(address))
            loaded_regs = (instr.rd,)
        elif op is Opcode.STR:
            address = (self.regs[instr.rs1] + instr.imm) & _WORD
            cost += self._data_access(pc, address, is_load=False)
            self._store_word(address, self.regs[instr.rs2])
        elif op is Opcode.STRX:
            address = (self.regs[instr.rs1] + self.regs[instr.rs2]) & _WORD
            cost += self._data_access(pc, address, is_load=False)
            self._store_word(address, self.regs[instr.rd])
        elif op is Opcode.PUSH:
            cost += self._push(pc, instr)
        elif op is Opcode.POP:
            cost += self._pop(pc, instr)
            loaded_regs = instr.reglist
        elif op is Opcode.B:
            next_pc = instr.branch_target()
            cost += self.config.branch_penalty
            taken = True
        elif op is Opcode.BCC:
            if _COND_EVAL[instr.cond](self.flags):
                next_pc = instr.branch_target()
                cost += self.config.branch_penalty
                taken = True
        elif op is Opcode.BL:
            self._write(LR, pc + 4)
            self._shadow_stack.append(pc + 4)
            next_pc = instr.branch_target()
            cost += self.config.branch_penalty
            taken = True
        elif op is Opcode.BLR:
            self._write(LR, pc + 4)
            self._shadow_stack.append(pc + 4)
            next_pc = self.regs[instr.rs1]
            cost += self.config.branch_penalty
            taken = True
        elif op is Opcode.BR:
            next_pc = self.regs[instr.rs1]
            cost += self.config.branch_penalty
            taken = True
        elif op is Opcode.RET:
            next_pc = self.regs[LR]
            if not self._shadow_stack:
                raise SimulationError(f"RET at 0x{pc:x} with empty call "
                                      "stack")
            expected = self._shadow_stack.pop()
            if next_pc != expected:
                raise SimulationError(
                    f"RET at 0x{pc:x} to 0x{next_pc:x}, but call site "
                    f"expects 0x{expected:x} (LR corrupted)")
            cost += self.config.branch_penalty
            taken = True
        elif op is Opcode.NOP:
            pass
        elif op is Opcode.HALT:
            self.halted = True
        else:  # pragma: no cover - opcode space is exhaustive
            raise SimulationError(f"unimplemented opcode {op.name}")

        self._pending_load_regs = loaded_regs
        if self.config.pipeline_model == "krisc5":
            self._account_krisc5(instr, fetch_hit, loaded_regs, taken)
        else:
            self.cycles += cost
        self.pc = next_pc
        if self.regs[SP] < self.min_sp:
            self.min_sp = self.regs[SP]

    # -- krisc5 overlapped-pipeline accounting --------------------------------

    def _account_krisc5(self, instr: Instruction, fetch_hit: bool,
                        loaded_regs: Tuple[int, ...],
                        taken: bool) -> None:
        """Advance the 5-stage pipeline clocks for one instruction.

        The recurrence is max-plus: an instruction enters EX once its
        fetch completed, EX is free, and every register it reads is
        forwardable.  The MEM unit runs in parallel with EX of later
        instructions (hit-under-miss via the fill/store buffer), so a
        D-cache miss stalls the pipeline only through a dependent load
        consumer or the next memory access.  Taken transfers hold the
        fetch port until ``branch_penalty - 1`` cycles after EX
        resolves the target.
        """
        config = self.config
        fetch_done = self._k5_fetch_free + 1 + \
            (0 if fetch_hit else config.icache.miss_penalty)
        ready = self._k5_load_ready
        operand_ready = 0
        if ready:
            for reg in instr.read_registers():
                when = ready.get(reg)
                if when is not None and when > operand_ready:
                    operand_ready = when
        issue = max(fetch_done, self._k5_ex_free, operand_ready)
        occupancy = 1
        if instr.opcode in (Opcode.MUL, Opcode.MULI):
            occupancy += config.mul_extra
        ex_done = issue + occupancy
        mem_done = None
        if self._step_accesses:
            clock = max(ex_done, self._k5_mem_free)
            for hit, extra in self._step_accesses:
                if extra:
                    clock += 1
                if not hit:
                    clock += config.dcache.miss_penalty
            mem_done = clock
            self._k5_mem_free = clock
        self._k5_ex_free = ex_done
        if taken:
            self._k5_fetch_free = max(
                issue, ex_done + config.branch_penalty - 1)
        else:
            self._k5_fetch_free = issue
        if ready:
            for reg in instr.written_registers():
                ready.pop(reg, None)
        if loaded_regs:
            available = (mem_done if mem_done is not None else ex_done) \
                + config.load_use_stall
            for reg in loaded_regs:
                ready[reg] = available
        self.cycles = max(self._k5_ex_free - 1, self._k5_mem_free)

    # -- Helpers --------------------------------------------------------------------

    def _fetch_decoded(self, pc: int) -> Instruction:
        instr = self._decoded.get(pc)
        if instr is None:
            if not self.program.is_code_address(pc):
                raise SimulationError(
                    f"control reached non-code address 0x{pc:x}")
            instr = self.program.instruction_at(pc)
            self._decoded[pc] = instr
        return instr

    def _write(self, reg: int, value: int) -> None:
        self.regs[reg] = value & _WORD

    def _compare(self, a: int, b: int) -> None:
        result = (a - b) & _WORD
        self.flags.n = bool(result & (1 << 31))
        self.flags.z = result == 0
        self.flags.c = a >= b          # no borrow (unsigned)
        signed_result = _signed(a) - _signed(b)
        self.flags.v = not (-(1 << 31) <= signed_result < (1 << 31))

    def _check_alignment(self, address: int) -> None:
        if address % 4:
            raise SimulationError(f"unaligned access at 0x{address:x}")

    def _data_access(self, pc: int, address: int, is_load: bool,
                     extra: bool = False) -> int:
        """Account one D-cache access; returns its cycle cost."""
        self._check_alignment(address)
        hit = self.dcache.access(address)
        if self.collect_trace:
            self.access_trace.append(AccessEvent(pc, address, is_load, hit))
        self._step_accesses.append((hit, extra))
        cost = 0 if hit else self.config.dcache.miss_penalty
        if extra:
            cost += 1   # additional beat of a block transfer
        return cost

    def _load_word(self, address: int) -> int:
        return self.memory.get(address, 0)

    def _store_word(self, address: int, value: int) -> None:
        if self._text.contains(address):
            raise SimulationError(
                f"write to code section at 0x{address:x}")
        self.memory[address] = value & _WORD

    def _push(self, pc: int, instr: Instruction) -> int:
        count = len(instr.reglist)
        new_sp = (self.regs[SP] - 4 * count) & _WORD
        cost = 0
        for slot, reg in enumerate(instr.reglist):
            address = (new_sp + 4 * slot) & _WORD
            cost += self._data_access(pc, address, is_load=False,
                                      extra=slot > 0)
            self._store_word(address, self.regs[reg])
        self._write(SP, new_sp)
        return cost

    def _pop(self, pc: int, instr: Instruction) -> int:
        old_sp = self.regs[SP]
        cost = 0
        for slot, reg in enumerate(instr.reglist):
            address = (old_sp + 4 * slot) & _WORD
            cost += self._data_access(pc, address, is_load=True,
                                      extra=slot > 0)
            self._write(reg, self._load_word(address))
        self._write(SP, (old_sp + 4 * len(instr.reglist)) & _WORD)
        return cost


def _wrap(op):
    return lambda a, b: op(a, b) & _WORD


_ALU_REG_OPS = {
    Opcode.ADD: _wrap(lambda a, b: a + b),
    Opcode.SUB: _wrap(lambda a, b: a - b),
    Opcode.MUL: _wrap(lambda a, b: a * b),
    Opcode.AND: _wrap(lambda a, b: a & b),
    Opcode.OR: _wrap(lambda a, b: a | b),
    Opcode.XOR: _wrap(lambda a, b: a ^ b),
    Opcode.SHL: _wrap(lambda a, b: a << (b & 31)),
    Opcode.SHR: _wrap(lambda a, b: a >> (b & 31)),
    Opcode.ASR: _wrap(lambda a, b: _signed(a) >> (b & 31)),
}

_ALU_IMM_OPS = {
    Opcode.ADDI: _wrap(lambda a, b: a + b),
    Opcode.SUBI: _wrap(lambda a, b: a - b),
    Opcode.MULI: _wrap(lambda a, b: a * b),
    Opcode.ANDI: _wrap(lambda a, b: a & (b & _WORD)),
    Opcode.ORI: _wrap(lambda a, b: a | (b & _WORD)),
    Opcode.XORI: _wrap(lambda a, b: a ^ (b & _WORD)),
    Opcode.SHLI: _wrap(lambda a, b: a << (b & 31)),
    Opcode.SHRI: _wrap(lambda a, b: a >> (b & 31)),
    Opcode.ASRI: _wrap(lambda a, b: _signed(a) >> (b & 31)),
}


def run_program(program: Program, config: Optional[MachineConfig] = None,
                arguments: Optional[Dict[int, int]] = None,
                max_steps: int = 1_000_000,
                collect_trace: bool = False) -> ExecutionResult:
    """Convenience wrapper: simulate ``program`` from its entry point."""
    simulator = Simulator(program, config, collect_trace)
    return simulator.run(max_steps=max_steps, arguments=arguments)
