"""Bound verification against concrete execution.

The paper's central promise is that analysis results "hold for all
executions".  This module productises the test suite's soundness
obligations (S1-S4 of DESIGN.md) as a public API: given a program, its
analysis results, and a set of concrete runs, check that

* every run's cycle count is within the WCET bound (S1),
* every run's stack high-water mark is within the stack bound (S2),
* no always-hit access missed and no always-miss access hit (S4),
* measured loop iteration counts respect the loop bounds (S5),
* an overlapped-pipeline bound never exceeds the additive reference
  bound for the same task (S6, when a reference result is supplied —
  overlap can only tighten),
* a *preempted* run's observed response stays within the analyzed
  response time `R_i` (S7) and the extra cache misses the victim
  suffers after preemptions stay within the CRPD extra-miss budget
  (S8) — the multi-task obligations of :mod:`repro.rta`, exercised
  through the preemptive simulator hook
  (:meth:`repro.sim.cpu.Simulator.run_preemptive`).

This is the harness a certification workflow would run in hardware-in-
the-loop testing to corroborate (never replace) the static argument.
The concrete runs are always simulated under the *same*
:class:`~repro.cache.config.MachineConfig` (including its
``pipeline_model``) the bounds were derived for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..cache.abstract import Classification
from ..isa.program import Program
from ..sim.cpu import ExecutionResult, Simulator
from ..stack.analyzer import StackAnalysisResult
from ..wcet.ait import WCETResult


@dataclass
class Violation:
    """One observed contradiction of a verified bound (a genuine bug in
    the analyses if it ever occurs)."""

    kind: str
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.message}"


@dataclass
class VerificationReport:
    """Outcome of checking bounds against a batch of concrete runs."""

    runs: int = 0
    worst_cycles: int = 0
    worst_stack: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        verdict = "OK" if self.ok else \
            f"{len(self.violations)} VIOLATIONS"
        return (f"{self.runs} runs checked: worst {self.worst_cycles} "
                f"cycles / {self.worst_stack} B stack — {verdict}")


class BoundChecker:
    """Checks analysis results against concrete executions."""

    def __init__(self, program: Program,
                 wcet: Optional[WCETResult] = None,
                 stack: Optional[StackAnalysisResult] = None,
                 reference: Optional[WCETResult] = None):
        self.program = program
        self.wcet = wcet
        self.stack = stack
        #: Additive-model result for the same task; enables the S6
        #: model-tightness obligation.
        self.reference = reference
        self._cache_expectation = self._collect_cache_expectations()

    def check_model_tightness(self, report: VerificationReport) -> None:
        """S6: an overlapped-model bound must not exceed the additive
        reference bound (run-independent; checked once per report)."""
        if self.wcet is None or self.reference is None:
            return
        if self.wcet.wcet_cycles > self.reference.wcet_cycles:
            report.violations.append(Violation(
                "S6", f"{self.wcet.timing.model} bound "
                f"{self.wcet.wcet_cycles} exceeds the "
                f"{self.reference.timing.model} reference bound "
                f"{self.reference.wcet_cycles}"))

    def _collect_cache_expectations(self) -> Dict[int, Classification]:
        """Per-PC *data*-access expectation, when unambiguous.

        Only addresses whose every context/occurrence classifies the
        same way can be checked against a flat PC-indexed trace.
        """
        if self.wcet is None:
            return {}
        by_pc: Dict[int, Classification] = {}
        conflicted = set()
        for item in self.wcet.dcache.all_accesses():
            pc = item.access.instruction.address
            outcome = item.classification
            if pc in by_pc and by_pc[pc] is not outcome:
                conflicted.add(pc)
            by_pc[pc] = outcome
        for pc in conflicted:
            del by_pc[pc]
        return by_pc

    def check_run(self, result: ExecutionResult,
                  report: VerificationReport) -> None:
        report.runs += 1
        report.worst_cycles = max(report.worst_cycles, result.cycles)
        report.worst_stack = max(report.worst_stack,
                                 result.max_stack_usage)

        if self.wcet is not None \
                and result.cycles > self.wcet.wcet_cycles:
            report.violations.append(Violation(
                "S1", f"run took {result.cycles} cycles, bound is "
                f"{self.wcet.wcet_cycles}"))
        if self.stack is not None \
                and result.max_stack_usage > self.stack.bound:
            report.violations.append(Violation(
                "S2", f"run used {result.max_stack_usage} B of stack, "
                f"bound is {self.stack.bound}"))
        self._check_cache_trace(result, report)
        self._check_loop_counts(result, report)

    def _check_cache_trace(self, result: ExecutionResult,
                           report: VerificationReport) -> None:
        if not self._cache_expectation or not result.access_trace:
            return
        seen_miss = set()
        for event in result.access_trace:
            expected = self._cache_expectation.get(event.pc)
            if expected is None:
                continue
            if expected is Classification.ALWAYS_HIT and not event.hit:
                report.violations.append(Violation(
                    "S4", f"always-hit access at 0x{event.pc:x} missed "
                    f"(address 0x{event.address:x})"))
            elif expected is Classification.ALWAYS_MISS and event.hit:
                report.violations.append(Violation(
                    "S4", f"always-miss access at 0x{event.pc:x} hit "
                    f"(address 0x{event.address:x})"))
            elif expected is Classification.PERSISTENT and not event.hit:
                line = self.wcet.dcache.config.line_of(event.address)
                if (event.pc, line) in seen_miss:
                    report.violations.append(Violation(
                        "S4", f"persistent access at 0x{event.pc:x} "
                        f"missed twice on line {line}"))
                seen_miss.add((event.pc, line))

    def _check_loop_counts(self, result: ExecutionResult,
                           report: VerificationReport) -> None:
        """Loop bounds are per *entry*; the flat per-PC trace is bounded
        by the product of bounds along the loop-nest chain, summed over
        the header's context instances."""
        if self.wcet is None:
            return
        bounds = self.wcet.loop_bounds
        allowance: Dict[int, int] = {}
        feasible: Dict[int, bool] = {}
        for loop in self.wcet.values.loop_forest:
            total = 1
            bounded = True
            node = loop
            while node is not None:
                bound = bounds.get(node.header)
                if bound is None or not bound.is_bounded:
                    bounded = False
                    break
                per_entry = bound.max_iterations
                if node is loop:
                    # Under a peeling policy this loop object is only
                    # the steady-state copy; its peeled prologue copies
                    # execute the same header address up to once each
                    # per entry into the nest and are not loops of the
                    # expanded graph themselves.
                    per_entry += node.header.context.peel_of(
                        node.header.block)
                total *= per_entry
                node = node.parent
            address = loop.header.block
            if not bounded:
                feasible[address] = False
                continue
            allowance[address] = allowance.get(address, 0) + total
            feasible.setdefault(address, True)
        for address, limit in allowance.items():
            if not feasible.get(address, False):
                continue
            executed = result.instruction_counts.get(address, 0)
            if executed > limit:
                report.violations.append(Violation(
                    "S5", f"loop header 0x{address:x} executed "
                    f"{executed} times, nest allowance is {limit}"))


def check_preempted_run(result: ExecutionResult,
                        solo: ExecutionResult,
                        response_bound: Optional[int],
                        fetch_miss_budget: int,
                        data_miss_budget: int,
                        report: VerificationReport,
                        label: str = "") -> None:
    """S7/S8 for one preempted execution.

    ``solo`` is the same victim run without preemptions; the budgets
    are *per preemption* (they scale by the number of preemptions the
    run actually served).  ``response_bound`` is the analyzed response
    time including the preemptors' own execution; ``None`` (the task
    was not proven schedulable) skips S7 — there is no bound to hold.
    """
    tag = f" [{label}]" if label else ""
    report.runs += 1
    report.worst_cycles = max(report.worst_cycles, result.cycles)
    report.worst_stack = max(report.worst_stack,
                             result.max_stack_usage)
    served = len(result.preemptions)
    if response_bound is not None and result.cycles > response_bound:
        report.violations.append(Violation(
            "S7", f"preempted run took {result.cycles} cycles, "
            f"analyzed response time is {response_bound}{tag}"))
    extra_fetch = result.task_fetch_misses - solo.fetch_misses
    extra_data = result.task_data_misses - solo.data_misses
    if extra_fetch > fetch_miss_budget * served:
        report.violations.append(Violation(
            "S8", f"{extra_fetch} extra I-cache misses after "
            f"{served} preemption(s), CRPD budget is "
            f"{fetch_miss_budget} per preemption{tag}"))
    if extra_data > data_miss_budget * served:
        report.violations.append(Violation(
            "S8", f"{extra_data} extra D-cache misses after "
            f"{served} preemption(s), CRPD budget is "
            f"{data_miss_budget} per preemption{tag}"))


def verify_preemption(program: Program,
                      preemptor: Program,
                      config=None,
                      response_bound: Optional[int] = None,
                      fetch_miss_budget: int = 0,
                      data_miss_budget: int = 0,
                      fractions: Sequence[float] = (0.25, 0.5, 0.75),
                      max_steps: int = 2_000_000,
                      report: Optional[VerificationReport] = None,
                      label: str = "") -> VerificationReport:
    """Check S7/S8 for one victim/preemptor pair.

    Runs the victim solo once, then once per entry of ``fractions``
    with a single preemption by ``preemptor`` fired at that fraction
    of the solo run's instruction count.
    """
    if report is None:
        report = VerificationReport()
    solo = Simulator(program, config=config).run(max_steps=max_steps)
    for fraction in fractions:
        simulator = Simulator(program, config=config)
        preempted = simulator.run_preemptive(
            [(int(solo.steps * fraction), preemptor)],
            max_steps=max_steps)
        check_preempted_run(preempted, solo, response_bound,
                            fetch_miss_budget, data_miss_budget,
                            report, label=f"{label}@{fraction}")
    return report


def verify_bounds(program: Program,
                  wcet: Optional[WCETResult] = None,
                  stack: Optional[StackAnalysisResult] = None,
                  input_sets: Optional[
                      Sequence[Dict[int, int]]] = None,
                  max_steps: int = 2_000_000,
                  reference: Optional[WCETResult] = None
                  ) -> VerificationReport:
    """Run the program on each input set and check all bounds.

    ``input_sets`` is a sequence of ``{register: value}`` dicts (the
    empty run is always included); runs are simulated under the config
    (and hence pipeline model) of ``wcet``.  ``reference`` optionally
    supplies the additive-model result for the S6 tightness check.
    Returns a :class:`VerificationReport`; ``report.ok`` must be True
    unless the analyses are broken.
    """
    checker = BoundChecker(program, wcet, stack, reference)
    report = VerificationReport()
    checker.check_model_tightness(report)
    for arguments in [None] + list(input_sets or []):
        simulator = Simulator(program, config=wcet.config if wcet
                              else None, collect_trace=True)
        result = simulator.run(max_steps=max_steps, arguments=arguments)
        checker.check_run(result, report)
    return report
