"""System-level stack analysis for OSEK/VDX-style task systems.

Reference [3] of the paper (Janz, "Das OSEK Echtzeitbetriebssystem,
Stackverwaltung und statische Stackbedarfsanalyse") describes how the
per-task worst-case stack bounds from StackAnalyzer combine into a
bound for *all* tasks sharing one stack on an Electronic Control Unit:
under fixed-priority preemptive scheduling a task can only be preempted
by strictly higher-priority work, so the worst case is the costliest
*preemption chain*, not the sum of all tasks.

The model supports OSEK's internal resources via *preemption
thresholds*: task ``U`` can preempt task ``T`` iff
``U.priority > T.threshold`` (``threshold`` defaults to the task's own
priority; a group of cooperating tasks shares a threshold).  ISRs are
ordinary high-priority entries.  :func:`can_preempt` states the rule
once; the response-time analysis (:mod:`repro.rta`) uses it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence


@dataclass(frozen=True)
class TaskSpec:
    """One task (or ISR) of the ECU."""

    name: str
    stack_bound: int              # bytes, from StackAnalyzer
    priority: int                 # higher = more urgent
    threshold: Optional[int] = None   # preemption threshold (>= priority)

    @property
    def effective_threshold(self) -> int:
        return self.priority if self.threshold is None else self.threshold

    def __post_init__(self):
        if self.stack_bound < 0:
            raise ValueError("stack_bound must be non-negative")
        if self.threshold is not None and self.threshold < self.priority:
            raise ValueError(
                f"threshold of {self.name} below its priority")


def can_preempt(preemptor, victim) -> bool:
    """The OSEK threshold rule: ``preemptor`` can preempt ``victim``
    iff its priority exceeds the victim's effective threshold.  Any
    task shape with ``priority`` and ``effective_threshold`` works
    (:class:`TaskSpec`, :class:`repro.rta.RTTask`)."""
    return preemptor.priority > victim.effective_threshold


@dataclass
class SystemStackResult:
    """Whole-system bound plus the witness preemption chain."""

    bound: int
    chain: List[TaskSpec]
    naive_sum: int                 # Σ all tasks (no preemption analysis)
    kernel_overhead: int

    @property
    def savings(self) -> int:
        """Bytes saved versus reserving the naive sum."""
        return self.naive_sum - self.bound

    def summary(self) -> str:
        names = " -> ".join(task.name for task in self.chain)
        return (f"system stack bound: {self.bound} bytes "
                f"(chain: {names}; naive sum {self.naive_sum})")


class OSEKStackAnalysis:
    """Worst-case shared-stack usage of a preemptive task system."""

    def __init__(self, tasks: Sequence[TaskSpec],
                 kernel_overhead_per_preemption: int = 0):
        if not tasks:
            raise ValueError("task set is empty")
        names = [task.name for task in tasks]
        if len(set(names)) != len(names):
            raise ValueError("duplicate task names")
        self.tasks = sorted(tasks, key=lambda task: task.priority)
        self.kernel_overhead = kernel_overhead_per_preemption

    def analyze(self) -> SystemStackResult:
        """Longest preemption chain by dynamic programming.

        Chains are sequences ``t1, t2, ...`` with
        ``priority(t_{i+1}) > threshold(t_i)``; since thresholds are at
        least priorities, chains are strictly priority-increasing, so a
        DP over tasks in priority order is exact.
        """
        n = len(self.tasks)
        best_total: List[int] = [0] * n
        best_prev: List[Optional[int]] = [None] * n
        for i, task in enumerate(self.tasks):
            best_total[i] = task.stack_bound
            for j in range(i):
                if can_preempt(task, self.tasks[j]):
                    candidate = best_total[j] + task.stack_bound \
                        + self.kernel_overhead
                    if candidate > best_total[i]:
                        best_total[i] = candidate
                        best_prev[i] = j
        best_index = max(range(n), key=lambda i: best_total[i])
        chain: List[TaskSpec] = []
        cursor: Optional[int] = best_index
        while cursor is not None:
            chain.append(self.tasks[cursor])
            cursor = best_prev[cursor]
        chain.reverse()
        # The naive reference (every task's stack simply summed) must
        # charge kernel overhead under the *same* preemption-
        # eligibility rule as the chains above: a task contributes a
        # preemption only if it can actually preempt some other task
        # (priority above that task's threshold).  Charging a flat
        # (n-1) would overstate the naive bound — and so the reported
        # savings — for threshold-grouped sets where nothing nests.
        preemptors = sum(
            1 for task in self.tasks
            if any(can_preempt(task, other)
                   for other in self.tasks if other is not task))
        naive = sum(task.stack_bound for task in self.tasks) + \
            self.kernel_overhead * min(preemptors, len(self.tasks) - 1)
        return SystemStackResult(
            bound=best_total[best_index],
            chain=chain,
            naive_sum=naive,
            kernel_overhead=self.kernel_overhead)


def analyze_system_stack(tasks: Sequence[TaskSpec],
                         kernel_overhead_per_preemption: int = 0
                         ) -> SystemStackResult:
    """Bound the shared stack of an OSEK-style task system (ref [3])."""
    analysis = OSEKStackAnalysis(tasks, kernel_overhead_per_preemption)
    return analysis.analyze()
