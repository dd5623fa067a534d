"""Response-time analysis with CRPD, on the shared WTO kernel.

The classic Joseph–Pandya recurrence, extended with release jitter and
the cache-related preemption delay of :mod:`repro.rta.ucb`::

    R_i = C_i + Σ_{j ∈ hp(i)} ⌈(R_i + J_j) / T_j⌉ · (C_j + γ_ij + CS)

where ``hp(i)`` are the tasks that can preempt *i* (the OSEK threshold
rule shared with the stack analysis), ``γ_ij = CRPD(i, j)`` and ``CS``
the kernel context-switch cost.  The recurrence is a monotone function
on a finite chain — the integers up to the task's deadline, saturated
at ``deadline + 1`` — so it is solved on the same
:class:`~repro.analysis.fixpoint.FixpointKernel` every other fixpoint
in this repo runs on: a single self-loop node whose transfer *is* the
recurrence.  Saturation makes divergence (utilization > 1) terminate
in the "unschedulable" verdict instead of iterating forever.

Per-task WCETs (``C_i``) come from the ordinary phase pipeline through
a shared :class:`~repro.batch.cachestore.ArtifactCache`, so a task set
over N tasks costs N cached single-task analyses — tasks binding the
same workload, and repeated sweeps over the same set, dedup through
the store instead of recomputing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..analysis.fixpoint import FixpointKernel, FixpointSemantics
from ..cache.config import MachineConfig
from .taskset import RTTask, TaskSet
from .ucb import (TaskFootprint, crpd_cycles, crpd_extra_misses,
                  footprint_of, full_refill_cycles)


def _ceil_div(numerator: int, denominator: int) -> int:
    return -(-numerator // denominator)


class _RecurrenceSemantics(FixpointSemantics):
    """The RTA recurrence as a transfer function on saturated ints.

    Domain: integers ordered by ≤, truncated at ``limit + 1`` (the
    *unschedulable* sentinel).  Join is max, the transfer is monotone,
    the chain is finite — the kernel's recursive strategy terminates
    unconditionally, with no widening."""

    widening = False

    def __init__(self, recurrence, limit: int):
        self.recurrence = recurrence
        self.limit = limit

    def transfer(self, node: Any, state: int) -> int:
        return min(self.recurrence(state), self.limit + 1)

    def join(self, old: int, new: int) -> int:
        return max(old, new)

    def leq(self, a: int, b: int) -> bool:
        return a <= b

    def is_bottom(self, state: int) -> bool:
        return False

    def copy(self, state: int) -> int:
        return state


def solve_recurrence(start: int, recurrence,
                     limit: int) -> Tuple[Optional[int], int]:
    """Least fixpoint of ``R = recurrence(R)`` above ``start``, or
    ``None`` once it climbs past ``limit``.  Returns ``(value,
    iterations)``; ``iterations`` counts transfer evaluations."""
    semantics = _RecurrenceSemantics(recurrence, limit)
    kernel = FixpointKernel(
        "R", lambda node: ("loop",), lambda edge: "R", semantics)
    states = kernel.solve(min(start, limit + 1))
    value = states["R"]
    iterations = kernel.stats.transfers
    if value > limit:
        return None, iterations
    return value, iterations


@dataclass(frozen=True)
class TaskResponse:
    """Analyzed response of one task."""

    name: str
    priority: int
    period: int
    deadline: int
    wcet_cycles: int                   # C_i
    response: Optional[int]            # R_i; None = not schedulable
    naive_response: Optional[int]      # R_i under full-refill CRPD
    crpd: Dict[str, int]               # γ_ij per preempting task
    iterations: int
    naive_iterations: int = 0

    @property
    def schedulable(self) -> bool:
        return self.response is not None


def response_times(taskset: TaskSet,
                   wcet_cycles: Mapping[str, int],
                   crpd: Mapping[Tuple[str, str], int],
                   naive_crpd: Optional[int] = None
                   ) -> List[TaskResponse]:
    """Solve the recurrence for every task of ``taskset``.

    ``crpd[(victim, preemptor)]`` supplies γ in cycles;
    ``naive_crpd`` (a single full-refill figure) additionally solves
    the naive reference recurrence every γ replaced by it — the bound
    a CRPD-oblivious analysis would have to use.
    """
    responses = []
    switch = taskset.context_switch_cycles
    for task in taskset.tasks:
        c_i = wcet_cycles[task.name]
        hp = taskset.preemptors_of(task)
        limit = task.effective_deadline
        gamma = {p.name: crpd[(task.name, p.name)] for p in hp}

        def solve(gamma: Mapping[str, int]) -> Tuple[Optional[int], int]:
            # C_j + γ_ij + CS: what one release of preemptor j costs.
            cost = {p.name: wcet_cycles[p.name] + gamma[p.name] + switch
                    for p in hp}

            def recurrence(R: int) -> int:
                total = c_i
                for preemptor in hp:
                    arrivals = _ceil_div(R + preemptor.jitter,
                                         preemptor.period)
                    total += arrivals * cost[preemptor.name]
                return total

            return solve_recurrence(c_i, recurrence, limit)

        response, iterations = solve(gamma)
        naive_response: Optional[int] = None
        naive_iterations = 0
        if naive_crpd is not None:
            naive_response, naive_iterations = solve(
                dict.fromkeys(gamma, naive_crpd))
        responses.append(TaskResponse(
            name=task.name, priority=task.priority,
            period=task.period, deadline=limit,
            wcet_cycles=c_i, response=response,
            naive_response=naive_response, crpd=gamma,
            iterations=iterations,
            naive_iterations=naive_iterations))
    return responses


@dataclass
class TaskAnalysis:
    """Everything the oracle needs about one task."""

    task: RTTask
    program: Any                    # compiled Program
    wcet: Any                       # WCETResult
    footprint: TaskFootprint


@dataclass
class RTAResult:
    """Full analysis of one task set under one machine config."""

    taskset: TaskSet
    config: MachineConfig
    responses: List[TaskResponse]
    details: Dict[str, TaskAnalysis] = field(default_factory=dict)
    #: Full-refill CRPD figure the naive responses were solved with.
    naive_crpd_cycles: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def schedulable(self) -> bool:
        return all(r.schedulable for r in self.responses)

    def response_of(self, name: str) -> TaskResponse:
        for response in self.responses:
            if response.name == name:
                return response
        raise KeyError(name)

    def miss_budgets(self, victim: str,
                     preemptor: str) -> Tuple[int, int]:
        """(I-cache, D-cache) extra-miss budgets per preemption —
        the S8 obligation for this pair."""
        return crpd_extra_misses(self.details[victim].footprint,
                                 self.details[preemptor].footprint)

    def rows(self) -> List[Dict[str, Any]]:
        """JSON-friendly per-task summary (CLI and golden files)."""
        return [{
            "task": r.name,
            "priority": r.priority,
            "period": r.period,
            "deadline": r.deadline,
            "wcet_cycles": r.wcet_cycles,
            "response": r.response,
            "naive_response": r.naive_response,
            "crpd": dict(sorted(r.crpd.items())),
            "schedulable": r.schedulable,
        } for r in self.responses]


def analyze_taskset(taskset: TaskSet,
                    config: Optional[MachineConfig] = None,
                    cache=None) -> RTAResult:
    """Analyze a task set end to end.

    Per-task WCETs are ordinary cached ``analyze_wcet`` phase products
    (one shared ``cache`` across all tasks — pass the sweep's store to
    dedup across jobs) of binaries compiled once per process
    (:func:`repro.batch.dag.compiled_program`); UCB/ECB footprints
    derive from the artifacts those analyses already carry.
    """
    from ..batch.cachestore import ArtifactCache
    from ..batch.dag import compiled_program
    from ..workloads.suite import analyze_workload, get_workload

    config = config or MachineConfig.default()
    if cache is None:
        cache = ArtifactCache()
    hits0, misses0 = cache.hits, cache.misses

    details: Dict[str, TaskAnalysis] = {}
    footprints: Dict[str, TaskFootprint] = {}
    for task in taskset.tasks:
        workload = get_workload(task.workload)
        program, _ = compiled_program(workload)
        wcet = analyze_workload(workload, config=config,
                                program=program, phase_cache=cache)
        footprint = footprints.get(task.workload)
        if footprint is None:
            footprint = footprint_of(wcet)
            footprints[task.workload] = footprint
        details[task.name] = TaskAnalysis(
            task=task, program=program, wcet=wcet,
            footprint=footprint)

    wcet_cycles = {name: analysis.wcet.wcet_cycles
                   for name, analysis in details.items()}
    crpd: Dict[Tuple[str, str], int] = {}
    for task in taskset.tasks:
        for preemptor in taskset.preemptors_of(task):
            crpd[(task.name, preemptor.name)] = crpd_cycles(
                details[task.name].footprint,
                details[preemptor.name].footprint)
    naive = full_refill_cycles(config.icache, config.dcache)
    responses = response_times(taskset, wcet_cycles, crpd,
                               naive_crpd=naive)
    return RTAResult(
        taskset=taskset, config=config, responses=responses,
        details=details, naive_crpd_cycles=naive,
        cache_hits=cache.hits - hits0,
        cache_misses=cache.misses - misses0)
