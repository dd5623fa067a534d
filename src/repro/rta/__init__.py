"""Multi-task response-time analysis (RTA) with cache-related
preemption delay (CRPD).

The single-task pipeline bounds each task in isolation; this package
composes those bounds into system-level schedulability verdicts:

* :mod:`repro.rta.taskset` — JSON task-set model (priorities, periods,
  jitter, OSEK preemption thresholds, workload bindings);
* :mod:`repro.rta.ucb` — useful/evicting cache blocks from the
  existing must/may cache fixpoint, giving per-pair CRPD bounds;
* :mod:`repro.rta.response` — each task's footprint, a stored phase
  of its plan, and the jitter-aware response-time recurrence solved on
  the shared WTO fixpoint kernel;
* :mod:`repro.rta.oracle` — preemptive-simulation checks (S7/S8);
* :mod:`repro.rta.sweep` — ordering × geometry schedulability sweeps
  with golden verdicts.
"""

from .oracle import verify_taskset
from .response import (RTAResult, TaskResponse, analyze_taskset,
                       footprint_of, response_times, solve_recurrence)
from .taskset import (ORDERINGS, RTTask, TaskSet, can_preempt,
                      load_taskset, parse_taskset)
from .ucb import (CacheUCB, TaskFootprint, analyze_ucb, crpd_cycles,
                  crpd_extra_misses, extra_miss_bound, full_refill_cycles)

__all__ = [
    "ORDERINGS", "RTTask", "TaskSet", "can_preempt", "load_taskset",
    "parse_taskset", "CacheUCB", "TaskFootprint", "analyze_ucb",
    "crpd_cycles", "crpd_extra_misses", "extra_miss_bound",
    "footprint_of", "full_refill_cycles", "RTAResult", "TaskResponse",
    "analyze_taskset", "response_times", "solve_recurrence",
    "verify_taskset",
]
