"""Parallel sweep orchestration with content-addressed artifact caching.

The production layer over :func:`repro.wcet.ait.analyze_wcet`: expand
an analysis matrix (workloads x context policies x pipeline models)
into jobs, schedule them as a deduplicated DAG of phase tasks
in-process or on a worker pool, and never recompute a phase artifact whose inputs haven't
changed.  CI, the perf harness, the workload suite, and the
``repro batch`` CLI all drive this one engine.
"""

from .cachestore import ArtifactCache, code_version_salt
from .dag import (DAGCycleError, JobPlan, SweepDAG, TaskDAG, TaskNode,
                  build_sweep_dag)
from .engine import SweepResult, run_sweep
from .golden import (compare_rows, flatten_golden, golden_from_rows,
                     load_golden, merge_golden, save_golden)
from .jobs import ALL_POLICIES, JobSpec, expand_matrix, parse_policy
from .scheduler import SchedulerStats, clear_process_caches, run_dag

__all__ = [
    "ALL_POLICIES", "ArtifactCache", "DAGCycleError", "JobPlan",
    "JobSpec", "SchedulerStats", "SweepDAG", "SweepResult", "TaskDAG",
    "TaskNode", "build_sweep_dag", "clear_process_caches",
    "code_version_salt", "compare_rows", "expand_matrix",
    "flatten_golden", "golden_from_rows", "load_golden",
    "merge_golden", "parse_policy", "run_dag", "run_sweep",
    "save_golden",
]
