"""Parallel sweep engine over the WCET analysis matrix.

:func:`run_sweep` executes a list of :class:`~repro.batch.jobs.JobSpec`
points as a deduplicated phase-task DAG (:mod:`repro.batch.dag`) on
the one executor (:mod:`repro.batch.scheduler`) — in-process at
``--jobs 1``, on a worker pool above — and returns their results in
*job order* regardless of completion order, so sweep output is
deterministic under any ``--jobs`` setting.  Each job runs the full
aiT pipeline through the phase-level artifact cache
(:mod:`repro.batch.cachestore`), and its result row records the bound,
per-phase seconds, solver work counters, cache classification counts,
and the cache hit/miss provenance of every phase.

Rows are plain JSON-able dicts; :meth:`SweepResult.write_jsonl` emits
them as JSON lines, one job per line, in job order.
"""

from __future__ import annotations

import json
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from . import scheduler as dag_scheduler
from .cachestore import ArtifactCache
from .dag import build_sweep_dag
from .jobs import JobSpec


@dataclass
class SweepResult:
    """Outcome of one sweep: rows in job order plus aggregate stats."""

    jobs: List[JobSpec]
    rows: List[dict]
    wall_seconds: float
    parallel: int
    cache_dir: Optional[str] = None
    used_cache: bool = True
    errors: List[str] = field(default_factory=list)
    #: DAG scheduler statistics:
    #: :meth:`repro.batch.scheduler.SchedulerStats.as_dict`.
    scheduler: Optional[dict] = None

    @property
    def cache_hits(self) -> int:
        return sum(row.get("cache", {}).get("hits", 0)
                   for row in self.rows)

    @property
    def cache_misses(self) -> int:
        return sum(row.get("cache", {}).get("misses", 0)
                   for row in self.rows)

    def hit_ratio(self) -> float:
        """Fraction of phase executions served from the cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def bounds(self) -> Dict[str, int]:
        return {f"{row['workload']}/{row['policy']}/{row['model']}":
                row["wcet_cycles"]
                for row in self.rows if "error" not in row}

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for row in self.rows:
                handle.write(json.dumps(row, sort_keys=True) + "\n")


def run_sweep(jobs: List[JobSpec],
              parallel: int = 1,
              cache_dir: Optional[str] = None,
              use_cache: bool = True,
              salt: Optional[str] = None,
              jsonl_path: Optional[str] = None,
              cache_limit_mb: Optional[float] = None,
              max_task_retries: int = dag_scheduler.DEFAULT_TASK_RETRIES,
              max_pool_rebuilds: int =
              dag_scheduler.DEFAULT_POOL_REBUILDS) -> SweepResult:
    """Run every job of the sweep and collect rows in job order.

    The sweep is one deduplicated phase-task DAG
    (:func:`repro.batch.dag.build_sweep_dag`): one task per distinct
    phase cache key across all jobs, handed out as dependencies
    complete.  ``parallel`` <= 1 runs it in-process on the store at
    ``cache_dir`` (default: an in-memory one); above, on a persistent
    worker pool whose workers exchange artifacts through the shared
    content-addressed store — a given ``cache_dir``, or a temporary
    spill directory when none is given (so an anonymous parallel sweep
    still starts cold, like the in-memory store).  ``use_cache=False``
    means no store: in-process nothing is keyed or stored, the pool
    exchanges artifacts through a temporary spill directory, and rows
    record no cache provenance.  ``salt`` overrides the code-version
    salt (tests only).
    ``cache_limit_mb`` bounds the on-disk store: after each write the
    least-recently-used objects are evicted until the store fits;
    workers treat objects evicted under them as misses and recompute.
    ``max_task_retries`` / ``max_pool_rebuilds`` bound the DAG
    scheduler's fault tolerance (task retry with backoff, dead-pool
    rebuild, then degraded in-process execution; see
    :func:`repro.batch.scheduler.run_dag`).
    """
    start = time.perf_counter()
    limit_bytes = int(cache_limit_mb * 1024 * 1024) \
        if cache_limit_mb is not None else None
    sweep_dag = build_sweep_dag(jobs, use_cache=use_cache)
    store = spill = None
    store_dir = cache_dir if use_cache else None
    if parallel <= 1:
        if use_cache and store_dir is None:
            store = ArtifactCache(None, salt=salt)
    elif store_dir is None:
        spill = tempfile.TemporaryDirectory(prefix="repro-dag-")
        store_dir = spill.name
    try:
        rows, stats = dag_scheduler.run_dag(
            sweep_dag, parallel=parallel, cache_dir=store_dir,
            salt=salt, limit_bytes=limit_bytes,
            max_task_retries=max_task_retries,
            max_pool_rebuilds=max_pool_rebuilds, store=store)
    finally:
        if spill is not None:
            spill.cleanup()

    errors = [f"{row['workload']}/{row['policy']}/{row['model']}: "
              f"{row['error']}" for row in rows if "error" in row]
    result = SweepResult(jobs=list(jobs), rows=rows,
                         wall_seconds=time.perf_counter() - start,
                         parallel=parallel, cache_dir=cache_dir,
                         used_cache=use_cache, errors=errors,
                         scheduler=stats.as_dict())
    if jsonl_path:
        result.write_jsonl(jsonl_path)
    return result
