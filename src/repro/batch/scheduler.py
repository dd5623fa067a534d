"""The phase-DAG executor behind every entry point.

:func:`run_dag` drains a :class:`~repro.batch.dag.SweepDAG` — a sweep
(``repro batch``), one ``analyze_wcet``/``analyze_workload`` call, or
one ``repro serve`` request — in one loop over a heap of ready tasks
keyed by build index and the futures of the tasks in flight.
``parallel`` decides only where a ready task runs:

* ``parallel <= 1``: in the calling process, with capacity one: the
  lowest-index ready task runs on the callers' own plans, and its
  artifact stays on its node for dependents; without a store no keys
  are derived and nothing is pickled.
* ``parallel > 1``: every ready task goes to a persistent
  :class:`~concurrent.futures.ProcessPoolExecutor` the moment its
  dependencies complete; idle workers take whatever is queued (work
  stealing, no per-group barriers).  Fork workers inherit the parent's
  plans (other start methods rebuild them from job specs) and exchange
  artifacts through the store's directory
  (:mod:`repro.batch.cachestore`); a vanished object — e.g. an
  eviction under ``--cache-limit-mb`` — is a miss and recomputed
  transitively, never raised.

A task that returns an error fails at once, and with it every
transitive dependent, into error rows: no task error is transient.
The store turns a vanished object into a miss and an unreadable one
into a quarantine plus a recompute, and it swallows failed writes, so
what reaches a task's outcome is the analysis itself rejecting its
input (an unbounded loop, a malformed CFG), which fails the same way
when run again.  Only the work a dead worker lost runs again: a
``BrokenProcessPool`` puts the tasks in flight back on the ready heap
and the pool is rebuilt up to :data:`MAX_POOL_REBUILDS` times, after
which the same loop carries on without a pool — slower, but every row
still completes with bit-identical bounds.  The resubmission, rebuild
and degraded counters land in :class:`SchedulerStats`, a plain record
whose fields are the keys of ``SweepResult.scheduler`` (read as
``dict(vars(stats))``, like every work-counter record).
"""

from __future__ import annotations

import functools
import heapq
import multiprocessing
import os
import threading
import time
from concurrent.futures import (FIRST_COMPLETED, Future,
                                ProcessPoolExecutor, wait)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import faults
from ..wcet.ait import PHASES, WCETResult, build_wcet_result
from .cachestore import ArtifactCache, code_version_salt
from .dag import (_PLAN_MEMO, _PROGRAM_MEMO, JobPlan, SweepDAG, TaskNode,
                  _plan_for, build_sweep_dag)
from .jobs import JobSpec

#: How often a broken pool is rebuilt before the run degrades to
#: in-process execution.
MAX_POOL_REBUILDS = 3


class JobCancelled(Exception):
    """The run's cancel event fired between tasks."""


class JobTimeout(Exception):
    """The run's wall-clock deadline expired."""


# -- Per-process state -----------------------------------------------------------
#
# Artifact caches are memoised per process, like compiled binaries and
# job plans (:func:`repro.batch.dag._plan_for`), and reused across all
# its tasks.

_CACHE_MEMO: Dict[Tuple[Optional[str], Optional[str], Optional[int]],
                  ArtifactCache] = {}


def clear_process_caches() -> None:
    """Drop this process's compiled-program, plan and artifact-cache
    memos.

    Benchmark harnesses call this between measured sweeps so a "cold"
    run really is cold, and so artifacts of deleted temporary cache
    directories don't stay pinned in memory for the process lifetime.
    """
    _PROGRAM_MEMO.clear()
    _PLAN_MEMO.clear()
    _CACHE_MEMO.clear()


def _worker_cache(cache_dir: Optional[str], salt: Optional[str],
                  limit_bytes: Optional[int]) -> ArtifactCache:
    # Normalize before keying: salt=None means code_version_salt(), so
    # passing the default explicitly must address the same cache (and
    # the same hit/miss stats), not build a twin with a split memo.
    salt = salt if salt is not None else code_version_salt()
    memo_key = (cache_dir, salt, limit_bytes)
    cache = _CACHE_MEMO.get(memo_key)
    if cache is None:
        cache = ArtifactCache(cache_dir, salt=salt,
                              limit_bytes=limit_bytes)
        _CACHE_MEMO[memo_key] = cache
    return cache


class _TaskContext:
    """Artifact resolution for one job's plan.

    A template's artifact comes from the in-process run's finished
    ``nodes`` (template -> :class:`~repro.batch.dag.TaskNode`), else
    from the store under the key of the template's identity
    (:attr:`~repro.batch.dag.JobPlan.identities`), else from computing
    it.  Resolution is *self-healing*: a dependency artifact that
    should be in the store but is not (evicted under
    ``--cache-limit-mb``, or a corrupt object) is recomputed
    transitively instead of raising — the eviction race degrades to
    redundant work, never to a failure.
    """

    def __init__(self, plan: JobPlan, cache: Optional[ArtifactCache],
                 nodes: Optional[Dict[str, TaskNode]] = None):
        self.plan = plan
        self.cache = cache
        self.nodes = nodes or {}

    def ensure(self, template: str) -> Tuple[Any, bool]:
        """The template's artifact, and whether this call computed it.

        Without a store it is computed and no key is derived.  With
        one it is routed through the cache's single-flight latch: when
        two threads (e.g. concurrent identical ``repro serve`` requests
        sharing one in-process cache) race on the same key, one
        computes and the other blocks on its latch — dedup happens
        *before* the work starts."""
        if self.cache is None:
            return self._compute(template), True
        return self.cache.fetch_or_compute(
            self.cache.key(self.plan.identities[template]),
            lambda: self._compute(template))

    def value_of(self, template: str) -> Any:
        node = self.nodes.get(template)
        if node is not None and node.value is not None:
            return node.value
        return self.ensure(template)[0]

    def _compute(self, template: str) -> Any:
        task = self.plan.templates[template]
        return task.compute({dep: self.value_of(dep) for dep in task.deps})


def _result_row(spec: JobSpec, result: WCETResult,
                wall_seconds: float, compile_seconds: float) -> dict:
    events = list(result.cache_events.values())
    return {
        "workload": spec.workload,
        "policy": spec.policy,
        "model": spec.model,
        "wcet_cycles": result.wcet_cycles,
        "lp_bound": result.path.lp_bound,
        "integral": result.path.integral,
        "graph": {"nodes": result.graph.node_count(),
                  "edges": result.graph.edge_count(),
                  "contexts": len(result.graph.contexts())},
        "icache": dict(vars(result.icache.stats)),
        "dcache": dict(vars(result.dcache.stats)),
        "solver_stats": {name: dict(vars(stats))
                         for name, stats in result.solver_stats.items()},
        "phase_seconds": {phase: round(seconds, 6)
                          for phase, seconds
                          in result.phase_seconds.items()},
        "wall_seconds": round(wall_seconds, 6),
        "compile_seconds": round(compile_seconds, 6),
        "cache": {"events": dict(result.cache_events),
                  "hits": events.count("hit"),
                  "misses": events.count("miss")},
    }


def _execute(context: _TaskContext, template: str,
             row: Sequence = ()) -> Tuple[Any, dict]:
    """Run one task on its job's context: ensure a phase artifact, or
    assemble the job's WCETResult and row from the scheduler's ``row``
    attribution ``(spec, events, phase_seconds, wall, compile)``.
    Returns the task's artifact and its outcome fields."""
    if template != "row":
        value, computed = context.ensure(template)
        return value, {"computed": computed}
    spec, events, phase_seconds, *seconds = row
    plan = context.plan
    artifacts = {phase: context.value_of(phase) for phase in PHASES}
    result = build_wcet_result(plan.program, plan.config, artifacts,
                               phase_seconds, events,
                               domain_impl=plan.domain_impl,
                               profiles=plan.profiles)
    return result, {"row": _result_row(spec, result, *seconds)}


def _transportable(task):
    """Run ``task`` but hand exceptions back as plain error payloads.

    Raising across the result pipe is not safe: an exception whose
    class does not survive a pickle round-trip (e.g. a two-argument
    ``__init__`` without a custom ``__reduce__``) blows up in the
    parent's result thread, which declares the whole *pool* broken —
    one bad workload would take every in-flight job down with it.
    A string ``{"error": ...}`` payload always pickles, so task
    failure stays a per-task event no matter what was raised.
    """
    @functools.wraps(task)
    def shielded(payload):
        start = time.perf_counter()
        try:
            return task(payload)
        except Exception as exc:
            return {"pid": os.getpid(),
                    "error": f"{type(exc).__name__}: {exc}",
                    "seconds": time.perf_counter() - start}
    return shielded


def _cache_stats(cache: Optional[ArtifactCache]) -> dict:
    if cache is None:
        return {}
    return {"memo": cache.memo_stats(), "quarantined": cache.quarantined}


@_transportable
def _pool_task(payload: Tuple) -> dict:
    """Pool task: one :func:`_execute` against the shared store; a row
    task carries the parent's provenance and timing attribution."""
    faults.worker_task_started()
    spec, template, root, salt, limit_bytes, *row = payload
    plan, _ = _plan_for(spec)
    cache = _worker_cache(root, salt, limit_bytes)
    start = time.perf_counter()
    _, outcome = _execute(_TaskContext(plan, cache), template, row)
    return {"pid": os.getpid(), "seconds": time.perf_counter() - start,
            **outcome, **_cache_stats(cache)}


# -- Parent-side scheduling loop -------------------------------------------------


def _pool_context():
    # Fork workers inherit the imported analysis modules, avoiding a
    # per-worker re-import; unavailable on some platforms.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


@dataclass
class SchedulerStats:
    """What the DAG scheduler did with a sweep.  :func:`run_dag` fills
    the last four fields when it finishes; the sweep engine reads the
    record as ``dict(vars(stats))``."""

    workers: int
    phase_refs: int = 0
    unique_tasks: int = 0
    deduped_tasks: int = 0
    computed_tasks: int = 0
    cache_served_tasks: int = 0
    steals: int = 0
    #: task re-executions: resubmissions of the tasks that were in
    #: flight when the pool died.
    retries: int = 0
    #: times a BrokenProcessPool was replaced with a fresh pool.
    pool_rebuilds: int = 0
    #: tasks executed in-process after the rebuild budget ran out
    #: (0 = the sweep never degraded).
    degraded_tasks: int = 0
    #: quarantine events, summed over the workers' latest cache counters.
    quarantined: int = 0
    wall_seconds: float = 0.0
    #: worker pid (as a string) -> fraction of the wall clock it spent
    #: executing tasks.
    worker_busy_fraction: Dict[str, float] = field(default_factory=dict)
    #: in-memory memo occupancy (entries, bytes, evictions), summed
    #: over the workers' latest ``ArtifactCache.memo_stats()``.
    memo: Dict[str, int] = field(default_factory=dict)


def _error_row(spec: JobSpec, message: str) -> dict:
    return {"workload": spec.workload, "policy": spec.policy,
            "model": spec.model, "error": message}


def run_dag(sweep: SweepDAG, parallel: int = 1,
            store: Optional[ArtifactCache] = None,
            cancel: Optional[threading.Event] = None,
            deadline: Optional[float] = None
            ) -> Tuple[List[dict], SchedulerStats]:
    """Drain the sweep DAG in this process (``parallel <= 1``) or on a
    pool of ``parallel`` workers; returns rows in job order (error rows
    for failed jobs) and the scheduler's statistics.

    Tasks use ``store``; pool workers open ``store.root``, so a pool
    needs a store on disk.  A task that errors fails its jobs at once;
    a dead pool is rebuilt up to :data:`MAX_POOL_REBUILDS` times, and
    past that budget the loop carries on without a pool (degraded
    mode).
    ``cancel`` (an event) and ``deadline`` (a :func:`time.monotonic`
    instant) are checked between tasks and raise :class:`JobCancelled`
    / :class:`JobTimeout`.
    """
    start = time.perf_counter()
    dag = sweep.dag
    stats = SchedulerStats(workers=parallel, **sweep.stats())
    rows: List[Optional[dict]] = [None] * len(sweep.jobs)
    for job_index, message in sweep.build_errors.items():
        rows[job_index] = _error_row(sweep.jobs[job_index], message)

    def job_index_of(node: TaskNode) -> Optional[int]:
        return node.refs[0][0] if node.kind == "row" else None

    def row_attribution(job_index: int) -> tuple:
        return (sweep.jobs[job_index], sweep.row_events(job_index),
                *sweep.row_timing(job_index))

    def payload_for(node: TaskNode) -> tuple:
        row = row_attribution(job_index_of(node)) if node.kind == "row" \
            else ()
        return (node.spec, node.template, store.root, store.salt,
                store.limit_bytes, *row)

    def check_abort() -> None:
        if cancel is not None and cancel.is_set():
            raise JobCancelled()
        if deadline is not None and time.monotonic() >= deadline:
            raise JobTimeout()

    def record_failure(node: TaskNode, message: str) -> None:
        for failed in dag.fail(node, message):
            failed_index = job_index_of(failed)
            if failed_index is not None and rows[failed_index] is None:
                rows[failed_index] = _error_row(failed.spec, failed.error)

    # Per worker pid: seconds spent executing tasks, and the latest
    # memo snapshot and cumulative quarantine count of its cache.
    busy: Dict[int, float] = {}
    memo: Dict[int, dict] = {}
    quarantined: Dict[int, int] = {}

    def absorb(node: TaskNode, outcome: dict) -> List[TaskNode]:
        """Book one task outcome; an error outcome fails the task.
        Returns the newly-released dependents."""
        pid = outcome["pid"]
        seconds = outcome["seconds"]
        busy[pid] = busy.get(pid, 0.0) + seconds
        if "memo" in outcome:
            memo[pid] = outcome["memo"]
            quarantined[pid] = outcome["quarantined"]
        error = outcome.get("error")
        if error is not None:
            record_failure(node, error)
            return []
        if node.deps:
            handoff = max(node.deps,
                          key=lambda dep: dep.finish_order or 0)
            if handoff.worker is not None and handoff.worker != pid:
                stats.steals += 1
        computed = outcome.get("computed")
        if node.kind == "row":
            rows[job_index_of(node)] = outcome["row"]
        elif computed:
            stats.computed_tasks += 1
        else:
            stats.cache_served_tasks += 1
        return dag.complete(node, computed=computed, seconds=seconds,
                            worker=pid)

    contexts: Dict[int, _TaskContext] = {}

    def run_here(node: TaskNode) -> dict:
        """Execute one task in this process; its artifact stays on the
        node for dependents, row assembly and the caller."""
        start = time.perf_counter()
        try:
            job_index, template = node.refs[0]
            context = contexts.get(job_index)
            if context is None:
                context = contexts[job_index] = _TaskContext(
                    sweep.plans[job_index], store,
                    sweep.job_phase_nodes[job_index])
            row = row_attribution(job_index) if node.kind == "row" else ()
            node.value, outcome = _execute(context, template, row)
        except Exception as exc:
            node.exception = exc
            outcome = {"error": f"{type(exc).__name__}: {exc}"}
        return {"pid": os.getpid(), "seconds": time.perf_counter() - start,
                **outcome, **_cache_stats(store)}

    # Without a pool (parallel <= 1, or degraded) the loop runs one task
    # here and wraps its outcome in a completed future, so both kinds of
    # outcome are booked by the same code.  Worker-kill faults never fire
    # in this process (faults.worker_task_started), so a sweep whose pool
    # keeps dying still terminates with complete rows.
    ready = [node.index for node in dag.start()]
    futures: Dict[Future, TaskNode] = {}
    pool: Optional[ProcessPoolExecutor] = None
    degraded = False
    try:
        while ready or futures:
            check_abort()
            broken = False
            if parallel <= 1 or degraded:
                node = dag.nodes[heapq.heappop(ready)]
                stats.degraded_tasks += degraded
                future = Future()
                future.set_result(run_here(node))
                futures[future] = node
            else:
                if pool is None:
                    pool = ProcessPoolExecutor(
                        max_workers=parallel, mp_context=_pool_context())
                try:
                    while ready:
                        node = dag.nodes[ready[0]]
                        futures[pool.submit(_pool_task,
                                            payload_for(node))] = node
                        heapq.heappop(ready)
                except BrokenProcessPool:
                    broken = True
            if not broken:
                done, _ = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    node = futures.pop(future)
                    error = future.exception()
                    if isinstance(error, BrokenProcessPool):
                        futures[future] = node    # still in flight
                        broken = True
                    elif error is not None:
                        record_failure(node,
                                       f"{type(error).__name__}: {error}")
                    else:
                        for released in absorb(node, future.result()):
                            heapq.heappush(ready, released.index)
            if broken:
                # Everything in flight is re-executed: on a fresh pool
                # while the rebuild budget lasts, in this process after.
                stats.retries += len(futures)
                for node in futures.values():
                    heapq.heappush(ready, node.index)
                futures.clear()
                pool.shutdown()
                pool = None
                degraded = stats.pool_rebuilds == MAX_POOL_REBUILDS
                if not degraded:
                    stats.pool_rebuilds += 1
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    wall = time.perf_counter() - start
    stats.wall_seconds = round(wall, 6)
    if wall > 0:
        stats.worker_busy_fraction = {
            str(pid): round(seconds / wall, 4)
            for pid, seconds in sorted(busy.items())}
    stats.quarantined = sum(quarantined.values())
    stats.memo = {name: sum(snapshot.get(name, 0)
                            for snapshot in memo.values())
                  for name in ("entries", "bytes", "evictions")}
    return rows, stats


def run_plans(plans: Sequence[JobPlan],
              store: Optional[ArtifactCache] = None,
              cancel: Optional[threading.Event] = None,
              deadline: Optional[float] = None
              ) -> Tuple[List[dict], SweepDAG]:
    """Run in-process callers' plans as one DAG in this process;
    returns the rows and the drained DAG (see
    :meth:`~repro.batch.dag.SweepDAG.artifact`).  A failing task's
    exception reaches the caller."""
    sweep = build_sweep_dag([plan.spec for plan in plans],
                            use_cache=store is not None, plans=plans)
    rows, _ = run_dag(sweep, store=store, cancel=cancel,
                      deadline=deadline)
    for node in sweep.dag.nodes:
        if node.exception is not None:
            raise node.exception
    return rows, sweep
