"""The phase-DAG executor behind every entry point.

:func:`run_dag` drains a :class:`~repro.batch.dag.SweepDAG` — a sweep
(``repro batch``), one ``analyze_wcet``/``analyze_workload`` call, or
one ``repro serve`` request — on the backend ``parallel`` selects:

* ``parallel <= 1``: the *inline* backend runs the tasks in the
  calling process, lowest build index first, on the callers' own
  plans; it hands the artifacts it holds to dependents instead of
  reading them back from the store, and without a store derives no
  keys and pickles nothing.
* ``parallel > 1``: a persistent
  :class:`~concurrent.futures.ProcessPoolExecutor` whose workers serve
  one shared ready queue (work stealing falls out), with tasks handed
  out the moment their dependencies complete and no per-group
  barriers.  Workers rebuild plans from job specs and exchange
  artifacts through the shared content-addressed store
  (:mod:`repro.batch.cachestore`); a vanished object — e.g. an
  eviction under ``--cache-limit-mb`` — is a miss and recomputed
  transitively, never raised.

Failure handling is *healing*, not aborting: a task that errors is
retried with exponential backoff up to a per-task budget before its
transitive dependents fail into error rows; a dead worker
(``BrokenProcessPool``) triggers a bounded number of pool *rebuilds*
with the in-flight tasks resubmitted; and once the rebuild budget is
spent the remaining schedule degrades to the inline backend — slower,
but every row still completes with bit-identical bounds.  The
retry/rebuild/degraded counters land in :class:`SchedulerStats`.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import multiprocessing
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import faults
from ..domainimpl import resolve_domain_impl
from ..isa.program import Program
from ..wcet.ait import PHASES, WCETResult, build_wcet_result
from ..workloads.suite import get_workload
from .cachestore import ArtifactCache, code_version_salt
from .dag import JobPlan, SweepDAG, TaskNode, build_sweep_dag
from .jobs import JobSpec

#: Default fault-tolerance budgets: how often one task may fail before
#: its jobs become error rows, how often a broken pool is rebuilt
#: before degrading to in-process execution, and the base of the
#: exponential retry backoff.
DEFAULT_TASK_RETRIES = 2
DEFAULT_POOL_REBUILDS = 3
DEFAULT_RETRY_BACKOFF = 0.05


class JobCancelled(Exception):
    """The run's cancel event fired between tasks."""


class JobTimeout(Exception):
    """The run's wall-clock deadline expired."""


# -- Per-process state -----------------------------------------------------------
#
# Module-level memos live in each process that runs sweep tasks (fork
# workers inherit the parent's): compiled binaries, executable job
# plans and artifact caches are reused across all its tasks.

_PROGRAM_MEMO: Dict[str, Program] = {}
_PLAN_MEMO: Dict[Tuple[str, str, str, Optional[str]], JobPlan] = {}
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


def _plan_for(spec: JobSpec,
              domain_impl: Optional[str]) -> Tuple[JobPlan, float]:
    """The memoised plan of one sweep job, and the seconds this call
    spent compiling its program (0.0 when the binary was memoised)."""
    memo_key = (spec.workload, spec.policy, spec.model, domain_impl)
    plan = _PLAN_MEMO.get(memo_key)
    compile_seconds = 0.0
    if plan is None:
        workload = get_workload(spec.workload)
        program = _PROGRAM_MEMO.get(spec.workload)
        if program is None:
            start = time.perf_counter()
            program = _PROGRAM_MEMO[spec.workload] = workload.compile()
            compile_seconds = time.perf_counter() - start
        plan = _PLAN_MEMO[memo_key] = JobPlan(
            program, workload, spec, manual_loop_bounds={},
            context_policy=spec.policy_object(), pipeline_model=spec.model,
            memory_ranges=workload.memory_ranges(program),
            domain_impl=domain_impl)
    return plan, compile_seconds


class _TaskContext:
    """Key and artifact resolution for one job's plan: the only code
    that chains keys or resolves artifacts.

    Keys are derived from dependency keys, and only with a store.
    Artifacts come from the inline backend's finished ``nodes`` (template
    -> :class:`~repro.batch.dag.TaskNode`), else from the store.
    Resolution is *self-healing*: a dependency artifact that should be
    in the store but is not (evicted under ``--cache-limit-mb``, or a
    corrupt object) is recomputed transitively instead of raising —
    the eviction race degrades to redundant work, never to a failure.
    """

    def __init__(self, plan: JobPlan, cache: Optional[ArtifactCache],
                 nodes: Optional[Dict[str, TaskNode]] = None):
        self.plan = plan
        self.cache = cache
        self.nodes = nodes or {}
        self._keys: Dict[str, str] = {}

    def key_of(self, template: str) -> str:
        key = self._keys.get(template)
        if key is None:
            task = self.plan.templates[template]
            dep_keys = {dep: self.key_of(dep) for dep in task.deps
                        if self.plan.templates[dep].material is not None}
            key = self.cache.key(task.material(dep_keys, self.value_of))
            self._keys[template] = key
        return key

    def ensure(self, template: str) -> Tuple[Any, bool]:
        """The template's artifact, and whether this call computed it.

        Routed through the cache's single-flight latch: when two
        threads (e.g. concurrent identical ``repro serve`` requests
        sharing one in-process cache) race on the same key, one
        computes and the other blocks on its latch — dedup happens
        *before* the work starts.  A template without key material is
        recomputed, never stored."""
        if self.cache is None:
            return self._compute(template), True
        if self.plan.templates[template].material is None:
            return self._compute(template), False
        return self.cache.fetch_or_compute(
            self.key_of(template), lambda: self._compute(template))

    def value_of(self, template: str) -> Any:
        node = self.nodes.get(template)
        if node is not None and node.value is not None:
            return node.value
        return self.ensure(template)[0]

    def _compute(self, template: str) -> Any:
        task = self.plan.templates[template]
        return task.compute({dep: self.value_of(dep) for dep in task.deps})


def _result_row(spec: JobSpec, result: WCETResult,
                wall_seconds: float,
                compile_seconds: float = 0.0) -> dict:
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
        "solver_stats": {name: stats.as_dict()
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
    attribution ``(spec, events, phase_seconds, wall[, compile])``.
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
    spec, template, cache_dir, salt, limit_bytes, impl, *row = payload
    plan, _ = _plan_for(spec, impl)
    cache = _worker_cache(cache_dir, salt, limit_bytes)
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
    """What the DAG scheduler did with a sweep."""

    workers: int
    phase_refs: int = 0
    unique_tasks: int = 0
    deduped_tasks: int = 0
    computed_tasks: int = 0
    cache_served_tasks: int = 0
    steals: int = 0
    #: task re-executions: error-payload retries plus resubmissions of
    #: tasks that were in flight when the pool died.
    retries: int = 0
    #: times a BrokenProcessPool was replaced with a fresh pool.
    pool_rebuilds: int = 0
    #: tasks executed in-process after the rebuild budget ran out
    #: (0 = the sweep never degraded).
    degraded_tasks: int = 0
    wall_seconds: float = 0.0
    #: worker pid -> seconds spent executing tasks.
    worker_busy: Dict[int, float] = field(default_factory=dict)
    #: worker pid -> latest ArtifactCache.memo_stats() snapshot.
    worker_memo: Dict[int, dict] = field(default_factory=dict)
    #: worker pid -> latest cumulative quarantine count of its cache.
    worker_quarantined: Dict[int, int] = field(default_factory=dict)

    def busy_fractions(self) -> Dict[str, float]:
        if self.wall_seconds <= 0:
            return {}
        return {str(pid): round(busy / self.wall_seconds, 4)
                for pid, busy in sorted(self.worker_busy.items())}

    def memo_summary(self) -> dict:
        """Pool-wide in-memory memo occupancy (summed over workers)."""
        return {"entries": sum(m.get("entries", 0)
                               for m in self.worker_memo.values()),
                "bytes": sum(m.get("bytes", 0)
                             for m in self.worker_memo.values()),
                "evictions": sum(m.get("evictions", 0)
                                 for m in self.worker_memo.values())}

    @property
    def quarantined(self) -> int:
        """Pool-wide quarantine events (summed over worker caches)."""
        return sum(self.worker_quarantined.values())

    def as_dict(self) -> dict:
        return {"workers": self.workers,
                "phase_refs": self.phase_refs,
                "unique_tasks": self.unique_tasks,
                "deduped_tasks": self.deduped_tasks,
                "computed_tasks": self.computed_tasks,
                "cache_served_tasks": self.cache_served_tasks,
                "steals": self.steals,
                "retries": self.retries,
                "pool_rebuilds": self.pool_rebuilds,
                "degraded_tasks": self.degraded_tasks,
                "quarantined": self.quarantined,
                "wall_seconds": round(self.wall_seconds, 6),
                "worker_busy_fraction": self.busy_fractions(),
                "memo": self.memo_summary()}


def _error_row(spec: JobSpec, message: str) -> dict:
    return {"workload": spec.workload, "policy": spec.policy,
            "model": spec.model, "error": message}


def run_dag(sweep: SweepDAG, parallel: int = 1,
            cache_dir: Optional[str] = None,
            salt: Optional[str] = None,
            limit_bytes: Optional[int] = None,
            domain_impl: Optional[str] = None,
            max_task_retries: int = DEFAULT_TASK_RETRIES,
            max_pool_rebuilds: int = DEFAULT_POOL_REBUILDS,
            retry_backoff_seconds: float = DEFAULT_RETRY_BACKOFF,
            store: Optional[ArtifactCache] = None,
            cancel: Optional[threading.Event] = None,
            deadline: Optional[float] = None
            ) -> Tuple[List[dict], SchedulerStats]:
    """Execute the sweep DAG in-process (``parallel <= 1``) or on a
    pool of ``parallel`` workers.

    Returns rows in job order (error rows for failed jobs) and the
    scheduler's statistics.  Pool workers open the store at
    ``cache_dir``; in-process tasks use ``store`` (default: this
    process's cache for ``cache_dir``, if any).  A task that errors is
    retried up to ``max_task_retries`` times with exponential backoff
    (``retry_backoff_seconds * 2**attempt``) before failing its jobs;
    a dead pool is rebuilt up to ``max_pool_rebuilds`` times, and past
    that budget the rest runs in-process (degraded mode).  ``cancel``
    (an event) and ``deadline`` (a :func:`time.monotonic` instant) are
    checked between tasks and raise :class:`JobCancelled` /
    :class:`JobTimeout`.
    """
    start = time.perf_counter()
    impl = resolve_domain_impl(domain_impl)
    if store is None and cache_dir is not None:
        store = _worker_cache(cache_dir, salt, limit_bytes)
    dag = sweep.dag
    stats = SchedulerStats(workers=parallel, **sweep.stats())
    rows: List[Optional[dict]] = [None] * len(sweep.jobs)
    for job_index, message in sweep.build_errors.items():
        rows[job_index] = _error_row(sweep.jobs[job_index], message)

    def job_index_of(node: TaskNode) -> Optional[int]:
        return node.identity[1] if node.kind == "row" else None

    def row_attribution(job_index: int) -> tuple:
        return (sweep.jobs[job_index], sweep.row_events(job_index),
                *sweep.row_timing(job_index))

    def payload_for(node: TaskNode) -> tuple:
        row = row_attribution(job_index_of(node)) if node.kind == "row" \
            else ()
        return (node.spec, node.template, cache_dir, salt, limit_bytes,
                impl, *row)

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

    # Retry machinery: attempts counts error-payload failures per node
    # (kills don't burn the budget — the culprit can't be identified);
    # deferred holds backoff-delayed resubmissions as (ready-time,
    # tiebreak, node).
    attempts: Dict[int, int] = {}
    deferred: List[Tuple[float, int, TaskNode]] = []
    deferred_seq = itertools.count()

    def retry_or_fail(node: TaskNode, message: str) -> None:
        count = attempts.get(node.index, 0)
        if count >= max_task_retries:
            record_failure(node, f"{message} (task failed "
                                 f"{count + 1} times)")
            return
        attempts[node.index] = count + 1
        stats.retries += 1
        delay = retry_backoff_seconds * (2 ** count)
        heapq.heappush(deferred, (time.monotonic() + delay,
                                  next(deferred_seq), node))

    def absorb_cache_stats(pid: int, outcome: dict) -> None:
        if "memo" in outcome:
            stats.worker_memo[pid] = outcome["memo"]
            stats.worker_quarantined[pid] = outcome["quarantined"]

    def absorb(node: TaskNode, outcome: dict) -> List[TaskNode]:
        """Book one returned task payload; error payloads go through
        the retry budget.  Returns the newly-released dependents."""
        pid = outcome["pid"]
        seconds = outcome["seconds"]
        stats.worker_busy[pid] = \
            stats.worker_busy.get(pid, 0.0) + seconds
        absorb_cache_stats(pid, outcome)
        error = outcome.get("error")
        if error is not None:
            retry_or_fail(node, error)
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

    contexts: Dict[int, Tuple[_TaskContext, float]] = {}

    def run_here(node: TaskNode) -> dict:
        """Execute one task in this process; its artifact stays on the
        node for dependents, row assembly and the caller."""
        pid = os.getpid()
        start = time.perf_counter()
        try:
            job_index, template = node.refs[0]
            if job_index not in contexts:
                plan, compile_seconds = (
                    (sweep.plans[job_index], 0.0) if sweep.plans
                    else _plan_for(sweep.jobs[job_index], impl))
                contexts[job_index] = (
                    _TaskContext(plan, store,
                                 sweep.job_phase_nodes[job_index]),
                    compile_seconds)
            context, compile_seconds = contexts[job_index]
            row = (*row_attribution(job_index), compile_seconds) \
                if node.kind == "row" else ()
            start = time.perf_counter()
            node.value, outcome = _execute(context, template, row)
        except Exception as exc:
            node.exception = exc
            return {"pid": pid, "error": f"{type(exc).__name__}: {exc}",
                    "seconds": time.perf_counter() - start}
        return {"pid": pid, "seconds": time.perf_counter() - start,
                **outcome}

    def run_inline(ready: List[TaskNode], degraded: bool = False) -> None:
        """The inline backend: drain the schedule in this process,
        lowest build index first.  Also the degraded mode of a pool
        past its rebuild budget: worker-kill fault injection never
        fires in this process (see
        :func:`repro.faults.worker_task_started`), so a sweep whose
        pool keeps dying still terminates with complete rows.
        """
        queue = [node.index for node in ready]
        heapq.heapify(queue)
        while queue or deferred:
            now = time.monotonic()
            while deferred and deferred[0][0] <= now:
                _, _, node = heapq.heappop(deferred)
                heapq.heappush(queue, node.index)
            if not queue:
                time.sleep(max(0.0, deferred[0][0] - now))
                continue
            check_abort()
            node = dag.nodes[heapq.heappop(queue)]
            stats.degraded_tasks += degraded
            for released in absorb(node, run_here(node)):
                heapq.heappush(queue, released.index)
        if contexts and store is not None:
            absorb_cache_stats(os.getpid(), _cache_stats(store))

    pending_submit: List[TaskNode] = dag.start()
    rebuilds_left = max_pool_rebuilds
    degraded = False
    futures: Dict[Any, TaskNode] = {}
    while parallel > 1:                 # one iteration per pool lifetime
        futures.clear()
        try:
            with ProcessPoolExecutor(max_workers=parallel,
                                     mp_context=_pool_context()) as pool:

                def submit_pending() -> None:
                    # One at a time so a submit() that raises (broken
                    # pool) leaves the unsubmitted rest in
                    # pending_submit for the crash handler.
                    while pending_submit:
                        check_abort()
                        node = pending_submit[0]
                        futures[pool.submit(_pool_task,
                                            payload_for(node))] = node
                        pending_submit.pop(0)

                submit_pending()
                while futures or deferred:
                    now = time.monotonic()
                    while deferred and deferred[0][0] <= now:
                        _, _, node = heapq.heappop(deferred)
                        pending_submit.append(node)
                    submit_pending()
                    if not futures:
                        # Everything left is waiting out a backoff.
                        time.sleep(max(0.0,
                                       deferred[0][0] - time.monotonic()))
                        continue
                    timeout = max(0.0, deferred[0][0] - now) \
                        if deferred else None
                    done, _ = wait(futures, timeout=timeout,
                                   return_when=FIRST_COMPLETED)
                    for future in done:
                        node = futures.pop(future)
                        try:
                            outcome = future.result()
                        except BrokenProcessPool:
                            # Hand the node back so the crash handler
                            # counts it as in-flight.
                            futures[future] = node
                            raise
                        except Exception as exc:
                            retry_or_fail(
                                node, f"{type(exc).__name__}: {exc}")
                            continue
                        pending_submit.extend(absorb(node, outcome))
                        submit_pending()
            break                       # fully drained
        except BrokenProcessPool:
            # Everything in flight (or queued behind the broken
            # submit) gets re-executed: on a fresh pool while the
            # rebuild budget lasts, in-process afterwards.
            crashed = sorted(set(futures.values())
                             | set(pending_submit),
                             key=lambda node: node.index)
            futures.clear()
            pending_submit = crashed
            stats.retries += len(crashed)
            if rebuilds_left > 0:
                rebuilds_left -= 1
                stats.pool_rebuilds += 1
                continue
            degraded = True
            break
    run_inline(pending_submit, degraded)

    for node in dag.unfinished():
        # Nodes stranded by an abort that fail() already visited have
        # error rows; anything else (defensively) becomes one too.
        record_failure(node, "task was never scheduled")
    for job_index, row in enumerate(rows):
        if row is None and sweep.row_nodes[job_index] is not None:
            rows[job_index] = _error_row(sweep.jobs[job_index],
                                         "job did not complete")
    stats.wall_seconds = time.perf_counter() - start
    return rows, stats


def run_plans(plans: Sequence[JobPlan],
              store: Optional[ArtifactCache] = None,
              cancel: Optional[threading.Event] = None,
              deadline: Optional[float] = None
              ) -> Tuple[List[dict], SweepDAG]:
    """Run in-process callers' plans as one DAG on the inline backend;
    returns the rows and the drained DAG (see
    :meth:`~repro.batch.dag.SweepDAG.artifact`).  A failing task is not
    retried: its exception reaches the caller."""
    sweep = build_sweep_dag([plan.spec for plan in plans],
                            use_cache=store is not None, plans=plans)
    rows, _ = run_dag(sweep, store=store, max_task_retries=0,
                      cancel=cancel, deadline=deadline)
    for node in sweep.dag.nodes:
        if node.exception is not None:
            raise node.exception
    return rows, sweep
