"""The analysis service behind ``repro serve``.

:class:`AnalysisService` turns the batch layer's one-shot sweep
machinery into a long-running, shared facility: every request — a
mini-C source or KRISC assembly plus a (policies x models) matrix —
runs through one shared :class:`~repro.batch.cachestore.ArtifactCache`
on a bounded thread pool, so a client that edits a function and
re-submits pays only for the phases whose inputs actually changed.

That incrementality comes from sub-program cache granularity: phase
keys digest the call-graph-reachable *slice* of the submitted binary
(:meth:`repro.isa.program.Program.reachable_slice`), not the whole
image, so an edit to a function the analyzed entry never reaches — or
to data no reachable function references — leaves every phase key of
the re-submission identical to the cached run.

Each request builds one :class:`~repro.batch.dag.JobPlan` per (policy,
model) point and runs them as one deduplicated task DAG (two models
share their point's cfg/value/loopbounds/icache/dcache artifacts,
exactly as in a batch sweep) on the batch layer's executor in the
service's pool thread (:func:`~repro.batch.scheduler.run_plans`), so
serve-computed artifacts live under the same keys a batch sweep or a
plain :func:`~repro.wcet.ait.analyze_wcet` would address, and rows
carry the same canonical-owner hit/miss provenance
(:meth:`~repro.batch.dag.SweepDAG.row_events`).

The job lifecycle is fault-tolerant: transitions are journalled
durably (:mod:`repro.serve.journal`) so a restarted server answers for
finished jobs and marks crashed-in-flight ones ``interrupted``; the
in-memory job table is a bounded LRU (finished records evict once it
overflows ``max_jobs`` — the journal keeps the durable copy); jobs
can be cancelled (``DELETE /jobs/<id>``, a cooperative cancel event
checked between phase tasks) and carry optional per-job wall-clock
deadlines (``timeout_seconds``, expiring into a ``timeout`` status).
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from ..cache.config import PIPELINE_MODELS
from ..isa import assemble
from ..isa.program import Program
from ..isa.registers import parse_register
from ..lang import compile_program
from ..batch.cachestore import ArtifactCache
from ..batch.dag import JobPlan
from ..batch.jobs import JobSpec
from ..batch.scheduler import JobCancelled, JobTimeout, run_plans
from ..cfg.contexts import parse_policy
from ..wcet.ait import validate_annotations
from .journal import TERMINAL_STATUSES, JobJournal


class ValidationError(ValueError):
    """A malformed analyze request (mapped to HTTP 400)."""


_ALLOWED_FIELDS = frozenset({
    "source", "assembly", "policies", "models", "entry",
    "loop_bounds", "register_ranges", "label", "timeout_seconds",
})


def _parse_int(value: Any, what: str) -> int:
    if isinstance(value, bool):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 0)
        except ValueError:
            pass
    raise ValidationError(f"{what} must be an integer, got {value!r}")


class AnalysisRequest:
    """A validated ``POST /analyze`` payload."""

    def __init__(self, payload: Any):
        if not isinstance(payload, dict):
            raise ValidationError("request body must be a JSON object")
        unknown = sorted(set(payload) - _ALLOWED_FIELDS)
        if unknown:
            raise ValidationError(
                f"unknown field(s): {', '.join(unknown)}; allowed: "
                f"{', '.join(sorted(_ALLOWED_FIELDS))}")

        source = payload.get("source")
        assembly = payload.get("assembly")
        if (source is None) == (assembly is None):
            raise ValidationError(
                "exactly one of 'source' (mini-C) or 'assembly' "
                "(KRISC) is required")
        text = source if source is not None else assembly
        if not isinstance(text, str) or not text.strip():
            raise ValidationError(
                "'source'/'assembly' must be a non-empty string")
        self.source: Optional[str] = source
        self.assembly: Optional[str] = assembly

        self.policies = self._string_list(
            payload.get("policies"), "policies", ["full"])
        for policy in self.policies:
            try:
                parse_policy(policy)
            except ValueError as exc:
                raise ValidationError(str(exc)) from None
        self.models = self._string_list(
            payload.get("models"), "models", ["additive"])
        for model in self.models:
            if model not in PIPELINE_MODELS:
                raise ValidationError(
                    f"unknown pipeline model {model!r}; expected one "
                    f"of {', '.join(PIPELINE_MODELS)}")

        entry = payload.get("entry")
        if entry is not None and (not isinstance(entry, str)
                                  or not entry.strip()):
            raise ValidationError("'entry' must be a symbol name")
        self.entry: Optional[str] = entry

        self.loop_bounds: Optional[Dict[int, int]] = None
        bounds = payload.get("loop_bounds")
        if bounds is not None:
            if not isinstance(bounds, dict):
                raise ValidationError(
                    "'loop_bounds' must be an object of ADDR -> N")
            self.loop_bounds = {
                _parse_int(addr, "loop-bound address"):
                _parse_int(count, "loop bound")
                for addr, count in bounds.items()}

        self.register_ranges: Optional[Dict[int, Tuple[int, int]]] = None
        ranges = payload.get("register_ranges")
        if ranges is not None:
            if not isinstance(ranges, dict):
                raise ValidationError(
                    "'register_ranges' must be an object of "
                    "REG -> [LO, HI]")
            parsed = {}
            for register, span in ranges.items():
                try:
                    index = parse_register(str(register))
                except ValueError as exc:
                    raise ValidationError(str(exc)) from None
                if not isinstance(span, (list, tuple)) or len(span) != 2:
                    raise ValidationError(
                        f"register range for {register} must be "
                        f"[LO, HI], got {span!r}")
                parsed[index] = (_parse_int(span[0], "range low"),
                                 _parse_int(span[1], "range high"))
            self.register_ranges = parsed
        try:
            validate_annotations(self.register_ranges, self.loop_bounds)
        except ValueError as exc:
            raise ValidationError(str(exc)) from None

        label = payload.get("label", "request")
        if not isinstance(label, str) or not label.strip():
            raise ValidationError("'label' must be a non-empty string")
        self.label = label

        timeout = payload.get("timeout_seconds")
        if timeout is not None:
            if isinstance(timeout, bool) \
                    or not isinstance(timeout, (int, float)) \
                    or not timeout > 0:
                raise ValidationError(
                    "'timeout_seconds' must be a positive number")
        self.timeout_seconds: Optional[float] = \
            float(timeout) if timeout is not None else None

    @staticmethod
    def _string_list(value: Any, what: str,
                     default: List[str]) -> List[str]:
        if value is None:
            return list(default)
        if isinstance(value, str):
            value = [value]
        if not isinstance(value, list) or not value \
                or not all(isinstance(item, str) for item in value):
            raise ValidationError(
                f"'{what}' must be a non-empty list of strings")
        # Same dedup-preserving-order rule as the batch matrix.
        return list(dict.fromkeys(value))

    def load_program(self) -> Program:
        if self.source is not None:
            return compile_program(self.source)
        return assemble(self.assembly)


class AnalysisService:
    """Long-running WCET analysis with a shared artifact cache.

    ``submit`` validates eagerly (raising :class:`ValidationError`) and
    queues the job on a bounded thread pool; ``job`` polls its record.
    All jobs share one :class:`ArtifactCache` whose in-memory memo is
    LRU-bounded, so the process neither recomputes unchanged phases nor
    grows without limit.

    With ``journal_dir`` every job transition is durably journalled:
    construction replays the journal, so finished jobs answer across
    restarts and jobs a crash caught mid-flight come back as
    ``interrupted``.  The in-memory job table holds at most
    ``max_jobs`` records — once it overflows, the oldest *finished*
    records evict (``jobs_evicted`` in :meth:`stats`); running jobs
    are never evicted.
    """

    #: Default bound of the in-memory job table.
    MAX_JOBS = 256

    def __init__(self, cache_dir: Optional[str] = None,
                 workers: int = 2,
                 cache_limit_mb: Optional[float] = None,
                 memo_entries: Optional[int] =
                 ArtifactCache.MEMO_ENTRY_LIMIT,
                 memo_bytes: Optional[int] =
                 ArtifactCache.MEMO_BYTE_LIMIT,
                 max_jobs: int = MAX_JOBS,
                 journal_dir: Optional[str] = None):
        limit_bytes = int(cache_limit_mb * 1024 * 1024) \
            if cache_limit_mb is not None else None
        self.cache = ArtifactCache(cache_dir, limit_bytes=limit_bytes,
                                   memo_entries=memo_entries,
                                   memo_bytes=memo_bytes)
        self.workers = workers
        self.max_jobs = max(1, max_jobs)
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve")
        self._jobs: "OrderedDict[str, dict]" = OrderedDict()
        self._cancel_events: Dict[str, threading.Event] = {}
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self.jobs_evicted = 0
        self.jobs_interrupted = 0

        self.journal: Optional[JobJournal] = None
        next_id = 1
        if journal_dir is not None:
            self.journal = JobJournal(journal_dir)
            replayed, last_id = self.journal.replay()
            next_id = last_id + 1
            interrupted = [job_id for job_id, record in replayed.items()
                           if record["status"] == "interrupted"]
            self.jobs_interrupted = len(interrupted)
            self.journal.mark_interrupted(interrupted)
            for job_id, record in replayed.items():
                record["replayed"] = True
                self._jobs[job_id] = record
            self._evict_finished_locked()
        self._ids = itertools.count(next_id)

    # -- Public API ---------------------------------------------------------

    def submit(self, payload: Any) -> str:
        """Validate ``payload`` and queue the analysis; returns the job
        id.  Raises :class:`ValidationError` on a malformed request."""
        request = AnalysisRequest(payload)
        job_id = f"job-{next(self._ids)}"
        record = {"id": job_id, "status": "pending",
                  "label": request.label}
        with self._lock:
            self._jobs[job_id] = dict(record)
            self._cancel_events[job_id] = threading.Event()
            self._evict_finished_locked()
        self._journal({**record, "time": time.time()})
        self._pool.submit(self._run, job_id, request)
        return job_id

    def job(self, job_id: str) -> Optional[dict]:
        """A JSON-able snapshot of one job's record, or ``None``."""
        with self._lock:
            record = self._jobs.get(job_id)
            return dict(record) if record is not None else None

    def cancel(self, job_id: str) -> Optional[dict]:
        """Request cancellation of one job (``DELETE /jobs/<id>``).

        Pending jobs cancel before they start; running jobs observe
        the cooperative cancel event between phase tasks.  Finished
        jobs are left as they are (cancellation is idempotent and
        never un-finishes a record).  Returns the record snapshot, or
        ``None`` for an unknown job.
        """
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None:
                return None
            event = self._cancel_events.get(job_id)
            if event is not None \
                    and record["status"] not in TERMINAL_STATUSES:
                event.set()
                record["cancel_requested"] = True
            return dict(record)

    def stats(self) -> dict:
        """Service-level counters for ``GET /stats``."""
        with self._lock:
            statuses = [record["status"]
                        for record in self._jobs.values()]
        counts = {status: statuses.count(status)
                  for status in ("pending", "running", "done", "error",
                                 "cancelled", "timeout", "interrupted")}
        return {
            "workers": self.workers,
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "jobs": {"total": len(statuses),
                     "jobs_evicted": self.jobs_evicted,
                     **counts},
            "cache": {"hits": self.cache.hits,
                      "misses": self.cache.misses,
                      "hit_ratio": round(self.cache.hit_ratio(), 4),
                      "evictions": self.cache.evictions,
                      "quarantined": self.cache.quarantined,
                      "memo": self.cache.memo_stats()},
        }

    def close(self) -> None:
        self._pool.shutdown(wait=True)
        if self.journal is not None:
            self.journal.close()

    # -- Execution ----------------------------------------------------------

    def _journal(self, record: dict) -> None:
        if self.journal is not None:
            self.journal.append(record)

    def _evict_finished_locked(self) -> None:
        """Shed the oldest finished records past ``max_jobs`` (caller
        holds the lock).  Active jobs are never evicted, so the table
        can transiently exceed the bound under a burst of in-flight
        work; the journal keeps the durable copy of whatever leaves."""
        if len(self._jobs) <= self.max_jobs:
            return
        for job_id in list(self._jobs):
            if len(self._jobs) <= self.max_jobs:
                break
            if self._jobs[job_id]["status"] in TERMINAL_STATUSES:
                del self._jobs[job_id]
                self._cancel_events.pop(job_id, None)
                self.jobs_evicted += 1

    def _finish(self, job_id: str, update: dict) -> None:
        with self._lock:
            self._jobs[job_id].update(update)
            self._cancel_events.pop(job_id, None)
        self._journal({"id": job_id, **update, "time": time.time()})

    def _run(self, job_id: str, request: AnalysisRequest) -> None:
        cancel_event = self._cancel_events.get(job_id)
        if cancel_event is not None and cancel_event.is_set():
            self._finish(job_id, {"status": "cancelled"})
            return
        with self._lock:
            self._jobs[job_id]["status"] = "running"
        self._journal({"id": job_id, "status": "running",
                       "time": time.time()})
        deadline = time.monotonic() + request.timeout_seconds \
            if request.timeout_seconds is not None else None
        try:
            outcome = self._analyze(request, cancel_event, deadline)
        except JobCancelled:
            update = {"status": "cancelled"}
        except JobTimeout:
            update = {"status": "timeout",
                      "error": f"deadline of "
                               f"{request.timeout_seconds}s exceeded"}
        except Exception as exc:
            update = {"status": "error",
                      "error": f"{type(exc).__name__}: {exc}"}
        else:
            update = {"status": "done", **outcome}
        self._finish(job_id, update)

    def _analyze(self, request: AnalysisRequest,
                 cancel_event: Optional[threading.Event] = None,
                 deadline: Optional[float] = None) -> dict:
        start = time.perf_counter()
        compile_start = time.perf_counter()
        program = request.load_program()
        compile_seconds = time.perf_counter() - compile_start
        entry = program.symbol_address(request.entry) \
            if request.entry is not None else None

        # Cross-request concurrency comes from the service pool; the
        # shared cache makes artifacts visible across requests the
        # moment they are stored.
        plans = [JobPlan(program, spec=JobSpec(request.label, policy, model),
                         entry=entry, register_ranges=request.register_ranges,
                         manual_loop_bounds=request.loop_bounds,
                         context_policy=parse_policy(policy),
                         pipeline_model=model)
                 for policy in request.policies for model in request.models]
        rows, _ = run_plans(plans, store=self.cache, cancel=cancel_event,
                            deadline=deadline)

        hits = sum(row["cache"]["hits"] for row in rows)
        misses = sum(row["cache"]["misses"] for row in rows)
        total = hits + misses
        return {
            "rows": rows,
            "compile_seconds": round(compile_seconds, 6),
            "wall_seconds": round(time.perf_counter() - start, 6),
            "cache": {"hits": hits, "misses": misses,
                      "hit_ratio": round(hits / total, 4)
                      if total else 0.0},
        }
