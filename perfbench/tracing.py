"""In-memory span tracer for the traced benchmark run.

The tracer records spans from the benchmark's own files: it replaces
public entry points of each layer (module globals and class methods,
see :data:`LAYER_PATCHES`) with wrappers for the duration of the traced
run and restores them afterwards.  The phase compute closures built by
``repro.wcet.ait.phase_plan`` resolve ``build_cfg``, ``analyze_values``,
``analyze_paths``, ... through that module's globals at call time, so
patching the globals there times the real compute calls (never the
artifact *fetches* the DAG and serve executors report as
``phase_seconds``).

A span is ``(id, name, start, end, parent, request, thread)``.  Spans
are appended to a list while the run executes and written out as JSON
lines once it ends.  A span's self time is its duration minus the
durations of its direct children; spans of one operation share a
request id.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple


def _result_counts(name: str, result: Any) -> Dict[str, float]:
    """Work counters read from the public return value of one call."""
    if name == "cfg.expand":
        return {"cfg.nodes": result.node_count()}
    if name == "analysis.value":
        stats = result.fixpoint.stats
        return {"analysis.value_transfers": stats.transfers} if stats \
            else {}
    if name in ("cache.icache", "cache.dcache"):
        stats = result.fixpoint_stats
        return {"cache.transfers": stats.transfers} if stats else {}
    if name == "path.ipet":
        stats = result.solver_stats
        if stats is None:
            return {}
        return {"ilp.pivots": stats.pivots,
                "ilp.phase1_pivots": stats.phase1_pivots,
                "ilp.bland_pivots": stats.bland_pivots,
                "ilp.refactorizations": stats.refactorizations}
    return {}


#: (module, attribute or "Class.method", span name).  Each span name
#: belongs to the layer named before its dot.
LAYER_PATCHES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.wcet.ait", "build_cfg", "cfg.build"),
    ("repro.wcet.ait", "expand_task", "cfg.expand"),
    ("repro.wcet.ait", "analyze_values", "analysis.value"),
    ("repro.wcet.ait", "analyze_loop_bounds", "analysis.loopbounds"),
    ("repro.wcet.ait", "analyze_icache", "cache.icache"),
    ("repro.wcet.ait", "analyze_dcache", "cache.dcache"),
    ("repro.wcet.ait", "analyze_pipeline", "pipeline.timing"),
    ("repro.wcet.ait", "analyze_paths", "path.ipet"),
    ("repro.isa.program", "Program.reachable_slice", "isa.slice"),
    ("repro.workloads.suite", "compile_program", "lang.compile"),
    ("repro.serve.service", "compile_program", "lang.compile"),
    ("repro.batch.cachestore", "ArtifactCache.lookup", "batch.lookup"),
    ("repro.batch.cachestore", "ArtifactCache.fetch_or_compute",
     "batch.fetch"),
    ("repro.batch.cachestore", "ArtifactCache.store", "batch.store"),
    ("repro.batch.engine", "build_sweep_dag", "batch.dag_build"),
    ("repro.workloads.suite", "analyze_workload", "rta.wcet"),
    ("repro.rta.response", "footprint_of", "rta.ucb"),
    ("repro.rta.response", "crpd_cycles", "rta.ucb"),
    ("repro.rta.response", "response_times", "rta.response"),
)


class Tracer:
    """Collects spans and counters; patches layers in and out."""

    def __init__(self):
        self.spans: List[Tuple] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: mini-C source text -> request id, so spans a serve worker
        #: thread records after compiling a request's source carry
        #: that request's id.
        self.source_requests: Dict[str, Any] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- Spans ---------------------------------------------------------------

    def set_request(self, request: Any) -> None:
        self._local.request = request

    @contextlib.contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        request = getattr(self._local, "request", None)
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent,
                               request, threading.get_ident()))

    def count(self, counters: Dict[str, float]) -> None:
        with self._lock:
            for key, value in counters.items():
                self.counts[key] += value

    # -- Patching ------------------------------------------------------------

    def _wrap(self, name: str, function: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if name == "lang.compile" and args:
                request = tracer.source_requests.get(args[0])
                if request is not None:
                    tracer.set_request(request)
            with tracer.span(name):
                result = function(*args, **kwargs)
            counters = _result_counts(name, result)
            if counters:
                tracer.count(counters)
            return result

        traced.__wrapped__ = function
        return traced

    def install(self) -> None:
        """Wrap every entry point of :data:`LAYER_PATCHES`."""
        for module_name, attribute, name in LAYER_PATCHES:
            owner: Any = importlib.import_module(module_name)
            if "." in attribute:
                class_name, attribute = attribute.split(".")
                owner = getattr(owner, class_name)
            original = owner.__dict__[attribute]
            self._restore.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- Aggregation ---------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name."""
        covered: Dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _, _, _ in self.spans:
            totals[name] += (end - start) - covered[span_id]
        return totals

    def inclusive_times(self) -> Dict[str, float]:
        """Total duration per span name; a span nested in one of the
        same name counts once."""
        names = {span[0]: span[1] for span in self.spans}
        totals: Dict[str, float] = defaultdict(float)
        for _, name, start, end, parent, _, _ in self.spans:
            if names.get(parent) != name:
                totals[name] += end - start
        return totals

    def span_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            counts[span[1]] += 1
        return counts

    def unspanned(self, root_name: str) -> float:
        """Total time of the ``root_name`` spans that no layer span
        covers: per request, the root's duration minus the durations of
        the request's top-level layer spans (direct children of the
        root, or thread roots in other threads, as in serve)."""
        roots = {span[5]: span for span in self.spans
                 if span[1] == root_name}
        covered: Dict[Any, float] = defaultdict(float)
        for span_id, name, start, end, parent, request, _ in self.spans:
            root = roots.get(request)
            if root is None or span_id == root[0]:
                continue
            if parent is None or parent == root[0]:
                covered[request] += end - start
        return sum((root[3] - root[2]) - covered[request]
                   for request, root in roots.items())

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, request, thread \
                    in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start,
                    "end": end, "parent": parent, "request": request,
                    "thread": thread}) + "\n")
