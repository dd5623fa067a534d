"""The four benchmark workloads.

Each workload drives the analyzer through its public entry points only
(``analyze_wcet``, ``sweep_suite``, ``AnalysisService``,
``sweep_taskset``/``analyze_taskset``) from one process with at most
two worker processes or threads:

* ``large_task``: one closed-loop caller re-running uncached
  ``analyze_wcet`` on the large synthetic program;
* ``suite_sweep``: cold sweeps of the 114-point golden matrix on two
  worker processes, each into a fresh cache directory;
* ``serve_edits``: two closed-loop clients submitting edited suite
  sources to an in-process ``AnalysisService`` with two worker threads;
* ``rta_sweep``: cold sweeps of the five example task sets over
  3 orderings x 3 cache geometries (45 cells).

A workload sets itself up (:meth:`Scenario.setup`, timed as
``setup_s``), runs operations for a given number of seconds
(:meth:`Scenario.run`, the timed region), and checks every output it
timed against an oracle afterwards (:meth:`Scenario.check`).
"""

from __future__ import annotations

import contextlib
import os
import random
import shutil
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.batch import clear_process_caches, load_golden
from repro.batch.cachestore import ArtifactCache
from repro.cache.config import MachineConfig
from repro.lang import compile_program
from repro.rta.oracle import verify_taskset
from repro.rta.response import analyze_taskset
from repro.rta.sweep import (GEOMETRIES, cell_id, config_for,
                             rows_to_golden, sweep_taskset)
from repro.rta.sweep import load_golden as load_rta_golden
from repro.rta.taskset import ORDERINGS
from repro.serve import AnalysisService
from repro.serve.journal import TERMINAL_STATUSES
from repro.sim.cpu import Simulator
from repro.wcet import analyze_wcet
from repro.wcet.ait import analyze_loop_annotations
from repro.workloads.suite import (WORKLOADS, derive_manual_bounds,
                                   sweep_suite, workload_names)
from repro.workloads.synthetic import LARGE_LOOP, generate_large_source
from repro.workloads.tasksets import example_tasksets

import gates
from tracing import Tracer

#: Worker processes or threads a workload may use.
WORKERS = max(1, min(2, len(os.sched_getaffinity(0))))

#: Simulator step limit for the soundness checks.
SIM_STEPS = 5_000_000


@dataclass
class Run:
    """What one timed region produced."""

    #: Seconds per operation (the latency samples).
    latencies: List[float] = field(default_factory=list)
    #: Units of work completed (analyses, points, requests, cells).
    work: int = 0
    #: Wall seconds the work took, the base of ``work_per_s``.
    seconds: float = 0.0
    #: Per-operation outputs for :meth:`Scenario.check`.
    outputs: List[Any] = field(default_factory=list)


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def add(self, problems: List[str], work: int = 1) -> None:
        """Count ``work`` attempted units, all failed if any problem."""
        self.attempted += work
        if problems:
            self.failed += work
            self.problems.extend(problems)


@contextlib.contextmanager
def op_span(tracer: Optional[Tracer], request: Any):
    """The root span of one operation (no-op when not tracing)."""
    if tracer is None:
        yield
        return
    tracer.set_request(request)
    with tracer.span("op"):
        yield


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(directory, name))
               for directory, _, names in os.walk(path) for name in names)


class Scenario:
    """One workload: set-up, timed operations, oracle check."""

    name = ""
    #: What one latency sample times, and the human-readable names of
    #: the generic metrics (``<op>_p50_s``, ``<work>_per_s``).
    op = ""
    op_name = ""
    work_name = ""

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch
        #: Per-layer values read from public return values of the
        #: traced run (scheduler stats, service stats, cache counters).
        self.layer_values: Dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float, tracer: Optional[Tracer] = None) -> Run:
        raise NotImplementedError

    def traced_run(self, seconds: float,
                   tracer: Tracer) -> Tuple[Run, Run]:
        """Run with ``tracer`` installed.  Returns the run whose spans
        give the per-layer numbers and the run whose latencies compare
        with an untraced run's (the tracing overhead)."""
        with tracer.installed():
            run = self.run(seconds, tracer)
        return run, run

    def check(self, runs: List[Run]) -> Check:
        raise NotImplementedError

    def close(self) -> None:
        pass


class LargeTask(Scenario):
    name = "large_task"
    op = "uncached analyze_wcet call"
    op_name = "analyze"
    work_name = "analyses"

    #: Bound of the default corpus point (leaf trip count 12).
    REFERENCE_BOUND = 40425

    def setup(self) -> None:
        # Seed 0 is the reference point; other seeds draw the leaf trip
        # count, which leaves the LP's size unchanged.
        self.loop = LARGE_LOOP if self.seed == 0 \
            else random.Random(self.seed).randint(10, 14)
        self.program = compile_program(
            generate_large_source(loop_iterations=self.loop))
        # The first call pays lazy initialisation: set-up, not timed.
        self.bound = analyze_wcet(self.program).wcet_cycles

    def run(self, seconds, tracer=None):
        run = Run()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            with op_span(tracer, len(run.latencies)):
                call_start = time.perf_counter()
                result = analyze_wcet(self.program)
                run.latencies.append(time.perf_counter() - call_start)
            run.outputs.append(result.wcet_cycles)
        run.work = len(run.latencies)
        run.seconds = sum(run.latencies)
        return run

    def check(self, runs):
        simulated = Simulator(self.program).run(max_steps=SIM_STEPS).cycles
        expected = self.REFERENCE_BOUND if self.loop == LARGE_LOOP \
            else self.bound
        check = Check()
        check.add(gates.bound_problems(f"set-up call (loop {self.loop})",
                                       self.bound, simulated, expected),
                  work=0)
        for run in runs:
            for index, bound in enumerate(run.outputs):
                check.add(gates.bound_problems(
                    f"call {index} (loop {self.loop})", bound, simulated,
                    expected))
        return check


class SuiteSweep(Scenario):
    name = "suite_sweep"
    op = "cold sweep of the 114-point golden matrix"
    op_name = "sweep"
    work_name = "points"

    def setup(self) -> None:
        self.rng = random.Random(self.seed)
        self.names = workload_names()
        # The first sweep pays pool start-up and lazy initialisation.
        self._sweep(WORKERS)

    def _sweep(self, parallel: int, tracer: Optional[Tracer] = None,
               request: Any = None):
        """One cold sweep (cleared process memos, fresh cache dir) of
        the matrix, its workloads in an order drawn from the seed."""
        self.rng.shuffle(self.names)
        matrix = ",".join(self.names) + ":all:all"
        clear_process_caches()
        cache_dir = tempfile.mkdtemp(prefix="sweep-", dir=self.scratch)
        try:
            with op_span(tracer, request):
                start = time.perf_counter()
                result = sweep_suite(matrix, parallel=parallel,
                                     cache_dir=cache_dir)
                seconds = time.perf_counter() - start
            stored = dir_bytes(cache_dir) if tracer is not None else 0
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return result, seconds, stored

    def run(self, seconds, tracer=None, parallel=WORKERS):
        run = Run()
        stored = 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            result, sweep_seconds, sweep_bytes = self._sweep(
                parallel, tracer, len(run.latencies))
            run.latencies.append(sweep_seconds)
            run.outputs.append(result)
            stored += sweep_bytes
        run.work = sum(len(result.rows) for result in run.outputs)
        run.seconds = sum(run.latencies)
        if tracer is not None and run.latencies:
            hits = sum(result.cache_hits for result in run.outputs)
            misses = sum(result.cache_misses for result in run.outputs)
            self.layer_values.update({
                "batch.store_bytes": stored / len(run.latencies),
                "batch.lookups": (hits + misses) / len(run.latencies),
                "batch.hit_ratio": hits / max(1, hits + misses)})
        return run

    def traced_run(self, seconds, tracer):
        # Worker-side spans of a pooled sweep stay in the workers, so
        # the pooled sweeps under a tracer of their own give only the
        # parent-side DAG build, the scheduler counters and the
        # overhead; the layer spans come from in-process sweeps.
        pooled_tracer = Tracer()
        with pooled_tracer.installed():
            pooled = self.run(seconds / 2, parallel=WORKERS)
        scheduler = pooled.outputs[-1].scheduler
        busy = scheduler["worker_busy_fraction"]
        self.layer_values.update({
            "batch.dag_build_s":
                pooled_tracer.self_times()["batch.dag_build"]
                / len(pooled.latencies),
            "batch.phase_refs": scheduler["phase_refs"],
            "batch.unique_tasks": scheduler["unique_tasks"],
            "batch.worker_busy": sum(busy.values()) / max(1, len(busy)),
            "batch.retries": scheduler["retries"],
            "batch.error_rows": sum(
                1 for row in pooled.outputs[-1].rows if "error" in row)})
        with tracer.installed():
            in_process = self.run(seconds / 2, tracer, parallel=1)
        return in_process, pooled

    def check(self, runs):
        golden = load_golden(gates.GOLDEN_BOUNDS)
        check = Check()
        for run in runs:
            for result in run.outputs:
                for row in result.rows:
                    check.add(gates.suite_row_problems(row, golden))
        return check


#: Edit classes of the serve stream and their count per workload in one
#: round of the stream: 7/10 all-hit, 2/10 value-chain, 1/10 full
#: recompute, so the median falls inside the hit class and the tail
#: inside the two recomputing classes.
EDIT_MIX = (("hit", 7), ("data", 2), ("recompute", 1))

#: Timing models every serve request asks for.
SERVE_MODELS = ("additive", "krisc5")

#: Client poll interval: fine enough not to quantise a ~2 ms request.
POLL_SECONDS = 0.0005


def edited_source(source: str, gain: int = 0, extra: int = 0,
                  spare: int = 0) -> str:
    """A suite kernel with three edit points.

    ``spare`` changes a function ``main`` never calls (every phase key
    stays the same), ``gain`` changes the initializer of a global the
    reachable code reads (only the value chain reruns), and ``extra``
    changes a statement at the end of ``main`` (everything reruns).
    Every suite kernel ends with ``main``; its edit goes after all of
    its loops, so loop headers, and the loop annotations keyed by their
    addresses, keep their addresses.
    """
    body = source.rstrip()
    if not body.endswith("}"):
        raise ValueError("kernel source does not end with main()")
    return (f"int bench_gain = {gain};\nint bench_sink;\n"
            f"{body[:-1]}    bench_sink = bench_gain + {extra};\n}}\n"
            f"int bench_spare(int x) {{\n    return x + {spare};\n}}\n")


class ServeEdits(Scenario):
    name = "serve_edits"
    op = "request, submit to terminal status"
    op_name = "request"
    work_name = "requests"

    def setup(self) -> None:
        self.service = AnalysisService(
            cache_dir=os.path.join(self.scratch, "serve-cache"),
            workers=WORKERS)
        self.names = workload_names()
        # Kernels that need loop annotations get them the way an aiT
        # user does: discover the unbounded headers, then annotate.
        self.loop_bounds: Dict[str, Dict[str, int]] = {}
        for name in self.names:
            workload = WORKLOADS[name]
            if workload.manual_bounds_in_order:
                program = compile_program(edited_source(workload.source))
                manual = derive_manual_bounds(
                    workload, analyze_loop_annotations(program))
                self.loop_bounds[name] = {str(address): bound
                                          for address, bound
                                          in manual.items()}
        # Warm the service with every base version.
        for name in self.names:
            record = self._finish(self.service.submit(
                self._payload(name, "base", 0)))
            if record["status"] != "done":
                raise RuntimeError(f"warm-up of {name} failed: "
                                   f"{record.get('error')}")
        self.stream = self._edits()
        self.round_size = len(self.names) * sum(
            count for _, count in EDIT_MIX)
        self.stream_lock = threading.Lock()
        self.requests = 0
        self.oracle: Dict[Tuple[str, str],
                          Tuple[Dict[str, int], Dict[str, int]]] = {}

    def _source(self, name: str, edit: str, serial: int) -> str:
        source = WORKLOADS[name].source
        if edit == "hit":
            return edited_source(source, spare=serial)
        if edit == "data":
            return edited_source(source, gain=serial)
        if edit == "recompute":
            return edited_source(source, extra=serial)
        return edited_source(source)

    def _payload(self, name: str, edit: str, serial: int) -> dict:
        payload = {"source": self._source(name, edit, serial),
                   "models": list(SERVE_MODELS),
                   "label": f"{name}-{edit}-{serial}"}
        if name in self.loop_bounds:
            payload["loop_bounds"] = self.loop_bounds[name]
        return payload

    def _edits(self) -> Iterator[Tuple[str, str, int]]:
        """Rounds of a fixed multiset of (workload, edit class),
        shuffled by the seed; each edit of a class gets a fresh serial,
        so no edited source repeats."""
        rng = random.Random(self.seed)
        serials: Dict[Tuple[str, str], int] = defaultdict(int)
        while True:
            round_ = [(name, edit) for name in self.names
                      for edit, count in EDIT_MIX for _ in range(count)]
            rng.shuffle(round_)
            for name, edit in round_:
                serials[name, edit] += 1
                yield name, edit, serials[name, edit]

    def _finish(self, job_id: str) -> dict:
        """Poll until the job is terminal; returns its record."""
        while True:
            record = self.service.job(job_id)
            if record["status"] in TERMINAL_STATUSES:
                return record
            time.sleep(POLL_SECONDS)

    def _client(self, deadline: float, run: Run,
                tracer: Optional[Tracer]) -> None:
        # Clients stop at the first round boundary after the deadline,
        # so every run serves whole rounds of the fixed edit mix.
        while True:
            with self.stream_lock:
                if self.requests % self.round_size == 0 \
                        and time.perf_counter() >= deadline:
                    return
                name, edit, serial = next(self.stream)
                index = self.requests
                self.requests += 1
            payload = self._payload(name, edit, serial)
            if tracer is not None:
                tracer.source_requests[payload["source"]] = index
            with op_span(tracer, index):
                start = time.perf_counter()
                record = self._finish(self.service.submit(payload))
                seconds = time.perf_counter() - start
            run.latencies.append(seconds)
            run.outputs.append({
                "label": payload["label"], "workload": name,
                "edit": edit, "serial": serial,
                "status": record["status"], "error": record.get("error"),
                "rows": [{"model": row["model"],
                          "wcet_cycles": row["wcet_cycles"],
                          "cache": {"events": row["cache"]["events"]}}
                         for row in record.get("rows", [])],
                "end": start + seconds})

    def run(self, seconds, tracer=None):
        run = Run()
        stats = self.service.stats()
        start = time.perf_counter()
        clients = [threading.Thread(target=self._client,
                                    args=(start + seconds, run, tracer))
                   for _ in range(WORKERS)]
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        run.work = len(run.outputs)
        run.seconds = max(output["end"] for output in run.outputs) - start
        if tracer is not None:
            after = self.service.stats()
            hits = after["cache"]["hits"] - stats["cache"]["hits"]
            misses = after["cache"]["misses"] - stats["cache"]["misses"]
            failed = sum(after["jobs"][status] - stats["jobs"][status]
                         for status in ("error", "timeout", "cancelled",
                                        "interrupted"))
            self.layer_values.update({
                "serve.failed": failed,
                "batch.store_bytes":
                    dir_bytes(self.service.cache.root) / run.work,
                "batch.lookups": (hits + misses) / run.work,
                "batch.hit_ratio": hits / max(1, hits + misses)})
        return run

    def traced_run(self, seconds, tracer):
        run, comparable = super().traced_run(seconds, tracer)
        # A request waits in the queue from submit until a service
        # worker thread starts on it (its first span there: the
        # compile), and runs from then until the client sees it done.
        roots = {span[5]: span for span in tracer.spans
                 if span[1] == "op"}
        started: Dict[Any, float] = {}
        for _, name, start, _, _, request, _ in tracer.spans:
            if name != "op" and request in roots:
                started[request] = min(start, started.get(request, start))
        waits = [started[request] - roots[request][2]
                 for request in started]
        runs = [roots[request][3] - started[request]
                for request in started]
        self.layer_values.update({
            "serve.queue_wait_s": sum(waits) / max(1, len(waits)),
            "serve.run_s": sum(runs) / max(1, len(runs))})
        return run, comparable

    def _oracle(self, name: str, edit: str, serial: int):
        """Cold bounds per model and simulated cycles of one source."""
        program = compile_program(self._source(name, edit, serial))
        manual = {int(address): bound for address, bound
                  in self.loop_bounds.get(name, {}).items()}
        bounds = {model: analyze_wcet(program,
                                      manual_loop_bounds=manual or None,
                                      pipeline_model=model).wcet_cycles
                  for model in SERVE_MODELS}
        simulated = {
            model: Simulator(program, MachineConfig.default().with_model(
                model)).run(max_steps=SIM_STEPS).cycles
            for model in SERVE_MODELS}
        return bounds, simulated

    def check(self, runs):
        # Bounds do not depend on an edit's serial, so the first request
        # of each (workload, edit class) is checked against a cold
        # analysis of its own source and the rest against that.
        check = Check()
        for run in runs:
            for output in run.outputs:
                group = (output["workload"], output["edit"])
                if group not in self.oracle:
                    self.oracle[group] = self._oracle(
                        output["workload"], output["edit"],
                        output["serial"])
                bounds, simulated = self.oracle[group]
                check.add(gates.serve_record_problems(output, bounds,
                                                      simulated))
        return check

    def close(self):
        self.service.close()


class RtaSweep(Scenario):
    name = "rta_sweep"
    op = "cold sweep of 5 task sets x 3 orderings x 3 geometries"
    op_name = "sweep"
    work_name = "cells"

    def setup(self) -> None:
        self.rng = random.Random(self.seed)
        self.tasksets = example_tasksets()
        self._sweep()

    def _sweep(self):
        """One cold sweep of the task sets, in an order drawn from the
        seed."""
        self.rng.shuffle(self.tasksets)
        clear_process_caches()
        cache = ArtifactCache()
        start = time.perf_counter()
        rows = [row for taskset in self.tasksets
                for row in sweep_taskset(taskset, cache=cache)]
        return rows, time.perf_counter() - start, cache

    def run(self, seconds, tracer=None):
        run = Run()
        hits = misses = stored = 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            with op_span(tracer, len(run.latencies)):
                rows, sweep_seconds, cache = self._sweep()
            run.latencies.append(sweep_seconds)
            run.outputs.append(rows)
            hits += cache.hits
            misses += cache.misses
            stored += cache.memo_stats()["bytes"]
        run.work = sum(len(rows) for rows in run.outputs)
        run.seconds = sum(run.latencies)
        if tracer is not None:
            self.layer_values.update({
                "batch.store_bytes": stored / len(run.latencies),
                "batch.lookups": (hits + misses) / len(run.latencies),
                "batch.hit_ratio": hits / max(1, hits + misses)})
        return run

    def check(self, runs):
        expected = load_rta_golden(gates.GOLDEN_RTA)
        check = Check()
        # Cells the golden file does not pin: analyze each once, run the
        # preemptive-simulator oracle on it, and expect its verdict.
        cache = ArtifactCache()
        for taskset in self.tasksets:
            for geometry in GEOMETRIES:
                for ordering in ORDERINGS:
                    cell = cell_id(taskset.name, ordering, geometry)
                    if cell in expected:
                        continue
                    result = analyze_taskset(
                        taskset.reordered(ordering),
                        config=config_for(geometry), cache=cache)
                    report = verify_taskset(result)
                    if report.violations:
                        check.problems.append(
                            f"{cell}: oracle: {report.summary()}")
                        continue
                    expected.update(rows_to_golden([{
                        "taskset": taskset.name, "ordering": ordering,
                        "geometry": geometry,
                        "schedulable": result.schedulable,
                        "tasks": result.rows()}]))
        for run in runs:
            for rows in run.outputs:
                for row in rows:
                    check.add(gates.rta_row_problems(row, expected))
        return check


SCENARIOS = {scenario.name: scenario
             for scenario in (LargeTask, SuiteSweep, ServeEdits, RtaSweep)}
