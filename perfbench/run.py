#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload large_task --seed 0 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # all four, in turn
    python3 perfbench/run.py --self-test         # the gates trip

Workloads: ``large_task``, ``suite_sweep``, ``serve_edits``,
``rta_sweep`` (see ``perfbench/README.md`` for why each was chosen and
which layer metric should move which end-to-end metric).

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it runs the workload untraced for half the time and
traced for the other half, and reports the per-layer metrics and the
tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is non-zero
when a correctness gate fails.
"""

import time

#: Set-up time counts from here, so it includes importing the analyzer.
_START = time.perf_counter()

import argparse          # noqa: E402
import json              # noqa: E402
import math              # noqa: E402
import os                # noqa: E402
import platform          # noqa: E402
import resource          # noqa: E402
import shutil            # noqa: E402
import statistics        # noqa: E402
import subprocess        # noqa: E402
import sys               # noqa: E402

# A workload may use at most two worker processes or threads in all.  A
# multi-threaded BLAS would add its own threads to each of them (two
# pool workers x two BLAS threads oversubscribe two cores), so numpy's
# linear algebra runs single-threaded.  Set before numpy is imported;
# pool workers and set-up probes inherit it.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("large_task", "suite_sweep", "serve_edits", "rta_sweep")

#: Set-ups per run, for the median ``setup_s``: this process's own plus
#: fresh interpreters that only set up.
SETUPS = 3

#: Per-layer metrics that are summed self times of span names.
SELF_TIMES = {
    "cfg.build_s": ("cfg.build", "cfg.expand"),
    "analysis.value_s": ("analysis.value",),
    "analysis.loopbounds_s": ("analysis.loopbounds",),
    "cache.icache_s": ("cache.icache",),
    "cache.dcache_s": ("cache.dcache",),
    "pipeline.timing_s": ("pipeline.timing",),
    "path.ipet_s": ("path.ipet",),
    "isa.slice_s": ("isa.slice",),
    "lang.compile_s": ("lang.compile",),
    "batch.lookup_s": ("batch.lookup", "batch.fetch"),
    "batch.store_s": ("batch.store",),
    "rta.ucb_s": ("rta.ucb",),
    "rta.response_s": ("rta.response",),
}

#: Per-layer counters read from return values by the tracer.
RESULT_COUNTS = ("cfg.nodes", "analysis.value_transfers",
                 "cache.transfers", "ilp.pivots", "ilp.phase1_pivots",
                 "ilp.bland_pivots", "ilp.refactorizations")


def environment() -> str:
    import numpy
    return (f"nproc={os.cpu_count()} "
            f"affinity={sorted(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']}")


def tail(values):
    """The highest of p99.9/p99/p95/p90 (nearest rank) with at least
    ten samples beyond it, with its label.  A run too short for p90
    reports p75, which a single outlier does not move."""
    ordered = sorted(values)
    count = len(ordered)
    for percent in (99.9, 99, 95, 90, 75):
        rank = max(1, math.ceil(percent / 100 * count))
        if count - rank >= 10 or percent == 75:
            return ordered[rank - 1], f"p{percent:g}"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def probe_setups(args, count):
    """``setup_s`` of ``count`` fresh interpreters, one after another."""
    values = []
    for _ in range(count):
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        values.append(json.loads(
            completed.stdout.strip().splitlines()[-1])["setup_s"])
    return values


def layer_metrics(tracer, scenario, run, comparable, untraced):
    """The per-layer metrics of one traced run, per operation."""
    ops = len(run.latencies)
    self_times = tracer.self_times()
    spans = tracer.span_counts()
    metrics = {name: (sum(self_times[span] for span in span_names) / ops,
                      "s")
               for name, span_names in SELF_TIMES.items()}
    metrics["rta.wcet_s"] = (tracer.inclusive_times()["rta.wcet"] / ops,
                             "s")
    for name in RESULT_COUNTS:
        metrics[name] = (tracer.counts[name] / ops, "count")
    metrics["batch.stores"] = (spans["batch.store"] / ops, "count")
    metrics["lang.compile_calls"] = (spans["lang.compile"] / ops, "count")
    units = {"batch.store_bytes": "B", "batch.hit_ratio": "ratio",
             "batch.worker_busy": "ratio", "batch.dag_build_s": "s",
             "serve.queue_wait_s": "s", "serve.run_s": "s"}
    for name in ("batch.store_bytes", "batch.lookups", "batch.hit_ratio",
                 "batch.dag_build_s", "batch.phase_refs",
                 "batch.unique_tasks", "batch.worker_busy",
                 "batch.retries", "batch.error_rows",
                 "serve.queue_wait_s", "serve.run_s", "serve.failed"):
        metrics[name] = (float(scenario.layer_values.get(name, 0.0)),
                         units.get(name, "count"))
    root_times = [end - start for _, name, start, end, _, _, _
                  in tracer.spans if name == "op"]
    metrics["trace.op_s"] = (sum(root_times) / ops, "s")
    metrics["trace.unspanned_s"] = (tracer.unspanned("op") / ops, "s")
    metrics["trace.overhead"] = (
        statistics.median(comparable.latencies)
        / statistics.median(untraced.latencies) - 1, "ratio")
    return metrics


def print_trace_summary(workload, metrics):
    op = metrics["trace.op_s"][0]
    phases = sum(metrics[name][0] for name in (
        "cfg.build_s", "analysis.value_s", "analysis.loopbounds_s",
        "cache.icache_s", "cache.dcache_s", "pipeline.timing_s",
        "path.ipet_s"))
    unspanned = metrics["trace.unspanned_s"][0]
    print(f"  traced op {op:.4f} s = phase self times {phases:.4f} s "
          f"+ other layers {op - phases - unspanned:.4f} s "
          f"+ unspanned {unspanned:.4f} s")
    if workload == "large_task" and op > 0:
        share = (metrics["path.ipet_s"][0]
                 + metrics["analysis.value_s"][0]) / op
        print(f"  path.ipet_s + analysis.value_s = {share:.1%} of the "
              f"traced analyze_wcet time")
    print(f"  tracing overhead {metrics['trace.overhead'][0]:+.1%} on "
          f"the median operation")


def run_workload(args) -> int:
    try:
        from scenarios import SCENARIOS
    except ImportError as exc:
        print(f"perfbench: cannot import the analyzer from "
              f"{os.path.join(ROOT, 'src')}: {exc}", file=sys.stderr)
        return 2
    from tracing import Tracer

    scratch = os.path.join(OUT_DIR, f"scratch-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    scenario = SCENARIOS[args.workload](args.seed, scratch)
    try:
        scenario.setup()
        setup_s = time.perf_counter() - _START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            untraced = scenario.run(args.seconds / 2)
            tracer = Tracer()
            traced, comparable = scenario.traced_run(args.seconds / 2,
                                                     tracer)
            runs = [untraced, traced] + \
                ([comparable] if comparable is not traced else [])
        else:
            runs = [scenario.run(args.seconds)]
        rss = peak_rss_mb()
        check = scenario.check(runs)
    finally:
        scenario.close()
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  env: {environment()}")
    print(f"  operation: {scenario.op}")
    correct = check.failed == 0 and not check.problems
    for problem in check.problems[:20]:
        print(f"  FAILED: {problem}")
    if args.trace:
        metrics = layer_metrics(tracer, scenario, traced, comparable,
                                untraced)
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans_path)
        for name, (value, unit) in metrics.items():
            print(f"  {name:<26} {value:.6g} {unit}")
        print_trace_summary(args.workload, metrics)
        print(f"  {len(tracer.spans)} spans written to {spans_path}")
    else:
        (run,) = runs
        setups = [setup_s] + probe_setups(args, SETUPS - 1)
        p50 = statistics.median(run.latencies)
        tail_s, tail_label = tail(run.latencies)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "op_p50_s": (p50, "s"),
            "op_tail_s": (tail_s, "s"),
            "work_per_s": (run.work / run.seconds, "1/s"),
            "peak_rss_mb": (rss, "MB"),
        }
        named = {
            "setup_s": f"median of {len(setups)}: "
                       + ", ".join(f"{value:.3f}" for value in setups),
            f"{scenario.op_name}_p50_s": f"n={len(run.latencies)}",
            f"{scenario.op_name}_tail_s":
                f"{tail_label}, n={len(run.latencies)}",
            f"{scenario.work_name}_per_s":
                f"{run.work} in {run.seconds:.3f} s",
            "peak_rss_mb": "benchmark process",
        }
        for (name, note), (value, unit) in zip(named.items(),
                                                metrics.values()):
            print(f"  {name:<20} {value:.6g} {unit} ({note})")
        print(f"  {'failed_ratio':<20} "
              f"{check.failed / max(1, check.attempted):.6g} "
              f"({check.failed} of {check.attempted} attempted)")
    print(json.dumps({
        "correct": correct, "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in a fresh interpreter; fails if any fails."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    for workload in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            status = 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true",
                        help="show that every correctness gate trips on "
                             "a tampered reference value")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.self_test:
        import gates
        return gates.self_test()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
