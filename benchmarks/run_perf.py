#!/usr/bin/env python
"""Fixpoint-kernel performance harness (CI perf guard).

Runs the E7 scaling family (a pipeline of N filter-stage functions,
each with its own loop) through the full WCET analysis, asserts the
value-analysis transfer count of every point against an absolute
budget, and appends the run to ``BENCH_fixpoint.json`` so later PRs
can spot regressions in the trajectory.  Each point also records the
per-phase wall clock of the analysis and the expanded-graph size
(contexts/nodes/edges) under every context policy, so
context-explosion regressions are visible across PRs, plus a
per-timing-model row (``additive`` vs ``krisc5``:
WCET bound and phase timings) with two bound guards: krisc5 must
never exceed additive on the same point, and neither model's bound
may regress past the last recorded run.  Two guards keep the value
phase from scaling with code size: seconds per value transfer on the
depth-7 synthetic program within a fixed ratio of the depth-5 (large)
point, and a size cap on the large point's pickled value artifact.

Usage::

    PYTHONPATH=src python benchmarks/run_perf.py [--repeat N]
        [--json PATH] [--quick]

``--quick`` is the CI smoke mode: fewer points, one repetition.
Exit status is non-zero if any budget assertion fails.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import shutil
import sys
import tempfile
import time
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from test_e7_scaling import _generate_program      # noqa: E402

from repro.analysis import (VectorMemory,         # noqa: E402
                            analyze_values)
from repro.analysis.state import (AbstractMemory,  # noqa: E402
                                  AbstractState)
from repro.batch import (clear_process_caches,         # noqa: E402
                         compare_rows, load_golden)
from repro.workloads.suite import sweep_suite          # noqa: E402
from repro.cfg import (VIVU, FullCallString,       # noqa: E402
                       KLimitedCallString, build_cfg, expand_task)
from repro.lang import compile_program             # noqa: E402
from repro.wcet import analyze_wcet                # noqa: E402
from repro.workloads.synthetic import generate_large_source  # noqa: E402

STAGES = (1, 2, 4, 8, 16)
QUICK_STAGES = (1, 4)

#: Guards on the large synthetic point.  The simplex and value-phase
#: work is judged by deterministic counts, which catch a regression that
#: a noisy wall clock cannot: the path LP takes 706 pivots and never
#: drifts far enough to refactorize, and the value phase does 2760
#: transfers and 3342 joins under either domain implementation (each
#: budget leaves ~12% headroom).  The whole analysis must also finish
#: well inside interactive time (a coarse wall-clock backstop).
LARGE_TOTAL_BUDGET_SECONDS = 5.0
LARGE_MAX_PIVOTS = 800
LARGE_MAX_REFACTORIZATIONS = 1
LARGE_MAX_VALUE_TRANSFERS = 3100
LARGE_MAX_VALUE_JOINS = 3750

#: Value-phase scaling guards.  Each state keeps only its data and
#: stack words; the code image is one read-only layer per analysis.  If
#: states carried the image again, every join would touch every code
#: word, and the cost per transfer would grow with program size: the
#: depth-7 synthetic program (11006 instructions) read 1.4-1.6x the
#: depth-5 large point's seconds per transfer that way, against
#: 0.98-1.14x with the image layer, and the large point's pickled value
#: artifact (what the phase cache and the serve memo hold) took 17.8 MB
#: instead of ~1.3 MB.  A ratio of two sizes measured in one process is
#: robust to the host's speed.
VALUE_SCALING_DEPTHS = (5, 7)
VALUE_SCALING_REPEAT = 3
VALUE_SCALING_MAX_RATIO = 1.3
LARGE_MAX_VALUE_ARTIFACT_BYTES = 2_000_000

#: Timing models measured per point (per-model WCET + phase wall clock).
MODELS = ("additive", "krisc5")

#: Abstract-domain implementations compared on the large point, and the
#: regression guard on their combined value+icache phase wall clock:
#: the numpy implementation must stay at least this many times faster
#: than the pure-Python reference (measured headroom is ~3x, see the
#: ``domain_impls`` entry of the large point).
DOMAIN_IMPLS = ("python", "numpy")
DOMAIN_IMPL_SPEEDUP_GUARD = 2.0

#: Context policies whose expansion footprint every point records
#: (context-explosion regression guard).
POLICIES = (FullCallString(), KLimitedCallString(2), VIVU(peel=1))

#: Value-analysis transfer budget per E7 point (stages -> transfers):
#: the counts the WTO kernel needs today, with no headroom.  Counts are
#: deterministic, so any growth is an iteration-strategy regression.
E7_MAX_VALUE_TRANSFERS = {1: 22, 2: 32, 4: 52, 8: 92, 16: 172}

#: Batch-engine guards.  Full mode sweeps the whole 19 x 3 x 2 matrix;
#: quick (CI smoke) mode a 6-workload slice.  A warm-cache rerun must
#: beat the cold run by the stated factor and serve >= 90% of phase
#: executions from the cache; a 4-worker cold run through the DAG
#: scheduler must beat the sequential cold run by the parallel-speedup
#: factor (asserted only on machines with >= BATCH_PARALLEL_JOBS
#: cores — elsewhere the workers time-slice one another and the
#: speedup is recorded, not asserted) and must deduplicate at least
#: one cross-job phase task.  All bounds are checked bit-identical to
#: the golden set.
BATCH_FULL_MATRIX = "all:all:all"
BATCH_QUICK_MATRIX = "fibcall,bs,calltree,statemate,matmult,crc:all:all"
BATCH_WARM_SPEEDUP = 5.0
BATCH_QUICK_WARM_SPEEDUP = 3.0
BATCH_WARM_HIT_RATIO = 0.9
BATCH_PARALLEL_JOBS = 4
BATCH_PARALLEL_SPEEDUP = 2.0


def available_cores() -> int:
    """CPU cores this process may run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1
GOLDEN_BOUNDS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tests", "golden_bounds.json")


def measure_point(stages: int, repeat: int) -> Dict:
    source = _generate_program(stages)
    program = compile_program(source)
    binary = build_cfg(program)
    graph = expand_task(binary)

    contexts_by_policy = {}
    for policy in POLICIES:
        start = time.perf_counter()
        expanded = expand_task(binary, policy=policy)
        contexts_by_policy[policy.describe()] = {
            "contexts": len(expanded.contexts()),
            "nodes": expanded.node_count(),
            "edges": expanded.edge_count(),
            "expand_seconds": round(time.perf_counter() - start, 4),
        }

    # Memory counters add up both implementations: the pure-python
    # AbstractMemory and the numpy VectorMemory (the default).
    state_copies_before = AbstractState.copies
    state_mat_before = AbstractState.materializations
    memory_copies_before = AbstractMemory.copies + VectorMemory.copies
    memory_mat_before = (AbstractMemory.materializations
                         + VectorMemory.materializations)
    wall_times: List[float] = []
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = analyze_wcet(program)
        wall_times.append(time.perf_counter() - start)
    state_copies = AbstractState.copies - state_copies_before
    state_mat = AbstractState.materializations - state_mat_before
    memory_copies = (AbstractMemory.copies + VectorMemory.copies
                     - memory_copies_before)
    memory_mat = (AbstractMemory.materializations
                  + VectorMemory.materializations - memory_mat_before)

    models = {}
    for model in MODELS:
        if model == "additive":
            modelled = result
        else:
            modelled = analyze_wcet(program, pipeline_model=model)
        entry = {
            "wcet_cycles": modelled.wcet_cycles,
            "pipeline_seconds": round(
                modelled.phase_seconds["pipeline"], 4),
            "phase_seconds": {phase: round(seconds, 4)
                              for phase, seconds
                              in modelled.phase_seconds.items()},
        }
        if modelled.timing.state_stats is not None:
            entry["state_stats"] = dict(vars(modelled.timing.state_stats))
        models[model] = entry

    point = {
        "stages": stages,
        "instructions": result.binary_cfg.total_instructions(),
        "nodes": graph.node_count(),
        "edges": graph.edge_count(),
        "wcet_cycles": result.wcet_cycles,
        "value_stats": dict(vars(result.solver_stats["value"])),
        "cache_stats": {
            name: dict(vars(stats))
            for name, stats in result.solver_stats.items()
            if name != "value"},
        "analyze_wcet_seconds": round(min(wall_times), 4),
        "value_phase_seconds": round(result.phase_seconds["value"], 4),
        "phase_seconds": {phase: round(seconds, 4)
                          for phase, seconds
                          in result.phase_seconds.items()},
        "contexts_by_policy": contexts_by_policy,
        "models": models,
        "state_copies_per_run": state_copies // repeat,
        "state_materializations_per_run": state_mat // repeat,
        "memory_copies_per_run": memory_copies // repeat,
        "memory_materializations_per_run": memory_mat // repeat,
    }
    return point


def measure_large_point(repeat: int) -> Dict:
    """The large synthetic corpus point (thousands of instructions,
    deep call tree, dense branching): exercises the sparse ILP engine
    and the value phase at scale and guards their work counts, wall
    clock and bound across runs."""
    program = compile_program(generate_large_source())
    wall_times: List[float] = []
    result = None
    image_copies_before = VectorMemory.image_materializations
    for _ in range(repeat):
        start = time.perf_counter()
        analyzed = analyze_wcet(program)
        wall = time.perf_counter() - start
        wall_times.append(wall)
        # Keep the fastest repetition's result so the recorded phase
        # timings come from the same run as min(wall_times) — bounds
        # and pivot counts are deterministic, but phase timings are not.
        if result is None or wall <= min(wall_times):
            result = analyzed
    image_copies = VectorMemory.image_materializations - image_copies_before

    # Per-implementation comparison of the two vectorized phases
    # (value analysis and I-cache analysis): best combined wall clock
    # over `repeat` runs each, plus the bit-identity of the bounds.
    domain_impls: Dict[str, Dict] = {}
    for impl in DOMAIN_IMPLS:
        best = None
        for _ in range(repeat):
            analyzed = analyze_wcet(program, domain_impl=impl)
            combined = (analyzed.phase_seconds["value"]
                        + analyzed.phase_seconds["icache"])
            if best is None or combined < best["combined_seconds"]:
                best = {
                    "wcet_cycles": analyzed.wcet_cycles,
                    "value_seconds": round(
                        analyzed.phase_seconds["value"], 4),
                    "icache_seconds": round(
                        analyzed.phase_seconds["icache"], 4),
                    "combined_seconds": combined,
                }
        best["combined_seconds"] = round(best["combined_seconds"], 4)
        domain_impls[impl] = best
    speedup = (domain_impls["python"]["combined_seconds"]
               / max(domain_impls["numpy"]["combined_seconds"], 1e-9))

    phase_seconds = {phase: round(seconds, 4)
                     for phase, seconds in result.phase_seconds.items()}
    value_artifact_bytes = len(pickle.dumps(
        result.values, protocol=pickle.HIGHEST_PROTOCOL))
    return {
        "stages": "large",
        "kind": "large",
        "instructions": result.binary_cfg.total_instructions(),
        "nodes": result.graph.node_count(),
        "edges": result.graph.edge_count(),
        "wcet_cycles": result.wcet_cycles,
        "analyze_wcet_seconds": round(min(wall_times), 4),
        "path_seconds": phase_seconds["path"],
        "phase_seconds": phase_seconds,
        "num_variables": result.path.num_variables,
        "num_constraints": result.path.num_constraints,
        "ilp_stats": dict(vars(result.solver_stats["path"])),
        "value_stats": dict(vars(result.solver_stats["value"])),
        "value_artifact_bytes": value_artifact_bytes,
        # States that had to copy the read-only code image (a write
        # that may touch .text); the large point makes none.
        "value_image_copies_per_run": image_copies // repeat,
        "domain_impls": domain_impls,
        "domain_impl_speedup": round(speedup, 2),
        "models": {"additive": {"wcet_cycles": result.wcet_cycles,
                                "phase_seconds": phase_seconds}},
    }


def measure_value_scaling() -> Dict:
    """Best-of-N value-phase seconds per transfer on the synthetic
    programs of :data:`VALUE_SCALING_DEPTHS`, and their ratio.  The
    repetitions alternate between the programs, so a slow spell of the
    host hits both sides of the ratio alike."""
    programs = {depth: compile_program(generate_large_source(depth))
                for depth in VALUE_SCALING_DEPTHS}
    graphs = {depth: expand_task(build_cfg(program))
              for depth, program in programs.items()}
    best: Dict[int, float] = {}
    stats = {}
    for _ in range(VALUE_SCALING_REPEAT):
        for depth, program in programs.items():
            start = time.perf_counter()
            values = analyze_values(graphs[depth], program=program)
            seconds = time.perf_counter() - start
            best[depth] = min(seconds, best.get(depth, seconds))
            stats[depth] = values.fixpoint.stats
    depths = {depth: {
        "instructions": len(program.text.data) // 4,
        "transfers": stats[depth].transfers,
        "joins": stats[depth].joins,
        "value_seconds": round(best[depth], 4),
        "ms_per_transfer": round(
            1000 * best[depth] / stats[depth].transfers, 5),
    } for depth, program in programs.items()}
    small, large = (depths[depth] for depth in VALUE_SCALING_DEPTHS)
    return {"depths": depths,
            "ratio": round(large["ms_per_transfer"]
                           / small["ms_per_transfer"], 3)}


def measure_batch_sweep(quick: bool) -> Dict:
    """Drive the workload matrix through the batch engine three ways —
    cold sequential, warm sequential, cold parallel — and record wall
    clocks, cache hit ratios, and golden-bounds mismatches."""
    matrix = BATCH_QUICK_MATRIX if quick else BATCH_FULL_MATRIX
    golden = load_golden(GOLDEN_BOUNDS_PATH)
    temp = tempfile.mkdtemp(prefix="repro-batch-perf-")
    try:
        sequential_dir = os.path.join(temp, "seq")
        parallel_dir = os.path.join(temp, "par")
        # Parallel first, with cleared memos before each cold sweep:
        # fork-spawned workers inherit the parent's compiled-program
        # memo, so measuring parallel after sequential would hand the
        # "cold" parallel run pre-compiled binaries.
        clear_process_caches()
        parallel = sweep_suite(matrix, parallel=BATCH_PARALLEL_JOBS,
                               cache_dir=parallel_dir)
        clear_process_caches()
        cold = sweep_suite(matrix, parallel=1,
                           cache_dir=sequential_dir)
        # Cleared again so the warm sweep deserialises from disk — the
        # cross-run path real warm reruns take — rather than being
        # served by the cold run's in-memory memo.
        clear_process_caches()
        warm = sweep_suite(matrix, parallel=1,
                           cache_dir=sequential_dir)
    finally:
        shutil.rmtree(temp, ignore_errors=True)
        # Don't keep artifacts of the deleted temp dirs pinned in the
        # process-level cache memo.
        clear_process_caches()

    mismatches = []
    for label, sweep in (("cold", cold), ("warm", warm),
                         ("parallel", parallel)):
        mismatches.extend(f"{label}: {mismatch}"
                          for mismatch in compare_rows(sweep.rows,
                                                       golden))
    return {
        "matrix": matrix,
        "jobs": len(cold.jobs),
        "parallel_jobs": BATCH_PARALLEL_JOBS,
        "cores": available_cores(),
        "cold_seconds": round(cold.wall_seconds, 4),
        "warm_seconds": round(warm.wall_seconds, 4),
        "parallel_seconds": round(parallel.wall_seconds, 4),
        "warm_speedup": round(cold.wall_seconds
                              / max(warm.wall_seconds, 1e-9), 2),
        "parallel_speedup": round(cold.wall_seconds
                                  / max(parallel.wall_seconds, 1e-9), 2),
        "warm_hit_ratio": round(warm.hit_ratio(), 4),
        "scheduler": parallel.scheduler,
        "golden_mismatches": mismatches,
    }


def check_batch_sweep(batch: Dict, quick: bool) -> List[str]:
    failures = list(batch["golden_mismatches"])
    required = BATCH_QUICK_WARM_SPEEDUP if quick else BATCH_WARM_SPEEDUP
    if batch["warm_speedup"] < required:
        failures.append(
            f"warm-cache sweep only {batch['warm_speedup']:.1f}x faster "
            f"than cold (required {required}x)")
    if batch["warm_hit_ratio"] < BATCH_WARM_HIT_RATIO:
        failures.append(
            f"warm-cache hit ratio {batch['warm_hit_ratio']:.0%} below "
            f"{BATCH_WARM_HIT_RATIO:.0%}")
    scheduler = batch.get("scheduler") or {}
    if scheduler.get("deduped_tasks", 0) < 1:
        failures.append(
            "DAG scheduler deduplicated no phase tasks on the "
            "parallel cold sweep (cross-job sharing broken)")
    # Parallel-speedup regression guard: only meaningful when the
    # machine can actually run the workers concurrently; on fewer
    # cores the speedup is recorded but not asserted.
    if batch["cores"] >= batch["parallel_jobs"] \
            and batch["parallel_speedup"] < BATCH_PARALLEL_SPEEDUP:
        failures.append(
            f"parallel cold sweep only {batch['parallel_speedup']:.2f}x "
            f"faster than sequential cold with "
            f"{batch['parallel_jobs']} workers on {batch['cores']} "
            f"cores (required {BATCH_PARALLEL_SPEEDUP}x)")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3,
                        help="wall-clock repetitions per point (min wins)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: fewer points, 1 repetition")
    parser.add_argument("--json", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_fixpoint.json"))
    args = parser.parse_args(argv)
    stage_list = QUICK_STAGES if args.quick else STAGES
    repeat = 1 if args.quick else args.repeat

    points = []
    header = (f"{'stages':>6} {'nodes':>6} "
              f"{'xfer':>6} {'budget':>6} {'widen':>6} "
              f"{'value ms':>9} {'total ms':>9} "
              f"{'wcet add':>9} {'wcet k5':>9}")
    print(header)
    print("-" * len(header))
    for stages in stage_list:
        point = measure_point(stages, repeat)
        points.append(point)
        value = point["value_stats"]
        print(f"{stages:>6} {point['nodes']:>6} "
              f"{value['transfers']:>6} "
              f"{E7_MAX_VALUE_TRANSFERS[stages]:>6} "
              f"{value['widenings']:>6} "
              f"{point['value_phase_seconds'] * 1000:>9.1f} "
              f"{point['analyze_wcet_seconds'] * 1000:>9.1f} "
              f"{point['models']['additive']['wcet_cycles']:>9} "
              f"{point['models']['krisc5']['wcet_cycles']:>9}")

    large = measure_large_point(repeat)
    points.append(large)
    print(f"\nlarge synthetic point: {large['instructions']} "
          f"instructions, {large['nodes']} task-graph nodes, LP "
          f"{large['num_variables']} variables x "
          f"{large['num_constraints']} rows; "
          f"analyze {large['analyze_wcet_seconds'] * 1000:.0f} ms "
          f"(path {large['path_seconds'] * 1000:.0f} ms, "
          f"{large['ilp_stats']['pivots']} pivots), "
          f"WCET {large['wcet_cycles']}")
    print(f"large point pickled value artifact: "
          f"{large['value_artifact_bytes'] / 1e6:.2f} MB")
    impls = large["domain_impls"]
    print(f"domain impls (value+icache): python "
          f"{impls['python']['combined_seconds'] * 1000:.0f} ms, numpy "
          f"{impls['numpy']['combined_seconds'] * 1000:.0f} ms "
          f"({large['domain_impl_speedup']:.2f}x)")

    scaling = measure_value_scaling()
    print("value phase scaling: " + ", ".join(
        f"depth {depth} {entry['instructions']} instructions "
        f"{entry['transfers']} transfers "
        f"{entry['ms_per_transfer']:.4f} ms/transfer"
        for depth, entry in scaling["depths"].items())
        + f" (ratio {scaling['ratio']:.2f}, "
          f"guard {VALUE_SCALING_MAX_RATIO})")

    batch = measure_batch_sweep(args.quick)
    print(f"\nbatch sweep ({batch['jobs']} jobs, {batch['matrix']}): "
          f"cold {batch['cold_seconds']:.2f}s, "
          f"warm {batch['warm_seconds']:.2f}s "
          f"({batch['warm_speedup']:.1f}x, "
          f"hit ratio {batch['warm_hit_ratio']:.0%}), "
          f"parallel x{batch['parallel_jobs']} "
          f"{batch['parallel_seconds']:.2f}s "
          f"({batch['parallel_speedup']:.1f}x on "
          f"{batch['cores']} cores)")
    scheduler = batch.get("scheduler") or {}
    if scheduler:
        print(f"DAG scheduler: {scheduler['phase_refs']} phase refs -> "
              f"{scheduler['unique_tasks']} tasks "
              f"({scheduler['deduped_tasks']} deduped), "
              f"{scheduler['steals']} steals")

    failures = check_batch_sweep(batch, args.quick)
    if large["analyze_wcet_seconds"] > LARGE_TOTAL_BUDGET_SECONDS:
        failures.append(
            f"large point analyze_wcet took "
            f"{large['analyze_wcet_seconds']:.2f}s "
            f"> budget {LARGE_TOTAL_BUDGET_SECONDS}s")
    ilp = large["ilp_stats"]
    if ilp["pivots"] > LARGE_MAX_PIVOTS:
        failures.append(
            f"large point path LP took {ilp['pivots']} pivots "
            f"> budget {LARGE_MAX_PIVOTS}")
    if ilp["refactorizations"] > LARGE_MAX_REFACTORIZATIONS:
        failures.append(
            f"large point path LP refactorized "
            f"{ilp['refactorizations']} times "
            f"> budget {LARGE_MAX_REFACTORIZATIONS}")
    value = large["value_stats"]
    for counter, budget in (("transfers", LARGE_MAX_VALUE_TRANSFERS),
                            ("joins", LARGE_MAX_VALUE_JOINS)):
        if value[counter] > budget:
            failures.append(
                f"large point value phase took {value[counter]} "
                f"{counter} > budget {budget}")
    if scaling["ratio"] > VALUE_SCALING_MAX_RATIO:
        failures.append(
            f"value phase seconds per transfer at depth "
            f"{VALUE_SCALING_DEPTHS[1]} are {scaling['ratio']:.2f}x those "
            f"at depth {VALUE_SCALING_DEPTHS[0]} "
            f"(guard {VALUE_SCALING_MAX_RATIO}x)")
    if large["value_artifact_bytes"] > LARGE_MAX_VALUE_ARTIFACT_BYTES:
        failures.append(
            f"large point pickled value artifact takes "
            f"{large['value_artifact_bytes']} bytes "
            f"> budget {LARGE_MAX_VALUE_ARTIFACT_BYTES}")
    impl_bounds = {impl: entry["wcet_cycles"]
                   for impl, entry in large["domain_impls"].items()}
    if len(set(impl_bounds.values())) != 1:
        failures.append(
            f"domain implementations disagree on the large point's "
            f"bound: {impl_bounds}")
    if large["domain_impl_speedup"] < DOMAIN_IMPL_SPEEDUP_GUARD:
        failures.append(
            f"numpy domain impl only {large['domain_impl_speedup']:.2f}x "
            f"faster than python on combined value+icache "
            f"(required {DOMAIN_IMPL_SPEEDUP_GUARD}x)")

    for point in points:
        if point.get("kind") == "large":
            continue                  # guarded by its budgets above
        transfers = point["value_stats"]["transfers"]
        budget = E7_MAX_VALUE_TRANSFERS[point["stages"]]
        if transfers > budget:
            failures.append(
                f"value phase took {transfers} transfers at "
                f"{point['stages']} stages > budget {budget}")
        # Context-explosion guard: k-limiting must never expand the
        # graph beyond the full-call-string baseline.
        sizes = point["contexts_by_policy"]
        if sizes["klimited@2"]["nodes"] > sizes["full"]["nodes"]:
            failures.append(
                f"k-limited expansion larger than full call strings at "
                f"{point['stages']} stages")
        # Model-tightness guard: the overlapped pipeline bound must
        # never exceed the additive one on the same program.
        models = point["models"]
        if models["krisc5"]["wcet_cycles"] \
                > models["additive"]["wcet_cycles"]:
            failures.append(
                f"krisc5 bound {models['krisc5']['wcet_cycles']} looser "
                f"than additive {models['additive']['wcet_cycles']} at "
                f"{point['stages']} stages")

    trajectory = {"runs": []}
    if os.path.exists(args.json):
        try:
            with open(args.json) as handle:
                trajectory = json.load(handle)
        except (OSError, ValueError):
            pass

    # Bound-regression guard: neither model's bound may exceed the one
    # recorded by the most recent prior run of the same point (bounds
    # are deterministic, so any increase is an analysis regression).
    previous = {}
    for prior in trajectory.get("runs", []):
        for point in prior.get("points", []):
            for model, entry in point.get("models", {}).items():
                previous[(point["stages"], model)] = entry["wcet_cycles"]
    for point in points:
        for model, entry in point["models"].items():
            recorded = previous.get((point["stages"], model))
            if recorded is not None and entry["wcet_cycles"] > recorded:
                failures.append(
                    f"{model} bound regressed at {point['stages']} "
                    f"stages: {entry['wcet_cycles']} > recorded "
                    f"{recorded}")

    run = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "value_transfer_budgets": E7_MAX_VALUE_TRANSFERS,
        "quick": args.quick,
        "points": points,
        "value_scaling": scaling,
        "batch": batch,
        "ok": not failures,
    }
    trajectory.setdefault("runs", []).append(run)
    with open(args.json, "w") as handle:
        json.dump(trajectory, handle, indent=1)
        handle.write("\n")
    print(f"\nwrote {args.json} ({len(trajectory['runs'])} runs)")

    if failures:
        for failure in failures:
            print("FAIL:", failure, file=sys.stderr)
        return 1
    print("perf budget OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
