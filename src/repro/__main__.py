"""Command-line interface: ``python -m repro``.

Analyse a KRISC assembly file (``.s``) or mini-C file (``.c``) the way
the aiT / StackAnalyzer command-line tools are driven:

    python -m repro wcet task.s [--dot out.dot] [--loop-bound ADDR=N]
    python -m repro stack task.c
    python -m repro run task.c [--reg R0=5]
    python -m repro disasm task.s
    python -m repro batch --matrix all:all:all --jobs 4 --cache-dir .cache
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from .cfg.contexts import make_policy
from .isa import assemble, disassemble
from .isa.program import Program
from .lang import compile_program
from .report import wcet_dot, wcet_report, worst_case_path_table
from .sim import run_program
from .stack import analyze_stack
from .wcet import analyze_wcet


def _load_program(path: str) -> Program:
    with open(path) as handle:
        source = handle.read()
    if path.endswith(".c"):
        return compile_program(source)
    return assemble(source)


def _parse_assignments(items: List[str], what: str) -> Dict[str, int]:
    values: Dict[str, int] = {}
    for item in items:
        if "=" not in item:
            raise SystemExit(f"bad {what} {item!r}: expected KEY=VALUE")
        key, _, raw = item.partition("=")
        values[key.strip()] = int(raw, 0)
    return values


def cmd_wcet(args: argparse.Namespace) -> int:
    program = _load_program(args.file)
    manual = {int(k, 0): v for k, v in _parse_assignments(
        args.loop_bound, "loop bound").items()}
    ranges = None
    if args.reg_range:
        ranges = {}
        for item in args.reg_range:
            name, _, span = item.partition("=")
            low, _, high = span.partition(":")
            ranges[int(name.lstrip("Rr"), 0)] = (int(low, 0),
                                                 int(high, 0))
    policy = make_policy(args.context_policy, k=args.k, peel=args.peel)
    result = analyze_wcet(program, manual_loop_bounds=manual,
                          register_ranges=ranges, context_policy=policy,
                          pipeline_model=args.pipeline_model,
                          domain_impl=args.domain_impl,
                          profile=args.profile)
    stack = analyze_stack(program, register_ranges=ranges)
    print(wcet_report(result, stack))
    if args.profile:
        import pstats
        for phase, prof in result.profiles.items():
            print(f"\n=== profile: {phase} "
                  f"({result.phase_seconds.get(phase, 0.0):.3f}s) ===")
            pstats.Stats(prof, stream=sys.stdout) \
                .sort_stats("cumulative").print_stats(20)
    if args.path:
        print(worst_case_path_table(result))
    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(wcet_dot(result))
        print(f"annotated CFG written to {args.dot}")
    return 0


def cmd_stack(args: argparse.Namespace) -> int:
    program = _load_program(args.file)
    result = analyze_stack(program)
    print(result.summary())
    for name, usage in sorted(result.per_function.items()):
        print(f"  {name}: {usage} bytes")
    return 1 if result.overflows else 0


def cmd_run(args: argparse.Namespace) -> int:
    from .cache.config import MachineConfig

    program = _load_program(args.file)
    arguments = {int(k.lstrip("Rr")): v for k, v in _parse_assignments(
        args.reg, "register").items()}
    config = MachineConfig(pipeline_model=args.pipeline_model)
    result = run_program(program, config=config, arguments=arguments,
                         max_steps=args.max_steps)
    print(f"halted after {result.steps} instructions, "
          f"{result.cycles} cycles")
    print(f"max stack usage: {result.max_stack_usage} bytes")
    print(f"I-cache: {result.fetch_hits} hits / "
          f"{result.fetch_misses} misses; "
          f"D-cache: {result.data_hits} hits / "
          f"{result.data_misses} misses")
    for index in range(0, 16, 4):
        cells = "  ".join(
            f"R{i:<2}=0x{result.registers[i]:08x}"
            for i in range(index, index + 4))
        print(cells)
    return 0


def cmd_disasm(args: argparse.Namespace) -> int:
    program = _load_program(args.file)
    sys.stdout.write(disassemble(program))
    return 0


def _rta_sweep(files, cache_dir=None, golden=None, write_golden=None,
               orderings=None, geometries=None) -> int:
    """Shared by ``repro rta --sweep`` and ``repro batch --scenario
    rta``: ordering × geometry schedulability sweep with golden
    verdicts."""
    from .batch.cachestore import ArtifactCache
    from .rta.sweep import (GEOMETRIES, compare_with_golden,
                            load_golden, rows_to_golden, save_golden,
                            sweep_taskset)
    from .rta.taskset import ORDERINGS, load_taskset

    cache = ArtifactCache(cache_dir)
    orderings = orderings or ORDERINGS
    geometries = geometries or GEOMETRIES
    rows = []
    for path in files:
        rows.extend(sweep_taskset(load_taskset(path),
                                  orderings=orderings,
                                  geometries=geometries, cache=cache))
    header = (f"{'taskset':<16} {'ordering':<16} {'geometry':<9} "
              f"{'verdict':<14} responses")
    print(header)
    print("-" * len(header))
    for row in rows:
        verdict = "schedulable" if row["schedulable"] \
            else "UNSCHEDULABLE"
        responses = " ".join(
            f"{task['task']}={task['response']}"
            for task in row["tasks"])
        print(f"{row['taskset']:<16} {row['ordering']:<16} "
              f"{row['geometry']:<9} {verdict:<14} {responses}")
    print(f"\n{len(rows)} cells; phase cache: {cache.hits} hits / "
          f"{cache.misses} misses")

    failures = []
    if golden:
        failures.extend(compare_with_golden(rows, load_golden(golden)))
    if write_golden:
        merged = rows_to_golden(rows)
        try:
            existing = load_golden(write_golden)
        except FileNotFoundError:
            existing = {}
        existing.update(merged)
        import json as _json
        with open(write_golden, "w", encoding="utf-8") as handle:
            _json.dump(existing, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"golden verdicts written to {write_golden}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def cmd_rta(args: argparse.Namespace) -> int:
    from .batch.cachestore import ArtifactCache
    from .rta import analyze_taskset, verify_taskset
    from .rta.taskset import load_taskset

    orderings = args.orderings.split(",") if args.orderings else None
    geometries = args.geometries.split(",") if args.geometries else None
    if args.sweep:
        return _rta_sweep(args.files, cache_dir=args.cache_dir,
                          golden=args.golden,
                          write_golden=args.write_golden,
                          orderings=orderings, geometries=geometries)

    cache = ArtifactCache(args.cache_dir)
    failures = []
    for path in args.files:
        taskset = load_taskset(path)
        result = analyze_taskset(taskset, cache=cache)
        print(f"task set {taskset.name}: "
              f"{'schedulable' if result.schedulable else 'UNSCHEDULABLE'}")
        header = (f"  {'task':<10} {'prio':>4} {'period':>8} "
                  f"{'C':>8} {'R':>8} {'naive R':>8}  CRPD")
        print(header)
        print("  " + "-" * (len(header) - 2))
        for response in result.responses:
            shown = response.response if response.response is not None \
                else "-"
            naive = response.naive_response \
                if response.naive_response is not None else "-"
            crpd = ", ".join(f"{name}:{cost}" for name, cost
                             in sorted(response.crpd.items())) or "-"
            print(f"  {response.name:<10} {response.priority:>4} "
                  f"{response.period:>8} {response.wcet_cycles:>8} "
                  f"{shown:>8} {naive:>8}  {crpd}")
        print(f"  phase cache: {result.cache_hits} hits / "
              f"{result.cache_misses} misses; naive full-refill CRPD "
              f"{result.naive_crpd_cycles} cycles")
        if args.verify:
            report = verify_taskset(result)
            print(f"  S7/S8 oracle: {report.summary()}")
            if not report.ok:
                failures.extend(str(v) for v in report.violations)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def cmd_batch(args: argparse.Namespace) -> int:
    from .batch import (compare_rows, golden_from_rows, load_golden,
                        merge_golden, save_golden)
    from .workloads.suite import sweep_suite

    if args.scenario == "rta":
        if not args.taskset:
            raise SystemExit("--scenario rta requires --taskset")
        return _rta_sweep(args.taskset, cache_dir=args.cache_dir,
                          golden=args.golden,
                          write_golden=args.write_golden)

    scheduler_options = {}
    if args.task_retries is not None:
        scheduler_options["max_task_retries"] = args.task_retries
    if args.pool_rebuilds is not None:
        scheduler_options["max_pool_rebuilds"] = args.pool_rebuilds
    result = sweep_suite(args.matrix, parallel=args.jobs,
                         cache_dir=args.cache_dir,
                         use_cache=not args.no_cache,
                         jsonl_path=args.jsonl,
                         cache_limit_mb=args.cache_limit_mb,
                         **scheduler_options)
    jobs = result.jobs

    header = (f"{'workload':<12} {'policy':<12} {'model':<9} "
              f"{'wcet':>8} {'ms':>8} {'cache':>9}")
    print(header)
    print("-" * len(header))
    for row in result.rows:
        if "error" in row:
            print(f"{row['workload']:<12} {row['policy']:<12} "
                  f"{row['model']:<9} ERROR: {row['error']}")
            continue
        cache = row["cache"]
        provenance = f"{cache['hits']}h/{cache['misses']}m" \
            if cache["hits"] or cache["misses"] else "off"
        print(f"{row['workload']:<12} {row['policy']:<12} "
              f"{row['model']:<9} {row['wcet_cycles']:>8} "
              f"{row['wall_seconds'] * 1000:>8.1f} {provenance:>9}")
    ratio = result.hit_ratio()
    print(f"\n{len(jobs)} jobs in {result.wall_seconds:.2f}s "
          f"({args.jobs} worker{'s' if args.jobs != 1 else ''}); "
          f"phase cache: {result.cache_hits} hits / "
          f"{result.cache_misses} misses ({ratio:.0%})")
    scheduler = result.scheduler
    busy = scheduler["worker_busy_fraction"]
    busy_text = ", ".join(f"{fraction:.0%}"
                          for fraction in busy.values()) or "-"
    print(f"scheduler: {scheduler['phase_refs']} phase refs -> "
          f"{scheduler['unique_tasks']} tasks "
          f"({scheduler['deduped_tasks']} deduped); "
          f"{scheduler['computed_tasks']} computed / "
          f"{scheduler['cache_served_tasks']} cache-served; "
          f"{scheduler['steals']} steals; "
          f"worker busy: {busy_text}")
    if scheduler["retries"] or scheduler["pool_rebuilds"] \
            or scheduler["degraded_tasks"] \
            or scheduler["quarantined"]:
        print(f"fault tolerance: {scheduler['retries']} retries, "
              f"{scheduler['pool_rebuilds']} pool rebuilds, "
              f"{scheduler['degraded_tasks']} tasks run degraded "
              f"in-process, {scheduler['quarantined']} artifacts "
              f"quarantined")
    if args.jsonl:
        print(f"results written to {args.jsonl}")

    failures = list(result.errors)
    if args.golden:
        # Failed jobs are already in result.errors; compare only the
        # rows that produced a bound.
        completed = [row for row in result.rows if "error" not in row]
        failures.extend(compare_rows(completed,
                                     load_golden(args.golden)))
    if args.write_golden:
        if result.errors:
            failures.append("refusing to write golden bounds from a "
                            "sweep with failed jobs")
        else:
            # Merge into an existing file so a partial-matrix sweep
            # refreshes only its own points.
            updated = golden_from_rows(result.rows)
            try:
                updated = merge_golden(load_golden(args.write_golden),
                                       updated)
            except FileNotFoundError:
                pass
            save_golden(args.write_golden, updated)
            print(f"golden bounds written to {args.write_golden}")
    if args.require_hit_ratio is not None \
            and ratio < args.require_hit_ratio:
        failures.append(f"cache hit ratio {ratio:.2%} below required "
                        f"{args.require_hit_ratio:.2%}")
    if args.min_dedup is not None:
        deduped = scheduler["deduped_tasks"]
        if deduped < args.min_dedup:
            failures.append(f"scheduler deduplicated {deduped} phase "
                            f"tasks, below required {args.min_dedup} "
                            f"(cross-job sharing not exercised)")
    if args.min_retries is not None:
        retries = scheduler["retries"]
        if retries < args.min_retries:
            failures.append(f"scheduler retried {retries} tasks, below "
                            f"required {args.min_retries} (fault "
                            f"injection not exercised)")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .serve import AnalysisServer, AnalysisService

    # Unset flags keep the ArtifactCache class defaults (bounded);
    # explicit 0 is rejected rather than silently meaning "unbounded".
    memo_kwargs = {}
    if args.memo_entries is not None:
        if args.memo_entries <= 0:
            raise SystemExit("--memo-entries must be positive")
        memo_kwargs["memo_entries"] = args.memo_entries
    if args.memo_mb is not None:
        if args.memo_mb <= 0:
            raise SystemExit("--memo-mb must be positive")
        memo_kwargs["memo_bytes"] = int(args.memo_mb * 1024 * 1024)
    if args.max_jobs is not None and args.max_jobs <= 0:
        raise SystemExit("--max-jobs must be positive")
    if args.max_jobs is not None:
        memo_kwargs["max_jobs"] = args.max_jobs
    service = AnalysisService(cache_dir=args.cache_dir,
                              workers=args.workers,
                              cache_limit_mb=args.cache_limit_mb,
                              journal_dir=args.journal,
                              **memo_kwargs)
    server = AnalysisServer((args.host, args.port), service)
    host, port = server.server_address[:2]
    print(f"repro serve listening on http://{host}:{port} "
          f"({args.workers} worker"
          f"{'s' if args.workers != 1 else ''}, cache: "
          f"{args.cache_dir or 'in-memory'}, journal: "
          f"{args.journal or 'off'})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from .serve import ServeClientError, analyze, server_stats

    with open(args.file) as handle:
        text = handle.read()
    kind = "source" if args.file.endswith(".c") else "assembly"
    payload: dict = {kind: text}
    if args.policy:
        payload["policies"] = args.policy
    if args.model:
        payload["models"] = args.model
    if args.entry:
        payload["entry"] = args.entry
    if args.loop_bound:
        payload["loop_bounds"] = _parse_assignments(args.loop_bound,
                                                    "loop bound")
    if args.reg_range:
        ranges = {}
        for item in args.reg_range:
            name, _, span = item.partition("=")
            low, _, high = span.partition(":")
            ranges[name.strip()] = [int(low, 0), int(high, 0)]
        payload["register_ranges"] = ranges
    if args.label:
        payload["label"] = args.label

    try:
        record = analyze(args.url, payload, timeout=args.timeout)
    except ServeClientError as exc:
        print(f"request rejected: {exc}", file=sys.stderr)
        return 1
    if record["status"] == "error":
        print(f"analysis failed: {record['error']}", file=sys.stderr)
        return 1

    header = (f"{'label':<12} {'policy':<12} {'model':<9} "
              f"{'wcet':>8} {'cache':>9}")
    print(header)
    print("-" * len(header))
    for row in record["rows"]:
        cache = row["cache"]
        provenance = f"{cache['hits']}h/{cache['misses']}m"
        print(f"{row['workload']:<12} {row['policy']:<12} "
              f"{row['model']:<9} {row['wcet_cycles']:>8} "
              f"{provenance:>9}")
    summary = record["cache"]
    print(f"\nphase cache: {summary['hits']} hits / "
          f"{summary['misses']} misses "
          f"({summary['hit_ratio']:.0%}); "
          f"compile {record['compile_seconds'] * 1000:.1f}ms, "
          f"wall {record['wall_seconds'] * 1000:.1f}ms")
    if args.stats:
        import json as json_module
        print(json_module.dumps(server_stats(args.url), indent=2,
                                sort_keys=True))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WCET and stack-usage verification by abstract "
                    "interpretation (DATE 2005 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_wcet = sub.add_parser("wcet", help="verify worst-case timing")
    p_wcet.add_argument("file")
    p_wcet.add_argument("--dot", help="write annotated CFG (DOT)")
    p_wcet.add_argument("--path", action="store_true",
                        help="print the worst-case path table")
    p_wcet.add_argument("--loop-bound", action="append", default=[],
                        metavar="ADDR=N",
                        help="manual bound for a loop header address")
    p_wcet.add_argument("--reg-range", action="append", default=[],
                        metavar="Rk=LO:HI",
                        help="entry value range annotation")
    p_wcet.add_argument("--context-policy", default="full",
                        choices=["full", "klimited", "vivu"],
                        help="context sensitivity: full call strings "
                             "(default), k-limited call strings, or "
                             "VIVU loop peeling")
    p_wcet.add_argument("--k", type=int, default=None, metavar="K",
                        help="call-string depth: required meaningfully "
                             "by --context-policy klimited (default 2); "
                             "optional for vivu (combines peeling with "
                             "k-limited call strings)")
    p_wcet.add_argument("--peel", type=int, default=1, metavar="N",
                        help="loop iterations peeled per loop for "
                             "--context-policy vivu (default 1; higher "
                             "values can loosen the bound where "
                             "persistence already covered the loop)")
    p_wcet.add_argument("--pipeline-model", default="additive",
                        choices=["additive", "krisc5"],
                        help="machine timing model: per-instruction "
                             "additive costs (default) or the "
                             "overlapped 5-stage krisc5 pipeline "
                             "(abstract pipeline-state analysis)")
    p_wcet.add_argument("--domain-impl", default=None,
                        choices=["python", "numpy"],
                        help="abstract-domain implementation: packed "
                             "numpy arrays (default) or the pure-Python "
                             "reference; bounds are identical either "
                             "way (overrides $REPRO_DOMAIN_IMPL)")
    p_wcet.add_argument("--profile", action="store_true",
                        help="profile each analysis phase (cProfile) "
                             "and print its top-20 functions by "
                             "cumulative time")
    p_wcet.set_defaults(func=cmd_wcet)

    p_stack = sub.add_parser("stack", help="verify stack usage")
    p_stack.add_argument("file")
    p_stack.set_defaults(func=cmd_stack)

    p_run = sub.add_parser("run", help="simulate one concrete run")
    p_run.add_argument("file")
    p_run.add_argument("--reg", action="append", default=[],
                       metavar="Rk=V", help="initial register value")
    p_run.add_argument("--max-steps", type=int, default=1_000_000)
    p_run.add_argument("--pipeline-model", default="additive",
                       choices=["additive", "krisc5"],
                       help="timing model to account cycles under")
    p_run.set_defaults(func=cmd_run)

    p_dis = sub.add_parser("disasm", help="disassemble a binary")
    p_dis.add_argument("file")
    p_dis.set_defaults(func=cmd_disasm)

    p_batch = sub.add_parser(
        "batch", help="run an analysis sweep over the workload matrix")
    p_batch.add_argument("--matrix", default="all:all:all",
                        metavar="W:P:M",
                        help="sweep matrix WORKLOADS:POLICIES:MODELS; "
                             "each component a comma list or 'all' "
                             "(policies: full, klimited[@K], "
                             "vivu[@PEEL[@K]])")
    p_batch.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (1 = in-process)")
    p_batch.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="content-addressed artifact cache "
                             "directory, shared across runs and "
                             "workers (default: in-memory only)")
    p_batch.add_argument("--no-cache", action="store_true",
                        help="no artifact store: nothing is kept across "
                             "runs and rows record no cache provenance")
    p_batch.add_argument("--jsonl", default=None, metavar="PATH",
                        help="write one JSON result line per job")
    p_batch.add_argument("--golden", default=None, metavar="PATH",
                        help="assert bounds are bit-identical to this "
                             "golden-bounds JSON file")
    p_batch.add_argument("--write-golden", default=None, metavar="PATH",
                        help="regenerate a golden-bounds JSON file "
                             "from this sweep's results")
    p_batch.add_argument("--require-hit-ratio", type=float,
                        default=None, metavar="R",
                        help="fail unless the phase-cache hit ratio "
                             "is at least R (CI warm-cache guard)")
    p_batch.add_argument("--cache-limit-mb", type=float, default=None,
                        metavar="MB",
                        help="evict least-recently-used artifact-cache "
                             "entries once the on-disk cache exceeds "
                             "this size; requires --cache-dir")
    p_batch.add_argument("--min-dedup", type=int, default=None,
                        metavar="N",
                        help="fail unless the DAG scheduler "
                             "deduplicated at least N phase tasks "
                             "(CI cross-job sharing guard)")
    p_batch.add_argument("--min-retries", type=int, default=None,
                        metavar="N",
                        help="fail unless the DAG scheduler retried "
                             "at least N tasks (CI chaos guard; pair "
                             "with $REPRO_FAULTS)")
    p_batch.add_argument("--task-retries", type=int, default=None,
                        metavar="N",
                        help="per-task retry budget before a task "
                             "becomes an error row (default 2)")
    p_batch.add_argument("--pool-rebuilds", type=int, default=None,
                        metavar="N",
                        help="worker-pool rebuilds after pool death "
                             "before degrading to in-process "
                             "execution (default 3)")
    p_batch.add_argument("--scenario", choices=("wcet", "rta"),
                        default="wcet",
                        help="sweep kind: per-task WCET matrix "
                             "(default) or task-set schedulability "
                             "(orderings x geometries; needs "
                             "--taskset)")
    p_batch.add_argument("--taskset", action="append", default=None,
                        metavar="TASKSET.json",
                        help="task-set file for --scenario rta "
                             "(repeatable)")
    p_batch.set_defaults(func=cmd_batch)

    p_rta = sub.add_parser(
        "rta", help="multi-task response-time analysis with CRPD")
    p_rta.add_argument("files", nargs="+", metavar="TASKSET.json",
                       help="task-set JSON file(s)")
    p_rta.add_argument("--sweep", action="store_true",
                       help="sweep priority orderings x cache "
                            "geometries instead of a single analysis")
    p_rta.add_argument("--orderings", default=None, metavar="LIST",
                       help="comma list of priority orderings "
                            "(given, rate_monotonic, reverse)")
    p_rta.add_argument("--geometries", default=None, metavar="LIST",
                       help="comma list of cache geometries, each "
                            "SETSxASSOCxLINE (e.g. 16x2x16)")
    p_rta.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="content-addressed artifact cache "
                            "directory (default: in-memory only)")
    p_rta.add_argument("--verify", action="store_true",
                       help="run the preemptive-simulation oracle "
                            "(S7/S8) after analysis")
    p_rta.add_argument("--golden", default=None, metavar="PATH",
                       help="assert sweep verdicts match this golden "
                            "JSON file (implies nothing without "
                            "--sweep)")
    p_rta.add_argument("--write-golden", default=None, metavar="PATH",
                       help="write/refresh golden sweep verdicts")
    p_rta.set_defaults(func=cmd_rta)

    p_serve = sub.add_parser(
        "serve", help="run the analysis service (HTTP, stdlib only)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8349,
                         help="listen port (0 picks a free one)")
    p_serve.add_argument("--workers", type=int, default=2, metavar="N",
                         help="analysis worker threads (default 2)")
    p_serve.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="persistent artifact cache directory "
                              "(default: in-memory only)")
    p_serve.add_argument("--cache-limit-mb", type=float, default=None,
                         metavar="MB",
                         help="bound the on-disk artifact store "
                              "(requires --cache-dir)")
    p_serve.add_argument("--memo-entries", type=int,
                         default=None, metavar="N",
                         help="bound the in-memory artifact memo by "
                              "entry count (default 4096)")
    p_serve.add_argument("--memo-mb", type=float, default=None,
                         metavar="MB",
                         help="bound the in-memory artifact memo by "
                              "size (default 512)")
    p_serve.add_argument("--journal", default=None, metavar="DIR",
                         help="durable job-lifecycle journal directory;"
                              " a restarted server replays finished "
                              "jobs and marks in-flight ones "
                              "interrupted")
    p_serve.add_argument("--max-jobs", type=int, default=None,
                         metavar="N",
                         help="bound the in-memory job table; oldest "
                              "finished records evict past N "
                              "(default 256)")
    p_serve.set_defaults(func=cmd_serve)

    p_an = sub.add_parser(
        "analyze", help="submit a file to a running 'repro serve'")
    p_an.add_argument("file", help="mini-C (.c) or KRISC assembly")
    p_an.add_argument("--url", required=True, metavar="URL",
                      help="base URL of the server, e.g. "
                           "http://127.0.0.1:8349")
    p_an.add_argument("--policy", action="append", default=[],
                      metavar="P",
                      help="context policy token (repeatable; "
                           "default full)")
    p_an.add_argument("--model", action="append", default=[],
                      metavar="M",
                      help="pipeline model (repeatable; "
                           "default additive)")
    p_an.add_argument("--entry", default=None, metavar="SYMBOL",
                      help="analysis entry symbol (default: program "
                           "entry)")
    p_an.add_argument("--loop-bound", action="append", default=[],
                      metavar="ADDR=N",
                      help="manual bound for a loop header address")
    p_an.add_argument("--reg-range", action="append", default=[],
                      metavar="Rk=LO:HI",
                      help="entry value range annotation")
    p_an.add_argument("--label", default=None,
                      help="label reported in result rows")
    p_an.add_argument("--timeout", type=float, default=300.0,
                      metavar="S", help="poll timeout in seconds")
    p_an.add_argument("--stats", action="store_true",
                      help="also print GET /stats afterwards")
    p_an.set_defaults(func=cmd_analyze)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
