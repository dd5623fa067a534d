"""Analysis report generation.

aiT's "results are documented in a report file and as annotations in
the control-flow graph that can be visualized using AbsInt's graph
viewer aiSee" (Section 3).  This module renders the textual report;
:mod:`repro.report.graphviz` renders the annotated CFG (DOT being the
open-format stand-in for aiSee's GDL).
"""

from __future__ import annotations

from typing import List, Optional

from ..stack.analyzer import StackAnalysisResult
from ..wcet.ait import WCETResult


def wcet_report(result: WCETResult,
                stack: Optional[StackAnalysisResult] = None) -> str:
    """Full textual report for one analyzed task."""
    lines: List[str] = []
    out = lines.append

    out("=" * 66)
    out("WCET ANALYSIS REPORT")
    out("=" * 66)
    entry_name = result.program.symbol_at(result.program.entry) or "?"
    out(f"Task entry: {entry_name} @ 0x{result.program.entry:x}")
    out(f"Binary: {len(result.program.text.data)} bytes of code, "
        f"{result.binary_cfg.total_instructions()} instructions, "
        f"{len(result.binary_cfg.functions)} functions")
    out("")

    out("-- Phase 1: CFG reconstruction")
    out(f"   {result.binary_cfg.total_blocks()} basic blocks; task graph "
        f"{result.graph.node_count()} nodes / "
        f"{result.graph.edge_count()} edges in "
        f"{len(result.graph.contexts())} call contexts")
    peeled = result.graph.peeled_contexts()
    policy_line = f"   context policy: {result.graph.policy.describe()}"
    if peeled:
        policy_line += (f" ({len(peeled)} first-iteration copies of "
                        f"{len(result.graph.contexts())} contexts)")
    out(policy_line)
    out("")

    stats = result.values.precision()
    out("-- Phase 2: value analysis")
    out(f"   memory accesses: {stats.exact} exact, {stats.bounded} "
        f"bounded, {stats.unknown} unknown "
        f"({100 * stats.exact_ratio:.1f}% exact)")
    out(f"   infeasible edges: {len(result.values.infeasible_edges)}")
    decided = [node for node, outcome
               in result.values.condition_outcomes.items()
               if outcome is not None]
    out(f"   statically decided conditions: {len(decided)}")
    out("")

    out("-- Phase 3: loop bounds")
    if result.loop_bounds:
        for header, bound in sorted(result.loop_bounds.items(),
                                    key=lambda kv: kv[0].block):
            text = str(bound.max_iterations) if bound.is_bounded \
                else "UNBOUNDED"
            peel = header.context.peel_of(header.block)
            suffix = f" (+{peel} peeled)" if peel else ""
            out(f"   loop @ 0x{header.block:x} "
                f"(ctx {header.context.label}): {text} iterations"
                f"{suffix} [{bound.method}]")
    else:
        out("   no loops")
    out("")

    out("-- Phase 4: cache analysis")
    ic, dc = result.icache.stats, result.dcache.stats
    out(f"   I-cache: {ic.always_hit} AH, {ic.always_miss} AM, "
        f"{ic.persistent} PS, {ic.not_classified} NC")
    out(f"   D-cache: {dc.always_hit} AH, {dc.always_miss} AM, "
        f"{dc.persistent} PS, {dc.not_classified} NC")
    for label, split in (("I-cache", result.icache.iteration_stats),
                         ("D-cache", result.dcache.iteration_stats)):
        if not split:
            continue
        for phase, stats in split.items():
            if not stats.total:
                continue
            out(f"   {label} [{phase}]: {stats.always_hit} AH, "
                f"{stats.always_miss} AM, {stats.persistent} PS, "
                f"{stats.not_classified} NC")
    out("")

    out("-- Phase 5: pipeline analysis")
    out(f"   timing model: {result.timing.model}")
    total_base = sum(t.base_cycles for t in result.timing.blocks.values())
    out(f"   cumulative per-execution block cost: {total_base} cycles")
    out(f"   one-time (persistence) cost: "
        f"{result.timing.total_onetime()} cycles")
    out("")

    out("-- Phase 6: path analysis (IPET)")
    out(f"   ILP: {result.path.num_variables} variables, "
        f"{result.path.num_constraints} constraints")
    out(f"   LP relaxation: {result.path.lp_bound:.1f} cycles "
        f"({'integral' if result.path.integral else 'fractional'})")
    out("")
    out(f"   ==> WCET BOUND: {result.wcet_cycles} cycles")
    out("")

    if stack is not None:
        out("-- StackAnalyzer")
        out(f"   {stack.summary()}")
        for name, usage in sorted(stack.per_function.items()):
            out(f"   {name}: {usage} bytes")
        out("")

    out("-- Analysis runtime")
    for phase, seconds in result.phase_seconds.items():
        out(f"   {phase:<12} {seconds * 1000:8.2f} ms")
    out(f"   {'total':<12} {result.total_seconds * 1000:8.2f} ms")
    records = dict(result.solver_stats)
    if result.timing.state_stats is not None:
        records["states"] = result.timing.state_stats
    if records:
        out("-- Work counters")
        for name, record in records.items():
            counters = " ".join(f"{field}={value}"
                                for field, value in vars(record).items())
            out(f"   {name:<12} {counters}")
    out("=" * 66)
    return "\n".join(lines) + "\n"


def worst_case_path_table(result: WCETResult, limit: int = 30) -> str:
    """The worst-case execution path as a block/count/cost table."""
    rows = sorted(result.path.path.node_counts.items(),
                  key=lambda kv: -kv[1] * result.timing.block_cost(kv[0]))
    lines = [f"{'block':<28} {'context':<14} {'count':>7} "
             f"{'cyc/exec':>9} {'total':>9}"]
    for node, count in rows[:limit]:
        cost = result.timing.block_cost(node)
        context = node.context.label
        lines.append(f"0x{node.block:<26x} {context:<14} {count:>7} "
                     f"{cost:>9} {count * cost:>9}")
    return "\n".join(lines) + "\n"
