"""The aiT-style WCET analyzer: all phases end to end.

"AbsInt's WCET tool aiT determines the WCET of a program task in
several phases: CFG building ...; value analysis ...; loop bound
analysis ...; cache analysis ...; pipeline analysis ...; path analysis"
(Section 3).  :func:`analyze_wcet` runs exactly this pipeline over a
KRISC binary and returns a :class:`WCETResult` carrying every
intermediate artifact plus per-phase runtimes (experiment E7).

Each phase is a named, individually-cacheable step (:data:`PHASES`):
:func:`analyze_wcet` runs them as a one-job task DAG on the batch
layer's executor (:func:`repro.batch.scheduler.run_plans`), which can
consult an optional content-addressed artifact cache (the
:class:`~repro.batch.cachestore.ArtifactCache`).  A phase names only
its own inputs; the batch layer composes each phase's identity — the
one name of its artifact, and the source of its cache key — from
those inputs and the identities of the phases it consumes
(:class:`repro.batch.dag.JobPlan`), so any upstream input change
transparently invalidates every downstream artifact, while unrelated
inputs share: e.g. the expanded task graph and the value analysis are
keyed only by (program, entry, indirect targets, context policy[,
value parameters]), so both pipeline timing models reuse them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Type)

from ..analysis.domain import AbstractValue
from ..domainimpl import resolve_domain_impl, value_effective_impl
from ..analysis.interval import Interval
from ..analysis.loopbounds import LoopBound, analyze_loop_bounds
from ..analysis.state import check_ranges
from ..analysis.valueanalysis import ValueAnalysisResult, analyze_values
from ..cache.analysis import (DCacheResult, ICacheResult, analyze_dcache,
                              analyze_icache)
from ..cache.config import CacheConfig, MachineConfig
from ..cfg.builder import BinaryCFG, build_cfg
from ..cfg.contexts import DEFAULT_POLICY, ContextPolicy
from ..cfg.expand import NodeId, TaskGraph, expand_task
from ..isa.program import Program
from ..path.ipet import PathAnalysisResult, analyze_paths
from ..pipeline.analysis import TimingModel, analyze_pipeline


@dataclass
class WCETResult:
    """Everything the analyzer derived about one task."""

    program: Program
    config: MachineConfig
    binary_cfg: BinaryCFG
    graph: TaskGraph
    values: ValueAnalysisResult
    loop_bounds: Dict[NodeId, LoopBound]
    icache: ICacheResult
    dcache: DCacheResult
    timing: TimingModel
    path: PathAnalysisResult
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Work counters per solver phase: the shared WTO kernel's
    #: :class:`FixpointStats` for "value"/"icache"/"dcache"/"pipeline",
    #: and the LP/ILP engine's :class:`~repro.ilp.stats.ILPStats` for
    #: "path" — alongside the wall clocks in :attr:`phase_seconds`.
    solver_stats: Dict[str, object] = field(default_factory=dict)
    #: Artifact-cache provenance: phase name -> "hit" | "miss".  Empty
    #: when the analysis ran without a phase cache.
    cache_events: Dict[str, str] = field(default_factory=dict)
    #: The abstract-domain implementation the analysis ran under
    #: (:mod:`repro.domainimpl`); bounds are identical either way.
    domain_impl: Optional[str] = None
    #: Per-phase ``cProfile.Profile`` objects when the analysis ran
    #: with ``profile=True`` (``repro wcet --profile``).
    profiles: Dict[str, object] = field(default_factory=dict)
    #: The task's UCB/ECB footprint (:class:`repro.rta.ucb.TaskFootprint`)
    #: when its plan ran the ``footprint`` phase, as ``repro rta``'s do.
    footprint: Optional[Any] = None

    @property
    def wcet_cycles(self) -> int:
        """The verified upper bound on execution time in cycles."""
        return self.path.wcet_cycles

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    def unbounded_loops(self) -> Sequence[NodeId]:
        return [header for header, bound in self.loop_bounds.items()
                if not bound.is_bounded]

    def summary(self) -> str:
        """One-paragraph textual summary (full report in repro.report)."""
        stats = self.values.precision()
        lines = [
            f"WCET bound: {self.wcet_cycles} cycles "
            f"(LP relaxation {self.path.lp_bound:.1f}, "
            f"{'integral' if self.path.integral else 'fractional'}, "
            f"{self.timing.model} timing model)",
            f"Task graph: {self.graph.node_count()} blocks, "
            f"{self.graph.edge_count()} edges, "
            f"{len(self.graph.contexts())} contexts "
            f"[{self.graph.policy.describe()}]",
            f"Value analysis: {stats.exact}/{stats.total} accesses exact "
            f"({100 * stats.exact_ratio:.1f}%)",
            f"I-cache: {self.icache.stats.always_hit} AH / "
            f"{self.icache.stats.always_miss} AM / "
            f"{self.icache.stats.persistent} PS / "
            f"{self.icache.stats.not_classified} NC",
            f"D-cache: {self.dcache.stats.always_hit} AH / "
            f"{self.dcache.stats.always_miss} AM / "
            f"{self.dcache.stats.persistent} PS / "
            f"{self.dcache.stats.not_classified} NC",
            f"Infeasible edges pruned: "
            f"{len(self.values.infeasible_edges)}",
            f"Analysis time: {self.total_seconds * 1000:.1f} ms",
        ]
        return "\n".join(lines)


# -- Named analysis phases ------------------------------------------------------

#: The aiT pipeline's phases in execution order.  Every phase is one
#: :class:`PhaseTask` descriptor built by :func:`phase_plan`, which also
#: builds the ``footprint`` phase that only ``repro rta``'s plans name
#: (:data:`repro.rta.response.RTA_PHASES`).
PHASES = ("cfg", "value", "loopbounds", "icache", "dcache", "pipeline",
          "path")


@dataclass(frozen=True)
class PhaseTask:
    """Descriptor of one pipeline phase: everything a scheduler needs
    to name, order, and run the phase *without* executing it.

    ``material`` spells the phase's own inputs — everything it reads
    besides its dependencies' artifacts — and nothing else; ``compute``
    maps the dependency artifacts (name -> artifact) to the phase's
    artifact.  :class:`repro.batch.dag.JobPlan` composes the task's
    identity from its material and its dependencies' identities, and
    that identity is the artifact's one name: its DAG task and, through
    :meth:`~repro.batch.cachestore.ArtifactCache.key`, its cache key.
    """

    name: str
    deps: Tuple[str, ...]
    material: str
    compute: Callable[[Mapping[str, Any]], Any]


def _mapping_material(mapping: Optional[Mapping]) -> str:
    """Stable key-material encoding of an annotation mapping."""
    if not mapping:
        return "-"
    parts = []
    for key in sorted(mapping):
        value = mapping[key]
        if isinstance(value, (list, tuple)):
            value = ",".join(str(item) for item in value)
        parts.append(f"{key}={value}")
    return ";".join(parts)


def _cache_config_material(config: CacheConfig) -> str:
    return (f"{config.num_sets}x{config.associativity}x"
            f"{config.line_size}p{config.miss_penalty}")


def validate_annotations(register_ranges: Optional[Mapping] = None,
                         manual_loop_bounds: Optional[Mapping] = None,
                         memory_ranges: Optional[Mapping] = None) -> None:
    """Raise :class:`ValueError`, naming the item, for an annotation no
    run can satisfy: a register outside R0..R15, a register or memory
    range that is empty or leaves the signed 32-bit word, or a loop
    bound below 1.  :func:`phase_plan`, serve requests and the CLI all
    check annotations here; the ranges through the same
    :func:`~repro.analysis.state.check_ranges` that
    :meth:`AbstractState.entry_state` applies."""
    check_ranges(register_ranges, memory_ranges)
    for address, bound in (manual_loop_bounds or {}).items():
        if bound < 1:
            raise ValueError(f"loop bound for 0x{address:x} must be at "
                             f"least 1, got {bound}")


def phase_plan(program: Program,
               config: Optional[MachineConfig] = None,
               entry: Optional[int] = None,
               register_ranges: Optional[
                   Dict[int, Tuple[int, int]]] = None,
               manual_loop_bounds: Optional[Dict[int, int]] = None,
               indirect_targets: Optional[Dict[int, Sequence[int]]] = None,
               domain: Type[AbstractValue] = Interval,
               use_infeasible_paths: bool = True,
               use_value_analysis_for_dcache: bool = True,
               use_widening_thresholds: bool = True,
               narrowing_passes: int = 2,
               integer: bool = True,
               context_policy: Optional[ContextPolicy] = None,
               pipeline_model: Optional[str] = None,
               memory_ranges: Optional[Dict[int, Tuple[int, int]]] = None,
               domain_impl: Optional[str] = None) -> List[PhaseTask]:
    """Build the full pipeline as a list of :class:`PhaseTask`
    descriptors in execution order, without running anything, followed
    by the ``footprint`` phase, which only plans that name it run.

    Parameters mirror :func:`analyze_wcet` exactly.  Each task's
    material spells the parameters its phase reads.  The batch layer
    wraps the descriptors into a :class:`~repro.batch.dag.JobPlan` and
    feeds the plans of one or many jobs into one deduplicated task DAG
    (:mod:`repro.batch.dag`).
    """
    validate_annotations(register_ranges, manual_loop_bounds, memory_ranges)
    config = config or MachineConfig.default()
    if pipeline_model is not None:
        config = config.with_model(pipeline_model)
    policy = context_policy or DEFAULT_POLICY
    impl = resolve_domain_impl(domain_impl)
    value_impl = value_effective_impl(domain, impl)

    def compute_cfg(deps):
        binary_cfg = build_cfg(program, entry, indirect_targets)
        graph = expand_task(binary_cfg, policy=policy)
        return binary_cfg, graph

    def compute_value(deps):
        _, graph = deps["cfg"]
        # Pass the submitted program explicitly: a cached cfg artifact
        # embeds the Program it was built from, which under slice-based
        # keys may be an *older* binary with identical reachable code
        # but different data — its initial_memory() would be stale.
        return analyze_values(
            graph, domain=domain, register_ranges=register_ranges,
            narrowing_passes=narrowing_passes,
            use_widening_thresholds=use_widening_thresholds,
            memory_ranges=memory_ranges, domain_impl=value_impl,
            program=program)

    def compute_icache(deps):
        _, graph = deps["cfg"]
        return analyze_icache(graph, config.icache, impl=impl)

    def compute_dcache(deps):
        _, graph = deps["cfg"]
        return analyze_dcache(graph, config.dcache, deps["value"],
                              use_value_analysis_for_dcache, impl=impl)

    def compute_pipeline(deps):
        _, graph = deps["cfg"]
        return analyze_pipeline(graph, config, deps["icache"],
                                deps["dcache"])

    def compute_path(deps):
        _, graph = deps["cfg"]
        return analyze_paths(graph, deps["pipeline"],
                             deps["loopbounds"], deps["value"],
                             use_infeasible_paths, integer)

    def compute_footprint(deps):
        # The rta layer sits above this one, so it is imported when the
        # phase runs.  footprint_of is read off the module at each call,
        # so a wrapper installed there (perfbench's tracer) sees it.
        from ..rta import response
        _, graph = deps["cfg"]
        return response.footprint_of(graph, deps["value"], config.icache,
                                     config.dcache)

    program_slice = program.reachable_slice(entry, indirect_targets)
    return [
        # Keyed on the call-graph-reachable *code slice* rather than the
        # monolithic content digest: editing a function the analyzed
        # entry never reaches leaves this identity — and through it
        # every downstream phase's — stable.  reachable_slice() degrades
        # to a content_digest()-derived digest whenever its scan is
        # imprecise, so this is never a weaker key than the whole-image
        # one it replaced.
        PhaseTask(
            "cfg", (),
            f"cfg|{program_slice.code}|entry={entry}"
            f"|indirect={_mapping_material(indirect_targets)}"
            f"|policy={policy.describe()}",
            compute_cfg),
        # The value phase is the only one that reads initial data
        # memory, so it alone carries the data-slice digest: a data-only
        # edit invalidates value and its dependents while cfg/icache
        # keep their keys (and their cached artifacts).
        PhaseTask(
            "value", ("cfg",),
            f"value|domain={domain.__module__}.{domain.__qualname__}"
            f"|regs={_mapping_material(register_ranges)}"
            f"|narrow={narrowing_passes}"
            f"|wthresh={use_widening_thresholds}"
            f"|mem={_mapping_material(memory_ranges)}"
            f"|impl={value_impl}|data={program_slice.data}",
            compute_value),
        PhaseTask(
            "loopbounds", ("value",),
            f"loopbounds|manual={_mapping_material(manual_loop_bounds)}",
            lambda deps: analyze_loop_bounds(deps["value"],
                                             manual_loop_bounds)),
        PhaseTask(
            "icache", ("cfg",),
            f"icache|{_cache_config_material(config.icache)}|impl={impl}",
            compute_icache),
        PhaseTask(
            "dcache", ("cfg", "value"),
            f"dcache|{_cache_config_material(config.dcache)}"
            f"|usevalue={use_value_analysis_for_dcache}|impl={impl}",
            compute_dcache),
        PhaseTask(
            "pipeline", ("cfg", "icache", "dcache"),
            f"pipeline|model={config.pipeline_model}"
            f"|cap={config.pipeline_state_cap}"
            f"|bp={config.branch_penalty}|mul={config.mul_extra}"
            f"|lus={config.load_use_stall}",
            compute_pipeline),
        PhaseTask(
            "path", ("cfg", "pipeline", "loopbounds", "value"),
            f"path|infeasible={use_infeasible_paths}|integer={integer}",
            compute_path),
        # The UCB/ECB footprint of response-time analysis reads only the
        # task graph, the value analysis and both cache geometries, so a
        # shared store holds one per (program, geometry) whatever else a
        # task-set cell varies.
        PhaseTask(
            "footprint", ("cfg", "value"),
            f"footprint|{_cache_config_material(config.icache)}"
            f"|{_cache_config_material(config.dcache)}",
            compute_footprint),
    ]


def build_wcet_result(program: Program, config: MachineConfig,
                      artifacts: Mapping[str, Any],
                      phase_seconds: Dict[str, float],
                      cache_events: Dict[str, str],
                      domain_impl: Optional[str] = None,
                      profiles: Optional[Dict[str, object]] = None
                      ) -> WCETResult:
    """Assemble a :class:`WCETResult` from the seven phase artifacts.

    The DAG executor's row assembly, whether the artifacts were
    computed in-process or collected from pool workers — both
    directions produce identical results.
    """
    binary_cfg, graph = artifacts["cfg"]
    values, icache, dcache, timing, path = (
        artifacts[phase] for phase in ("value", "icache", "dcache",
                                       "pipeline", "path"))
    solver_stats = {name: stats for name, stats in (
        ("value", values.fixpoint.stats),
        ("icache", icache.fixpoint_stats),
        ("dcache", dcache.fixpoint_stats),
        ("pipeline", timing.fixpoint_stats),
        ("path", path.solver_stats)) if stats is not None}
    return WCETResult(
        program, config, binary_cfg, graph, values,
        artifacts["loopbounds"], icache, dcache, timing, path,
        phase_seconds, solver_stats=solver_stats,
        cache_events=cache_events, domain_impl=domain_impl,
        profiles=profiles or {})


def analyze_loop_annotations(program: Program,
                             memory_ranges: Optional[
                                 Dict[int, Tuple[int, int]]] = None,
                             phase_cache=None
                             ) -> Dict[NodeId, LoopBound]:
    """The *discover* half of aiT's annotate workflow: run the
    default-parameter cfg/value/loopbounds prefix of the pipeline and
    return the loop-bound table, from which callers pick the unbounded
    headers to annotate manually.  Uses the same phase steps (and hence
    shares cached artifacts) as :func:`analyze_wcet`.
    """
    from ..batch.dag import JobPlan
    from ..batch.scheduler import run_plans

    plan = JobPlan(program, phases=PHASES[:3], memory_ranges=memory_ranges)
    return run_plans([plan], store=phase_cache)[1].artifact(0, "loopbounds")


def analyze_wcet(program: Program,
                 config: Optional[MachineConfig] = None,
                 entry: Optional[int] = None,
                 register_ranges: Optional[
                     Dict[int, Tuple[int, int]]] = None,
                 manual_loop_bounds: Optional[Dict[int, int]] = None,
                 indirect_targets: Optional[Dict[int, Sequence[int]]] = None,
                 domain: Type[AbstractValue] = Interval,
                 use_infeasible_paths: bool = True,
                 use_value_analysis_for_dcache: bool = True,
                 use_widening_thresholds: bool = True,
                 narrowing_passes: int = 2,
                 integer: bool = True,
                 context_policy: Optional[ContextPolicy] = None,
                 pipeline_model: Optional[str] = None,
                 memory_ranges: Optional[Dict[int, Tuple[int, int]]] = None,
                 phase_cache=None,
                 domain_impl: Optional[str] = None,
                 profile: bool = False
                 ) -> WCETResult:
    """Run the complete aiT pipeline on ``program``.

    Annotation parameters mirror aiT's user inputs:

    * ``register_ranges`` — value ranges of input registers at entry,
    * ``memory_ranges`` — value ranges of memory words the environment
      fills before the task runs (input buffers); without them the
      analysis would treat input data as the constants of the binary
      image, and bounds would not cover runs on other inputs,
    * ``manual_loop_bounds`` — iteration bounds for loops the analysis
      cannot bound, keyed by loop-header address (under a peeling
      policy the annotation still states the *full* iteration count;
      the analysis accounts the peeled copies itself),
    * ``indirect_targets`` — possible targets of indirect branches.

    ``context_policy`` selects the context-sensitivity scheme (VIVU
    loop peeling, k-limited call strings); the default reproduces the
    historical full-call-string expansion.  ``pipeline_model``
    overrides the config's timing model (``"additive"`` or
    ``"krisc5"``).  Ablation switches (DESIGN.md D1-D5) default to the
    full analysis.

    ``phase_cache`` plugs in a content-addressed artifact cache (see
    :mod:`repro.batch`): each phase is then served from the cache when
    its exact inputs were analyzed before, and
    :attr:`WCETResult.cache_events` records the per-phase hit/miss
    provenance.  Cached and uncached analyses produce bit-identical
    results.

    ``domain_impl`` selects the abstract-domain implementation
    (``python``/``numpy``) for the value and cache phases; ``None``
    defers to ``$REPRO_DOMAIN_IMPL`` (:mod:`repro.domainimpl`).
    ``profile=True`` wraps each phase in a ``cProfile`` run, collected
    in :attr:`WCETResult.profiles`.
    """
    from ..batch.dag import JobPlan
    from ..batch.scheduler import run_plans

    plan = JobPlan(
        program, config=config, entry=entry,
        register_ranges=register_ranges,
        manual_loop_bounds=manual_loop_bounds,
        indirect_targets=indirect_targets, domain=domain,
        use_infeasible_paths=use_infeasible_paths,
        use_value_analysis_for_dcache=use_value_analysis_for_dcache,
        use_widening_thresholds=use_widening_thresholds,
        narrowing_passes=narrowing_passes, integer=integer,
        context_policy=context_policy, pipeline_model=pipeline_model,
        memory_ranges=memory_ranges, domain_impl=domain_impl)
    if profile:
        plan.profile()
    return run_plans([plan], store=phase_cache)[1].artifact(0, "row")
