"""CFG-level cache analysis (phase 4 of the aiT pipeline).

Runs the must/may/persistence abstract caches to a fixpoint over the
whole-task graph and classifies every instruction fetch (I-cache) and
every data access (D-cache) as always-hit, always-miss, persistent, or
not-classified.  Data-access address sets come from value analysis —
"the results of value analysis are used to determine possible addresses
of indirect memory accesses — important for cache analysis" (Section 3,
ablation D4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cfg.expand import NodeId, TaskGraph
from ..domainimpl import resolve_domain_impl
from .abstract import Classification, TripleCacheState
from .config import CacheConfig
from .vectorized import (CacheLineIndex, VectorTripleCacheState,
                         apply_access, classify_access, compile_access,
                         compile_block_accesses)
from ..analysis.fixpoint import (FixpointKernel, FixpointSemantics,
                                 FixpointStats)
from ..analysis.valueanalysis import MemoryAccess, ValueAnalysisResult

#: An access covering more than this many candidate lines is treated as
#: having an unknown address.
MAX_CANDIDATE_LINES = 256


@dataclass(frozen=True)
class AccessSpec:
    """One abstract cache access: candidate lines, or unknown address."""

    lines: Optional[Tuple[int, ...]]    # None = completely unknown

    @property
    def is_unknown(self) -> bool:
        return self.lines is None


@dataclass
class ClassificationStats:
    """Counts per classification outcome (experiment E3)."""

    always_hit: int = 0
    always_miss: int = 0
    persistent: int = 0
    not_classified: int = 0

    def record(self, outcome: Classification) -> None:
        if outcome is Classification.ALWAYS_HIT:
            self.always_hit += 1
        elif outcome is Classification.ALWAYS_MISS:
            self.always_miss += 1
        elif outcome is Classification.PERSISTENT:
            self.persistent += 1
        else:
            self.not_classified += 1

    @property
    def total(self) -> int:
        return (self.always_hit + self.always_miss + self.persistent
                + self.not_classified)

    def ratio(self, outcome: Classification) -> float:
        if not self.total:
            return 0.0
        return {
            Classification.ALWAYS_HIT: self.always_hit,
            Classification.ALWAYS_MISS: self.always_miss,
            Classification.PERSISTENT: self.persistent,
            Classification.NOT_CLASSIFIED: self.not_classified,
        }[outcome] / self.total


class _CacheSemantics(FixpointSemantics):
    """Kernel adapter for abstract cache states.

    The must/may/persistence lattices are finite, so no widening (and
    no narrowing) is needed; the WTO recursive strategy alone brings
    each loop to its fixpoint before downstream blocks are visited.
    """

    widening = False

    def __init__(self, fixpoint: "CacheFixpoint"):
        self.fixpoint = fixpoint

    def transfer(self, node: NodeId,
                 state: TripleCacheState) -> TripleCacheState:
        return self.fixpoint.transfer(state.copy(), node)

    def is_bottom(self, state: TripleCacheState) -> bool:
        return False    # the cold cache is the least element


class CacheFixpoint:
    """Generic must/may/persistence fixpoint over the task graph.

    Runs on the shared WTO kernel (:mod:`repro.analysis.fixpoint`) —
    the same engine as value analysis; ``stats`` carries the kernel's
    work counters after :meth:`solve`.
    """

    def __init__(self, graph: TaskGraph, config: CacheConfig,
                 accesses_of: Dict[NodeId, List[AccessSpec]],
                 impl: Optional[str] = None):
        self.graph = graph
        self.config = config
        self.accesses_of = accesses_of
        self.impl = resolve_domain_impl(impl)
        self.stats: Optional[FixpointStats] = None
        self._index: Optional[CacheLineIndex] = None
        self._compiled: Dict[NodeId, List[tuple]] = {}
        self._fused: Dict[NodeId, List[tuple]] = {}
        if self.impl == "numpy":
            universe = set()
            for specs in accesses_of.values():
                for spec in specs:
                    if spec.lines is not None:
                        universe.update(spec.lines)
            self._index = CacheLineIndex(config, universe)
            self._compiled = {
                node: [compile_access(self._index, spec.lines)
                       for spec in specs]
                for node, specs in accesses_of.items()}
            # The fixpoint transfer only needs the block's *final*
            # state, so it runs the fused form; classification replays
            # the per-access list for intermediate states.
            self._fused = {
                node: compile_block_accesses(self._index, compiled)
                for node, compiled in self._compiled.items()}

    def solve(self) -> Dict[NodeId, object]:
        """Entry cache state per node, starting from a cold cache."""
        graph = self.graph
        kernel = FixpointKernel(
            graph.entry, graph.successors, lambda e: e.target,
            _CacheSemantics(self), sort_key=TaskGraph.node_key,
            wto=graph.wto())
        states = kernel.solve(self.cold_state())
        self.stats = kernel.stats
        return states

    def cold_state(self):
        """The task-entry state: an empty cache."""
        if self.impl == "numpy":
            return VectorTripleCacheState(self._index)
        return TripleCacheState(self.config)

    def transfer(self, state, node: NodeId):
        if self.impl == "numpy":
            for compiled in self._fused.get(node, []):
                apply_access(state, compiled)
            return state
        for spec in self.accesses_of.get(node, []):
            if spec.is_unknown:
                state.access_unknown()
            else:
                state.access_range(list(spec.lines))
        return state

    def classify_all(self, entry_states: Dict[NodeId, object]
                     ) -> Dict[NodeId, List[Classification]]:
        """Classification of every access, walking each block from its
        fixpoint entry state."""
        result: Dict[NodeId, List[Classification]] = {}
        if self.impl == "numpy":
            for node, compiled_specs in self._compiled.items():
                state = entry_states.get(node)
                if state is None:
                    continue
                state = state.copy()
                outcomes = []
                for compiled in compiled_specs:
                    outcomes.append(classify_access(state, compiled))
                    apply_access(state, compiled)
                result[node] = outcomes
            return result
        for node, specs in self.accesses_of.items():
            state = entry_states.get(node)
            if state is None:
                continue
            state = state.copy()
            outcomes = []
            for spec in specs:
                if spec.is_unknown:
                    outcomes.append(Classification.NOT_CLASSIFIED)
                    state.access_unknown()
                else:
                    lines = list(spec.lines)
                    outcomes.append(state.classify_range(lines))
                    state.access_range(lines)
            result[node] = outcomes
        return result


def iteration_phase_stats(graph: TaskGraph,
                          classifications: Dict[NodeId,
                                                List[Classification]]
                          ) -> Optional[Dict[str, ClassificationStats]]:
    """Classification counts split by loop-iteration phase.

    Under a peeling (VIVU) policy the first-iteration context copies
    absorb the compulsory misses, so the steady-state copies should
    classify ``ALWAYS_HIT`` where the unpeeled analysis could at best
    say ``PERSISTENT``/``NOT_CLASSIFIED``.  This split makes that
    visible (and testable).  Accesses outside any peeled loop are not
    counted.  Returns ``None`` when the policy does not peel.
    """
    peel = graph.policy.peel
    if not peel:
        return None
    split = {"first-iteration": ClassificationStats(),
             "steady-state": ClassificationStats()}
    for node, outcomes in classifications.items():
        context = node.context
        if not context.iters:
            continue
        group = "first-iteration" if context.has_phase_below(peel) \
            else "steady-state"
        for outcome in outcomes:
            split[group].record(outcome)
    return split


# -- Instruction cache ----------------------------------------------------------


@dataclass
class ICacheResult:
    """Per-instruction fetch classifications."""

    config: CacheConfig
    classifications: Dict[NodeId, List[Classification]]
    stats: ClassificationStats
    #: Work counters of the underlying fixpoint (shared WTO kernel).
    fixpoint_stats: Optional[FixpointStats] = None
    #: Per-iteration-phase classification split (peeling policies only).
    iteration_stats: Optional[Dict[str, ClassificationStats]] = None

    def for_node(self, node: NodeId) -> List[Classification]:
        return self.classifications.get(node, [])


def icache_access_specs(graph: TaskGraph, config: CacheConfig
                        ) -> Dict[NodeId, List[AccessSpec]]:
    """Per-node instruction-fetch access specs (one per instruction).

    Shared by the I-cache fixpoint below and the UCB/ECB analysis of
    :mod:`repro.rta.ucb`, so both reason about exactly the same
    abstract accesses."""
    accesses: Dict[NodeId, List[AccessSpec]] = {}
    for node in graph.nodes():
        accesses[node] = [AccessSpec((config.line_of(instr.address),))
                          for instr in graph.blocks[node]]
    return accesses


def analyze_icache(graph: TaskGraph, config: CacheConfig,
                   impl: Optional[str] = None) -> ICacheResult:
    """Classify every instruction fetch of the task."""
    accesses = icache_access_specs(graph, config)
    fixpoint = CacheFixpoint(graph, config, accesses, impl=impl)
    classifications = fixpoint.classify_all(fixpoint.solve())
    stats = ClassificationStats()
    for outcomes in classifications.values():
        for outcome in outcomes:
            stats.record(outcome)
    return ICacheResult(config, classifications, stats,
                        fixpoint_stats=fixpoint.stats,
                        iteration_stats=iteration_phase_stats(
                            graph, classifications))


# -- Data cache ----------------------------------------------------------------------


@dataclass
class ClassifiedAccess:
    """A data access paired with its classification."""

    access: MemoryAccess
    classification: Classification


@dataclass
class DCacheResult:
    """Per-node classified data accesses."""

    config: CacheConfig
    classified: Dict[NodeId, List[ClassifiedAccess]]
    stats: ClassificationStats
    #: Work counters of the underlying fixpoint (shared WTO kernel).
    fixpoint_stats: Optional[FixpointStats] = None
    #: Per-iteration-phase classification split (peeling policies only).
    iteration_stats: Optional[Dict[str, ClassificationStats]] = None

    def for_node(self, node: NodeId) -> List[ClassifiedAccess]:
        return self.classified.get(node, [])

    def all_accesses(self) -> List[ClassifiedAccess]:
        return [item for items in self.classified.values()
                for item in items]


def _lines_of_access(access: MemoryAccess,
                     config: CacheConfig) -> AccessSpec:
    constant = access.address.as_constant()
    if constant is not None:
        return AccessSpec((config.line_of(constant),))
    if access.address.is_top():
        return AccessSpec(None)
    # Congruence-aware domains (strided intervals) expose the sparse
    # value set, which can skip whole lines for wide-stride accesses.
    values = access.address.possible_values(4 * MAX_CANDIDATE_LINES)
    if values is not None:
        lines = tuple(sorted({config.line_of(v) for v in values}))
        if 0 < len(lines) <= MAX_CANDIDATE_LINES:
            return AccessSpec(lines)
    lo, hi = access.byte_range
    first, last = config.line_of(lo), config.line_of(hi)
    if last - first + 1 > MAX_CANDIDATE_LINES:
        return AccessSpec(None)
    return AccessSpec(tuple(range(first, last + 1)))


def _accesses_by_node(values: ValueAnalysisResult
                      ) -> Dict[NodeId, List[MemoryAccess]]:
    by_node: Dict[NodeId, List[MemoryAccess]] = {}
    for access in values.accesses:
        by_node.setdefault(access.node, []).append(access)
    return by_node


def dcache_access_specs(graph: TaskGraph, config: CacheConfig,
                        values: ValueAnalysisResult,
                        use_value_analysis: bool = True
                        ) -> Dict[NodeId, List[AccessSpec]]:
    """Per-node data-access specs, derived from value analysis.

    Shared by the D-cache fixpoint below and the UCB/ECB analysis of
    :mod:`repro.rta.ucb`."""
    specs: Dict[NodeId, List[AccessSpec]] = {}
    for node, node_accesses in _accesses_by_node(values).items():
        if use_value_analysis:
            specs[node] = [_lines_of_access(a, config)
                           for a in node_accesses]
        else:
            specs[node] = [AccessSpec(None) for _ in node_accesses]
    return specs


def analyze_dcache(graph: TaskGraph, config: CacheConfig,
                   values: ValueAnalysisResult,
                   use_value_analysis: bool = True,
                   impl: Optional[str] = None) -> DCacheResult:
    """Classify every data access of the task.

    ``use_value_analysis=False`` is the D4 ablation: every access is
    treated as having an unknown address, as a tool without value
    analysis would have to.
    """
    by_node = _accesses_by_node(values)
    specs = dcache_access_specs(graph, config, values,
                                use_value_analysis=use_value_analysis)
    fixpoint = CacheFixpoint(graph, config, specs, impl=impl)
    classifications = fixpoint.classify_all(fixpoint.solve())

    classified: Dict[NodeId, List[ClassifiedAccess]] = {}
    stats = ClassificationStats()
    for node, node_accesses in by_node.items():
        outcomes = classifications.get(node, [])
        items = []
        for access, outcome in zip(node_accesses, outcomes):
            items.append(ClassifiedAccess(access, outcome))
            stats.record(outcome)
        classified[node] = items
    return DCacheResult(config, classified, stats,
                        fixpoint_stats=fixpoint.stats,
                        iteration_stats=iteration_phase_stats(
                            graph, classifications))
