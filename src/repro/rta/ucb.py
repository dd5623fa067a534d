"""Useful and evicting cache blocks — the CRPD building blocks.

Cache-related preemption delay (CRPD) bounds what one preemption can
cost a task in *extra cache misses*.  Following Lee et al. / Altmeyer's
formulation on top of Ferdinand-style abstract cache analysis:

* A **useful cache block (UCB)** of task *i* at program point *p* is a
  memory block that (a) *may be cached* at *p* — read off the may-cache
  fixpoint state of :class:`repro.cache.analysis.CacheFixpoint` — and
  (b) *may be reused* at or after *p* — a backward live-lines fixpoint
  over the same access specs.  Only evicting such a block can cause an
  extra miss the single-task WCET did not already charge.

* The **evicting cache blocks (ECB)** of a preempting task *j* are all
  lines *j* may touch (any of them can age victim blocks out).

The per-preemption bound is then, per cache::

    extra_misses(i, j) = max over points p of
        Σ over cache sets s touched by ECB_j
            min(associativity, |UCB_i(p) in set s|)

The per-set clip at the associativity keeps the bound sound and tight
for set-associative LRU: one preemption can age each set by at most
``associativity`` positions, so at most that many useful blocks per
touched set are lost, no matter how many lines the preemptor drags
through the set.  ``CRPD(i, j)`` in cycles is the miss penalty times
the extra-miss bound, summed over the I- and D-cache.

An unknown-address access (value analysis lost the address) makes the
ECB side *top* (touches every set) and, where the may cache is
universal and liveness unknown, the UCB side top as well (every set
fully useful) — degrading toward the full cache refill bound, never
below it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..cache.analysis import AccessSpec, CacheFixpoint
from ..cache.config import CacheConfig
from ..cfg.expand import NodeId, TaskGraph

#: Marker for a "top" UCB point: every line of every set may be useful.
TOP = None


@dataclass(frozen=True)
class CacheUCB:
    """UCB points and ECB set of one task over one cache."""

    config: CacheConfig
    #: Distinct per-point useful-line sets; ``None`` entries are top.
    points: Tuple[Optional[FrozenSet[int]], ...]
    #: Every line the task may touch.
    ecb: FrozenSet[int]
    #: True when some access had an unknown address: the task may
    #: touch (and thus evict from) every cache set.
    ecb_unknown: bool

    def geometry(self) -> Tuple[int, int, int]:
        return (self.config.num_sets, self.config.associativity,
                self.config.line_size)


def _line_liveness(graph: TaskGraph,
                   accesses_of: Dict[NodeId, List[AccessSpec]]
                   ) -> Tuple[Dict[NodeId, Set[int]],
                              Dict[NodeId, bool]]:
    """Backward may-be-accessed-later fixpoint.

    ``live_in[n]`` holds every line some access at or after the entry
    of ``n`` may touch; ``unknown_in[n]`` records an unknown-address
    access at or after ``n`` (liveness is then top along that path).
    Union join over successors; terminates because line sets only
    grow within the finite universe of accessed lines.
    """
    gen: Dict[NodeId, Set[int]] = {}
    gen_unknown: Dict[NodeId, bool] = {}
    for node in graph.nodes():
        lines: Set[int] = set()
        unknown = False
        for spec in accesses_of.get(node, []):
            if spec.is_unknown:
                unknown = True
            else:
                lines.update(spec.lines)
        gen[node] = lines
        gen_unknown[node] = unknown

    live_in: Dict[NodeId, Set[int]] = {
        node: set(gen[node]) for node in graph.nodes()}
    unknown_in: Dict[NodeId, bool] = dict(gen_unknown)
    worklist = sorted(graph.nodes(), key=TaskGraph.node_key,
                      reverse=True)
    pending = set(worklist)
    while worklist:
        node = worklist.pop()
        pending.discard(node)
        out: Set[int] = set()
        unknown_out = False
        for edge in graph.successors(node):
            out |= live_in[edge.target]
            unknown_out = unknown_out or unknown_in[edge.target]
        new_in = gen[node] | out
        new_unknown = gen_unknown[node] or unknown_out
        if new_in != live_in[node] or new_unknown != unknown_in[node]:
            live_in[node] = new_in
            unknown_in[node] = new_unknown
            for edge in graph.predecessors(node):
                if edge.source not in pending:
                    pending.add(edge.source)
                    worklist.append(edge.source)
    return live_in, unknown_in


def _useful_at(state, live: Optional[Set[int]]
               ) -> Optional[FrozenSet[int]]:
    """UCB at one point: may-cached lines ∩ lines live afterwards.

    ``live=None`` means liveness is top.  Returns ``TOP`` when the may
    cache is universal *and* liveness is top — every line of every set
    may be both cached and reused."""
    may = state.may
    if may.universal:
        if live is None:
            return TOP
        return frozenset(live)
    cached = may.ages.keys()
    if live is None:
        return frozenset(cached)
    return frozenset(line for line in cached if line in live)


def analyze_ucb(graph: TaskGraph, config: CacheConfig,
                accesses_of: Dict[NodeId, List[AccessSpec]]
                ) -> CacheUCB:
    """UCB points and ECB set over one cache of one task.

    Reuses the existing must/may fixpoint (forced onto the pure-python
    domain so per-line may ages are directly inspectable) and pairs
    its entry states with a backward liveness pass.  Points are the
    instruction boundaries before each access plus every block entry;
    duplicates collapse, since only the maximum over points matters.
    """
    fixpoint = CacheFixpoint(graph, config, accesses_of, impl="python")
    entry_states = fixpoint.solve()
    live_in, unknown_in = _line_liveness(graph, accesses_of)

    ecb: Set[int] = set()
    ecb_unknown = False
    points: Set[Optional[FrozenSet[int]]] = set()
    for node in graph.nodes():
        state = entry_states.get(node)
        if state is None:
            continue        # unreachable under this expansion
        specs = accesses_of.get(node, [])
        # Suffix liveness inside the block: lines accessed by
        # specs[k:] plus whatever is live at block exit.
        exit_live: Optional[Set[int]] = set()
        exit_unknown = False
        for edge in graph.successors(node):
            exit_live |= live_in[edge.target]
            exit_unknown = exit_unknown or unknown_in[edge.target]
        suffixes: List[Optional[Set[int]]] = [None] * (len(specs) + 1)
        suffixes[len(specs)] = None if exit_unknown else exit_live
        for k in range(len(specs) - 1, -1, -1):
            spec = specs[k]
            below = suffixes[k + 1]
            if spec.is_unknown or below is None:
                suffixes[k] = None
            else:
                suffixes[k] = below | set(spec.lines)
        state = state.copy()
        points.add(_useful_at(state, suffixes[0]))
        for k, spec in enumerate(specs):
            if spec.is_unknown:
                ecb_unknown = True
                state.access_unknown()
            else:
                ecb.update(spec.lines)
                state.access_range(list(spec.lines))
            points.add(_useful_at(state, suffixes[k + 1]))
    ordered = tuple(sorted(
        points, key=lambda p: (p is TOP, tuple(sorted(p or ())))))
    return CacheUCB(config=config, points=ordered,
                    ecb=frozenset(ecb), ecb_unknown=ecb_unknown)


def extra_miss_bound(victim: CacheUCB, preemptor: CacheUCB) -> int:
    """Max useful blocks of ``victim`` one preemption by ``preemptor``
    can evict, on one cache (see module docstring for the formula)."""
    if victim.geometry() != preemptor.geometry():
        raise ValueError(
            "UCB/ECB computed under different cache geometries: "
            f"{victim.geometry()} vs {preemptor.geometry()}")
    config = victim.config
    if preemptor.ecb_unknown:
        touched: Optional[Set[int]] = None      # every set
    else:
        touched = {line % config.num_sets for line in preemptor.ecb}
        if not touched:
            return 0
    best = 0
    for point in victim.points:
        if point is TOP:
            sets = config.num_sets if touched is None else len(touched)
            count = sets * config.associativity
        else:
            per_set = Counter(
                line % config.num_sets for line in point
                if touched is None
                or (line % config.num_sets) in touched)
            count = sum(min(n, config.associativity)
                        for n in per_set.values())
        best = max(best, count)
    return best


@dataclass(frozen=True)
class TaskFootprint:
    """UCB/ECB of one task over both caches."""

    icache: CacheUCB
    dcache: CacheUCB


def crpd_extra_misses(victim: TaskFootprint, preemptor: TaskFootprint
                      ) -> Tuple[int, int]:
    """(I-cache, D-cache) extra-miss budgets for one preemption —
    the S8 obligation checked by the preemptive simulator oracle."""
    return (extra_miss_bound(victim.icache, preemptor.icache),
            extra_miss_bound(victim.dcache, preemptor.dcache))


def crpd_cycles(victim: TaskFootprint, preemptor: TaskFootprint) -> int:
    """CRPD(victim, preemptor) in cycles, both caches."""
    i_misses, d_misses = crpd_extra_misses(victim, preemptor)
    return (victim.icache.config.miss_penalty * i_misses
            + victim.dcache.config.miss_penalty * d_misses)


def full_refill_cycles(icache: CacheConfig, dcache: CacheConfig) -> int:
    """The naive CRPD reference: a preemption refills both caches
    entirely (every line of every set misses once)."""
    return (icache.miss_penalty * icache.num_sets * icache.associativity
            + dcache.miss_penalty * dcache.num_sets
            * dcache.associativity)
