"""The phase-task DAG: one task per distinct phase artifact.

Every entry point describes its work as :class:`JobPlan`\\ s, one per
job: a ``repro batch`` sweep (one plan per workload x policy x model
point, built by :func:`_plan_for`), one ``analyze_wcet`` or
``analyze_workload`` call, or one ``repro serve`` request.  A plan holds
the job's :class:`~repro.wcet.ait.PhaseTask` templates from
:func:`repro.wcet.ait.phase_plan`.  :func:`build_sweep_dag` expands the
plans of all jobs into one task graph with one node per distinct phase
artifact: both pipeline models share a (workload, policy)'s
cfg/value/loopbounds/icache/dcache artifacts, every job of an annotated
workload shares its discover-then-annotate prefix, and a job's phases
are chained by dependency edges.  A 114-point matrix collapses from 846
phase references to 517 unique tasks, which a worker pool drains with
no per-group barriers.

The plan alone decides which inputs feed which phase, and so which
templates share a task: :attr:`JobPlan.identities` composes each
template's identity, once, from its own material and its
dependencies' identities.  The identity is the artifact's one name:
two templates share a task exactly when they share an identity, and
the cache key is :meth:`~repro.batch.cachestore.ArtifactCache.key` of
the identity, so the parent finds every task without keying, fetching
or analyzing anything.
"""

from __future__ import annotations

import cProfile
import dataclasses
import functools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from ..cache.config import MachineConfig
from ..cfg.contexts import DEFAULT_POLICY
from ..domainimpl import resolve_domain_impl
from ..isa.program import Program
from ..wcet import ait
from ..wcet.ait import PHASES, PhaseTask, phase_plan
from ..workloads.suite import Workload, derive_manual_bounds, get_workload
from .jobs import JobSpec


# -- Parent-side task graph ------------------------------------------------------


@dataclass
class TaskNode:
    """One schedulable task: a distinct phase artifact (or a per-job
    row-assembly task)."""

    index: int                      #: build order; doubles as priority
    label: str                      #: human-readable, e.g. "bs/full:value"
    kind: str                       #: "phase" | "row"
    spec: JobSpec                   #: a job whose plan contains the task
    template: str                   #: template name within that job's plan
    deps: List["TaskNode"] = field(default_factory=list)
    #: Build indices of the nodes that depend on this one: no reference
    #: cycle keeps a drained DAG and its artifacts alive until a GC.
    dependents: List[int] = field(default_factory=list)
    #: Every (job index, template name) that references this node, in
    #: job order.  ``refs[0]`` is the canonical owner used to attribute
    #: hit/miss provenance and timing deterministically.
    refs: List[Tuple[int, str]] = field(default_factory=list)

    # Runtime state, maintained by TaskDAG's scheduling methods.
    state: str = "pending"          #: pending|ready|done|failed
    pending: int = 0                #: unfinished dependency count
    computed: Optional[bool] = None  #: ran compute (vs cache-served)
    seconds: float = 0.0
    worker: Optional[int] = None    #: pid of the executing worker
    finish_order: Optional[int] = None
    error: Optional[str] = None
    #: What an in-process run produced (a row task's: the WCETResult)
    #: or raised; pool tasks leave both ``None``.
    value: Any = None
    exception: Optional[BaseException] = None

    def __hash__(self):
        return self.index

    def __repr__(self):
        return f"<TaskNode {self.index} {self.label} {self.state}>"


class TaskDAG:
    """A deduplicated task graph plus its scheduling state machine.

    :meth:`add_node` returns the existing node when its ``identity``
    was seen before (that is the dedup), and links a new node only to
    nodes that already exist, so build order is a topological order
    and the graph is acyclic by construction.  Tasks are released in
    build order, which the executor keeps as the dispatch priority of
    simultaneously-ready tasks, so dispatch is deterministic.
    """

    def __init__(self):
        self.nodes: List[TaskNode] = []
        self._by_identity: Dict[Hashable, TaskNode] = {}
        self._finished = 0
        #: Total add_node references (dedup hits included), row tasks
        #: excluded: the "phase executions" the jobs would issue
        #: without dedup.
        self.phase_refs = 0

    # -- Construction -------------------------------------------------------

    def add_node(self, identity: Hashable, label: str, kind: str,
                 spec: JobSpec, template: str,
                 deps: Sequence[TaskNode] = (),
                 job_index: int = 0) -> TaskNode:
        """The node of ``identity``, created on first sight with an
        edge from each of ``deps``: it cannot start before they
        finished."""
        if kind == "phase":
            self.phase_refs += 1
        node = self._by_identity.get(identity)
        if node is None:
            node = TaskNode(index=len(self.nodes), label=label, kind=kind,
                            spec=spec, template=template)
            self.nodes.append(node)
            self._by_identity[identity] = node
            for dep in dict.fromkeys(deps):
                node.deps.append(dep)
                dep.dependents.append(node.index)
        node.refs.append((job_index, template))
        return node

    @property
    def unique_tasks(self) -> int:
        return sum(1 for node in self.nodes if node.kind == "phase")

    @property
    def deduped_tasks(self) -> int:
        return self.phase_refs - self.unique_tasks

    # -- Scheduling state machine -------------------------------------------

    def start(self) -> List[TaskNode]:
        """Return the initially-ready tasks in priority (build) order."""
        ready = []
        for node in self.nodes:
            node.pending = len(node.deps)
            if node.pending == 0:
                node.state = "ready"
                ready.append(node)
        return ready

    def complete(self, node: TaskNode, computed: Optional[bool] = None,
                 seconds: float = 0.0,
                 worker: Optional[int] = None) -> List[TaskNode]:
        """Mark ``node`` done; returns the newly-ready dependents."""
        node.state = "done"
        node.computed = computed
        node.seconds = seconds
        node.worker = worker
        node.finish_order = self._finished
        self._finished += 1
        released = []
        for index in node.dependents:
            dependent = self.nodes[index]
            dependent.pending -= 1
            if dependent.pending == 0 and dependent.state == "pending":
                dependent.state = "ready"
                released.append(dependent)
        return released

    def fail(self, node: TaskNode, error: str) -> List[TaskNode]:
        """Mark ``node`` failed and cascade to every transitive
        dependent; returns all newly-failed nodes (``node`` first)."""
        failed = []
        stack = [(node, error)]
        while stack:
            current, message = stack.pop()
            if current.state == "failed":
                continue
            current.state = "failed"
            current.error = message
            failed.append(current)
            downstream = f"upstream task {current.label} failed: {message}" \
                if current is node else message
            for index in current.dependents:
                stack.append((self.nodes[index], downstream))
        return failed


@dataclass
class SweepDAG:
    """The deduplicated task DAG of one sweep."""

    jobs: List[JobSpec]
    #: Whether rows record cache provenance (``False``: no store).
    use_cache: bool = True
    dag: TaskDAG = field(default_factory=TaskDAG)
    #: Per job: its executable plan, or ``None`` when it failed to plan.
    plans: List[Optional["JobPlan"]] = field(default_factory=list)
    #: Per job: the seconds planning it spent compiling its program
    #: (0.0 when the binary was memoised or the caller brought a plan).
    compile_seconds: List[float] = field(default_factory=list)
    #: Per job: template name -> node, ``"row"`` included.
    job_phase_nodes: List[Dict[str, TaskNode]] = \
        field(default_factory=list)
    #: Per job: the row-assembly node, or ``None`` when the job failed
    #: to plan or its plan stops short of a full pipeline.
    row_nodes: List[Optional[TaskNode]] = field(default_factory=list)
    #: job index -> plan-time error message.
    build_errors: Dict[int, str] = field(default_factory=dict)

    def stats(self) -> Dict[str, int]:
        return {"phase_refs": self.dag.phase_refs,
                "unique_tasks": self.dag.unique_tasks,
                "deduped_tasks": self.dag.deduped_tasks}

    def row_events(self, job_index: int) -> Dict[str, str]:
        """Deterministic per-phase cache provenance for one job's row.

        Mirrors what running the jobs one after another records: a
        phase is a "miss" exactly when this job's main-chain reference
        is the task's first reference in job order AND the task
        actually computed
        (rather than being served from a pre-existing store), and a
        "hit" otherwise.  Scheduling order cannot change it, so rows
        are byte-identical at any worker count.  Without a store there
        is no provenance to record.
        """
        events: Dict[str, str] = {}
        if not self.use_cache:
            return events
        for phase in PHASES:
            node = self.job_phase_nodes[job_index].get(phase)
            if node is None:
                continue
            owns = node.refs and node.refs[0] == (job_index, phase)
            events[phase] = "miss" if owns and node.computed else "hit"
        return events

    def row_timing(self, job_index: int
                   ) -> Tuple[Dict[str, float], float, float]:
        """One job's ``(phase_seconds, wall_seconds, compile_seconds)``:
        per phase the seconds of the task that produced its artifact,
        the sum over the tasks the job owns (``refs[0]``, discovery
        prefix included), and what planning the job spent compiling."""
        nodes = self.job_phase_nodes[job_index]
        owned = {node.index: node.seconds
                 for template, node in nodes.items()
                 if template != "row" and node.refs[0][0] == job_index}
        return ({phase: nodes[phase].seconds for phase in PHASES},
                sum(owned.values()), self.compile_seconds[job_index])

    def artifact(self, job_index: int, template: str) -> Any:
        """What an in-process run produced for one job's template
        (``"row"``: the job's WCETResult)."""
        return self.job_phase_nodes[job_index][template].value


# -- Executable plans -------------------------------------------------------------


def _prefixed(task: PhaseTask, prefix: str) -> PhaseTask:
    """``task`` renamed into the ``prefix`` template namespace (the
    discovery prefix of the annotate workflow).  The name stays out of
    the identity, so a prefixed task whose inputs match the main
    chain's is the main chain's task."""
    return PhaseTask(
        prefix + task.name, tuple(prefix + dep for dep in task.deps),
        task.material,
        lambda deps: task.compute(
            {dep: deps[prefix + dep] for dep in task.deps}))


class JobPlan:
    """One job's executable plan: its templates as
    :class:`~repro.wcet.ait.PhaseTask`\\ s, in dependency order, and
    each template's identity.

    ``options`` are the :func:`repro.wcet.ait.phase_plan` arguments.
    An annotated ``workload`` adds the default-parameter
    discover-then-annotate prefix; the main loop-bound phase then takes
    its manual mapping from the ``annotate`` template's artifact.
    ``phases`` truncates the main chain; ``spec`` labels the job.
    """

    def __init__(self, program: Program,
                 workload: Optional[Workload] = None,
                 spec: Optional[JobSpec] = None,
                 phases: Sequence[str] = PHASES, **options):
        self.program = program
        self.workload = workload
        config = options.get("config") or MachineConfig.default()
        if options.get("pipeline_model") is not None:
            config = config.with_model(options["pipeline_model"])
        self.config = config
        self.domain_impl = resolve_domain_impl(options.get("domain_impl"))
        annotated = bool(workload is not None
                         and workload.manual_bounds_in_order)
        self.spec = spec or JobSpec(
            workload.name if workload is not None else "program",
            (options.get("context_policy") or DEFAULT_POLICY).describe(),
            config.pipeline_model)
        #: Per-phase ``cProfile.Profile`` objects (see :meth:`profile`).
        self.profiles: Dict[str, object] = {}
        options.update(config=config, domain_impl=self.domain_impl)

        tasks: List[PhaseTask] = []
        if annotated:
            discovery = phase_plan(program,
                                   memory_ranges=options.get("memory_ranges"),
                                   domain_impl=self.domain_impl)
            tasks += [_prefixed(task, "discover:") for task in discovery[:3]]
            tasks.append(PhaseTask(
                "annotate", ("discover:loopbounds",),
                f"annotate|bounds={workload.manual_bounds_in_order}",
                lambda deps: derive_manual_bounds(
                    workload, deps["discover:loopbounds"])))
        for task in phase_plan(program, **options):
            if task.name == "loopbounds" and annotated:
                # The derived annotations reach this phase as the
                # annotate artifact, so they enter its identity as that
                # dependency's identity.
                task = PhaseTask(
                    "loopbounds", ("value", "annotate"), task.material,
                    lambda deps: ait.analyze_loop_bounds(
                        deps["value"], deps["annotate"]))
            if task.name in phases:
                tasks.append(task)
        self.templates: Dict[str, PhaseTask] = {task.name: task
                                                for task in tasks}
        #: Template name -> identity: the template's material, then its
        #: dependencies' identities in ``deps`` order, each part
        #: prefixed by its length so that no two compositions spell the
        #: same string.
        self.identities: Dict[str, str] = {}
        for name, task in self.templates.items():
            self.identities[name] = "".join(
                f"{len(part)}:{part}" for part in (
                    task.material,
                    *(self.identities[dep] for dep in task.deps)))

    def profile(self) -> None:
        """Run every template's compute under ``cProfile``, collecting
        the profilers in :attr:`profiles`."""
        for name, task in self.templates.items():
            profiler = self.profiles[name] = cProfile.Profile()
            self.templates[name] = dataclasses.replace(
                task, compute=functools.partial(profiler.runcall,
                                                task.compute))


# Module-level memos live in each process that plans sweep jobs or
# analyzes task sets: the parent plans every job while it builds the
# DAG, and fork workers inherit its compiled binaries and plans instead
# of building their own.
_PROGRAM_MEMO: Dict[str, Program] = {}
_PLAN_MEMO: Dict[Tuple[str, str, str, str], JobPlan] = {}


def compiled_program(workload: Workload) -> Tuple[Program, float]:
    """The memoised binary of one suite workload, and the seconds this
    call spent compiling it (0.0 when the binary was memoised)."""
    program = _PROGRAM_MEMO.get(workload.name)
    if program is not None:
        return program, 0.0
    start = time.perf_counter()
    program = _PROGRAM_MEMO[workload.name] = workload.compile()
    return program, time.perf_counter() - start


def _plan_for(spec: JobSpec) -> Tuple[JobPlan, float]:
    """The memoised plan of one sweep job, and the seconds this call
    spent compiling its program (0.0 when the binary was memoised).

    The plan runs the domain implementation the environment selects;
    the memo keys on it, so a process that switches implementations
    never reuses a plan built for the other one."""
    impl = resolve_domain_impl()
    memo_key = (spec.workload, spec.policy, spec.model, impl)
    plan = _PLAN_MEMO.get(memo_key)
    compile_seconds = 0.0
    if plan is None:
        workload = get_workload(spec.workload)
        program, compile_seconds = compiled_program(workload)
        plan = _PLAN_MEMO[memo_key] = JobPlan(
            program, workload, spec, manual_loop_bounds={},
            context_policy=spec.policy_object(), pipeline_model=spec.model,
            memory_ranges=workload.memory_ranges(program),
            domain_impl=impl)
    return plan, compile_seconds


def build_sweep_dag(jobs: Sequence[JobSpec], use_cache: bool = True,
                    plans: Optional[Sequence[JobPlan]] = None
                    ) -> SweepDAG:
    """Expand a job list into the deduplicated phase-task DAG.

    Each job runs the caller's plan (``plans``, one per job) or the one
    :func:`_plan_for` builds, which compiles each workload once, here
    in the parent.  A job that cannot be planned (unknown workload,
    source that does not compile, bad policy or model token) becomes a
    ``build_errors`` entry instead of raising, so one bad point cannot
    take down a sweep.  Templates of any jobs share a node exactly when
    their :attr:`JobPlan.identities` agree, that is when they name the
    same artifact.  ``use_cache=False`` only stops rows from recording
    cache provenance.
    """
    sweep = SweepDAG(list(jobs), use_cache)
    for job_index, spec in enumerate(jobs):
        plan, compile_seconds, nodes = None, 0.0, {}
        try:
            plan, compile_seconds = (plans[job_index], 0.0) \
                if plans is not None else _plan_for(spec)
        except Exception as exc:
            sweep.build_errors[job_index] = f"{type(exc).__name__}: {exc}"
        if plan is not None:
            for name, task in plan.templates.items():
                nodes[name] = sweep.dag.add_node(
                    plan.identities[name],
                    f"{spec.workload}/{spec.policy}:{name}", "phase", spec,
                    name, [nodes[dep] for dep in task.deps], job_index)
            if all(phase in nodes for phase in PHASES):
                nodes["row"] = sweep.dag.add_node(
                    ("row", job_index), f"{spec.job_id}:row", "row", spec,
                    "row", [nodes[phase] for phase in PHASES], job_index)
        sweep.plans.append(plan)
        sweep.compile_seconds.append(compile_seconds)
        sweep.job_phase_nodes.append(nodes)
        sweep.row_nodes.append(nodes.get("row"))
    return sweep
