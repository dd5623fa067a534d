"""The sweep's phase-task DAG: one task per distinct phase artifact.

PR 5 made every analysis phase an individually *cacheable* step; this
module makes each one an individually *schedulable* task.  A sweep of
(workload x policy x model) jobs expands to a DAG with one node per
distinct phase artifact across **all** jobs — both pipeline models
share a (workload, policy)'s cfg/value/loopbounds/icache/dcache
artifacts, every job of an annotated workload shares its
discover-then-annotate prefix, and a job's phases are chained by
dependency edges — so a 114-point matrix collapses from ~800 phase
executions to a few hundred unique tasks that a worker pool can drain
with no per-group barriers.

Two views of the same plan live here:

* :func:`build_sweep_dag` — the structural view: nodes, edges, dedup
  counts, and a deterministic ready queue.  Task identity is
  structural (phase name + the exact inputs that feed its cache-key
  material), which coincides with cache-key identity without having to
  compile or analyze anything in the parent.
* :class:`JobPlan` — the executable view, built for every entry
  point: the same task set for one job, with the real key-material and
  compute functions from :func:`repro.wcet.ait.phase_plan`.
"""

from __future__ import annotations

import cProfile
import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..cache.config import PIPELINE_MODELS, MachineConfig
from ..cfg.contexts import DEFAULT_POLICY
from ..domainimpl import resolve_domain_impl
from ..isa.program import Program
from ..wcet import ait
from ..wcet.ait import PHASES, PhaseTask, material_loopbounds, phase_plan
from ..workloads.suite import Workload, derive_manual_bounds, get_workload
from .jobs import JobSpec, parse_policy

class DAGCycleError(ValueError):
    """The task graph is not acyclic."""


# -- Parent-side structural DAG --------------------------------------------------


@dataclass
class TaskNode:
    """One schedulable task: a distinct phase artifact (or a per-job
    row-assembly task)."""

    index: int                      #: build order; doubles as priority
    identity: Tuple                 #: structural dedup identity
    label: str                      #: human-readable, e.g. "bs/full:value"
    kind: str                       #: "phase" | "annotate" | "row"
    spec: JobSpec                   #: a job whose plan contains the task
    template: str                   #: template name within that job's plan
    deps: List["TaskNode"] = field(default_factory=list)
    dependents: List["TaskNode"] = field(default_factory=list)
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

    Nodes are added through :meth:`add_node`, which returns the
    existing node when the structural ``identity`` was seen before —
    that is the dedup.  :meth:`validate` rejects cycles (they cannot
    arise from :func:`build_sweep_dag`, but :meth:`add_edge` lets
    callers — and tests — wire arbitrary graphs).  Tasks are released
    in build order, which the executor keeps as the dispatch priority
    of simultaneously-ready tasks, so dispatch is deterministic.
    """

    def __init__(self):
        self.nodes: List[TaskNode] = []
        self._by_identity: Dict[Tuple, TaskNode] = {}
        self._started = False
        self._finished = 0
        #: Total add_node references (dedup hits included), row tasks
        #: excluded: the "phase executions" the jobs would issue
        #: without dedup.
        self.phase_refs = 0

    # -- Construction -------------------------------------------------------

    def add_node(self, identity: Tuple, label: str, kind: str,
                 spec: JobSpec, template: str,
                 deps: Sequence[TaskNode] = (),
                 job_index: int = 0) -> TaskNode:
        if kind in ("phase", "annotate"):
            self.phase_refs += 1
        node = self._by_identity.get(identity)
        if node is None:
            node = TaskNode(index=len(self.nodes), identity=identity,
                            label=label, kind=kind, spec=spec,
                            template=template)
            self.nodes.append(node)
            self._by_identity[identity] = node
            for dep in dict.fromkeys(deps):
                self.add_edge(dep, node)
        node.refs.append((job_index, template))
        return node

    def add_edge(self, dep: TaskNode, node: TaskNode) -> None:
        """``node`` cannot start before ``dep`` finished."""
        if self._started:
            raise RuntimeError("cannot grow a DAG after start()")
        node.deps.append(dep)
        dep.dependents.append(node)

    @property
    def unique_tasks(self) -> int:
        return sum(1 for node in self.nodes
                   if node.kind in ("phase", "annotate"))

    @property
    def deduped_tasks(self) -> int:
        return self.phase_refs - self.unique_tasks

    def validate(self) -> None:
        """Raise :class:`DAGCycleError` unless the graph is acyclic
        (Kahn's algorithm)."""
        pending = {node.index: len(set(dep.index for dep in node.deps))
                   for node in self.nodes}
        queue = [index for index, count in pending.items() if count == 0]
        seen = 0
        while queue:
            index = queue.pop()
            seen += 1
            for dependent in self.nodes[index].dependents:
                pending[dependent.index] -= 1
                if pending[dependent.index] == 0:
                    queue.append(dependent.index)
        if seen != len(self.nodes):
            stuck = sorted(label
                           for label, count in
                           ((node.label, pending[node.index])
                            for node in self.nodes) if count > 0)
            raise DAGCycleError(
                f"task graph has a cycle through: {', '.join(stuck)}")

    # -- Scheduling state machine -------------------------------------------

    def start(self) -> List[TaskNode]:
        """Validate and return the initially-ready tasks in priority
        (build) order."""
        self.validate()
        self._started = True
        ready = []
        for node in self.nodes:
            node.pending = len(set(dep.index for dep in node.deps))
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
        for dependent in dict.fromkeys(node.dependents):
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
            for dependent in current.dependents:
                stack.append((dependent, downstream))
        return failed

    def unfinished(self) -> List[TaskNode]:
        return [node for node in self.nodes
                if node.state not in ("done", "failed")]


@dataclass
class SweepDAG:
    """The deduplicated task DAG of one sweep."""

    jobs: List[JobSpec]
    dag: TaskDAG
    #: Per job: the row-assembly node, or ``None`` when the job failed
    #: to plan or its plan stops short of a full pipeline.
    row_nodes: List[Optional[TaskNode]]
    #: Per job: template name -> node, ``"row"`` included.
    job_phase_nodes: List[Dict[str, TaskNode]]
    #: job index -> plan-time error message.
    build_errors: Dict[int, str]
    #: Whether rows record cache provenance (``False``: no store).
    use_cache: bool = True
    #: In-process callers' plans, one per job (else rebuilt from specs).
    plans: Optional[List["JobPlan"]] = None

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

    def row_timing(self, job_index: int) -> Tuple[Dict[str, float], float]:
        """One job's ``(phase_seconds, wall_seconds)``: per phase the
        seconds of the task that produced its artifact, and the sum
        over the tasks the job owns (``refs[0]``, discovery prefix
        included)."""
        nodes = self.job_phase_nodes[job_index]
        owned = {node.index: node.seconds
                 for template, node in nodes.items()
                 if template != "row" and node.refs[0][0] == job_index}
        return ({phase: nodes[phase].seconds for phase in PHASES},
                sum(owned.values()))

    def artifact(self, job_index: int, template: str) -> Any:
        """What an in-process run produced for one job's template
        (``"row"``: the job's WCETResult)."""
        return self.job_phase_nodes[job_index][template].value


def _job_identities(name: str, policy_desc: str, model: str, impl: str,
                    annotated: bool, share_discovery: bool = True
                    ) -> List[Tuple[str, Tuple, Tuple[str, ...]]]:
    """The (template, identity, dep templates) triples of one job's
    plan, in execution order.

    The identity tuples are chosen so that two templates coincide
    exactly when their cache-key materials would: every input that
    feeds the material either appears in the tuple or is a pure
    function of an input that does (e.g. a workload's memory-range
    annotations are derived from its name).  A caller's own plan may
    run its main chain with non-default parameters, so
    ``share_discovery=False`` keeps its discovery prefix apart.
    """
    full_desc = DEFAULT_POLICY.describe()
    scope = name if share_discovery else ("discover", name)
    entries: List[Tuple[str, Tuple, Tuple[str, ...]]] = []
    if annotated:
        entries += [
            ("discover:cfg", ("cfg", scope, full_desc), ()),
            ("discover:value", ("value", scope, full_desc, impl),
             ("discover:cfg",)),
            ("discover:loopbounds",
             ("loopbounds", scope, full_desc, impl, False),
             ("discover:value",)),
            ("annotate", ("annotate", scope, impl),
             ("discover:loopbounds",)),
        ]
    entries += [
        ("cfg", ("cfg", name, policy_desc), ()),
        ("value", ("value", name, policy_desc, impl), ("cfg",)),
        ("loopbounds",
         ("loopbounds", name, policy_desc, impl, annotated),
         ("value", "annotate") if annotated else ("value",)),
        ("icache", ("icache", name, policy_desc, impl), ("cfg",)),
        ("dcache", ("dcache", name, policy_desc, impl),
         ("cfg", "value")),
        ("pipeline", ("pipeline", name, policy_desc, impl, model),
         ("cfg", "icache", "dcache")),
        ("path", ("path", name, policy_desc, impl, model, annotated),
         ("cfg", "pipeline", "loopbounds", "value")),
    ]
    return entries


def build_sweep_dag(jobs: Sequence[JobSpec], use_cache: bool = True,
                    domain_impl: Optional[str] = None,
                    plans: Optional[Sequence["JobPlan"]] = None
                    ) -> SweepDAG:
    """Expand a job list into the deduplicated phase-task DAG.

    ``use_cache=False`` only stops rows from recording cache
    provenance.  Jobs that cannot be planned (unknown workload, bad
    policy/model token) become ``build_errors`` entries instead of
    raising, so one bad point cannot take down a sweep.  ``plans`` (one
    per job) are in-process callers' own plans; they share tasks across
    policies and models only, so must agree on all else.
    """
    impl = resolve_domain_impl(domain_impl)
    dag = TaskDAG()
    row_nodes: List[Optional[TaskNode]] = []
    job_phase_nodes: List[Dict[str, TaskNode]] = []
    build_errors: Dict[int, str] = {}
    for job_index, spec in enumerate(jobs):
        job_phase_nodes.append({})
        if plans is not None:
            plan = plans[job_index]
            entries = [entry for entry in _job_identities(
                spec.workload, plan.policy_desc, plan.config.pipeline_model,
                plan.domain_impl, plan.annotated, share_discovery=False)
                if entry[0] in plan.templates]
        else:
            try:
                workload = get_workload(spec.workload)
                policy_desc = parse_policy(spec.policy).describe()
                if spec.model not in PIPELINE_MODELS:
                    raise ValueError(
                        f"unknown pipeline model {spec.model!r}")
            except Exception as exc:
                build_errors[job_index] = f"{type(exc).__name__}: {exc}"
                row_nodes.append(None)
                continue
            entries = _job_identities(
                spec.workload, policy_desc, spec.model, impl,
                bool(workload.manual_bounds_in_order))
        by_template: Dict[str, TaskNode] = {}
        for template, identity, dep_names in entries:
            kind = "annotate" if template == "annotate" else "phase"
            by_template[template] = dag.add_node(
                identity, f"{spec.workload}/{spec.policy}:{template}",
                kind, spec, template,
                [by_template[dep] for dep in dep_names], job_index)
        row = None
        if all(phase in by_template for phase in PHASES):
            row = by_template["row"] = dag.add_node(
                ("row", job_index), f"{spec.job_id}:row", "row", spec,
                "row", [by_template[phase] for phase in PHASES],
                job_index)
        row_nodes.append(row)
        job_phase_nodes[job_index] = by_template
    return SweepDAG(list(jobs), dag, row_nodes, job_phase_nodes,
                    build_errors, use_cache,
                    list(plans) if plans is not None else None)


# -- Executable plans -------------------------------------------------------------


def _prefixed(task: PhaseTask, prefix: str) -> PhaseTask:
    """``task`` renamed into the ``prefix`` template namespace (the
    discovery prefix of the annotate workflow)."""
    return PhaseTask(
        prefix + task.name, tuple(prefix + dep for dep in task.deps),
        lambda keys, fetch: task.material(
            {dep: keys[prefix + dep] for dep in task.deps}, fetch),
        lambda deps: task.compute(
            {dep: deps[prefix + dep] for dep in task.deps}))


class JobPlan:
    """One job's executable plan: every template of
    :func:`_job_identities` as a :class:`~repro.wcet.ait.PhaseTask`.

    ``options`` are the :func:`repro.wcet.ait.phase_plan` arguments.
    An annotated ``workload`` adds the default-parameter
    discover-then-annotate prefix; the main loop-bound phase then takes
    its manual mapping from the never-stored ``annotate`` template.
    ``phases`` truncates the main chain; ``spec`` labels the job.
    """

    def __init__(self, program: Program,
                 workload: Optional[Workload] = None,
                 spec: Optional[JobSpec] = None,
                 phases: Sequence[str] = PHASES, **options):
        self.program = program
        config = options.get("config") or MachineConfig.default()
        if options.get("pipeline_model") is not None:
            config = config.with_model(options["pipeline_model"])
        impl = options.get("domain_impl")
        self.config = config
        self.domain_impl = resolve_domain_impl(
            impl if impl is not None else config.domain_impl)
        self.policy_desc = (options.get("context_policy")
                            or DEFAULT_POLICY).describe()
        self.annotated = bool(workload is not None
                              and workload.manual_bounds_in_order)
        self.spec = spec or JobSpec(
            workload.name if workload is not None else "program",
            self.policy_desc, config.pipeline_model)
        #: Per-phase ``cProfile.Profile`` objects (see :meth:`profile`).
        self.profiles: Dict[str, object] = {}
        options.update(config=config, domain_impl=self.domain_impl)

        tasks: List[PhaseTask] = []
        if self.annotated:
            discovery = phase_plan(program,
                                   memory_ranges=options.get("memory_ranges"),
                                   domain_impl=self.domain_impl)
            tasks += [_prefixed(task, "discover:") for task in discovery[:3]]
            tasks.append(PhaseTask(
                "annotate", ("discover:loopbounds",), None,
                lambda deps: derive_manual_bounds(
                    workload, deps["discover:loopbounds"])))
        for task in phase_plan(program, **options):
            if task.name == "loopbounds" and self.annotated:
                # The material embeds the annotate *value* (small),
                # reproducing the key a plain analyze_wcet call with
                # the derived annotations would use.
                task = PhaseTask(
                    "loopbounds", ("value", "annotate"),
                    lambda keys, fetch: material_loopbounds(
                        keys["value"], fetch("annotate")),
                    lambda deps: ait.analyze_loop_bounds(
                        deps["value"], deps["annotate"]))
            if task.name in phases:
                tasks.append(task)
        self.templates: Dict[str, PhaseTask] = {task.name: task
                                                for task in tasks}

    def profile(self) -> None:
        """Run every template's compute under ``cProfile``, collecting
        the profilers in :attr:`profiles`."""
        for name, task in self.templates.items():
            profiler = self.profiles[name] = cProfile.Profile()
            self.templates[name] = dataclasses.replace(
                task, compute=functools.partial(profiler.runcall,
                                                task.compute))
