"""Task-set model for multi-task response-time analysis.

A *task set* is the RTA counterpart of :mod:`repro.stack.osek`'s
``TaskSpec`` list: named tasks with OSEK-style priorities and
preemption thresholds, extended with the timing attributes response-
time analysis needs (period, release jitter, deadline) and a workload
binding (the entry program whose WCET the aiT pipeline computes).

Task sets are plain JSON::

    {
      "name": "ecu_mix",
      "context_switch_cycles": 40,
      "tasks": [
        {"name": "ctrl", "workload": "fibcall", "priority": 3,
         "period": 40000, "jitter": 0},
        {"name": "log",  "workload": "bs", "priority": 1,
         "period": 120000, "deadline": 100000}
      ]
    }

Preemption eligibility is the stack analysis' OSEK threshold rule,
:func:`repro.stack.osek.can_preempt`: task *j* can preempt task *i* iff
``j.priority > i.effective_threshold`` (thresholds default to the
task's own priority, i.e. fully preemptive scheduling).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from ..stack.osek import can_preempt


@dataclass(frozen=True)
class RTTask:
    """One task: workload binding plus scheduling attributes."""

    name: str
    workload: str          # entry symbol: a repro workload-suite name
    priority: int          # larger = more urgent (OSEK convention)
    period: int            # minimum inter-arrival time, in cycles
    jitter: int = 0        # release jitter, in cycles
    threshold: Optional[int] = None   # preemption threshold
    deadline: Optional[int] = None    # defaults to the period

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("task name must be non-empty")
        if self.period <= 0:
            raise ValueError(f"task {self.name}: period must be > 0")
        if self.jitter < 0:
            raise ValueError(f"task {self.name}: jitter must be >= 0")
        if self.threshold is not None and self.threshold < self.priority:
            raise ValueError(
                f"task {self.name}: threshold below priority")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"task {self.name}: deadline must be > 0")

    @property
    def effective_threshold(self) -> int:
        """Priority the task runs at once started (>= its priority)."""
        return self.threshold if self.threshold is not None \
            else self.priority

    @property
    def effective_deadline(self) -> int:
        return self.deadline if self.deadline is not None \
            else self.period


@dataclass(frozen=True)
class TaskSet:
    """A named set of tasks sharing one processor and its caches."""

    name: str
    tasks: Tuple[RTTask, ...]
    #: Kernel context-switch cost charged per preemption, in cycles.
    context_switch_cycles: int = 0

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError("task set is empty")
        names = [task.name for task in self.tasks]
        if len(set(names)) != len(names):
            raise ValueError("duplicate task names")
        if self.context_switch_cycles < 0:
            raise ValueError("context_switch_cycles must be >= 0")

    def task(self, name: str) -> RTTask:
        for task in self.tasks:
            if task.name == name:
                return task
        raise KeyError(name)

    def preemptors_of(self, victim: RTTask) -> List[RTTask]:
        """Tasks that can preempt ``victim`` (threshold rule)."""
        return [task for task in self.tasks
                if task is not victim and can_preempt(task, victim)]

    def with_priorities(self, priorities: Dict[str, int]) -> "TaskSet":
        """Copy with reassigned priorities (thresholds reset to the
        new priorities — sweep orderings compare plain preemptive
        schedules)."""
        tasks = tuple(replace(task, priority=priorities[task.name],
                              threshold=None)
                      for task in self.tasks)
        return replace(self, tasks=tasks)

    def reordered(self, ordering: str) -> "TaskSet":
        """Priority reassignment for one sweep ordering.

        ``given`` keeps the configured priorities (and thresholds);
        ``rate_monotonic`` ranks shorter periods higher;
        ``reverse`` inverts the configured priority order.
        """
        if ordering == "given":
            return self
        if ordering == "rate_monotonic":
            ranked = sorted(self.tasks,
                            key=lambda t: (-t.period, t.name))
        elif ordering == "reverse":
            ranked = sorted(self.tasks,
                            key=lambda t: (-t.priority, t.name))
        else:
            raise ValueError(f"unknown ordering: {ordering!r}")
        return self.with_priorities(
            {task.name: rank + 1 for rank, task in enumerate(ranked)})


#: Priority orderings the sweep scenario iterates by default.
ORDERINGS = ("given", "rate_monotonic", "reverse")


def _integer(value: Any, field: str) -> int:
    """``value`` if it is a JSON integer, else a :class:`ValueError`
    naming ``field`` (``true`` and ``1000.7`` are not integers)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def parse_taskset(payload: Any) -> TaskSet:
    """Build a :class:`TaskSet` from decoded JSON, validating shape.

    An unknown key, a missing one, a number that is not an integer or a
    workload the suite does not define is a :class:`ValueError` naming
    the field (``tasks[i].priority``)."""
    from ..workloads.suite import WORKLOADS

    if not isinstance(payload, dict):
        raise ValueError("task set must be a JSON object")
    unknown = set(payload) - {"name", "tasks", "context_switch_cycles"}
    if unknown:
        raise ValueError(f"task set: unknown keys {sorted(unknown)}")
    name = payload.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError("task set needs a non-empty 'name'")
    raw_tasks = payload.get("tasks")
    if not isinstance(raw_tasks, list) or not raw_tasks:
        raise ValueError("task set needs a non-empty 'tasks' list")
    tasks = []
    for index, raw in enumerate(raw_tasks):
        where = f"tasks[{index}]"
        if not isinstance(raw, dict):
            raise ValueError(f"{where} must be an object")
        unknown = set(raw) - {"name", "workload", "priority", "period",
                              "jitter", "threshold", "deadline"}
        if unknown:
            raise ValueError(f"{where}: unknown keys {sorted(unknown)}")
        for key in ("name", "workload", "priority", "period"):
            if key not in raw:
                raise ValueError(f"{where}: missing '{key}'")
        if not isinstance(raw["name"], str):
            raise ValueError(f"{where}.name must be a string, "
                             f"got {raw['name']!r}")
        workload = raw["workload"]
        if not isinstance(workload, str) or workload not in WORKLOADS:
            raise ValueError(f"{where}.workload: unknown workload "
                             f"{workload!r}; available: "
                             f"{', '.join(sorted(WORKLOADS))}")
        optional = {key: None if raw.get(key) is None
                    else _integer(raw[key], f"{where}.{key}")
                    for key in ("threshold", "deadline")}
        tasks.append(RTTask(
            name=raw["name"], workload=workload,
            priority=_integer(raw["priority"], f"{where}.priority"),
            period=_integer(raw["period"], f"{where}.period"),
            jitter=_integer(raw.get("jitter", 0), f"{where}.jitter"),
            **optional))
    return TaskSet(
        name=name, tasks=tuple(tasks),
        context_switch_cycles=_integer(
            payload.get("context_switch_cycles", 0),
            "context_switch_cycles"))


def load_taskset(path: str) -> TaskSet:
    """Parse a task-set JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    return parse_taskset(payload)
