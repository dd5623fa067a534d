"""Schedulability sweeps: priority orderings × cache geometries.

The ``repro batch`` counterpart for task sets: one row per (ordering,
geometry) cell, each an :func:`repro.rta.response.analyze_taskset`
run against a shared artifact cache — per-task WCET phases dedup
across cells that agree on the geometry, so the sweep costs far fewer
analyses than rows × tasks.

Golden files pin the *verdicts* (schedulable or not, and the exact
response times) per cell, the schedulability analogue of the golden
WCET bounds in ``tests/golden_bounds.json``.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Any, Dict, List, Sequence

from ..cache.config import CacheConfig, MachineConfig
from .response import analyze_taskset
from .taskset import ORDERINGS, TaskSet

#: Cache geometries ("sets x associativity x line size") the sweep
#: iterates by default; miss penalty stays at the default 10 cycles.
GEOMETRIES = ("16x2x16", "4x2x16", "4x1x8")


def parse_geometry(text: str) -> CacheConfig:
    """``"SETSxASSOCxLINE"`` → :class:`CacheConfig`."""
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise ValueError(
            f"geometry {text!r} is not of the form SETSxASSOCxLINE")
    try:
        num_sets, associativity, line_size = (int(p) for p in parts)
    except ValueError:
        raise ValueError(f"geometry {text!r}: non-integer field") \
            from None
    return CacheConfig(num_sets=num_sets, associativity=associativity,
                       line_size=line_size)


def config_for(geometry: str) -> MachineConfig:
    """The default machine with both caches set to ``geometry``."""
    shape = parse_geometry(geometry)
    return replace(MachineConfig.default(), icache=shape, dcache=shape)


def cell_id(taskset: str, ordering: str, geometry: str) -> str:
    return f"{taskset}|{ordering}|{geometry}"


def sweep_taskset(taskset: TaskSet,
                  orderings: Sequence[str] = ORDERINGS,
                  geometries: Sequence[str] = GEOMETRIES,
                  cache=None) -> List[Dict[str, Any]]:
    """One row per (ordering, geometry) cell, all against ``cache``."""
    from ..batch.cachestore import ArtifactCache

    if cache is None:
        cache = ArtifactCache()
    rows = []
    for geometry in geometries:
        config = config_for(geometry)
        for ordering in orderings:
            result = analyze_taskset(taskset.reordered(ordering),
                                     config=config, cache=cache)
            rows.append({
                "taskset": taskset.name,
                "ordering": ordering,
                "geometry": geometry,
                "schedulable": result.schedulable,
                "naive_crpd_cycles": result.naive_crpd_cycles,
                "cache_hits": result.cache_hits,
                "cache_misses": result.cache_misses,
                "tasks": result.rows(),
            })
    return rows


# -- Golden verdicts -------------------------------------------------------


def rows_to_golden(rows: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Pin each cell's verdict and exact response times."""
    golden: Dict[str, Any] = {}
    for row in rows:
        golden[cell_id(row["taskset"], row["ordering"],
                       row["geometry"])] = {
            "schedulable": row["schedulable"],
            "responses": {task["task"]: task["response"]
                          for task in row["tasks"]},
        }
    return golden


def save_golden(path: str, rows: Sequence[Dict[str, Any]]) -> None:
    """Pin the rows' cells in ``path``, keeping the cells an existing
    file holds for task sets or geometries this sweep did not cover."""
    try:
        golden = load_golden(path)
    except FileNotFoundError:
        golden = {}
    golden.update(rows_to_golden(rows))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_golden(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def compare_with_golden(rows: Sequence[Dict[str, Any]],
                        golden: Dict[str, Any]) -> List[str]:
    """Mismatch descriptions (empty = bit-identical verdicts)."""
    problems = []
    for row in rows:
        cell = cell_id(row["taskset"], row["ordering"],
                       row["geometry"])
        expected = golden.get(cell)
        if expected is None:
            problems.append(f"{cell}: no golden verdict")
            continue
        if row["schedulable"] != expected["schedulable"]:
            problems.append(
                f"{cell}: schedulable={row['schedulable']}, golden "
                f"says {expected['schedulable']}")
        for task in row["tasks"]:
            want = expected["responses"].get(task["task"], "absent")
            if task["response"] != want:
                problems.append(
                    f"{cell}/{task['task']}: response "
                    f"{task['response']}, golden says {want}")
    return problems
