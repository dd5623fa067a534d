"""Correctness gates of the benchmark.

Every output a workload times is checked here, outside the timed
region, and every failing operation counts into ``failed``:

* ``suite_sweep`` rows must be bit-identical to
  ``tests/golden_bounds.json``;
* ``rta_sweep`` cells must match ``tests/golden_rta.json`` where it
  pins them, and the cells it does not pin must match an analysis that
  passed the preemptive-simulator oracle (S7/S8) in the same run;
* ``large_task`` and ``serve_edits`` bounds must cover the simulated
  cycles of the same binary, and serve bounds must equal a cold
  ``analyze_wcet`` of the same source.

``python3 perfbench/run.py --self-test`` feeds each gate a tampered
reference value and fails unless every gate trips on it.
"""

from __future__ import annotations

import copy
import os
from typing import Dict, List, Optional, Sequence

from repro.batch import compare_rows, load_golden
from repro.rta.sweep import compare_with_golden
from repro.rta.sweep import load_golden as load_rta_golden
from repro.rta.sweep import sweep_taskset
from repro.workloads.suite import sweep_suite
from repro.workloads.tasksets import EXAMPLE_TASKSETS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_BOUNDS = os.path.join(ROOT, "tests", "golden_bounds.json")
GOLDEN_RTA = os.path.join(ROOT, "tests", "golden_rta.json")

#: Phase provenance each serve edit class must produce, for both models.
EXPECTED_EVENTS = {
    "hit": {"cfg": "hit", "value": "hit", "loopbounds": "hit",
            "icache": "hit", "dcache": "hit", "pipeline": "hit",
            "path": "hit"},
    "data": {"cfg": "hit", "value": "miss", "loopbounds": "miss",
             "icache": "hit", "dcache": "miss", "pipeline": "miss",
             "path": "miss"},
    "recompute": {"cfg": "miss", "value": "miss", "loopbounds": "miss",
                  "icache": "miss", "dcache": "miss", "pipeline": "miss",
                  "path": "miss"},
}


def suite_row_problems(row: dict, golden: dict) -> List[str]:
    """Mismatches of one sweep row against the golden bounds."""
    return compare_rows([row], golden)


def rta_row_problems(row: dict, expected: dict) -> List[str]:
    """Mismatches of one task-set cell against its expected verdict."""
    return compare_with_golden([row], expected)


def bound_problems(label: str, bound: int, simulated: int,
                   expected: Optional[int] = None) -> List[str]:
    """A bound must cover the simulated run and, where a reference
    bound exists, equal it."""
    problems = []
    if bound < simulated:
        problems.append(f"{label}: bound {bound} below simulated "
                        f"{simulated} cycles")
    if expected is not None and bound != expected:
        problems.append(f"{label}: bound {bound} != expected {expected}")
    return problems


#: Phases both timing models of one request share: the first model's
#: row owns them, later rows see them as hits.
SHARED_PHASES = ("cfg", "value", "loopbounds", "icache", "dcache")


def serve_record_problems(record: dict, expected_bounds: Dict[str, int],
                          simulated: Dict[str, int]) -> List[str]:
    """Check one finished serve request: status, per-phase provenance
    of its edit class, and per-model bounds against the cold oracle and
    the simulated cycles under the same timing model."""
    label = record["label"]
    if record["status"] != "done":
        return [f"{label}: status {record['status']}: "
                f"{record.get('error')}"]
    problems = []
    models = [row["model"] for row in record["rows"]]
    if models != list(expected_bounds):
        problems.append(f"{label}: rows for {models}")
    for index, row in enumerate(record["rows"]):
        expected = dict(EXPECTED_EVENTS[record["edit"]])
        if index > 0:
            expected.update({phase: "hit" for phase in SHARED_PHASES})
        events = row["cache"]["events"]
        if events != expected:
            problems.append(f"{label}/{row['model']}: events {events}")
        problems.extend(bound_problems(
            f"{label}/{row['model']}", row["wcet_cycles"],
            simulated.get(row["model"], 0),
            expected_bounds.get(row["model"])))
    return problems


def self_test() -> int:
    """Run each gate on a correct output (a one-point sweep, a one-cell
    task-set sweep, recorded bounds), then on a tampered reference
    value; return 0 iff every gate passes the first and trips on the
    second."""
    outcomes = []

    def expect(name: str, problems: Sequence[str], trips: bool) -> None:
        ok = bool(problems) == trips
        outcomes.append(ok)
        verdict = "trips" if problems else "passes"
        print(f"  {'ok  ' if ok else 'FAIL'} {name}: gate {verdict}"
              + (f" ({problems[0]})" if problems else ""))

    golden = load_golden(GOLDEN_BOUNDS)
    (row,) = sweep_suite("fibcall:full:additive").rows
    expect("suite_sweep, golden bounds", suite_row_problems(row, golden),
           trips=False)
    tampered = copy.deepcopy(golden)
    tampered["fibcall"]["full"]["additive"] += 1
    expect("suite_sweep, tampered golden bound",
           suite_row_problems(row, tampered), trips=True)

    rta_golden = load_rta_golden(GOLDEN_RTA)
    (cell,) = sweep_taskset(EXAMPLE_TASKSETS["ecu_mix"],
                            orderings=("given",), geometries=("16x2x16",))
    expect("rta_sweep, golden verdicts", rta_row_problems(cell, rta_golden),
           trips=False)
    tampered = copy.deepcopy(rta_golden)
    responses = tampered["ecu_mix|given|16x2x16"]["responses"]
    first = sorted(responses)[0]
    responses[first] += 1
    expect("rta_sweep, tampered golden response",
           rta_row_problems(cell, tampered), trips=True)

    expect("large_task, reference bound",
           bound_problems("large", 40425, 22746, expected=40425),
           trips=False)
    expect("large_task, tampered reference bound",
           bound_problems("large", 40425, 22746, expected=40424),
           trips=True)
    expect("large_task, bound below simulation",
           bound_problems("large", 40425, 40426), trips=True)

    record = {"label": "fibcall-hit-1", "edit": "hit", "status": "done",
              "rows": [{"model": "additive", "wcet_cycles": 446,
                        "cache": {"events": EXPECTED_EVENTS["hit"]}}]}
    simulated = {"additive": 436}
    expect("serve_edits, cold oracle bound",
           serve_record_problems(record, {"additive": 446}, simulated),
           trips=False)
    expect("serve_edits, tampered oracle bound",
           serve_record_problems(record, {"additive": 445}, simulated),
           trips=True)
    record["edit"] = "recompute"
    expect("serve_edits, wrong edit provenance",
           serve_record_problems(record, {"additive": 446}, simulated),
           trips=True)

    passed = sum(outcomes)
    print(f"self-test: {passed}/{len(outcomes)} gate checks as expected")
    return 0 if passed == len(outcomes) else 1
