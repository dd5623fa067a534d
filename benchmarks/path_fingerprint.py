"""Print what path analysis decided on every golden point.

One JSON line per point: the 114 ``tests/golden_bounds.json`` matrix
points, then the large synthetic point under all three policies and
both timing models.  Each line holds the bound, the LP relaxation
optimum, integrality, the LP/ILP work counters and a digest of the
witness's node and edge counts.  Run it on two checkouts and diff the
outputs to show a path-analysis change is neutral::

    PYTHONPATH=src python benchmarks/path_fingerprint.py > after.jsonl
    diff before.jsonl after.jsonl

The counters are deterministic, so any difference is a real change.
The last line (to stderr) counts golden-bound mismatches.  The output
is committed as ``benchmarks/path_fingerprint.jsonl``, and CI diffs a
fresh run against it.
"""

import hashlib
import json
import os
import sys

from repro.batch import load_golden
from repro.cache.config import PIPELINE_MODELS
from repro.cfg.contexts import parse_policy
from repro.lang import compile_program
from repro.wcet import analyze_wcet
from repro.workloads.suite import analyze_workload, get_workload
from repro.workloads.synthetic import generate_large_source

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "tests", "golden_bounds.json")
COUNTERS = ("pivots", "phase1_pivots", "bland_pivots", "bb_nodes")


def _digest(counts) -> str:
    text = repr(sorted((repr(key), count) for key, count in counts.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fingerprint(point: str, result) -> dict:
    stats = vars(result.solver_stats["path"])
    witness = result.path.path
    return {"point": point, "bound": result.wcet_cycles,
            "lp_bound": result.path.lp_bound,
            "integral": result.path.integral,
            **{name: stats[name] for name in COUNTERS},
            "executed_nodes": len(witness.node_counts),
            "node_counts": _digest(witness.node_counts),
            "edge_counts": _digest(witness.edge_counts)}


def main() -> int:
    golden = load_golden(GOLDEN_PATH)
    mismatches = 0
    for workload, policies in sorted(golden.items()):
        for policy, models in policies.items():
            for model, bound in models.items():
                result = analyze_workload(get_workload(workload),
                                          context_policy=parse_policy(policy),
                                          pipeline_model=model)
                mismatches += result.wcet_cycles != bound
                print(json.dumps(fingerprint(
                    f"{workload}/{policy}/{model}", result)), flush=True)
    program = compile_program(generate_large_source())
    for policy in ("full", "klimited", "vivu"):
        for model in PIPELINE_MODELS:
            result = analyze_wcet(program, context_policy=parse_policy(policy),
                                  pipeline_model=model)
            print(json.dumps(fingerprint(f"large/{policy}/{model}", result)),
                  flush=True)
    print(f"{mismatches} golden-bound mismatches", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
