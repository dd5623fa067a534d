"""Analysis determinism: the property the parallel sweep relies on.

The batch engine assumes that analyzing the same (program, config,
policy, model) point always produces the same artifacts — in any
process, under any hash seed, in any job order.  These tests pin that
down: the same workload analyzed twice in-process, and once in a
subprocess with a *different* ``PYTHONHASHSEED``, must yield an
identical bound, identical classification counts, and an identical
text report (modulo wall-clock lines).
"""

import json
import os
import subprocess
import sys

from repro.cfg.contexts import parse_policy
from repro.report import wcet_report
from repro.workloads.suite import analyze_workload, get_workload

#: A workload exercising calls, loops, manual annotations, and input
#: memory ranges, analyzed under the most machinery (VIVU + krisc5).
WORKLOAD = "bs"
POLICY = "vivu@1"
MODEL = "krisc5"

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SUBPROCESS_SCRIPT = """
import json, sys
from repro.cfg.contexts import parse_policy
from repro.report import wcet_report
from repro.workloads.suite import analyze_workload, get_workload

result = analyze_workload(get_workload(%(workload)r),
                          context_policy=parse_policy(%(policy)r),
                          pipeline_model=%(model)r)
report = "\\n".join(line for line in wcet_report(result).splitlines()
                    if " ms" not in line)
json.dump({
    "bound": result.wcet_cycles,
    "icache": [result.icache.stats.always_hit,
               result.icache.stats.always_miss,
               result.icache.stats.persistent,
               result.icache.stats.not_classified],
    "dcache": [result.dcache.stats.always_hit,
               result.dcache.stats.always_miss,
               result.dcache.stats.persistent,
               result.dcache.stats.not_classified],
    "report": report,
}, sys.stdout)
"""


def _analyze():
    return analyze_workload(get_workload(WORKLOAD),
                            context_policy=parse_policy(POLICY),
                            pipeline_model=MODEL)


def _summary(result):
    report = "\n".join(line for line in wcet_report(result).splitlines()
                       if " ms" not in line)
    return {
        "bound": result.wcet_cycles,
        "icache": [result.icache.stats.always_hit,
                   result.icache.stats.always_miss,
                   result.icache.stats.persistent,
                   result.icache.stats.not_classified],
        "dcache": [result.dcache.stats.always_hit,
                   result.dcache.stats.always_miss,
                   result.dcache.stats.persistent,
                   result.dcache.stats.not_classified],
        "report": report,
    }


def test_repeated_in_process_analysis_is_identical():
    first = _summary(_analyze())
    second = _summary(_analyze())
    assert first == second


def test_subprocess_with_different_hash_seed_is_identical():
    in_process = _summary(_analyze())

    current_seed = os.environ.get("PYTHONHASHSEED")
    seed = "4242" if current_seed != "4242" else "2424"
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    script = _SUBPROCESS_SCRIPT % {
        "workload": WORKLOAD, "policy": POLICY, "model": MODEL}
    completed = subprocess.run(
        [sys.executable, "-c", script], env=env, cwd=REPO_ROOT,
        capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    subprocess_summary = json.loads(completed.stdout)

    assert subprocess_summary == in_process
