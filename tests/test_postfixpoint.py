"""Every fixpoint the analysis computes is an inductive invariant.

:func:`repro.analysis.fixpoint.check_postfixpoint` checks an entry map
without replaying the iteration that produced it: the map must cover
the task entry state and every state its own transfers send along a
feasible edge (the post-fixpoint condition of Cousot & Cousot).  This
module runs the check on

* the E8 loop-pattern corpus and four E2 kernels (value analysis),
* every point of the 19 suite workloads x {full, klimited, vivu}: the
  value, I-cache and D-cache fixpoints and the krisc5 pipeline state
  sets,
* the large synthetic point's value fixpoint,

and makes sure the check catches corrupted entry states.  The value
check transfers instruction by instruction (``transfer_block``), not
through the compiled block closures the analysis ran; the cache and
pipeline checks solve each phase's fixpoint from the phase's own
inputs and check it under that phase's own semantics.  Both domain
implementations are covered: the default one here, the pure-python one
by running this module under ``REPRO_DOMAIN_IMPL=python``.
"""

import pytest

from repro.analysis import analyze_values
from repro.analysis.fixpoint import Violation, check_postfixpoint
from repro.analysis.solver import _ValueSemantics
from repro.batch import ALL_POLICIES
from repro.cache.analysis import (CacheFixpoint, _CacheSemantics,
                                  dcache_access_specs, icache_access_specs)
from repro.cfg import build_cfg, expand_task
from repro.cfg.contexts import parse_policy
from repro.isa.registers import SP
from repro.lang import compile_program
from repro.pipeline.analysis import (Krisc5PipelineAnalysis,
                                     _PipelineSemantics)
from repro.pipeline.states import PipeStateSet
from repro.workloads.suite import (analyze_workload, get_workload,
                                   workload_names)
from repro.workloads.synthetic import generate_large_source


def value_violations(graph, values):
    fixpoint = values.fixpoint
    return check_postfixpoint(_ValueSemantics(graph), graph,
                              fixpoint.task_entry_state,
                              fixpoint.entry_states)


def cache_violations(graph, config, specs, impl):
    fixpoint = CacheFixpoint(graph, config, specs, impl=impl)
    return check_postfixpoint(_CacheSemantics(fixpoint), graph,
                              fixpoint.cold_state(), fixpoint.solve())


def pipeline_violations(result):
    analysis = Krisc5PipelineAnalysis(result.graph, result.config,
                                      result.icache, result.dcache)
    entry = PipeStateSet.initial(result.config.pipeline_state_cap)
    return check_postfixpoint(_PipelineSemantics(analysis), result.graph,
                              entry, analysis.solve())


# -- E2/E8 program families ----------------------------------------------------

# The E8 loop-pattern corpus (benchmarks/test_e8_loop_bounds.py).
E8_SOURCES = {
    "count_up": """
int r; void main() { int i; int n = 0;
for (i = 0; i < 40; i = i + 1) { n = n + i; } r = n; }""",
    "count_down": """
int r; void main() { int i = 40; int n = 0;
while (i > 0) { n = n + i; i = i - 1; } r = n; }""",
    "stepped": """
int r; void main() { int i; int n = 0;
for (i = 0; i < 40; i = i + 3) { n = n + 1; } r = n; }""",
    "doubling": """
int r; void main() { int i = 1; int n = 0;
while (i < 256) { i = i << 1; n = n + 1; } r = n; }""",
    "nested": """
int r; void main() { int i; int j; int n = 0;
for (i = 0; i < 10; i = i + 1) {
    for (j = 0; j < 5; j = j + 1) { n = n + 1; } }
r = n; }""",
}

# Representative E2 kernels (benchmarks/test_e2_value_precision.py).
E2_KERNELS = ("fibcall", "insertsort", "bs", "crc")


@pytest.mark.parametrize("name", sorted(E8_SOURCES))
def test_e8_programs(name):
    graph = expand_task(build_cfg(compile_program(E8_SOURCES[name])))
    assert value_violations(graph, analyze_values(graph)) == []


@pytest.mark.parametrize("name", E2_KERNELS)
def test_e2_kernels(name):
    graph = expand_task(build_cfg(get_workload(name).compile()))
    assert value_violations(graph, analyze_values(graph)) == []


# -- The suite and the large point ---------------------------------------------


@pytest.mark.parametrize("workload,policy", [
    (workload, policy) for workload in workload_names()
    for policy in ALL_POLICIES])
def test_suite_point_fixpoints_are_inductive(workload, policy):
    result = analyze_workload(get_workload(workload),
                              context_policy=parse_policy(policy),
                              pipeline_model="krisc5")
    graph, config, impl = result.graph, result.config, result.domain_impl
    assert value_violations(graph, result.values) == []
    assert cache_violations(graph, config.icache,
                            icache_access_specs(graph, config.icache),
                            impl) == []
    assert cache_violations(graph, config.dcache,
                            dcache_access_specs(graph, config.dcache,
                                                result.values),
                            impl) == []
    assert pipeline_violations(result) == []


def test_large_point_value_fixpoint_is_inductive():
    graph = expand_task(build_cfg(compile_program(generate_large_source())))
    assert value_violations(graph, analyze_values(graph)) == []


# -- The check catches what is wrong -------------------------------------------


def _narrowed_states(fixpoint):
    """Per reached node, its entry state with the first register that
    is neither top nor constant narrowed to its lower bound."""
    for node, state in fixpoint.entry_states.items():
        if state.is_bottom():
            continue
        for reg in range(16):
            value = state.get(reg)
            if value.is_top() or value.as_constant() is not None:
                continue
            narrowed = state.copy()
            narrowed.refine_register(
                reg, state.domain.const(value.signed_bounds()[0]))
            yield node, narrowed
            break


def test_check_flags_every_narrowed_entry_state():
    corrupted = flagged = 0
    for name in ("bs", "fibcall", "matmult", "crc", "insertsort"):
        graph = expand_task(build_cfg(get_workload(name).compile()))
        fixpoint = analyze_values(graph).fixpoint
        semantics = _ValueSemantics(graph)
        for node, narrowed in _narrowed_states(fixpoint):
            entries = dict(fixpoint.entry_states)
            entries[node] = narrowed
            corrupted += 1
            flagged += bool(check_postfixpoint(
                semantics, graph, fixpoint.task_entry_state, entries))
    # 23 states have a register to narrow; a precision change that
    # moves this count should be looked at, not absorbed.
    assert (corrupted, flagged) == (23, 23)


def test_check_names_the_failed_obligation():
    graph = expand_task(build_cfg(compile_program(E8_SOURCES["count_up"])))
    fixpoint = analyze_values(graph).fixpoint
    entry = fixpoint.task_entry_state
    semantics = _ValueSemantics(graph)
    # An entry state the map does not cover fails the entry obligation.
    wider = entry.copy()
    wider.set(SP, entry.domain.top())
    assert Violation(graph.entry) in check_postfixpoint(
        semantics, graph, wider, fixpoint.entry_states)
    # A reached node missing from the map fails the feasible edges
    # into it.
    missing = graph.exit_nodes()[0]
    entries = dict(fixpoint.entry_states)
    del entries[missing]
    violations = check_postfixpoint(semantics, graph, entry, entries)
    assert violations
    assert all(violation.node == missing and violation.edge.target == missing
               for violation in violations)
