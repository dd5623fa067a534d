"""Multi-task response-time analysis with CRPD: task-set model,
UCB/ECB analysis, the RTA recurrence on the shared fixpoint kernel,
the preemptive-simulation oracle (S7/S8), and schedulability sweeps.
"""

import json
import os
from dataclasses import replace

import pytest

from repro.batch.cachestore import ArtifactCache
from repro.cache.config import CacheConfig, MachineConfig
from repro.isa import DATA_BASE, assemble
from repro.rta import (CacheUCB, ORDERINGS, RTTask, TaskSet, analyze_taskset,
                       can_preempt, crpd_extra_misses, extra_miss_bound,
                       footprint_of, full_refill_cycles, load_taskset,
                       parse_taskset, response_times, solve_recurrence,
                       verify_taskset)
from repro.rta.sweep import (GEOMETRIES, compare_with_golden, config_for,
                             load_golden, parse_geometry, rows_to_golden,
                             save_golden, sweep_taskset)
from repro.rta.ucb import TOP
from repro.sim import Simulator, run_program
from repro.verify.checker import (VerificationReport, check_preempted_run,
                                  verify_preemption)
from repro.wcet import analyze_wcet
from repro.workloads.tasksets import EXAMPLE_TASKSETS, example_tasksets

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
TASKSETS_DIR = os.path.join(os.path.dirname(TESTS_DIR), "tasksets")
GOLDEN_PATH = os.path.join(TESTS_DIR, "golden_rta.json")


# ---------------------------------------------------------------------------
# Task-set model and JSON parsing.


class TestTaskSetModel:
    def test_defaults_and_effective_attributes(self):
        task = RTTask(name="t", workload="fibcall", priority=2,
                      period=1000)
        assert task.effective_threshold == 2
        assert task.effective_deadline == 1000
        explicit = RTTask(name="t", workload="fibcall", priority=2,
                          period=1000, threshold=5, deadline=800)
        assert explicit.effective_threshold == 5
        assert explicit.effective_deadline == 800

    def test_invalid_tasks_rejected(self):
        with pytest.raises(ValueError):
            RTTask(name="", workload="w", priority=1, period=10)
        with pytest.raises(ValueError):
            RTTask(name="t", workload="w", priority=1, period=0)
        with pytest.raises(ValueError):
            RTTask(name="t", workload="w", priority=1, period=10,
                   jitter=-1)
        with pytest.raises(ValueError):
            RTTask(name="t", workload="w", priority=3, period=10,
                   threshold=2)
        with pytest.raises(ValueError):
            RTTask(name="t", workload="w", priority=1, period=10,
                   deadline=0)

    def test_invalid_task_sets_rejected(self):
        task = RTTask(name="t", workload="w", priority=1, period=10)
        with pytest.raises(ValueError):
            TaskSet(name="s", tasks=())
        with pytest.raises(ValueError):
            TaskSet(name="s", tasks=(task, task))
        with pytest.raises(ValueError):
            TaskSet(name="s", tasks=(task,), context_switch_cycles=-1)

    def test_threshold_rule_matches_stack_analysis(self):
        lo = RTTask(name="lo", workload="w", priority=1, period=10,
                    threshold=3)
        mid = RTTask(name="mid", workload="w", priority=2, period=10)
        hi = RTTask(name="hi", workload="w", priority=4, period=10)
        assert not can_preempt(mid, lo)      # 2 <= threshold 3
        assert can_preempt(hi, lo)           # 4 > 3
        assert not can_preempt(lo, hi)
        taskset = TaskSet(name="s", tasks=(lo, mid, hi))
        assert [t.name for t in taskset.preemptors_of(lo)] == ["hi"]
        assert [t.name for t in taskset.preemptors_of(mid)] == ["hi"]
        assert taskset.preemptors_of(hi) == []

    def test_reordered_orderings(self):
        taskset = TaskSet(name="s", tasks=(
            RTTask(name="slowest", workload="w", priority=3,
                   period=900),
            RTTask(name="fastest", workload="w", priority=1,
                   period=100),
        ))
        assert taskset.reordered("given") is taskset
        rm = taskset.reordered("rate_monotonic")
        assert rm.task("fastest").priority > rm.task("slowest").priority
        rev = taskset.reordered("reverse")
        assert rev.task("fastest").priority > rev.task("slowest").priority
        with pytest.raises(ValueError):
            taskset.reordered("alphabetical")

    def test_reordering_resets_thresholds(self):
        taskset = TaskSet(name="s", tasks=(
            RTTask(name="a", workload="w", priority=2, threshold=9,
                   period=100),
            RTTask(name="b", workload="w", priority=1, period=300),
        ))
        rm = taskset.reordered("rate_monotonic")
        assert rm.task("a").threshold is None

    def test_parse_taskset_roundtrip(self):
        payload = {
            "name": "demo",
            "context_switch_cycles": 12,
            "tasks": [
                {"name": "a", "workload": "fibcall", "priority": 2,
                 "period": 5000, "jitter": 10},
                {"name": "b", "workload": "bs", "priority": 1,
                 "period": 9000, "threshold": 2, "deadline": 8000},
            ],
        }
        taskset = parse_taskset(payload)
        assert taskset.name == "demo"
        assert taskset.context_switch_cycles == 12
        assert taskset.task("a").jitter == 10
        assert taskset.task("b").threshold == 2
        assert taskset.task("b").effective_deadline == 8000

    def test_parse_taskset_rejects_malformed_payloads(self):
        good_task = {"name": "a", "workload": "w", "priority": 1,
                     "period": 10}
        with pytest.raises(ValueError):
            parse_taskset([])
        with pytest.raises(ValueError):
            parse_taskset({"tasks": [good_task]})
        with pytest.raises(ValueError):
            parse_taskset({"name": "s", "tasks": []})
        with pytest.raises(ValueError):
            parse_taskset({"name": "s", "tasks": ["nope"]})
        with pytest.raises(ValueError):
            parse_taskset({"name": "s",
                           "tasks": [{**good_task, "wcet": 5}]})
        with pytest.raises(ValueError):
            parse_taskset({"name": "s",
                           "tasks": [{"name": "a", "priority": 1,
                                      "period": 10}]})

    @pytest.mark.parametrize("top, task, named", [
        ({"bogus": 1}, {}, "bogus"),
        ({}, {"workload": "nosuch"}, "tasks[1].workload"),
        ({}, {"priority": "x"}, "tasks[1].priority"),
        ({}, {"priority": True}, "tasks[1].priority"),
        ({}, {"period": 1000.7}, "tasks[1].period"),
        ({}, {"jitter": None}, "tasks[1].jitter"),
        ({}, {"deadline": "8000"}, "tasks[1].deadline"),
        ({}, {"name": 7}, "tasks[1].name"),
        ({"context_switch_cycles": 4.5}, {}, "context_switch_cycles"),
    ], ids=["unknown-key", "unknown-workload", "string-priority",
            "boolean-priority", "fractional-period", "null-jitter",
            "string-deadline", "numeric-name", "fractional-switch-cost"])
    def test_parse_taskset_error_names_the_field(self, top, task, named):
        good = {"name": "a", "workload": "fibcall", "priority": 2,
                "period": 5000}
        payload = {"name": "s", **top,
                   "tasks": [good, {**good, "name": "b", **task}]}
        with pytest.raises(ValueError) as error:
            parse_taskset(payload)
        assert named in str(error.value)

    def test_load_taskset_fixture_matches_python_example(self):
        # tasksets/ecu_mix.json documents the JSON shape; it must stay
        # in sync with the canonical Python definition.
        loaded = load_taskset(os.path.join(TASKSETS_DIR, "ecu_mix.json"))
        assert loaded == EXAMPLE_TASKSETS["ecu_mix"]

    def test_load_taskset_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_taskset(str(path))


# ---------------------------------------------------------------------------
# UCB/ECB analysis against hand-computed sets.
#
# Default cache geometry: 16 sets x 2 ways x 16-byte lines, so the
# data word at DATA_BASE=0x8000 is line 2048 (set 0), and 0x8010 is
# line 2049 (set 1).

VICTIM_RELOAD = """
main:
    LDA R1, buf
    LDR R2, [R1]
    LDR R3, [R1]
    HALT
.data
buf: .word 7
"""

PREEMPTOR_SAME_SET = """
main:
    LDA R1, buf
    LDR R2, [R1]
    HALT
.data
buf: .word 1
"""

PREEMPTOR_OTHER_SET = """
main:
    LDA R1, buf
    LDR R2, [R1]
    HALT
.data
pad0: .word 0
pad1: .word 0
pad2: .word 0
pad3: .word 0
buf: .word 1
"""


def footprint(source, config=None):
    program = assemble(source)
    return program, footprint_of(analyze_wcet(program, config=config))


class TestUCBAnalysis:
    def test_dcache_ucb_and_ecb_hand_computed(self):
        _, fp = footprint(VICTIM_RELOAD)
        line = DATA_BASE // 16                      # 2048
        # ECB: the one data line the task touches, known precisely.
        assert fp.dcache.ecb == frozenset({line})
        assert not fp.dcache.ecb_unknown
        # UCB points: before the first load nothing useful is cached;
        # between the loads the line is cached AND reused; after the
        # second load nothing is live any more.
        assert set(fp.dcache.points) == {frozenset(),
                                         frozenset({line})}

    def test_icache_ecb_covers_exactly_the_fetched_lines(self):
        program, fp = footprint(VICTIM_RELOAD)
        text = program.text
        expected = {address // 16
                    for address in range(text.base, text.end, 4)}
        assert fp.icache.ecb == frozenset(expected)
        assert not fp.icache.ecb_unknown

    def test_same_set_preemptor_gets_budget_one(self):
        _, victim = footprint(VICTIM_RELOAD)
        _, preemptor = footprint(PREEMPTOR_SAME_SET)
        # Preemptor data line 2048 lands in set 0, where the victim
        # keeps exactly one useful block.
        assert extra_miss_bound(victim.dcache, preemptor.dcache) == 1

    def test_disjoint_set_preemptor_gets_budget_zero(self):
        _, victim = footprint(VICTIM_RELOAD)
        _, preemptor = footprint(PREEMPTOR_OTHER_SET)
        # Preemptor data (0x8010, set 1) never touches the victim's
        # useful set 0: no preemption can cost the victim a data miss.
        assert preemptor.dcache.ecb == frozenset({DATA_BASE // 16 + 1})
        assert extra_miss_bound(victim.dcache, preemptor.dcache) == 0


class TestExtraMissBound:
    CFG = CacheConfig(num_sets=4, associativity=2, line_size=16)

    def ucb(self, points=(), ecb=(), unknown=False, config=None):
        return CacheUCB(config=config or self.CFG,
                        points=tuple(points), ecb=frozenset(ecb),
                        ecb_unknown=unknown)

    def test_per_set_clip_at_associativity(self):
        # Three useful lines all in set 0 of a 2-way cache: one
        # preemption can only age out two of them.
        victim = self.ucb(points=[frozenset({0, 4, 8})])
        preemptor = self.ucb(ecb={0})
        assert extra_miss_bound(victim, preemptor) == 2

    def test_untouched_sets_cost_nothing(self):
        victim = self.ucb(points=[frozenset({0, 4, 8})])
        preemptor = self.ucb(ecb={1})               # set 1 only
        assert extra_miss_bound(victim, preemptor) == 0
        assert extra_miss_bound(victim, self.ucb(ecb=())) == 0

    def test_top_point_counts_touched_sets_times_ways(self):
        victim = self.ucb(points=[TOP])
        preemptor = self.ucb(ecb={0, 1})
        assert extra_miss_bound(victim, preemptor) == 2 * 2

    def test_unknown_ecb_touches_every_set(self):
        victim = self.ucb(points=[TOP])
        preemptor = self.ucb(unknown=True)
        assert extra_miss_bound(victim, preemptor) == 4 * 2
        # ... but a precise victim still clips per set.
        precise = self.ucb(points=[frozenset({0, 1})])
        assert extra_miss_bound(precise, preemptor) == 2

    def test_maximum_over_points(self):
        victim = self.ucb(points=[frozenset(), frozenset({0}),
                                  frozenset({0, 4})])
        preemptor = self.ucb(ecb={0})
        assert extra_miss_bound(victim, preemptor) == 2

    def test_geometry_mismatch_rejected(self):
        other = CacheConfig(num_sets=8, associativity=2, line_size=16)
        with pytest.raises(ValueError, match="geometries"):
            extra_miss_bound(self.ucb(), self.ucb(config=other))

    def test_full_refill_reference(self):
        assert full_refill_cycles(self.CFG, self.CFG) == \
            2 * (10 * 4 * 2)


# ---------------------------------------------------------------------------
# The RTA recurrence: convergence, divergence, closed-form checks.


def two_tasks(cs=0, jitter=0, lo_threshold=None, hi_period=10,
              lo_period=100):
    return TaskSet(name="synthetic", context_switch_cycles=cs, tasks=(
        RTTask(name="hi", workload="w", priority=2, period=hi_period,
               jitter=jitter),
        RTTask(name="lo", workload="w", priority=1, period=lo_period,
               threshold=lo_threshold),
    ))


WCETS = {"hi": 2, "lo": 4}
CRPD = {("lo", "hi"): 1}


def response_of(responses, name):
    (match,) = [r for r in responses if r.name == name]
    return match


class TestSolveRecurrence:
    def test_constant_recurrence_converges_immediately(self):
        value, iterations = solve_recurrence(1, lambda r: 5, limit=10)
        assert value == 5
        assert iterations >= 1

    def test_divergent_recurrence_saturates_not_loops(self):
        value, iterations = solve_recurrence(1, lambda r: r + 1,
                                             limit=100)
        assert value is None
        assert iterations <= 110

    def test_start_beyond_limit_is_unschedulable(self):
        value, _ = solve_recurrence(200, lambda r: r, limit=100)
        assert value is None


class TestResponseTimes:
    def test_closed_form_with_crpd(self):
        # R_lo = 4 + ceil(R/10) * (2 + 1) -> 7.
        responses = response_times(two_tasks(), WCETS, CRPD)
        assert response_of(responses, "hi").response == 2
        assert response_of(responses, "lo").response == 7
        assert response_of(responses, "lo").crpd == {"hi": 1}
        assert response_of(responses, "lo").naive_response is None

    def test_jitter_adds_arrivals(self):
        # R_lo = 4 + ceil((R+5)/10) * 3 -> 10 (two arrivals).
        responses = response_times(two_tasks(jitter=5), WCETS, CRPD)
        assert response_of(responses, "lo").response == 10

    def test_context_switch_charged_per_arrival(self):
        # R_lo = 4 + ceil(R/10) * (2 + 1 + 2) -> 9.
        responses = response_times(two_tasks(cs=2), WCETS, CRPD)
        assert response_of(responses, "lo").response == 9

    def test_naive_reference_solved_alongside(self):
        # Naive gamma 5: R_lo = 4 + ceil(R/10) * 7 -> 18.
        responses = response_times(two_tasks(), WCETS, CRPD,
                                   naive_crpd=5)
        lo = response_of(responses, "lo")
        assert lo.response == 7
        assert lo.naive_response == 18
        assert lo.naive_iterations >= 1

    def test_threshold_blocks_preemption_entirely(self):
        responses = response_times(two_tasks(lo_threshold=2), WCETS,
                                   CRPD)
        lo = response_of(responses, "lo")
        assert lo.response == lo.wcet_cycles == 4
        assert lo.crpd == {}

    def test_overutilization_diverges_to_unschedulable(self):
        # hi: C=2 every 3; lo: C=4 every 5 -> utilization > 1.
        taskset = two_tasks(hi_period=3, lo_period=5)
        responses = response_times(taskset, WCETS, CRPD)
        lo = response_of(responses, "lo")
        assert lo.response is None
        assert not lo.schedulable
        assert lo.iterations <= 50          # saturated, not spinning


# ---------------------------------------------------------------------------
# Preemptive simulation: the instruction-boundary hook itself.

STRAIGHT_LINE = """
main:
    LDA R1, buf
    MOVI R0, #5
    STR R0, [R1]
    LDR R2, [R1]
    ADD R0, R0, R2
    MUL R0, R0, R0
    HALT
.data
buf: .word 0
"""

EMPTY_TASK = """
main:
    HALT
"""


class TestPreemptiveSimulator:
    @pytest.mark.parametrize("model", ["additive", "krisc5"])
    def test_empty_preemptor_differential(self, model):
        # With an (almost) empty preemptor the preempted run must be
        # the solo run plus exactly the preemptor's own cycles: same
        # architectural results, same task-attributed cache events.
        config = replace(MachineConfig.default(), pipeline_model=model)
        program = assemble(STRAIGHT_LINE)
        empty = assemble(EMPTY_TASK)
        solo = run_program(program, config=config)
        simulator = Simulator(program, config=config)
        result = simulator.run_preemptive(
            [(solo.steps // 2, empty)])
        assert result.halted
        assert result.registers == solo.registers
        assert result.steps == solo.steps
        assert len(result.preemptions) == 1
        record = result.preemptions[0]
        assert record.cycles > 0
        assert result.cycles == solo.cycles + record.cycles
        assert result.task_cycles == solo.cycles
        assert result.task_fetch_misses == solo.fetch_misses
        assert result.task_data_misses == solo.data_misses

    def test_multiple_preemptions_and_past_halt_scheduling(self):
        program = assemble(STRAIGHT_LINE)
        empty = assemble(EMPTY_TASK)
        simulator = Simulator(program)
        result = simulator.run_preemptive(
            [(2, empty), (2, empty), (10 ** 9, empty)])
        # Both step-2 preemptions fire back to back; the one scheduled
        # past HALT never does.
        assert len(result.preemptions) == 2
        assert result.preemptions[0].step == result.preemptions[1].step
        solo = run_program(program)
        assert result.registers == solo.registers

    def test_preemptor_evictions_stay_within_crpd_budget(self):
        # 1-way D-cache: the preemptor's load of 0x8100 (line 2064,
        # set 0) evicts the victim's useful line 2048 when injected
        # between the victim's two loads — exactly one extra miss,
        # exactly the analyzed budget.
        data = "\n".join(f"w{i}: .word 0" for i in range(65))
        evictor_source = f"""
main:
    LDA R1, w64
    LDR R2, [R1]
    HALT
.data
{data}
"""
        config = replace(
            MachineConfig.default(),
            dcache=CacheConfig(num_sets=16, associativity=1,
                               line_size=16, miss_penalty=10))
        victim_prog, victim_fp = footprint(VICTIM_RELOAD, config)
        evictor_prog, evictor_fp = footprint(evictor_source, config)
        _, data_budget = crpd_extra_misses(victim_fp, evictor_fp)
        assert data_budget == 1
        solo = run_program(victim_prog, config=config)
        worst_extra = 0
        for step in range(solo.steps):
            simulator = Simulator(victim_prog, config=config)
            result = simulator.run_preemptive([(step, evictor_prog)])
            extra = result.task_data_misses - solo.data_misses
            assert extra <= data_budget
            worst_extra = max(worst_extra, extra)
        # The budget is tight: some injection point realises it.
        assert worst_extra == data_budget


class TestPreemptionChecker:
    def test_s7_violation_reported(self):
        program = assemble(STRAIGHT_LINE)
        empty = assemble(EMPTY_TASK)
        report = verify_preemption(program, empty, response_bound=1)
        assert not report.ok
        assert all(v.kind == "S7" for v in report.violations)

    def test_s8_violation_reported(self):
        solo = run_program(assemble(STRAIGHT_LINE))
        preempted = Simulator(assemble(STRAIGHT_LINE)).run_preemptive(
            [(2, assemble(EMPTY_TASK))])
        report = VerificationReport()
        # A negative budget is unsatisfiable: the checker must flag it
        # even though the run caused no extra misses.
        check_preempted_run(preempted, solo, response_bound=None,
                            fetch_miss_budget=-1, data_miss_budget=-1,
                            report=report)
        assert len(report.violations) == 2
        assert all(v.kind == "S8" for v in report.violations)

    def test_sound_pair_passes(self):
        program = assemble(STRAIGHT_LINE)
        empty = assemble(EMPTY_TASK)
        solo = run_program(program)
        report = verify_preemption(
            program, empty,
            response_bound=solo.cycles + 10_000,
            fetch_miss_budget=2, data_miss_budget=2)
        assert report.ok
        assert report.runs == 3


# ---------------------------------------------------------------------------
# End-to-end: the example task sets, S7/S8, and CRPD tightness.


@pytest.fixture(scope="module")
def analyzed_examples():
    cache = ArtifactCache()
    return {taskset.name: analyze_taskset(taskset, cache=cache)
            for taskset in example_tasksets()}


class TestExampleTaskSets:
    def test_schedulable_sets_are_schedulable(self, analyzed_examples):
        for name in ("ecu_mix", "sensor_fusion", "control_stack",
                     "threshold_group"):
            assert analyzed_examples[name].schedulable, name

    def test_overload_is_unschedulable_with_finite_iterations(
            self, analyzed_examples):
        result = analyzed_examples["overload"]
        assert not result.schedulable
        for response in result.responses:
            assert response.iterations <= 100

    def test_threshold_group_degenerates_to_wcet(self,
                                                 analyzed_examples):
        result = analyzed_examples["threshold_group"]
        for response in result.responses:
            assert response.response == response.wcet_cycles
            assert response.crpd == {}

    def test_crpd_strictly_tighter_than_naive_on_three_sets(
            self, analyzed_examples):
        # Acceptance criterion: RTA with CRPD beats the naive
        # full-cache-refill bound on at least 3 task sets.
        tighter_sets = 0
        for name in ("ecu_mix", "sensor_fusion", "control_stack"):
            result = analyzed_examples[name]
            preempted = [r for r in result.responses if r.crpd]
            assert preempted, name
            assert all(r.response <= r.naive_response
                       for r in preempted), name
            if any(r.response < r.naive_response for r in preempted):
                tighter_sets += 1
        assert tighter_sets >= 3

    def test_per_pair_crpd_never_exceeds_full_refill(
            self, analyzed_examples):
        for result in analyzed_examples.values():
            for response in result.responses:
                for cost in response.crpd.values():
                    assert 0 <= cost <= result.naive_crpd_cycles

    def test_s7_s8_hold_on_every_task_set(self, analyzed_examples):
        # Acceptance criterion: the preemptive-simulation oracle finds
        # no violation on any example task set.
        report = VerificationReport()
        for result in analyzed_examples.values():
            verify_taskset(result, report=report)
        assert report.ok, [str(v) for v in report.violations]
        assert report.runs > 0

    def test_wcets_dedup_through_the_shared_cache(self):
        cache = ArtifactCache()
        first = analyze_taskset(EXAMPLE_TASKSETS["ecu_mix"],
                                cache=cache)
        assert first.cache_misses > 0
        again = analyze_taskset(EXAMPLE_TASKSETS["ecu_mix"],
                                cache=cache)
        assert again.cache_misses == 0
        assert [r.response for r in again.responses] == \
            [r.response for r in first.responses]


# ---------------------------------------------------------------------------
# Sweeps and golden verdicts.


class TestSweep:
    def test_parse_geometry(self):
        config = parse_geometry("4x2x16")
        assert (config.num_sets, config.associativity,
                config.line_size) == (4, 2, 16)
        with pytest.raises(ValueError):
            parse_geometry("4x2")
        with pytest.raises(ValueError):
            parse_geometry("4x2xbig")

    def test_config_for_sets_both_caches(self):
        config = config_for("4x1x8")
        for cache in (config.icache, config.dcache):
            assert (cache.num_sets, cache.associativity,
                    cache.line_size) == (4, 1, 8)
        # Unrelated machine parameters survive.
        assert config.pipeline_model == \
            MachineConfig.default().pipeline_model

    def test_sweep_matches_golden_verdicts(self):
        # The overload cells of the checked-in golden file, recomputed
        # from the JSON fixture: verdicts must be bit-identical.
        taskset = load_taskset(
            os.path.join(TASKSETS_DIR, "overload.json"))
        rows = sweep_taskset(taskset, cache=ArtifactCache())
        assert len(rows) == len(ORDERINGS) * len(GEOMETRIES)
        problems = compare_with_golden(rows, load_golden(GOLDEN_PATH))
        assert problems == []

    def test_golden_roundtrip_and_mismatch_reporting(self, tmp_path):
        rows = [{
            "taskset": "s", "ordering": "given", "geometry": "4x2x16",
            "schedulable": True,
            "tasks": [{"task": "a", "response": 7}],
        }]
        path = tmp_path / "golden.json"
        save_golden(str(path), rows)
        golden = load_golden(str(path))
        assert compare_with_golden(rows, golden) == []
        flipped = json.loads(json.dumps(rows))
        flipped[0]["schedulable"] = False
        flipped[0]["tasks"][0]["response"] = None
        problems = compare_with_golden(flipped, golden)
        assert len(problems) == 2
        missing = compare_with_golden(
            [{**rows[0], "ordering": "reverse"}], golden)
        assert missing == ["s|reverse|4x2x16: no golden verdict"]
        # A second save merges: the first save's cell stays pinned.
        other = [{**rows[0], "geometry": "8x2x16"}]
        save_golden(str(path), other)
        merged = load_golden(str(path))
        assert sorted(merged) == ["s|given|4x2x16", "s|given|8x2x16"]
        assert compare_with_golden(rows + other, merged) == []

    def test_golden_file_covers_the_fixture_sweep(self):
        golden = load_golden(GOLDEN_PATH)
        for name in ("ecu_mix", "overload"):
            for ordering in ORDERINGS:
                for geometry in GEOMETRIES:
                    assert f"{name}|{ordering}|{geometry}" in golden

    def test_sweep_compiles_each_workload_once(self, monkeypatch):
        # A process compiles each workload once, however many cells and
        # task sets bind it: one sweep of the example task sets
        # compiles their five distinct workloads, not one per cell.
        from repro.batch import clear_process_caches
        from repro.workloads import suite
        compiled = []
        compile_program = suite.compile_program

        def counted(source, *args, **kwargs):
            compiled.append(source)
            return compile_program(source, *args, **kwargs)

        monkeypatch.setattr(suite, "compile_program", counted)
        clear_process_caches()
        cache = ArtifactCache()
        for taskset in example_tasksets():
            sweep_taskset(taskset, cache=cache)
        workloads = {task.workload for taskset in example_tasksets()
                     for task in taskset.tasks}
        assert len(workloads) == 5
        assert len(compiled) == len(set(compiled)) == 5
