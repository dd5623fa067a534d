"""Phase-DAG scheduler tests: construction, dedup, determinism,
failure handling, and eviction robustness.

The batch engine schedules parallel sweeps as a deduplicated DAG of
phase tasks (:mod:`repro.batch.dag` + :mod:`repro.batch.scheduler`).
These tests pin the properties the ISSUE demands: structural dedup
counts, cycle rejection, deterministic ready-queue ordering,
byte-identical rows at every worker count (modulo timing fields),
error rows instead of crashes when tasks or whole workers die, and
recomputation (not failure) when a cached artifact vanishes under a
bounded store.
"""

import copy
import glob
import os
import time

import pytest

from repro import faults
from repro.batch import (ArtifactCache, DAGCycleError, JobSpec, TaskDAG,
                         build_sweep_dag, clear_process_caches,
                         compare_rows, expand_matrix, load_golden,
                         run_sweep)
from repro.batch import scheduler as dag_scheduler
from repro.wcet.ait import PHASES

SMALL_MATRIX = "fibcall,bs:full,vivu:additive,krisc5"
#: Includes janne, whose discover-then-annotate prefix produces a
#: non-empty manual-bound mapping (bs's discovery finds every loop
#: already bounded), so the annotate task chain is really exercised.
ANNOTATED_MATRIX = "fibcall,bs,janne:full,klimited:additive,krisc5"
GOLDEN = os.path.join(os.path.dirname(__file__), "golden_bounds.json")


def strip_timing(rows):
    stripped = []
    for row in copy.deepcopy(rows):
        row.pop("wall_seconds", None)
        row.pop("phase_seconds", None)
        row.pop("compile_seconds", None)
        stripped.append(row)
    return stripped


# -- DAG construction ------------------------------------------------------------


class TestDAGConstruction:
    def test_dedup_counts_small_matrix(self):
        # 8 jobs x 7 phases + bs's 2 discovery prefixes (cfg/value/
        # loopbounds + annotate, one per policy) = 72 references; the
        # models share every pre-pipeline artifact and bs/full shares
        # its cfg+value with its own discovery prefix -> 38 tasks.
        sweep = build_sweep_dag(expand_matrix(SMALL_MATRIX))
        assert sweep.stats() == {"phase_refs": 72, "unique_tasks": 38,
                                 "deduped_tasks": 34}
        assert not sweep.build_errors

    def test_models_share_all_pre_pipeline_tasks(self):
        jobs = expand_matrix("fibcall:full:additive,krisc5")
        sweep = build_sweep_dag(jobs)
        additive, krisc5 = sweep.job_phase_nodes
        for phase in ("cfg", "value", "loopbounds", "icache", "dcache"):
            assert additive[phase] is krisc5[phase]
        for phase in ("pipeline", "path"):
            assert additive[phase] is not krisc5[phase]

    def test_policies_share_only_the_program(self):
        # Different context policies expand different graphs: no phase
        # tasks in common (the compiled Program is shared worker-side).
        jobs = expand_matrix("fibcall:full,vivu:additive")
        sweep = build_sweep_dag(jobs)
        full, vivu = sweep.job_phase_nodes
        assert all(full[phase] is not vivu[phase] for phase in PHASES)

    def test_annotated_workload_has_discovery_prefix(self):
        sweep = build_sweep_dag(expand_matrix("janne:vivu:additive"))
        labels = {node.template for node in sweep.dag.nodes}
        assert {"discover:cfg", "discover:value",
                "discover:loopbounds", "annotate"} <= labels
        loopbounds = sweep.job_phase_nodes[0]["loopbounds"]
        assert "annotate" in {dep.template for dep in loopbounds.deps}

    def test_row_per_job_never_deduped(self):
        jobs = expand_matrix(SMALL_MATRIX)
        sweep = build_sweep_dag(jobs)
        rows = [node for node in sweep.dag.nodes if node.kind == "row"]
        assert len(rows) == len(jobs)

    def test_unplannable_job_becomes_build_error(self):
        jobs = [JobSpec("no-such-workload", "full", "additive"),
                JobSpec("fibcall", "full", "additive"),
                JobSpec("fibcall", "full", "warp9")]
        sweep = build_sweep_dag(jobs)
        assert set(sweep.build_errors) == {0, 2}
        assert sweep.row_nodes[0] is None
        assert sweep.row_nodes[1] is not None
        assert "warp9" in sweep.build_errors[2]

    def test_cycle_rejection(self):
        dag = TaskDAG()
        spec = JobSpec("fibcall", "full", "additive")
        a = dag.add_node(("a",), "a", "phase", spec, "a")
        b = dag.add_node(("b",), "b", "phase", spec, "b", deps=[a])
        dag.add_edge(b, a)            # back edge: a <-> b
        with pytest.raises(DAGCycleError):
            dag.validate()
        with pytest.raises(DAGCycleError):
            dag.start()

    def test_sweep_dag_is_acyclic(self):
        build_sweep_dag(expand_matrix(ANNOTATED_MATRIX)).dag.validate()

    def test_ready_queue_orders_by_build_index(self):
        dag = TaskDAG()
        spec = JobSpec("fibcall", "full", "additive")
        roots = [dag.add_node((name,), name, "phase", spec, name)
                 for name in ("r0", "r1", "r2")]
        child = dag.add_node(("c",), "c", "phase", spec, "c",
                             deps=roots)
        ready = dag.start()
        assert [node.label for node in ready] == ["r0", "r1", "r2"]
        # Completing out of order still releases the child exactly once
        # all dependencies are done.
        assert dag.complete(roots[2]) == []
        assert dag.complete(roots[0]) == []
        assert dag.complete(roots[1]) == [child]

    def test_failure_cascades_to_transitive_dependents(self):
        dag = TaskDAG()
        spec = JobSpec("fibcall", "full", "additive")
        a = dag.add_node(("a",), "a", "phase", spec, "a")
        b = dag.add_node(("b",), "b", "phase", spec, "b", deps=[a])
        c = dag.add_node(("c",), "c", "row", spec, "row", deps=[b])
        unaffected = dag.add_node(("d",), "d", "phase", spec, "d")
        dag.start()
        failed = dag.fail(a, "boom")
        assert {node.label for node in failed} == {"a", "b", "c"}
        assert unaffected.state != "failed"
        assert "boom" in c.error


# -- Determinism across worker counts --------------------------------------------


class TestSchedulerDeterminism:
    def test_rows_identical_at_every_worker_count(self):
        golden = load_golden(GOLDEN)
        jobs = expand_matrix(ANNOTATED_MATRIX)
        rows_by_workers = {}
        for workers in (1, 2, 4, 8):
            clear_process_caches()
            result = run_sweep(jobs, parallel=workers)
            assert result.errors == []
            assert compare_rows(result.rows, golden) == []
            rows_by_workers[workers] = strip_timing(result.rows)
        reference = rows_by_workers[1]
        for workers in (2, 4, 8):
            assert rows_by_workers[workers] == reference, \
                f"rows diverged at {workers} workers"

    def test_scheduler_stats_account_for_every_task(self):
        jobs = expand_matrix(SMALL_MATRIX)
        expected = build_sweep_dag(jobs).stats()
        clear_process_caches()
        result = run_sweep(jobs, parallel=2)
        stats = result.scheduler
        assert stats["workers"] == 2
        for key, value in expected.items():
            assert stats[key] == value
        assert stats["computed_tasks"] + stats["cache_served_tasks"] \
            == stats["unique_tasks"]
        assert stats["deduped_tasks"] > 0
        assert 0 < sum(stats["worker_busy_fraction"].values())

    def test_jobs_1_and_2_report_equal_dag_stats(self):
        # --jobs 1 is the same DAG on the inline backend, so the dedup
        # counts (and --min-dedup / --min-retries) mean the same there.
        jobs = expand_matrix("fibcall:full:additive,krisc5")
        stats = {}
        for workers in (1, 2):
            clear_process_caches()
            stats[workers] = run_sweep(jobs, parallel=workers).scheduler
            assert stats[workers]["workers"] == workers
        keys = ("phase_refs", "unique_tasks", "deduped_tasks")
        assert [stats[1][key] for key in keys] == [14, 9, 5]
        assert [stats[2][key] for key in keys] == [14, 9, 5]

    def test_no_cache_sweep_matches_golden_and_still_dedups(self):
        # --no-cache means no store, not a degraded DAG: the pool still
        # shares tasks across jobs (through a temporary spill store),
        # and rows record no cache provenance.
        jobs = expand_matrix(SMALL_MATRIX)
        assert build_sweep_dag(jobs, use_cache=False).stats() \
            == build_sweep_dag(jobs).stats()
        clear_process_caches()
        result = run_sweep(jobs, parallel=2, use_cache=False)
        assert result.errors == []
        assert compare_rows(result.rows, load_golden(GOLDEN)) == []
        assert all(row["cache"] == {"events": {}, "hits": 0, "misses": 0}
                   for row in result.rows)
        assert result.scheduler["deduped_tasks"] == 34

    def test_warm_shared_cache_dir_serves_everything(self, tmp_path):
        jobs = expand_matrix(SMALL_MATRIX)
        clear_process_caches()
        run_sweep(jobs, parallel=2, cache_dir=str(tmp_path))
        clear_process_caches()
        warm = run_sweep(jobs, parallel=2, cache_dir=str(tmp_path))
        assert warm.hit_ratio() == 1.0
        assert warm.scheduler["computed_tasks"] == 0


# -- Timing fields ---------------------------------------------------------------


class TestTimingFields:
    @pytest.mark.parametrize("executor", ["jobs1", "jobs2", "serve"])
    def test_rows_report_the_producing_task_seconds(self, executor,
                                                    monkeypatch, tmp_path):
        # Under every executor a row's phase seconds are the seconds of
        # the task that produced the artifact (compute plus store on a
        # miss), not of fetching it: both models share one value task,
        # so both rows report its compute.
        from repro.wcet import ait
        real = ait.analyze_values

        def slow_values(*args, **kwargs):
            time.sleep(0.05)
            return real(*args, **kwargs)

        monkeypatch.setattr(ait, "analyze_values", slow_values)
        clear_process_caches()
        if executor == "serve":
            from repro.serve import AnalysisService
            from repro.workloads.suite import get_workload
            service = AnalysisService(cache_dir=str(tmp_path), workers=1)
            try:
                job_id = service.submit({
                    "source": get_workload("matmult").source,
                    "models": ["additive", "krisc5"]})
                deadline = time.monotonic() + 120
                while service.job(job_id)["status"] in ("pending",
                                                         "running"):
                    assert time.monotonic() < deadline, "job stuck"
                    time.sleep(0.01)
                record = service.job(job_id)
            finally:
                service.close()
            assert record["status"] == "done", record.get("error")
            rows = record["rows"]
        else:
            if executor == "jobs2" \
                    and dag_scheduler._pool_context() is None:
                pytest.skip("needs fork start method")
            rows = run_sweep(expand_matrix("matmult:full:additive,krisc5"),
                             parallel=1 if executor == "jobs1" else 2,
                             cache_dir=str(tmp_path)).rows
        assert [row["cache"]["events"]["value"] for row in rows] \
            == ["miss", "hit"]
        for row in rows:
            assert row["phase_seconds"]["value"] >= 0.05, row
        # The additive row owns the value task, so its wall clock
        # includes it; the krisc5 row owns only pipeline and path.
        assert rows[0]["wall_seconds"] >= 0.05
        assert rows[1]["wall_seconds"] < rows[0]["wall_seconds"]


# -- Failure handling ------------------------------------------------------------


class TestFailureHandling:
    def test_failing_job_yields_error_row_not_crash(self, monkeypatch):
        from repro.workloads import suite
        broken = suite.Workload(name="broken-kernel",
                                description="uncompilable", category="x",
                                source="int main( {")
        monkeypatch.setitem(suite.WORKLOADS, broken.name, broken)
        jobs = [JobSpec(broken.name, "full", "additive"),
                JobSpec("fibcall", "full", "additive")]
        clear_process_caches()
        result = run_sweep(jobs, parallel=2)
        assert "error" in result.rows[0]
        assert result.rows[1]["wcet_cycles"] == 418
        assert len(result.errors) == 1
        assert "broken-kernel" in result.errors[0]

    def test_task_exceptions_travel_as_error_payloads(self):
        # Tasks never raise across the result pipe: an exception class
        # that does not survive a pickle round-trip would otherwise
        # break the *pool* (parent-side unpickling fails and every
        # in-flight job dies), not just the task.
        outcome = dag_scheduler._pool_task(
            (JobSpec("fibcall", "full", "additive"), "no-such-phase",
             None, None, None, None))
        assert "KeyError" in outcome["error"]
        assert "row" not in outcome

    def test_lang_errors_survive_pickle_round_trip(self):
        import pickle
        from repro.lang.lexer import LexerError
        from repro.lang.parser import ParseError
        for cls in (ParseError, LexerError):
            err = pickle.loads(pickle.dumps(cls("boom", 3)))
            assert err.line == 3
            assert str(err) == "line 3: boom"

    def test_worker_death_degrades_to_complete_rows(self, monkeypatch):
        # Every worker task kills its worker (rate 1.0): the scheduler
        # rebuilds the pool up to its budget, then degrades to
        # in-process execution — every row still completes with the
        # golden bound instead of becoming an error row.
        if dag_scheduler._pool_context() is None:
            pytest.skip("needs fork start method")
        monkeypatch.setenv(faults.ENV_FAULTS, "worker_kill:1.0")
        faults.reset()
        try:
            jobs = expand_matrix("fibcall:full:additive,krisc5")
            clear_process_caches()
            result = run_sweep(jobs, parallel=2, max_pool_rebuilds=1)
        finally:
            faults.reset()
        assert result.errors == []
        assert compare_rows(result.rows, load_golden(GOLDEN)) == []
        stats = result.scheduler
        assert stats["pool_rebuilds"] == 1
        assert stats["degraded_tasks"] > 0
        assert stats["retries"] > 0

    def test_error_past_retry_budget_reports_attempt_count(
            self, monkeypatch):
        # A deterministic task error burns the whole retry budget and
        # the error row says how often the task was tried.
        from repro.workloads import suite
        broken = suite.Workload(name="broken-kernel",
                                description="uncompilable", category="x",
                                source="int main( {")
        monkeypatch.setitem(suite.WORKLOADS, broken.name, broken)
        jobs = [JobSpec(broken.name, "full", "additive")]
        clear_process_caches()
        result = run_sweep(jobs, parallel=2, max_task_retries=1)
        assert len(result.errors) == 1
        assert "task failed 2 times" in result.errors[0]
        assert result.scheduler["retries"] == 1


# -- Eviction robustness ---------------------------------------------------------


class TestEvictionRobustness:
    def test_vanished_objects_are_recomputed(self, tmp_path):
        jobs = expand_matrix(SMALL_MATRIX)
        golden = load_golden(GOLDEN)
        clear_process_caches()
        run_sweep(jobs, parallel=2, cache_dir=str(tmp_path))
        for path in glob.glob(str(tmp_path / "objects" / "*" / "*.pkl")):
            os.unlink(path)           # simulates eviction by a peer
        clear_process_caches()
        result = run_sweep(jobs, parallel=2, cache_dir=str(tmp_path))
        assert result.errors == []
        assert compare_rows(result.rows, golden) == []

    def test_sweep_survives_constant_eviction(self, tmp_path):
        # A store far too small for even one workload's artifacts:
        # workers continuously evict under each other and must
        # recompute transitively instead of raising.
        jobs = expand_matrix(SMALL_MATRIX)
        golden = load_golden(GOLDEN)
        clear_process_caches()
        result = run_sweep(jobs, parallel=2, cache_dir=str(tmp_path),
                           cache_limit_mb=0.01)
        assert result.errors == []
        assert compare_rows(result.rows, golden) == []

    def test_store_never_evicts_just_written_object(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), salt="s", limit_bytes=1)
        key = cache.key("m")
        cache.store(key, list(range(1000)))
        assert os.path.exists(cache._object_path(key))

    def test_lookup_freshens_mtime_for_lru_eviction(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), salt="s")
        key = cache.key("m")
        cache.store(key, "value")
        path = cache._object_path(key)
        os.utime(path, (1, 1))
        fresh = ArtifactCache(str(tmp_path), salt="s")  # cold memo
        hit, _ = fresh.lookup(key)
        assert hit
        assert os.stat(path).st_mtime > 1
