"""Chaos suite: fault injection across the scheduler, cache, and serve.

Drives :mod:`repro.faults` through every injection site and pins the
PR's robustness contract: under injected worker kills, artifact
corruption, and full disks a sweep still completes **every** row with
bit-identical golden bounds (degrading to redundant work, never to a
wrong or missing result), the serve daemon cancels and times out jobs
cooperatively, and a journalled server answers for finished jobs
across a SIGKILL restart.
"""

import glob
import os
import re
import subprocess
import sys
import threading
import time

import pytest

from repro import faults
from repro.batch import (ArtifactCache, clear_process_caches,
                         compare_rows, expand_matrix, load_golden,
                         run_sweep)
from repro.batch import scheduler as dag_scheduler
from repro.serve import AnalysisService, ValidationError
from repro.serve import client as serve_client
from repro.serve.journal import TERMINAL_STATUSES, JobJournal

SMALL_MATRIX = "fibcall,bs:full,vivu:additive,krisc5"
GOLDEN = os.path.join(os.path.dirname(__file__), "golden_bounds.json")

QUICK = """
int result;

void main() {
    int i;
    int acc = 0;
    for (i = 0; i < 4; i = i + 1) {
        acc = acc + i;
    }
    result = acc;
}
"""

def _slow_source(functions=16, trips=16):
    """A program whose full x vivu / additive x krisc5 matrix takes
    on the order of a second to analyse — long enough that a job is
    reliably still in flight when a test cancels it or kills the
    server under it."""
    parts = ["int result;"]
    calls = []
    for n in range(functions):
        parts.append(f"""
int f{n}(int x) {{
    int i;
    int j;
    int acc = 0;
    for (i = 0; i < {trips}; i = i + 1) {{
        for (j = 0; j < {trips}; j = j + 1) {{
            if (acc > x) {{ acc = acc - j; }}
            else {{ acc = acc + i + x; }}
        }}
    }}
    return acc;
}}""")
        calls.append(f"    result = result + f{n}(result);")
    parts.append("void main() {\n" + "\n".join(calls) + "\n}")
    return "\n".join(parts)


#: Slow enough that a job is reliably still running when the test
#: cancels it / kills the server under it.
SLOW = _slow_source()

SLOW_MATRIX = {"source": SLOW, "policies": ["full", "vivu"],
               "models": ["additive", "krisc5"], "label": "slow"}


@pytest.fixture
def fault_env(monkeypatch):
    """Activate a $REPRO_FAULTS spec for one test, cleanly."""
    def activate(spec, seed=0):
        monkeypatch.setenv(faults.ENV_FAULTS, spec)
        monkeypatch.setenv(faults.ENV_SEED, str(seed))
        faults.reset()
    yield activate
    faults.reset()


def wait_terminal(service, job_id, timeout=180.0):
    deadline = time.monotonic() + timeout
    while True:
        record = service.job(job_id)
        if record["status"] in TERMINAL_STATUSES:
            return record
        assert time.monotonic() < deadline, f"job {job_id} stuck"
        time.sleep(0.01)


# ---------------------------------------------------------------------------
# Fault-plan parsing and determinism.


class TestFaultPlan:
    def test_parse_spec(self):
        plan = faults.parse_faults(
            "worker_kill:0.2, corrupt_artifact:0.1,slow_task:0")
        assert plan.rates == {"worker_kill": 0.2,
                              "corrupt_artifact": 0.1,
                              "slow_task": 0.0}

    @pytest.mark.parametrize("spec", [
        "worker_kill",                  # no rate
        "frobnicate:0.5",               # unknown kind
        "worker_kill:maybe",            # not a number
        "worker_kill:1.5",              # out of range
        "disk_full:-0.1",
    ])
    def test_bad_specs_fail_loudly(self, spec):
        with pytest.raises(ValueError):
            faults.parse_faults(spec)

    def test_rolls_are_deterministic_per_seed(self):
        first = faults.FaultPlan({"worker_kill": 0.3}, seed=7)
        second = faults.FaultPlan({"worker_kill": 0.3}, seed=7)
        rolls = [first.should("worker_kill") for _ in range(64)]
        assert rolls == [second.should("worker_kill")
                         for _ in range(64)]
        assert first.injected["worker_kill"] == sum(rolls) > 0

    def test_zero_rate_never_fires(self):
        plan = faults.FaultPlan({"worker_kill": 0.0})
        assert not any(plan.should("worker_kill") for _ in range(100))

    def test_active_plan_follows_env(self, fault_env):
        fault_env("slow_task:0.5", seed=3)
        plan = faults.active_plan()
        assert plan.rates == {"slow_task": 0.5}
        assert plan.seed == 3
        assert faults.active_plan() is plan       # memoised
        faults.reset()
        assert faults.active_plan() is not plan

    def test_no_env_means_no_plan(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_FAULTS, raising=False)
        faults.reset()
        assert faults.active_plan() is None
        # All site hooks are no-ops without a plan.
        faults.worker_task_started()
        faults.check_disk_full()
        assert faults.corrupt_payload(b"payload") == b"payload"


# ---------------------------------------------------------------------------
# Cache quarantining.


class TestQuarantine:
    def test_corrupt_object_is_quarantined_and_recomputed(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), salt="s")
        key = cache.key("material")
        cache.store(key, {"bound": 418})
        path = cache._object_path(key)
        with open(path, "r+b") as handle:    # truncate mid-pickle
            handle.truncate(os.path.getsize(path) // 2)

        cold = ArtifactCache(str(tmp_path), salt="s")
        hit, value = cold.lookup(key)
        assert not hit and value is None
        assert cold.quarantined == 1
        assert not os.path.exists(path)
        quarantined = glob.glob(str(tmp_path / "quarantine" / "*.pkl"))
        assert len(quarantined) == 1
        # The slot is free again: a recomputed artifact stores and
        # serves normally.
        cold.store(key, {"bound": 418})
        fresh = ArtifactCache(str(tmp_path), salt="s")
        hit, value = fresh.lookup(key)
        assert hit and value == {"bound": 418}
        assert fresh.quarantined == 0

    def test_vanished_object_is_a_plain_miss_not_quarantine(
            self, tmp_path):
        cache = ArtifactCache(str(tmp_path), salt="s")
        key = cache.key("material")
        cache.store(key, "value")
        os.unlink(cache._object_path(key))
        cold = ArtifactCache(str(tmp_path), salt="s")
        hit, _ = cold.lookup(key)
        assert not hit
        assert cold.quarantined == 0


# ---------------------------------------------------------------------------
# Scheduler rebuild / degraded chaos.  All of these must end with
# complete rows and golden bounds — faults cost work, not results.


class TestSchedulerChaos:
    @pytest.fixture(autouse=True)
    def _fork_only(self):
        if dag_scheduler._pool_context() is None:
            pytest.skip("needs fork start method")

    def test_worker_kill_chaos_completes_with_golden_bounds(
            self, fault_env):
        fault_env("worker_kill:0.3")
        jobs = expand_matrix(SMALL_MATRIX)
        clear_process_caches()
        result = run_sweep(jobs, parallel=2)
        assert result.errors == []
        assert compare_rows(result.rows, load_golden(GOLDEN)) == []
        stats = result.scheduler
        assert stats["retries"] > 0
        assert stats["pool_rebuilds"] > 0

    def test_corruption_chaos_quarantines_and_stays_golden(
            self, fault_env, tmp_path):
        fault_env("corrupt_artifact:0.5")
        jobs = expand_matrix(SMALL_MATRIX)
        golden = load_golden(GOLDEN)
        clear_process_caches()
        first = run_sweep(jobs, parallel=2, cache_dir=str(tmp_path))
        assert first.errors == []
        assert compare_rows(first.rows, golden) == []
        # The corruption only bites on *cold* reads: a second sweep
        # with fresh worker memos hits the truncated disk objects,
        # quarantines them, and recomputes to the same bounds.
        clear_process_caches()
        second = run_sweep(jobs, parallel=2, cache_dir=str(tmp_path))
        assert second.errors == []
        assert compare_rows(second.rows, golden) == []
        assert second.scheduler["quarantined"] > 0
        assert glob.glob(str(tmp_path / "quarantine" / "*.pkl"))

    def test_disk_full_chaos_degrades_to_uncached(self, fault_env,
                                                  tmp_path):
        fault_env("disk_full:0.3")
        jobs = expand_matrix(SMALL_MATRIX)
        clear_process_caches()
        result = run_sweep(jobs, parallel=2, cache_dir=str(tmp_path))
        assert result.errors == []
        assert compare_rows(result.rows, load_golden(GOLDEN)) == []


# ---------------------------------------------------------------------------
# Serve: cancellation, deadlines, bounded job table.


class TestServeLifecycle:
    def test_pending_and_running_jobs_cancel(self, tmp_path):
        service = AnalysisService(cache_dir=str(tmp_path / "cache"),
                                  workers=1)
        try:
            slow_id = service.submit(SLOW_MATRIX)
            quick_id = service.submit({"source": QUICK})
            # quick is queued behind slow on the single worker: the
            # cancel wins before it ever starts.
            record = service.cancel(quick_id)
            assert record["cancel_requested"]
            # slow is mid-analysis: the cooperative check between
            # phase tasks picks the cancel up.
            service.cancel(slow_id)
            assert wait_terminal(service, slow_id)["status"] \
                == "cancelled"
            assert wait_terminal(service, quick_id)["status"] \
                == "cancelled"
            # Cancelling a finished job never un-finishes it.
            done_id = service.submit({"source": QUICK})
            wait_terminal(service, done_id)
            record = service.cancel(done_id)
            assert record["status"] == "done"
            assert "cancel_requested" not in record
            assert service.cancel("job-999") is None
        finally:
            service.close()

    def test_deadline_expires_into_timeout_status(self, tmp_path):
        service = AnalysisService(cache_dir=str(tmp_path / "cache"),
                                  workers=1)
        try:
            job_id = service.submit({"source": QUICK,
                                     "timeout_seconds": 1e-9})
            record = wait_terminal(service, job_id)
            assert record["status"] == "timeout"
            assert "deadline" in record["error"]
            # The same request without a deadline completes.
            ok = service.submit({"source": QUICK})
            assert wait_terminal(service, ok)["status"] == "done"
        finally:
            service.close()

    @pytest.mark.parametrize("value", [0, -1, True, "5", [5]])
    def test_bad_timeout_seconds_rejected(self, value):
        with pytest.raises(ValidationError):
            from repro.serve import AnalysisRequest
            AnalysisRequest({"source": QUICK, "timeout_seconds": value})

    def test_job_table_is_a_bounded_lru(self, tmp_path):
        service = AnalysisService(cache_dir=str(tmp_path / "cache"),
                                  workers=1, max_jobs=3)
        try:
            ids = []
            for index in range(5):
                job_id = service.submit({"source": QUICK,
                                         "label": f"lru-{index}"})
                ids.append(job_id)
                wait_terminal(service, job_id)
            stats = service.stats()["jobs"]
            assert stats["total"] <= 3
            assert stats["jobs_evicted"] >= 2
            assert service.job(ids[0]) is None       # evicted
            assert service.job(ids[-1])["status"] == "done"
        finally:
            service.close()

    def test_stats_count_new_statuses(self, tmp_path):
        service = AnalysisService(cache_dir=str(tmp_path / "cache"),
                                  workers=1)
        try:
            job_id = service.submit({"source": QUICK,
                                     "timeout_seconds": 1e-9})
            wait_terminal(service, job_id)
            jobs = service.stats()["jobs"]
            for status in ("cancelled", "timeout", "interrupted"):
                assert status in jobs
            assert jobs["timeout"] == 1
            assert "quarantined" in service.stats()["cache"]
        finally:
            service.close()


# ---------------------------------------------------------------------------
# Journal: replay semantics.


class TestJournal:
    def test_replay_folds_transitions(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.append({"id": "job-1", "status": "pending",
                        "label": "x"})
        journal.append({"id": "job-1", "status": "running"})
        journal.append({"id": "job-1", "status": "done",
                        "rows": [{"wcet_cycles": 418}]})
        journal.close()
        records, last_id = JobJournal(str(tmp_path)).replay()
        assert last_id == 1
        assert records["job-1"]["status"] == "done"
        assert records["job-1"]["label"] == "x"
        assert records["job-1"]["rows"] == [{"wcet_cycles": 418}]

    def test_torn_final_line_is_skipped(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.append({"id": "job-1", "status": "pending"})
        journal.append({"id": "job-1", "status": "done"})
        journal.close()
        with open(journal.path, "a") as handle:
            handle.write('{"id": "job-2", "status": "don')   # torn
        records, last_id = JobJournal(str(tmp_path)).replay()
        assert records["job-1"]["status"] == "done"
        assert "job-2" not in records
        assert last_id == 1

    def test_record_after_torn_line_survives_reopen(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.append({"id": "job-1", "status": "done"})
        journal.close()
        with open(journal.path, "a") as handle:
            handle.write('{"id": "job-2", "status": "pen')   # torn
        reopened = JobJournal(str(tmp_path))
        reopened.append({"id": "job-3", "status": "pending",
                         "label": "edit"})
        reopened.append({"id": "job-3", "status": "done"})
        reopened.close()
        records, last_id = JobJournal(str(tmp_path)).replay()
        assert records["job-3"] == {"id": "job-3", "status": "done",
                                    "label": "edit"}
        assert "job-2" not in records
        assert last_id == 3

    def test_nonterminal_jobs_replay_as_interrupted(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.append({"id": "job-1", "status": "pending"})
        journal.append({"id": "job-2", "status": "pending"})
        journal.append({"id": "job-2", "status": "running"})
        journal.append({"id": "job-3", "status": "done"})
        journal.close()
        records, last_id = JobJournal(str(tmp_path)).replay()
        assert last_id == 3
        assert records["job-1"]["status"] == "interrupted"
        assert records["job-2"]["status"] == "interrupted"
        assert records["job-3"]["status"] == "done"

    def test_service_restart_replays_and_resumes_numbering(
            self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        cache_dir = str(tmp_path / "cache")
        first = AnalysisService(cache_dir=cache_dir, workers=1,
                                journal_dir=journal_dir)
        try:
            job_id = first.submit({"source": QUICK, "label": "before"})
            service_record = wait_terminal(first, job_id)
        finally:
            first.close()
        # Simulate a job the crash caught in flight.
        JobJournal(journal_dir).append({"id": "job-9",
                                        "status": "running"})

        second = AnalysisService(cache_dir=cache_dir, workers=1,
                                 journal_dir=journal_dir)
        try:
            replayed = second.job(job_id)
            assert replayed["status"] == "done"
            assert replayed["replayed"] is True
            assert replayed["rows"] == service_record["rows"]
            assert second.job("job-9")["status"] == "interrupted"
            assert second.jobs_interrupted == 1
            # Numbering resumes past everything replayed.
            next_id = second.submit({"source": QUICK, "label": "after"})
            assert next_id == "job-10"
            assert wait_terminal(second, next_id)["status"] == "done"
        finally:
            second.close()
        # A third replay sees the interrupted verdict directly (it was
        # re-journaled, not re-inferred).
        records, _ = JobJournal(journal_dir).replay()
        assert records["job-9"]["status"] == "interrupted"


# ---------------------------------------------------------------------------
# Full-process crash: SIGKILL the server, restart on the same journal.


def _boot_server(journal_dir, cache_dir):
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                       "..", "src"))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(faults.ENV_FAULTS, None)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "1", "--journal", journal_dir,
         "--cache-dir", cache_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env=env, text=True)
    banner = process.stdout.readline()
    match = re.search(r"http://([\d.]+):(\d+)", banner)
    assert match, f"no listen banner: {banner!r}"
    return process, f"http://{match.group(1)}:{match.group(2)}"


class TestCrashRestart:
    def test_sigkill_restart_answers_from_journal(self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        cache_dir = str(tmp_path / "cache")

        process, url = _boot_server(journal_dir, cache_dir)
        try:
            done_id = serve_client.submit(url, {"source": QUICK,
                                                "label": "finished"})
            done_record = serve_client.poll(url, done_id, timeout=120)
            assert done_record["status"] == "done"
            # A slow job is still in flight when the server dies.
            doomed_id = serve_client.submit(url, SLOW_MATRIX)
        finally:
            process.kill()              # SIGKILL: no shutdown hooks
            process.wait(timeout=30)
            process.stdout.close()

        process, url = _boot_server(journal_dir, cache_dir)
        try:
            replayed = serve_client.poll(url, done_id, timeout=30)
            assert replayed["status"] == "done"
            # Bit-identical answer straight from the journal.
            assert replayed["rows"] == done_record["rows"]
            assert replayed["replayed"] is True
            doomed = serve_client.poll(url, doomed_id, timeout=30)
            assert doomed["status"] == "interrupted"
            assert "restarted" in doomed["error"]
            # The restarted server is fully serviceable and numbers
            # past the replayed ids.
            fresh_id = serve_client.submit(url, {"source": QUICK,
                                                 "label": "fresh"})
            assert int(fresh_id.split("-")[1]) > \
                int(doomed_id.split("-")[1])
            fresh = serve_client.poll(url, fresh_id, timeout=120)
            assert fresh["status"] == "done"
            assert fresh["rows"][0]["wcet_cycles"] \
                == done_record["rows"][0]["wcet_cycles"]
            stats = serve_client.server_stats(url)
            assert stats["jobs"]["interrupted"] == 1
        finally:
            process.kill()
            process.wait(timeout=30)
            process.stdout.close()


# ---------------------------------------------------------------------------
# Client: backoff polling and abandoning expired jobs.


class _FakeClock:
    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


class TestClientBackoff:
    def test_poll_backs_off_exponentially_with_cap(self, monkeypatch):
        clock = _FakeClock()
        monkeypatch.setattr(serve_client.time, "monotonic",
                            clock.monotonic)
        monkeypatch.setattr(serve_client.time, "sleep", clock.sleep)
        monkeypatch.setattr(
            serve_client, "_request",
            lambda url, payload=None, timeout=30.0, method=None:
            {"status": "pending"})
        with pytest.raises(TimeoutError):
            serve_client.poll("http://x", "job-1", timeout=30.0)
        assert clock.sleeps, "poll never slept"
        # Grows from the base interval...
        assert clock.sleeps[0] <= serve_client.POLL_BASE_SECONDS
        assert max(clock.sleeps) > 10 * clock.sleeps[0]
        # ...but never past the cap (jitter only shrinks a wait).
        assert all(wait <= serve_client.POLL_CAP_SECONDS
                   for wait in clock.sleeps)
        # Far fewer requests than fixed-interval polling would make.
        assert len(clock.sleeps) < 30.0 / 0.05

    def test_poll_returns_on_any_terminal_status(self, monkeypatch):
        for status in sorted(TERMINAL_STATUSES):
            monkeypatch.setattr(
                serve_client, "_request",
                lambda url, payload=None, timeout=30.0, method=None,
                status=status: {"status": status})
            record = serve_client.poll("http://x", "job-1", timeout=1)
            assert record["status"] == status

    def test_analyze_cancels_after_client_timeout(self, monkeypatch):
        cancelled = []
        monkeypatch.setattr(serve_client, "submit",
                            lambda url, payload, timeout=30.0: "job-7")

        def never_finishes(url, job_id, timeout=300.0, interval=0.05):
            raise TimeoutError("deadline")

        monkeypatch.setattr(serve_client, "poll", never_finishes)
        monkeypatch.setattr(serve_client, "cancel",
                            lambda url, job_id, timeout=30.0:
                            cancelled.append(job_id))
        with pytest.raises(TimeoutError):
            serve_client.analyze("http://x", {"source": QUICK},
                                 timeout=0.01)
        assert cancelled == ["job-7"]


# ---------------------------------------------------------------------------
# HTTP DELETE end to end (in-process server).


class TestHTTPCancel:
    def test_delete_cancels_over_http(self, tmp_path):
        service = AnalysisService(cache_dir=str(tmp_path / "cache"),
                                  workers=1)
        from repro.serve import AnalysisServer
        httpd = AnalysisServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=httpd.serve_forever,
                                  daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{httpd.server_address[1]}"
        try:
            slow_id = serve_client.submit(url, SLOW_MATRIX)
            blocked_id = serve_client.submit(url, {"source": QUICK})
            record = serve_client.cancel(url, blocked_id)
            assert record["cancel_requested"] is True
            serve_client.cancel(url, slow_id)
            assert serve_client.poll(url, slow_id,
                                     timeout=120)["status"] \
                == "cancelled"
            assert serve_client.poll(url, blocked_id,
                                     timeout=60)["status"] \
                == "cancelled"
            stats = serve_client.server_stats(url)
            assert stats["jobs"]["cancelled"] == 2
        finally:
            httpd.close()
            thread.join(timeout=10)
