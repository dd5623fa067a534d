"""The sweep engine: matrix expansion, artifact cache, and execution.

Covers the tentpole guarantees of the batch layer:

* matrix strings expand to a deterministic, validated job list,
* the content-addressed cache round-trips artifacts, treats corrupt
  objects as misses, and invalidates on salt (code-version) change,
* cached, uncached, warm, and parallel analyses all produce
  bit-identical results, with phase-level sharing across pipeline
  models exactly as designed.
"""

import json
import os
import pickle
import threading
import time

import pytest

from repro.batch import (ArtifactCache, JobSpec, clear_process_caches,
                         code_version_salt, expand_matrix, golden_from_rows,
                         merge_golden, parse_policy, run_sweep)
from repro.cache.config import MachineConfig
from repro.cfg.contexts import (FullCallString, KLimitedCallString, VIVU)
from repro.report import wcet_report
from repro.wcet.ait import PHASES, analyze_wcet
from repro.workloads.suite import (analyze_workload, get_workload,
                                   sweep_suite, workload_names)


# -- Matrix expansion -----------------------------------------------------------


def test_full_matrix_covers_19_x_3_x_2():
    jobs = expand_matrix("all:all:all")
    assert len(jobs) == len(workload_names()) * 3 * 2
    assert len(set(jobs)) == len(jobs)
    # Models iterate innermost so sequential sweeps share per-policy
    # artifacts between the two models.
    assert jobs[0].workload == jobs[1].workload
    assert jobs[0].policy == jobs[1].policy
    assert jobs[0].model != jobs[1].model


def test_matrix_components_default_to_all():
    assert expand_matrix("fibcall") == expand_matrix("fibcall:all:all")
    assert len(expand_matrix("fibcall:vivu")) == 2
    assert expand_matrix("fibcall,bs:full:krisc5") == [
        JobSpec("fibcall", "full", "krisc5"),
        JobSpec("bs", "full", "krisc5")]


@pytest.mark.parametrize("bad", [
    "nosuchworkload", "fibcall:nosuchpolicy", "fibcall:full:nosuchmodel",
    "a:b:c:d", "fibcall:full@1", "fibcall:klimited@1@2",
    "fibcall:vivu@x"])
def test_bad_matrix_components_are_rejected(bad):
    with pytest.raises(ValueError):
        expand_matrix(bad)


def test_repeated_matrix_tokens_dedupe_preserving_order():
    assert expand_matrix("fibcall,fibcall:full:additive") == [
        JobSpec("fibcall", "full", "additive")]
    assert expand_matrix("bs,fibcall,bs:full:additive") == [
        JobSpec("bs", "full", "additive"),
        JobSpec("fibcall", "full", "additive")]
    assert expand_matrix("fibcall:full,vivu,full:krisc5") == [
        JobSpec("fibcall", "full", "krisc5"),
        JobSpec("fibcall", "vivu", "krisc5")]
    assert expand_matrix(
        "fibcall:full:additive,additive,krisc5") == [
        JobSpec("fibcall", "full", "additive"),
        JobSpec("fibcall", "full", "krisc5")]


@pytest.mark.parametrize("bad,component", [
    ("all,fibcall:full:additive", "workloads"),
    ("fibcall:all,full:additive", "policies"),
    ("fibcall:full:all,additive", "models"),
])
def test_all_inside_comma_list_is_rejected_clearly(bad, component):
    with pytest.raises(ValueError, match=f"'all' cannot be combined "
                                         f"with explicit {component}"):
        expand_matrix(bad)


def test_policy_tokens():
    assert isinstance(parse_policy("full"), FullCallString)
    assert parse_policy("klimited").k == 2
    assert parse_policy("klimited@3").k == 3
    vivu = parse_policy("vivu@2@1")
    assert isinstance(vivu, VIVU)
    assert vivu.peel == 2 and vivu.k == 1
    assert parse_policy("vivu").peel == 1


# -- Artifact cache -------------------------------------------------------------


def test_cache_roundtrip_on_disk(tmp_path):
    cache = ArtifactCache(str(tmp_path), salt="s")
    key = cache.key("material")
    assert cache.lookup(key) == (False, None)
    cache.store(key, {"artifact": [1, 2, 3]})
    # A fresh cache object (fresh process in real life) reads from disk.
    fresh = ArtifactCache(str(tmp_path), salt="s")
    hit, value = fresh.lookup(key)
    assert hit and value == {"artifact": [1, 2, 3]}
    assert fresh.hit_ratio() == 1.0


def test_salt_change_invalidates_everything(tmp_path):
    first = ArtifactCache(str(tmp_path), salt="v1")
    second = ArtifactCache(str(tmp_path), salt="v2")
    assert first.key("m") != second.key("m")


def test_corrupt_object_is_a_miss(tmp_path):
    cache = ArtifactCache(str(tmp_path), salt="s")
    key = cache.key("m")
    cache.store(key, "value")
    path = cache._object_path(key)
    with open(path, "wb") as handle:
        handle.write(b"not a pickle")
    fresh = ArtifactCache(str(tmp_path), salt="s")
    assert fresh.lookup(key) == (False, None)


def test_cache_limit_evicts_oldest_objects_first(tmp_path):
    cache = ArtifactCache(str(tmp_path), salt="s", limit_bytes=4096)
    payload = b"x" * 1500
    keys = [cache.key(f"artifact-{i}") for i in range(4)]
    for age, key in enumerate(keys):
        cache.store(key, payload)
        # Make the write order unambiguous to the mtime-based policy
        # even on coarse filesystem clocks.
        stamp = 1_000_000 + age
        os.utime(cache._object_path(key), (stamp, stamp))
    cache.store(cache.key("one-more"), payload)
    assert cache.evictions >= 2
    on_disk = [key for key in keys
               if os.path.exists(cache._object_path(key))]
    # The survivors are a suffix of the write order: oldest went first.
    assert on_disk == keys[len(keys) - len(on_disk):]
    assert on_disk != keys
    # Evicted artifacts stay memoised in this process but a fresh
    # process sees a miss and recomputes.
    assert cache.lookup(keys[0]) == (True, payload)
    fresh = ArtifactCache(str(tmp_path), salt="s", limit_bytes=4096)
    assert fresh.lookup(keys[0]) == (False, None)


def test_cache_without_limit_never_evicts(tmp_path):
    cache = ArtifactCache(str(tmp_path), salt="s")
    for i in range(6):
        cache.store(cache.key(f"artifact-{i}"), b"y" * 2000)
    assert cache.evictions == 0
    assert all(os.path.exists(cache._object_path(cache.key(f"artifact-{i}")))
               for i in range(6))


def test_sweep_cache_limit_mb_bounds_the_store(tmp_path):
    limit_mb = 0.003
    result = sweep_suite("fibcall:full:krisc5", cache_dir=str(tmp_path),
                         cache_limit_mb=limit_mb)
    assert not result.errors
    total = sum(os.path.getsize(os.path.join(dirpath, name))
                for dirpath, _, names in os.walk(tmp_path / "objects")
                for name in names if name.endswith(".pkl"))
    assert total <= limit_mb * 1024 * 1024
    # The bound itself is unaffected by eviction.
    unlimited = sweep_suite("fibcall:full:krisc5", use_cache=False)
    assert result.bounds() == unlimited.bounds()


def test_eviction_breaks_mtime_ties_by_path_not_size(tmp_path):
    cache = ArtifactCache(str(tmp_path), salt="s", limit_bytes=10 ** 9)
    keys = [cache.key(f"tie-{i}") for i in range(4)]
    by_path = sorted(keys, key=cache._object_path)
    # Give the path-smallest entries the LARGEST payloads: a sort that
    # (wrongly) fell back to file size to break mtime ties would evict
    # the path-largest entries first instead.
    for rank, key in enumerate(by_path):
        cache.store(key, b"z" * (1600 - 200 * rank))
    stamp = 1_000_000
    for key in keys:
        os.utime(cache._object_path(key), (stamp, stamp))
    cache.limit_bytes = 4096
    trigger = cache.key("trigger")
    cache.store(trigger, b"z" * 1000)
    assert cache.evictions > 0
    survivors = {key for key in keys
                 if os.path.exists(cache._object_path(key))}
    # Deterministic tie-break by path: the evicted set is exactly a
    # prefix of the path order, independent of object sizes.
    gone = [key for key in by_path if key not in survivors]
    assert gone
    assert gone == by_path[:len(gone)]
    # The just-stored object is never the eviction victim.
    assert os.path.exists(cache._object_path(trigger))


def test_disk_tally_makes_under_limit_stores_rescan_free(tmp_path,
                                                         monkeypatch):
    cache = ArtifactCache(str(tmp_path), salt="s", limit_bytes=10 ** 6)
    cache.store(cache.key("a"), b"x" * 100)
    total, _ = cache._scan_objects()
    assert cache._disk_bytes == total
    # Once the tally is known and under the limit, further stores must
    # not walk objects/ at all.
    def boom():
        raise AssertionError("store under the limit rescanned objects/")
    monkeypatch.setattr(cache, "_scan_objects", boom)
    cache.store(cache.key("b"), b"x" * 100)
    assert cache.evictions == 0
    monkeypatch.undo()
    total, _ = cache._scan_objects()
    assert cache._disk_bytes == total


def test_disk_tally_resets_and_resyncs_on_drift(tmp_path):
    cache = ArtifactCache(str(tmp_path), salt="s", limit_bytes=10 ** 6)
    cache.store(cache.key("a"), b"x" * 100)
    assert cache._disk_bytes is not None
    # A concurrent worker shrinking the tree under us can drive the
    # delta-tracked tally negative: that resets it to unknown ...
    cache._disk_bytes_add(-(cache._disk_bytes + 1))
    assert cache._disk_bytes is None
    # ... and the next store's eviction check rescans and resyncs.
    cache.store(cache.key("b"), b"x" * 100)
    total, _ = cache._scan_objects()
    assert cache._disk_bytes == total


def test_disk_tally_tracks_overwrites(tmp_path):
    cache = ArtifactCache(str(tmp_path), salt="s", limit_bytes=10 ** 6)
    key = cache.key("a")
    cache.store(key, b"x" * 5000)
    cache.store(key, b"x" * 100)        # replaced, not accumulated
    total, _ = cache._scan_objects()
    assert cache._disk_bytes == total


# -- Single-flight (in-flight dedup) ----------------------------------------


def test_fetch_or_compute_single_flight(tmp_path):
    cache = ArtifactCache(str(tmp_path), salt="s")
    key = cache.key("slow-artifact")
    entered = threading.Event()
    release = threading.Event()
    calls = []

    def compute():
        calls.append("compute")
        entered.set()
        assert release.wait(10)
        return "artifact"

    outcomes = {}

    def leader():
        outcomes["leader"] = cache.fetch_or_compute(key, compute)

    def follower():
        outcomes["follower"] = cache.fetch_or_compute(
            key, lambda: pytest.fail("follower recomputed"))

    leader_thread = threading.Thread(target=leader)
    leader_thread.start()
    assert entered.wait(10)
    follower_thread = threading.Thread(target=follower)
    follower_thread.start()
    # Let the follower park on the leader's latch, then release the
    # computation.
    time.sleep(0.05)
    release.set()
    leader_thread.join(10)
    follower_thread.join(10)
    assert calls == ["compute"]
    assert outcomes["leader"] == ("artifact", True)
    assert outcomes["follower"] == ("artifact", False)
    assert cache.misses == 1
    assert cache.hits == 1
    assert key not in cache._inflight


def test_fetch_or_compute_leader_failure_releases_followers(tmp_path):
    cache = ArtifactCache(str(tmp_path), salt="s")
    key = cache.key("fragile")
    entered = threading.Event()
    release = threading.Event()

    def failing():
        entered.set()
        assert release.wait(10)
        raise RuntimeError("leader died")

    errors = []

    def leader():
        try:
            cache.fetch_or_compute(key, failing)
        except RuntimeError as exc:
            errors.append(str(exc))

    outcomes = {}

    def follower():
        outcomes["follower"] = cache.fetch_or_compute(key, lambda: 42)

    leader_thread = threading.Thread(target=leader)
    leader_thread.start()
    assert entered.wait(10)
    follower_thread = threading.Thread(target=follower)
    follower_thread.start()
    time.sleep(0.05)
    release.set()
    leader_thread.join(10)
    follower_thread.join(10)
    assert errors == ["leader died"]
    # The follower took over leadership and computed for itself.
    assert outcomes["follower"] == (42, True)
    assert key not in cache._inflight


def test_code_version_salt_is_stable_and_hex():
    salt = code_version_salt()
    assert salt == code_version_salt()
    assert len(salt) == 64
    int(salt, 16)


def test_process_cache_normalizes_default_salt(tmp_path):
    # A process asked for the default salt (None) and one asked for the
    # explicit code-version salt must share the same memoised cache:
    # they address identical keys.
    from repro.batch.scheduler import _worker_cache
    implicit = _worker_cache(str(tmp_path), None, None)
    explicit = _worker_cache(str(tmp_path), code_version_salt(), None)
    assert implicit is explicit


def test_inline_sweep_reports_compile_time_separately(tmp_path):
    clear_process_caches()
    jobs = expand_matrix("fibcall:full")
    cold = run_sweep(jobs, parallel=1, cache_dir=str(tmp_path))
    first, second = cold.rows
    assert first["compile_seconds"] > 0.0
    assert first["wall_seconds"] >= 0.0
    # The second model reuses the memoised program: no compile charge.
    assert second["compile_seconds"] == 0.0
    # A memoised program compiles for free on the warm run.
    warm = run_sweep(jobs, parallel=1, cache_dir=str(tmp_path))
    assert [row["compile_seconds"] for row in warm.rows] == [0.0, 0.0]
    assert warm.bounds() == cold.bounds()


def test_program_content_digest():
    program = get_workload("fibcall").compile()
    again = get_workload("fibcall").compile()
    other = get_workload("bs").compile()
    assert program.content_digest() == again.content_digest()
    assert program.content_digest() != other.content_digest()


# -- Cached analysis bit-identity ----------------------------------------------


def test_cached_analysis_is_bit_identical_to_uncached(tmp_path):
    workload = get_workload("bs")
    plain = analyze_workload(workload)
    cache = ArtifactCache(str(tmp_path))
    cold = analyze_workload(workload, phase_cache=cache)
    warm = analyze_workload(workload, phase_cache=cache)

    assert plain.cache_events == {}
    assert set(cold.cache_events) == set(PHASES)
    assert all(event == "hit" for event in warm.cache_events.values())
    for result in (cold, warm):
        assert result.wcet_cycles == plain.wcet_cycles
        assert result.loop_bounds == plain.loop_bounds
        strip = lambda r: "\n".join(
            line for line in wcet_report(r).splitlines()
            if " ms" not in line)
        assert strip(result) == strip(plain)


def test_uncached_analysis_derives_no_keys(monkeypatch):
    # Without a store the executor keys nothing: on the large point key
    # derivation alone would cost ~2% of an uncached analyze_wcet.
    from repro.batch.scheduler import _TaskContext
    from repro.wcet.ait import analyze_loop_annotations

    def no_keys(self, template):
        raise AssertionError(f"derived a key for {template} without a store")

    monkeypatch.setattr(_TaskContext, "key_of", no_keys)
    workload = get_workload("fibcall")
    result = analyze_workload(workload)
    assert result.cache_events == {}
    program = workload.compile()
    assert analyze_loop_annotations(
        program, memory_ranges=workload.memory_ranges(program)) \
        == result.loop_bounds
    sweep = run_sweep(expand_matrix("bs:full:additive"), use_cache=False)
    assert sweep.errors == []


def test_phase_sharing_across_pipeline_models(tmp_path):
    cache = ArtifactCache(str(tmp_path))
    program = get_workload("fibcall").compile()
    analyze_wcet(program, phase_cache=cache)
    second = analyze_wcet(program, pipeline_model="krisc5",
                          phase_cache=cache)
    # Everything up to the timing model is model-independent.
    for phase in ("cfg", "value", "loopbounds", "icache", "dcache"):
        assert second.cache_events[phase] == "hit", phase
    for phase in ("pipeline", "path"):
        assert second.cache_events[phase] == "miss", phase


def test_machine_config_change_invalidates_cache_phases(tmp_path):
    cache = ArtifactCache(str(tmp_path))
    program = get_workload("fibcall").compile()
    analyze_wcet(program, phase_cache=cache)
    changed = analyze_wcet(
        program, config=MachineConfig(branch_penalty=5),
        phase_cache=cache)
    assert changed.cache_events["icache"] == "hit"
    assert changed.cache_events["pipeline"] == "miss"


# -- Sweep execution ------------------------------------------------------------

SMALL_MATRIX = "fibcall,bs:full,vivu:additive,krisc5"


def test_sequential_sweep_cold_then_warm(tmp_path):
    jobs = expand_matrix(SMALL_MATRIX)
    cache_dir = str(tmp_path / "cache")
    cold = run_sweep(jobs, parallel=1, cache_dir=cache_dir)
    warm = run_sweep(jobs, parallel=1, cache_dir=cache_dir)

    assert cold.errors == [] and warm.errors == []
    # Rows come back in job order regardless of anything.
    assert [(row["workload"], row["policy"], row["model"])
            for row in cold.rows] == \
        [(spec.workload, spec.policy, spec.model) for spec in jobs]
    assert warm.bounds() == cold.bounds()
    assert warm.hit_ratio() == 1.0
    assert warm.cache_misses == 0


def test_sweep_writes_jsonl_in_job_order(tmp_path):
    jobs = expand_matrix("fibcall:full")
    path = str(tmp_path / "results.jsonl")
    result = run_sweep(jobs, parallel=1, jsonl_path=path)
    lines = [json.loads(line)
             for line in open(path).read().splitlines()]
    assert len(lines) == len(jobs) == 2
    assert [row["model"] for row in lines] == ["additive", "krisc5"]
    assert lines[0]["wcet_cycles"] == result.rows[0]["wcet_cycles"]
    for row in lines:
        assert set(row["cache"]["events"]) == set(PHASES)
        assert row["phase_seconds"].keys() == row["cache"]["events"].keys()


def test_no_cache_sweep_records_no_events():
    result = run_sweep(expand_matrix("fibcall:full:additive"),
                       use_cache=False)
    assert result.errors == []
    assert result.rows[0]["cache"] == {"events": {}, "hits": 0,
                                       "misses": 0}
    assert result.hit_ratio() == 0.0


def test_parallel_sweep_matches_sequential(tmp_path):
    jobs = expand_matrix(SMALL_MATRIX)
    sequential = run_sweep(jobs, parallel=1,
                           cache_dir=str(tmp_path / "seq"))
    parallel = run_sweep(jobs, parallel=2,
                         cache_dir=str(tmp_path / "par"))
    assert parallel.errors == []
    assert parallel.bounds() == sequential.bounds()
    assert [(row["workload"], row["policy"], row["model"])
            for row in parallel.rows] == \
        [(spec.workload, spec.policy, spec.model) for spec in jobs]


def test_golden_from_rows_rejects_error_rows():
    rows = [{"workload": "fibcall", "policy": "full",
             "model": "additive", "error": "ValueError: boom"}]
    with pytest.raises(ValueError, match="failed job"):
        golden_from_rows(rows)


def test_merge_golden_refreshes_only_swept_points():
    base = {"fibcall": {"full": {"additive": 418, "krisc5": 392}},
            "bs": {"full": {"additive": 203}}}
    update = {"fibcall": {"full": {"krisc5": 390},
                          "vivu": {"additive": 418}}}
    merged = merge_golden(base, update)
    assert merged == {
        "fibcall": {"full": {"additive": 418, "krisc5": 390},
                    "vivu": {"additive": 418}},
        "bs": {"full": {"additive": 203}}}
    # Inputs are not mutated.
    assert base["fibcall"]["full"]["krisc5"] == 392


def test_sweep_suite_wrapper(tmp_path):
    result = sweep_suite("fibcall:full:additive",
                         cache_dir=str(tmp_path / "cache"))
    assert result.errors == []
    assert len(result.rows) == 1
    golden = golden_from_rows(result.rows)
    assert golden == {"fibcall": {"full": {
        "additive": result.rows[0]["wcet_cycles"]}}}


def test_concurrent_workers_share_one_cache_directory(tmp_path):
    """Two workers writing the same artifacts must not corrupt the
    store: a warm rerun still serves every phase from cache."""
    jobs = expand_matrix(SMALL_MATRIX)
    cache_dir = str(tmp_path / "cache")
    cold = run_sweep(jobs, parallel=2, cache_dir=cache_dir)
    warm = run_sweep(jobs, parallel=2, cache_dir=cache_dir)
    assert cold.errors == [] and warm.errors == []
    assert warm.bounds() == cold.bounds()
    assert warm.hit_ratio() == 1.0


def test_artifacts_survive_pickling_of_every_phase(tmp_path):
    """Every on-disk object must deserialise (guards against types
    whose pickling silently breaks, e.g. __slots__ immutability)."""
    cache_dir = str(tmp_path / "cache")
    run_sweep(expand_matrix("calltree:vivu"), cache_dir=cache_dir)
    objects = 0
    for dirpath, _, filenames in os.walk(cache_dir):
        for filename in filenames:
            with open(os.path.join(dirpath, filename), "rb") as handle:
                pickle.load(handle)
            objects += 1
    assert objects > 0
