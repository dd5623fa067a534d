"""Tests for ``repro serve``: the analysis service, its HTTP surface,
and the function-grained slice keys that make re-analysis incremental."""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.batch.cachestore import ArtifactCache
from repro.isa import TEXT_BASE, assemble
from repro.lang import compile_program
from repro.serve import (AnalysisRequest, AnalysisServer, AnalysisService,
                         ValidationError, analyze)
from repro.wcet import analyze_wcet
from repro.wcet.ait import PHASES


# ---------------------------------------------------------------------------
# Workload sources.  BASE carries a function main never calls, so editing
# it must not invalidate any cached phase; LOOP reads its trip count from
# a global, so editing only the initializer invalidates the value chain
# but not CFG reconstruction.

BASE = """
int result;

int spare(int x) {
    return x + 1;
}

int scale(int x) {
    int i;
    int acc = 0;
    for (i = 0; i < 8; i = i + 1) {
        acc = acc + x;
    }
    return acc;
}

void main() {
    result = scale(5);
}
"""

#: BASE with only the unreachable function's body changed.
BASE_SPARE_EDIT = BASE.replace("return x + 1;", "return x + 2;")

#: BASE with the reachable loop body changed.
BASE_SCALE_EDIT = BASE.replace("acc = acc + x;", "acc = acc + x + 1;")

LOOP = """
int limit = 8;
int result;

void main() {
    int i;
    int acc = 0;
    for (i = 0; i < limit; i = i + 1) {
        acc = acc + i;
    }
    result = acc;
}
"""

#: LOOP with only the data initializer changed (identical code bytes).
LOOP_DATA_EDIT = LOOP.replace("int limit = 8;", "int limit = 6;")


def cold_bounds(source):
    result = analyze_wcet(compile_program(source))
    return result.wcet_cycles, result.path.lp_bound


# ---------------------------------------------------------------------------
# Per-function digest vector and reachable slices.


class TestProgramSlices:
    def test_text_is_carved_at_function_symbols(self):
        program = compile_program(BASE)
        slices = sorted(program.function_slices(), key=lambda f: f.start)
        assert {fn.name for fn in slices} >= {"main", "scale", "spare"}
        # The carving tiles .text: contiguous, gap-free regions.
        text = program.text
        assert slices[0].start == text.base
        assert slices[-1].end == text.end
        for left, right in zip(slices, slices[1:]):
            assert left.end == right.start

    def test_reachable_slice_excludes_uncalled_functions(self):
        program = compile_program(BASE)
        sliced = program.reachable_slice()
        assert not sliced.conservative
        assert "spare" not in sliced.functions
        assert {"main", "scale"} <= set(sliced.functions)

    def test_unreachable_edit_keeps_both_digests(self):
        base = compile_program(BASE)
        edited = compile_program(BASE_SPARE_EDIT)
        assert base.content_digest() != edited.content_digest()
        assert base.reachable_slice().code == edited.reachable_slice().code
        assert base.reachable_slice().data == edited.reachable_slice().data

    def test_reachable_edit_changes_the_code_digest(self):
        base = compile_program(BASE)
        edited = compile_program(BASE_SCALE_EDIT)
        assert base.reachable_slice().code != edited.reachable_slice().code

    def test_data_edit_changes_only_the_data_digest(self):
        base = compile_program(LOOP)
        edited = compile_program(LOOP_DATA_EDIT)
        assert base.reachable_slice().code == edited.reachable_slice().code
        assert base.reachable_slice().data != edited.reachable_slice().data

    def test_unannotated_indirect_branch_degrades_to_conservative(self):
        source = """
        main:
            MOVI R1, #0x1000
            BLR R1
            HALT
        """
        program = assemble(source)
        sliced = program.reachable_slice()
        assert sliced.conservative
        # Annotating the site restores precise slicing.
        annotated = program.reachable_slice(
            indirect_targets={TEXT_BASE + 4: [TEXT_BASE]})
        assert not annotated.conservative
        assert annotated.functions == ("main",)

    def test_conservative_slice_still_tracks_content(self):
        one = assemble("main:\n    MOVI R1, #0x1000\n    BLR R1\n    HALT\n")
        two = assemble("main:\n    MOVI R1, #0x1004\n    BLR R1\n    HALT\n")
        assert one.reachable_slice().conservative
        assert one.reachable_slice().code != two.reachable_slice().code


# ---------------------------------------------------------------------------
# Service-level incremental re-analysis (no HTTP in between).


def settle(service, job_id, timeout=180.0):
    """The job's record once it is done or failed."""
    deadline = time.monotonic() + timeout
    while True:
        record = service.job(job_id)
        if record["status"] in ("done", "error"):
            return record
        assert time.monotonic() < deadline, f"job {job_id} stuck"
        time.sleep(0.01)


def finish(service, job_id, timeout=180.0):
    record = settle(service, job_id, timeout)
    assert record["status"] == "done", record.get("error")
    return record


def run(service, payload):
    return finish(service, service.submit(payload))


def events(record):
    (row,) = record["rows"]
    return row["cache"]["events"]


def bounds(record):
    (row,) = record["rows"]
    return row["wcet_cycles"], row["lp_bound"]


class TestIncrementalService:
    @pytest.fixture
    def service(self, tmp_path):
        service = AnalysisService(cache_dir=str(tmp_path / "cache"),
                                  workers=2)
        yield service
        service.close()

    def test_warm_server_per_phase_provenance(self, service):
        # Cold: every phase computes.
        cold = run(service, {"source": BASE})
        assert events(cold) == {phase: "miss" for phase in PHASES}
        assert bounds(cold) == cold_bounds(BASE)

        # Identical resubmission: every phase hits.
        warm = run(service, {"source": BASE})
        assert events(warm) == {phase: "hit" for phase in PHASES}
        assert bounds(warm) == bounds(cold)

        # Editing a function main never reaches changes the binary but
        # no slice digest: still a full hit, identical bounds.
        spare = run(service, {"source": BASE_SPARE_EDIT})
        assert events(spare) == {phase: "hit" for phase in PHASES}
        assert bounds(spare) == bounds(cold)

        # Editing the reachable loop recomputes everything.
        scale = run(service, {"source": BASE_SCALE_EDIT})
        assert events(scale) == {phase: "miss" for phase in PHASES}
        assert bounds(scale) == cold_bounds(BASE_SCALE_EDIT)

    def test_data_only_edit_reruns_only_the_value_chain(self, service):
        cold = run(service, {"source": LOOP})
        assert events(cold) == {phase: "miss" for phase in PHASES}

        edited = run(service, {"source": LOOP_DATA_EDIT})
        assert events(edited) == {
            "cfg": "hit", "icache": "hit",
            "value": "miss", "loopbounds": "miss", "dcache": "miss",
            "pipeline": "miss", "path": "miss"}
        # The fresh bound is real: bit-identical to a cold analysis and
        # different from the old trip count's bound.
        assert bounds(edited) == cold_bounds(LOOP_DATA_EDIT)
        assert bounds(edited) != bounds(cold)

    def test_models_share_model_independent_phases(self, service):
        record = run(service, {"source": BASE,
                               "models": ["additive", "krisc5"]})
        additive, krisc5 = record["rows"]
        assert additive["cache"]["events"] == {
            phase: "miss" for phase in PHASES}
        # The second model recomputes only pipeline and path.
        assert krisc5["cache"]["events"] == {
            "cfg": "hit", "value": "hit", "loopbounds": "hit",
            "icache": "hit", "dcache": "hit",
            "pipeline": "miss", "path": "miss"}
        # analyze_wcet runs the same plans on the same executor: the
        # two models in turn on one fresh cache give the request's
        # bounds and per-phase provenance.
        cache = ArtifactCache()
        program = compile_program(BASE)
        for model, row in (("additive", additive), ("krisc5", krisc5)):
            result = analyze_wcet(program, pipeline_model=model,
                                  phase_cache=cache)
            assert result.wcet_cycles == row["wcet_cycles"]
            assert result.path.lp_bound == row["lp_bound"]
            assert result.cache_events == row["cache"]["events"]

    def test_stats_report_jobs_and_memo(self, service):
        run(service, {"source": BASE})
        stats = service.stats()
        assert stats["jobs"]["done"] == 1
        assert stats["cache"]["misses"] == len(PHASES)
        memo = stats["cache"]["memo"]
        assert memo["entries"] == len(PHASES)
        assert memo["bytes"] > 0
        assert memo["evictions"] == 0

    def test_bounded_memo_evicts_under_service_load(self, tmp_path):
        service = AnalysisService(cache_dir=str(tmp_path / "cache"),
                                  workers=1, memo_entries=3)
        try:
            run(service, {"source": BASE})
            memo = service.stats()["cache"]["memo"]
            assert memo["entries"] <= 3
            assert memo["evictions"] >= len(PHASES) - 3
            # Evicted artifacts reload from disk: a warm resubmission
            # is still a full hit.
            warm = run(service, {"source": BASE})
            assert events(warm) == {phase: "hit" for phase in PHASES}
        finally:
            service.close()

    def test_malformed_requests_are_rejected_eagerly(self, service):
        for payload in ([1, 2], {}, {"source": BASE, "assembly": "NOP"},
                        {"source": "   "}, {"source": BASE, "bogus": 1},
                        {"source": BASE, "policies": ["frob"]},
                        {"source": BASE, "models": ["warp-drive"]},
                        {"source": BASE, "loop_bounds": [4096]},
                        {"source": BASE, "register_ranges": {"R0": [1]}},
                        {"source": BASE, "register_ranges": {"R99": [0, 5]}},
                        {"source": BASE, "register_ranges": {"R0": [5, 1]}},
                        {"source": BASE,
                         "register_ranges": {"R0": [0, 0xFFFFFFFF]}},
                        {"source": BASE, "loop_bounds": {"0x1000": 0}},
                        {"source": BASE, "loop_bounds": {"0x1000": -3}},
                        {"source": BASE, "label": ""}):
            with pytest.raises(ValidationError):
                service.submit(payload)
        assert service.stats()["jobs"]["total"] == 0

    def test_request_defaults_and_dedup(self):
        request = AnalysisRequest({
            "source": BASE,
            "policies": ["full", "full", "vivu"],
            "models": "krisc5",
            "loop_bounds": {"0x1000": "8"},
            "register_ranges": {"R3": [0, 100], "SP": [0x8000, 0x8000],
                                "lr": [0, 4]},
        })
        assert request.policies == ["full", "vivu"]
        assert request.models == ["krisc5"]
        assert request.loop_bounds == {0x1000: 8}
        # Register names as the CLI spells them (parse_register).
        assert request.register_ranges == {3: (0, 100),
                                           13: (0x8000, 0x8000),
                                           14: (0, 4)}
        assert request.label == "request"

    def test_compile_errors_surface_as_job_errors(self, service):
        job_id = service.submit({"source": "void main() { x = 1; }"})
        record = settle(service, job_id, timeout=60)
        assert record["status"] == "error"
        assert "x" in record["error"]

    def test_deep_nesting_is_a_job_error(self, service):
        job_id = service.submit(
            {"source": "int r; void main() { r = " + "-" * 2000 + "1; }"})
        record = settle(service, job_id, timeout=60)
        assert record["status"] == "error"
        assert "nesting deeper than 100 levels" in record["error"]


# ---------------------------------------------------------------------------
# Bounded in-memory memo (LRU) on the artifact cache itself.


class TestMemoBounds:
    def test_entry_bound_evicts_oldest_first(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), memo_entries=3)
        for i in range(5):
            cache.store(f"key-{i}", {"value": i})
        stats = cache.memo_stats()
        assert stats["entries"] == 3
        assert stats["limit_entries"] == 3
        assert cache.memo_evictions == 2
        # Evicted entries are still on disk and reload transparently.
        hit, value = cache.lookup("key-0")
        assert hit and value == {"value": 0}

    def test_lookup_refreshes_recency(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), memo_entries=2)
        cache.store("old", {"value": "old"})
        cache.store("new", {"value": "new"})
        cache.lookup("old")         # touch: "new" is now the LRU entry
        cache.store("newest", {"value": "newest"})
        assert set(cache._memory) == {"old", "newest"}

    def test_byte_bound_evicts_by_size(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), memo_bytes=4096)
        for i in range(8):
            cache.store(f"blob-{i}", b"x" * 2048)
        stats = cache.memo_stats()
        assert stats["bytes"] <= 4096
        assert stats["entries"] < 8
        assert cache.memo_evictions > 0

    def test_oversized_entry_is_never_self_evicted(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), memo_bytes=16)
        cache.store("huge", b"y" * 4096)
        # The just-stored value stays memoised even though it exceeds
        # the byte budget on its own.
        assert set(cache._memory) == {"huge"}

    def test_unbounded_when_limits_are_none(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), memo_entries=None,
                              memo_bytes=None)
        for i in range(64):
            cache.store(f"key-{i}", i)
        assert cache.memo_stats()["entries"] == 64
        assert cache.memo_evictions == 0


# ---------------------------------------------------------------------------
# HTTP surface: concurrency, bit-identity, and error codes.


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-cache")
    service = AnalysisService(cache_dir=str(root), workers=4)
    httpd = AnalysisServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.close()
    thread.join(timeout=10)


class TestSingleFlight:
    def test_concurrent_identical_requests_compute_each_phase_once(
            self, tmp_path):
        # Regression: two simultaneous identical /analyze requests used
        # to compute every phase twice — dedup only happened through
        # the artifact store after completion.  The in-flight single-
        # flight latch makes the second request block on the first's
        # task, whichever order the pool schedules them in.
        service = AnalysisService(cache_dir=str(tmp_path / "cache"),
                                  workers=2)
        try:
            first = service.submit({"source": BASE})
            second = service.submit({"source": BASE})
            records = [finish(service, first), finish(service, second)]
            per_phase = {phase: sorted(events(record)[phase]
                                       for record in records)
                         for phase in PHASES}
            # Exactly one computation per phase across BOTH jobs.
            assert per_phase == {phase: ["hit", "miss"]
                                 for phase in PHASES}
            # The shared cache saw exactly one miss per phase ...
            assert service.stats()["cache"]["misses"] == len(PHASES)
            # ... and both jobs' bounds are bit-identical to a cold,
            # uncached analysis.
            for record in records:
                assert bounds(record) == cold_bounds(BASE)
        finally:
            service.close()


def http_status(url, path, method="GET", body=None):
    request = urllib.request.Request(url + path, data=body, method=method)
    if body is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=30) as reply:
            reply.read()
            return reply.status
    except urllib.error.HTTPError as exc:
        exc.read()
        return exc.code


def raw_exchange(url, data):
    """Send ``data`` on one connection; return every byte the server
    sends back until it closes the connection."""
    host, port = url[len("http://"):].split(":")
    received = b""
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(data)
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:    # closed with bytes unread
                break
            if not chunk:
                break
            received += chunk
    return received


#: A complete request, sent as the body of a request the server rejects
#: without reading its body.
SMUGGLED = b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n"


class TestHTTP:
    @pytest.mark.parametrize("path, length, status", [
        ("/analyze", 5 * 1024 * 1024, 413),
        ("/nosuch", len(SMUGGLED), 404),
    ])
    def test_unread_body_is_not_parsed_as_a_request(self, server, path,
                                                    length, status):
        # The body must not be answered as the next request: the error
        # reply closes the connection instead.
        head = (f"POST {path} HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {length}\r\n\r\n").encode()
        reply = raw_exchange(server, head + SMUGGLED)
        assert reply.startswith(f"HTTP/1.1 {status} ".encode())
        assert reply.count(b"HTTP/1.1 ") == 1
        assert b"\r\nConnection: close\r\n" in reply

    def test_eight_concurrent_clients_bit_identical(self, server):
        expected = cold_bounds(BASE)
        records = [None] * 8
        errors = []

        def client(index):
            try:
                records[index] = analyze(server, {
                    "source": BASE, "label": f"client-{index}"})
            except Exception as exc:   # surfaces in the main thread
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(len(records))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not errors
        for record in records:
            assert record is not None
            assert bounds(record) == expected

    def test_submit_returns_202_and_poll_404s_unknown_jobs(self, server):
        body = json.dumps({"source": BASE}).encode()
        request = urllib.request.Request(
            server + "/analyze", data=body, method="POST",
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=30) as reply:
            assert reply.status == 202
            issued = json.loads(reply.read())
        assert issued["job"] == f"/jobs/{issued['id']}"
        assert http_status(server, "/jobs/job-999999") == 404

    @pytest.mark.parametrize("body", [
        b"not json at all",
        b"[1, 2, 3]",
        b'{"assembly": "NOP", "source": "int x;"}',
        b'{"source": ""}',
        b'{"source": "void main() { }", "frobnicate": true}',
        b'{"source": "void main() { }", "models": ["warp-drive"]}',
        b'{"source": "void main() { }", "loop_bounds": "nope"}',
        b'{"source": "void main() { }", "register_ranges": {"R0": [5, 1]}}',
        b'{"source": "void main() { }",'
        b' "register_ranges": {"R0": [0, 4294967295]}}',
    ])
    def test_malformed_posts_return_400(self, server, body):
        assert http_status(server, "/analyze", "POST", body) == 400

    def test_empty_body_returns_400(self, server):
        assert http_status(server, "/analyze", "POST", b"") == 400

    def test_unknown_routes_return_404(self, server):
        assert http_status(server, "/bogus") == 404
        assert http_status(server, "/bogus", "POST", b"{}") == 404

    def test_write_methods_return_405(self, server):
        assert http_status(server, "/analyze", "PUT", b"{}") == 405
        assert http_status(server, "/jobs/job-1", "PATCH", b"{}") == 405

    def test_delete_routes(self, server):
        # DELETE is cancellation: unknown jobs 404, other paths 404.
        assert http_status(server, "/jobs/job-999999", "DELETE") == 404
        assert http_status(server, "/analyze", "DELETE") == 404

    def test_stats_expose_cache_counters(self, server):
        analyze(server, {"source": BASE, "label": "stats-probe"})
        request = urllib.request.Request(server + "/stats")
        with urllib.request.urlopen(request, timeout=30) as reply:
            stats = json.loads(reply.read())
        assert stats["jobs"]["done"] >= 1
        assert stats["cache"]["hits"] + stats["cache"]["misses"] > 0
        assert stats["cache"]["memo"]["entries"] > 0
