"""End-to-end daemon tests over the Unix socket (happy paths)."""

import hashlib
import threading

import pytest

from repro.profiler.api import run_slice_job
from repro.service.cache import payload_seal
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import JobSpec
from repro.service.server import ProfilingServer
from repro.trace.columnar import save_ucwa3
from repro.trace.store import load_any_trace
from repro.workloads.fuzz import random_trace


def test_ping(service):
    _, client = service
    assert client.ping() is True


def test_cold_submit_matches_in_process_run(service, fuzz_trace_path):
    """A service job returns exactly what profiler.api returns in-process."""
    _, client = service
    response = client.submit(JobSpec(trace_path=str(fuzz_trace_path)), wait=True)
    assert response["outcome"] == "ok"
    assert response["state"] == "done"
    assert response["coalesced"] is False

    result, stats = run_slice_job(load_any_trace(fuzz_trace_path), criteria="pixels")
    payload = response["result"]
    assert payload["fraction"] == stats.fraction
    assert payload["total"] == stats.total
    assert payload["slice_size"] == stats.in_slice
    assert payload["flags_sha256"] == hashlib.sha256(bytes(result.flags)).hexdigest()


def test_warm_submit_is_served_from_cache(service, fuzz_trace_path):
    server, client = service
    spec = JobSpec(trace_path=str(fuzz_trace_path))
    cold = client.submit(spec, wait=True)
    warm = client.submit(spec, wait=True)
    assert cold["outcome"] == "ok"
    assert warm["outcome"] == "cache-memory"
    assert warm["cache"] == "memory"
    assert warm["result"] == cold["result"]
    assert server.cache.stats()["memory_hits"] >= 1
    # Cache hits are synthetic jobs: done before they ever touch the queue.
    assert server.metrics.outcome_counts()["cache-memory"] >= 1


def test_criteria_and_frame_address_distinct_cache_slots(service, fuzz_trace_path):
    _, client = service
    pixels = client.submit(
        JobSpec(trace_path=str(fuzz_trace_path), criteria="pixels"), wait=True
    )
    syscalls = client.submit(
        JobSpec(trace_path=str(fuzz_trace_path), criteria="syscalls"), wait=True
    )
    # Different question, different slot: the second submit did not hit.
    assert pixels["outcome"] == "ok"
    assert syscalls["outcome"] == "ok"
    assert syscalls["result"]["flags_sha256"] != pixels["result"]["flags_sha256"]
    # But each repeats warm.
    assert (
        client.submit(
            JobSpec(trace_path=str(fuzz_trace_path), criteria="syscalls"), wait=True
        )["outcome"]
        == "cache-memory"
    )


def test_warm_set_survives_daemon_restart(service_factory, fuzz_trace_path):
    """Write-through to disk: a new daemon on the same cache dir is warm."""
    first = service_factory()
    spec = JobSpec(trace_path=str(fuzz_trace_path))
    cold = ServiceClient(first.socket_path).submit(spec, wait=True)
    assert cold["outcome"] == "ok"
    first.close()

    second = ProfilingServer(first.socket_path, first._cache_dir)
    second.start()
    try:
        warm = ServiceClient(second.socket_path).submit(spec, wait=True)
        assert warm["outcome"] == "cache-disk"
        assert warm["result"] == cold["result"]
    finally:
        second.close()


def test_restart_over_damaged_entry_recomputes(service_factory, fuzz_trace_path):
    """A result damaged on disk is never served: the resubmit after a
    restart runs cold and returns the original flags."""
    first = service_factory()
    spec = JobSpec(trace_path=str(fuzz_trace_path))
    cold = ServiceClient(first.socket_path).submit(spec, wait=True)["result"]
    first.close()
    (entry,) = (first._cache_dir / "results").glob("*.json")
    sha = cold["flags_sha256"].encode()
    entry.write_bytes(entry.read_bytes().replace(sha, sha[::-1]))
    second = ProfilingServer(first.socket_path, first._cache_dir)
    second.start()
    try:
        again = ServiceClient(second.socket_path).submit(spec, wait=True)
        assert again["outcome"] == "ok"
        assert again["result"]["flags_sha256"] == cold["flags_sha256"]
    finally:
        second.close()


def test_handoff_stores_only_entries_that_match_their_seal(service):
    server, client = service
    good = {"kind": "result", "key": "a" * 64, "payload": {"fraction": 0.375}}
    good["sha256"] = payload_seal(good["payload"])
    bad = dict(good, key="b" * 64, payload={"fraction": 0.975})
    assert client.request({"op": "handoff", "entries": [good, bad]})["accepted"] == 1
    assert server.cache.peek("a" * 64) == good["payload"]
    assert server.cache.peek("b" * 64) is None


def test_workload_submit_cold_then_warm_via_digest_memo(service):
    """The memo makes a repeat *workload* submit warm without re-running it."""
    server, client = service
    spec = JobSpec(workload="wiki_article")
    cold = client.submit(spec, wait=True)
    assert cold["outcome"] == "ok"
    assert server.memo.get("wiki_article") == cold["result"]["trace_digest"]
    warm = client.submit(spec, wait=True)
    assert warm["outcome"] == "cache-memory"
    assert warm["result"]["flags_sha256"] == cold["result"]["flags_sha256"]


def test_concurrent_identical_submits_coalesce_to_one_job(service, tmp_path):
    """N clients asking the same question cost one slice, not N."""
    server, client = service
    # Big enough that the job is still running when the followers submit.
    path = tmp_path / "big.ucwa"
    save_ucwa3(random_trace(seed=23, target_records=60_000), path, with_index=False)
    spec = JobSpec(trace_path=str(path))

    leader = client.submit(spec, wait=False)
    assert leader["state"] in ("queued", "running")

    followers = []

    def follow():
        followers.append(ServiceClient(server.socket_path).submit(spec, wait=True))

    threads = [threading.Thread(target=follow) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    done = client.wait(leader["id"], timeout_s=60)
    assert done["outcome"] == "ok"
    for follower in followers:
        assert follower["id"] == leader["id"]
        assert follower["coalesced"] is True
        assert follower["result"] == done["result"]
    assert server.metrics.counter("coalesced") == 2
    # One slice ran; nothing about coalescing touched the cache counters.
    assert server.metrics.outcome_counts()["ok"] == 1


def test_status_and_wait_roundtrip(service, fuzz_trace_path):
    _, client = service
    submitted = client.submit(JobSpec(trace_path=str(fuzz_trace_path)), wait=False)
    done = client.wait(submitted["id"], timeout_s=60)
    assert done["outcome"] == "ok"
    status = client.status(submitted["id"])
    assert status["state"] == "done"
    assert status["result"] == done["result"]
    assert status["queue_wait_s"] >= 0
    assert status["run_s"] > 0


def test_unknown_job_id_is_a_stable_error(service):
    _, client = service
    with pytest.raises(ServiceError) as excinfo:
        client.status("job-999")
    assert excinfo.value.code == "no-such-job"


def test_invalid_spec_is_rejected_before_queueing(service):
    server, client = service
    with pytest.raises(ServiceError) as excinfo:
        client.submit({"workload": "no_such_workload"}, wait=True)
    assert excinfo.value.code == "invalid-spec"
    with pytest.raises(ServiceError) as excinfo:
        client.submit({"workload": "bing", "criteria": "colors"})
    assert excinfo.value.code == "invalid-spec"
    assert server.metrics.counter("invalid_specs") == 2


def test_stats_endpoint_reports_latency_and_outcomes(service, fuzz_trace_path):
    _, client = service
    client.submit(JobSpec(trace_path=str(fuzz_trace_path)), wait=True)
    client.submit(JobSpec(trace_path=str(fuzz_trace_path)), wait=True)
    stats = client.stats()
    assert stats["counters"]["submits"] == 2
    assert stats["outcomes"]["ok"] == 1
    assert stats["outcomes"]["cache-memory"] == 1
    assert stats["queue_depth"] == 0
    assert stats["running"] == 0
    assert stats["workers"] == 2
    assert stats["draining"] is False
    assert stats["uptime_s"] > 0
    for stage in ("queue_wait", "resolve", "slice", "total"):
        assert stage in stats["latency"], stats["latency"].keys()
    slice_stage = stats["latency"]["slice"]
    assert slice_stage["count"] == 1
    assert slice_stage["p50_s"] <= slice_stage["p90_s"] <= slice_stage["p99_s"]
    cache = stats["cache"]
    assert cache["memory_hits"] == 1
    assert cache["hit_rate"] > 0


def test_unreachable_socket_raises_unreachable(tmp_path):
    client = ServiceClient(str(tmp_path / "nobody-home.sock"), connect_timeout_s=0.2)
    with pytest.raises(ServiceError) as excinfo:
        client.ping()
    assert excinfo.value.code == "unreachable"
