"""Failure-path tests: crash isolation, retry-once, timeouts, cancel,
backpressure, cache invalidation, and graceful drain.

All jobs here run against the small fuzz trace so every path is fast and
deterministic; the ``fault`` hook in :class:`JobSpec` injects the failure
inside the worker process itself (see repro/service/jobs.py).
"""

import time

import pytest

from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import JobSpec
from repro.trace.columnar import save_ucwa3
from repro.trace.store import file_digest, serialize_trace
from repro.workloads.fuzz import random_trace


def _wait_until(predicate, timeout_s=10.0, interval_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval_s)
    raise AssertionError("condition not reached before deadline")


def test_worker_crash_is_isolated_and_retried_once(service, fuzz_trace_path):
    """A deterministic crasher fails after exactly two attempts — and the
    server survives to run the next job."""
    server, client = service
    crashed = client.submit(
        JobSpec(trace_path=str(fuzz_trace_path), fault="crash"), wait=True
    )
    assert crashed["outcome"] == "crashed"
    assert crashed["attempts"] == 2  # retry-once, then give up
    assert crashed["error"]["code"] == "crashed"
    assert "exit code 17" in crashed["error"]["message"]
    assert "result" not in crashed

    # The daemon is unharmed: same connection path, clean job, clean result.
    assert client.ping() is True
    healthy = client.submit(JobSpec(trace_path=str(fuzz_trace_path)), wait=True)
    assert healthy["outcome"] == "ok"
    assert server.metrics.counter("retries") == 1


def test_transient_crash_recovers_on_the_retry(service, fuzz_trace_path):
    server, client = service
    spec = JobSpec(trace_path=str(fuzz_trace_path), fault="crash-once")
    response = client.submit(spec, wait=True)
    assert response["outcome"] == "ok"
    assert response["attempts"] == 2
    assert response["result"]["fraction"] > 0

    # Fault-injected runs never reach the cache: an identical resubmit
    # re-executes (and crashes once again) instead of hitting.
    again = client.submit(spec, wait=True)
    assert again["outcome"] == "ok"
    assert again["attempts"] == 2
    assert server.cache.stats()["memory_hits"] == 0


def test_job_timeout_is_structured_and_not_retried(service, fuzz_trace_path):
    _, client = service
    response = client.submit(
        JobSpec(trace_path=str(fuzz_trace_path), fault="hang", timeout_s=0.4),
        wait=True,
    )
    assert response["outcome"] == "timeout"
    assert response["attempts"] == 1  # a job that spent its budget once stops
    assert response["error"]["code"] == "timeout"
    assert client.ping() is True


def test_wait_op_timeout_leaves_the_job_running(service, fuzz_trace_path):
    _, client = service
    hung = client.submit(
        JobSpec(trace_path=str(fuzz_trace_path), fault="hang", timeout_s=5.0),
        wait=False,
    )
    with pytest.raises(ServiceError) as excinfo:
        client.wait(hung["id"], timeout_s=0.2)
    assert excinfo.value.code == "timeout"
    assert client.status(hung["id"])["state"] in ("queued", "running")
    client.cancel(hung["id"])
    done = client.wait(hung["id"], timeout_s=30)
    assert done["outcome"] == "cancelled"
    assert done["error"]["code"] == "cancelled"


def test_editing_the_trace_file_invalidates_its_cache_entries(
    service, tmp_path
):
    """Content addressing needs no invalidation API: a changed digest is a
    different key, so a stale result can never be served."""
    _, client = service
    path = tmp_path / "mutable.ucwa"
    save_ucwa3(random_trace(seed=31, target_records=3_000), path, with_index=False)
    spec = JobSpec(trace_path=str(path))

    first = client.submit(spec, wait=True)
    assert first["outcome"] == "ok"
    assert client.submit(spec, wait=True)["outcome"] == "cache-memory"

    old_digest = file_digest(path)
    save_ucwa3(random_trace(seed=32, target_records=3_000), path, with_index=False)
    assert file_digest(path) != old_digest

    fresh = client.submit(spec, wait=True)
    assert fresh["outcome"] == "ok"  # a slice ran — no stale hit
    assert fresh["result"]["trace_digest"] != first["result"]["trace_digest"]


@pytest.mark.parametrize("kind", ("ucwa2", "truncated-ucwa3"))
def test_a_file_that_is_not_a_readable_trace_fails_the_job(service, tmp_path, kind):
    """A path or ``trace_ref`` job over bytes the loader refuses fails as
    ``job-failed`` with the loader's message, not as an internal error.
    A UCWA2 file (the retired format, whose layout is the digest image)
    is refused on upload already."""
    _, client = service
    store = random_trace(seed=33, target_records=1_000)
    path = tmp_path / f"{kind}.ucwa"
    if kind == "ucwa2":
        path.write_bytes(serialize_trace(store))
    else:
        save_ucwa3(store, path, with_index=False)
        path.write_bytes(path.read_bytes()[:-64])
    by_path = client.submit(JobSpec(trace_path=str(path)), wait=True)
    assert by_path["outcome"] != "ok"
    assert by_path["error"]["code"] == "job-failed"
    assert str(path) in by_path["error"]["message"]
    if kind == "ucwa2":
        with pytest.raises(ServiceError) as err:
            client.upload_trace(path)
        assert err.value.code == "bad-upload"
        return
    ref = client.upload_trace(path)["digest"]
    by_ref = client.submit({"trace_ref": ref}, wait=True)
    assert by_ref["error"]["code"] == "job-failed"
    assert f"{ref}.ucwa" in by_ref["error"]["message"]


def test_full_queue_rejects_with_busy(service_factory, fuzz_trace_path):
    """Backpressure is an explicit response, not a hang."""
    server = service_factory(workers=1, queue_size=1)
    client = ServiceClient(server.socket_path)
    path = str(fuzz_trace_path)

    # Distinct criteria → distinct fingerprints, so nothing coalesces.
    running = client.submit(
        JobSpec(trace_path=path, fault="hang", timeout_s=30), wait=False
    )
    _wait_until(lambda: client.stats()["running"] == 1)
    queued = client.submit(
        JobSpec(trace_path=path, criteria="syscalls", fault="hang", timeout_s=30),
        wait=False,
    )
    with pytest.raises(ServiceError) as excinfo:
        client.submit(
            JobSpec(
                trace_path=path,
                criteria="pixels+syscalls",
                fault="hang",
                timeout_s=30,
            )
        )
    assert excinfo.value.code == "busy"
    assert client.stats()["counters"]["busy_rejected"] == 1

    for job in (running, queued):
        client.cancel(job["id"])
        assert client.wait(job["id"], timeout_s=30)["outcome"] == "cancelled"


def test_identical_faulty_submits_coalesce(service, fuzz_trace_path):
    """Coalescing is deterministic to test with a hanging job in flight."""
    server, client = service
    spec = JobSpec(trace_path=str(fuzz_trace_path), fault="hang", timeout_s=30)
    leader = client.submit(spec, wait=False)
    follower = client.submit(spec, wait=False)
    assert follower["id"] == leader["id"]
    assert follower["coalesced"] is True
    assert server.metrics.counter("coalesced") == 1
    client.cancel(leader["id"])
    assert client.wait(leader["id"], timeout_s=30)["outcome"] == "cancelled"


def test_graceful_drain_refuses_new_work_and_finishes_old(
    service_factory, fuzz_trace_path
):
    server = service_factory(workers=1)
    client = ServiceClient(server.socket_path)
    inflight = client.submit(
        JobSpec(trace_path=str(fuzz_trace_path), fault="hang", timeout_s=0.6),
        wait=False,
    )
    _wait_until(lambda: client.stats()["running"] == 1)

    response = client.shutdown(drain=True)
    assert response["draining"] is True

    # Draining: the daemon still answers but refuses new submissions.
    with pytest.raises(ServiceError) as excinfo:
        client.submit(JobSpec(trace_path=str(fuzz_trace_path)))
    assert excinfo.value.code == "shutting-down"

    # The in-flight job is allowed to reach its own terminal state
    # (here its timeout), then the listener goes away.
    server.serve_forever()  # returns once the drain completes
    with pytest.raises(ServiceError) as excinfo:
        ServiceClient(server.socket_path, connect_timeout_s=0.2).ping()
    assert excinfo.value.code == "unreachable"

    job = server._jobs[inflight["id"]]
    assert job.outcome == "timeout"


def test_shutdown_now_cancels_everything_quickly(service_factory, fuzz_trace_path):
    server = service_factory(workers=2)
    client = ServiceClient(server.socket_path)
    jobs = [
        client.submit(
            JobSpec(
                trace_path=str(fuzz_trace_path),
                criteria=criteria,
                fault="hang",
                timeout_s=60,
            ),
            wait=False,
        )
        for criteria in ("pixels", "syscalls")
    ]
    _wait_until(lambda: client.stats()["running"] == 2)

    start = time.monotonic()
    client.shutdown(drain=False)
    server.serve_forever()
    assert time.monotonic() - start < 10.0  # cancelled, not waited out

    for submitted in jobs:
        assert server._jobs[submitted["id"]].outcome == "cancelled"
