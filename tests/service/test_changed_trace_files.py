"""A trace file rewritten between or during submits is answered from its
new bytes, never from the old ones.

Two paths learn a path job's digest from the file: the fleet client,
which keeps a per-path memo, and the job itself, which hashes the file
it slices.  Seeds 25 and 77 of ``random_trace(target_records=1500)``
save to UCWA3 files of the same size with different pixel slices, so a
rewrite from one to the other can keep the size and the mtime.
"""

import hashlib
import os
import time

import pytest

from repro.profiler.api import run_slice_job
from repro.service import jobs
from repro.service.client import ServiceClient
from repro.service.fleet.router import FleetClient
from repro.service.jobs import JobSpec, SpecError, execute_job
from repro.trace.columnar import save_ucwa3
from repro.trace.store import RACY_WINDOW_NS, FileDigestMemo
from repro.workloads.fuzz import random_trace

TOKEN = "test-fleet-secret"
OLD_SEED, NEW_SEED = 25, 77


def _flags_sha256(seed):
    result, _ = run_slice_job(random_trace(seed=seed, target_records=1500))
    return hashlib.sha256(bytes(result.flags)).hexdigest()


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """(old path, new path) of two same-size traces with different slices."""
    root = tmp_path_factory.mktemp("changed-traces")
    paths = []
    for seed in (OLD_SEED, NEW_SEED):
        path = root / f"seed{seed}.ucwa"
        save_ucwa3(random_trace(seed=seed, target_records=1500), path, with_index=False)
        paths.append(path)
    assert os.path.getsize(paths[0]) == os.path.getsize(paths[1])
    assert _flags_sha256(OLD_SEED) != _flags_sha256(NEW_SEED)
    return paths


def _rewrite_in_place(path, source):
    """Overwrite ``path`` with ``source``'s bytes, keeping size and mtime."""
    before = os.stat(path)
    path.write_bytes(source.read_bytes())
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert os.stat(path).st_mtime_ns == before.st_mtime_ns


def test_fleet_submit_after_a_rewrite_returns_the_new_result(
    fleet_factory, traces, tmp_path
):
    old, new = traces
    path = tmp_path / "mutable.ucwa"
    path.write_bytes(old.read_bytes())
    fc = FleetClient(fleet_factory(n_shards=2).config, auth_token=TOKEN)
    # Seen from ahead, the file is old enough to be memoized.
    fc._digests = FileDigestMemo(clock=lambda: time.time_ns() + 10 * RACY_WINDOW_NS)
    first = fc.submit_trace(path, wait=True)
    assert first["result"]["flags_sha256"] == _flags_sha256(OLD_SEED)
    _rewrite_in_place(path, new)
    second = fc.submit_trace(path, wait=True)
    assert second["outcome"] == "ok"
    assert second["result"]["flags_sha256"] == _flags_sha256(NEW_SEED)


def _replacing_loader(path, source):
    """``load_any_trace`` that, once, replaces the file after loading it.

    The flag is the source file itself (gone after the replace), so the
    replace happens once even when each job runs in a forked worker.
    """
    real = jobs.load_any_trace

    def load(target):
        store = real(target)
        if source.exists():
            os.replace(source, path)
        return store

    return load


def test_a_path_job_whose_file_is_replaced_while_it_runs_fails(
    traces, tmp_path, monkeypatch
):
    old, new = traces
    path, pending = tmp_path / "t.ucwa", tmp_path / "pending.ucwa"
    path.write_bytes(old.read_bytes())
    pending.write_bytes(new.read_bytes())
    monkeypatch.setattr(jobs, "load_any_trace", _replacing_loader(path, pending))
    with pytest.raises(SpecError, match="changed while the job read it"):
        execute_job(JobSpec(trace_path=str(path)).validate())
    payload = execute_job(JobSpec(trace_path=str(path)).validate())
    assert payload["flags_sha256"] == _flags_sha256(NEW_SEED)


def test_the_daemon_caches_nothing_for_a_file_replaced_mid_job(
    service_factory, traces, tmp_path, monkeypatch
):
    old, new = traces
    path, pending = tmp_path / "t.ucwa", tmp_path / "pending.ucwa"
    path.write_bytes(old.read_bytes())
    pending.write_bytes(new.read_bytes())
    monkeypatch.setattr(jobs, "load_any_trace", _replacing_loader(path, pending))
    client = ServiceClient(service_factory().socket_path)
    spec = JobSpec(trace_path=str(path))
    failed = client.submit(spec, wait=True)
    assert failed["outcome"] != "ok"
    assert failed["error"]["code"] == "job-failed"
    again = client.submit(spec, wait=True)
    assert again["outcome"] == "ok"
    assert again["result"]["flags_sha256"] == _flags_sha256(NEW_SEED)
