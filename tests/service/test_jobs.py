"""Job-spec validation and pure job execution (no daemon involved)."""

import hashlib

import pytest

from repro.profiler.api import run_slice_job
from repro.service.jobs import FAULTS, JobSpec, SpecError, execute_job
from repro.trace.columnar import save_ucwa3
from repro.trace.store import file_digest, trace_digest
from repro.workloads.fuzz import random_trace


@pytest.fixture(scope="module")
def small_trace(tmp_path_factory):
    store = random_trace(seed=7, target_records=1_500)
    path = tmp_path_factory.mktemp("svc-jobs") / "small.ucwa"
    save_ucwa3(store, path, with_index=False)
    return store, path


def test_validate_requires_exactly_one_target():
    with pytest.raises(SpecError, match="exactly one"):
        JobSpec().validate()
    with pytest.raises(SpecError, match="exactly one"):
        JobSpec(workload="bing", trace_path="/tmp/x.ucwa").validate()


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(workload="no_such"), "unknown workload"),
        (dict(workload="bing", criteria="colors"), "unknown criteria"),
        (dict(workload="bing", engine="turbo"), "unknown engine"),
        (dict(workload="bing", engine="parallel"), "unknown engine"),
        (dict(workload="bing", frame=-1), "frame must be >= 0"),
        (dict(workload="bing", timeout_s=0), "timeout_s must be positive"),
        (dict(workload="bing", fault="explode"), "unknown fault"),
    ],
)
def test_validate_rejects_bad_fields(kwargs, match):
    with pytest.raises(SpecError, match=match):
        JobSpec(**kwargs).validate()


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(SpecError, match="unknown job-spec field"):
        JobSpec.from_dict({"workload": "bing", "priority": 9})
    with pytest.raises(SpecError, match=r"unknown job-spec field\(s\): workers"):
        JobSpec.from_dict({"workload": "bing", "workers": 2})
    with pytest.raises(SpecError, match="must be an object"):
        JobSpec.from_dict(["bing"])


def test_from_dict_round_trips_to_dict():
    spec = JobSpec(workload="bing", criteria="syscalls", engine="incremental", frame=2)
    assert JobSpec.from_dict(spec.to_dict()) == spec


def test_fingerprint_ignores_timeout_but_not_fault():
    base = JobSpec(workload="bing")
    assert base.fingerprint() == JobSpec(workload="bing", timeout_s=9.0).fingerprint()
    assert base.fingerprint() != JobSpec(workload="bing", fault="crash").fingerprint()
    assert base.fingerprint() != JobSpec(workload="bing", criteria="syscalls").fingerprint()


def test_fingerprint_normalizes_trace_paths(tmp_path, monkeypatch):
    path = tmp_path / "t.ucwa"
    monkeypatch.chdir(tmp_path)
    assert (
        JobSpec(trace_path=str(path)).fingerprint()
        == JobSpec(trace_path="t.ucwa").fingerprint()
    )


def test_execute_job_matches_in_process_api_run(small_trace):
    """The service's unit of work reproduces profiler.api exactly."""
    store, path = small_trace
    payload = execute_job(JobSpec(trace_path=str(path)).validate())
    result, stats = run_slice_job(store, criteria="pixels")
    assert payload["criteria"] == result.criteria_name
    assert payload["total"] == stats.total
    assert payload["slice_size"] == stats.in_slice
    assert payload["fraction"] == stats.fraction
    assert payload["flags_sha256"] == hashlib.sha256(bytes(result.flags)).hexdigest()
    assert payload["trace_digest"] == file_digest(path)
    assert [t["name"] for t in payload["threads"]] == [t.name for t in stats.threads]
    assert payload["timings"]["resolve_s"] >= 0
    assert payload["timings"]["slice_s"] > 0


def test_execute_job_reports_the_engine_that_ran(small_trace, tmp_path):
    """The default spec is "auto"; the payload names the engine it ran."""
    pytest.importorskip("numpy")
    from repro.trace.columnar import convert_trace

    _, path = small_trace
    v3 = tmp_path / "small3.ucwa"
    convert_trace(path, v3)
    assert JobSpec().engine == "auto"
    row = execute_job(JobSpec(trace_path=str(path)).validate())
    columnar = execute_job(JobSpec(trace_path=str(v3)).validate())
    assert row["engine"] == row["engine_stats"]["engine"] == "sequential"
    assert columnar["engine"] == columnar["engine_stats"]["engine"] == "vectorized"
    assert columnar["flags_sha256"] == row["flags_sha256"]
    forced = execute_job(JobSpec(trace_path=str(v3), engine="sequential").validate())
    assert forced["engine"] == "sequential"
    assert forced["flags_sha256"] == row["flags_sha256"]


def test_execute_job_syscall_criteria(small_trace):
    store, path = small_trace
    payload = execute_job(JobSpec(trace_path=str(path), criteria="syscalls").validate())
    _, stats = run_slice_job(store, criteria="syscalls")
    assert payload["criteria"] == "syscalls"
    assert payload["fraction"] == stats.fraction


def test_trace_digest_differs_from_store_to_store():
    a = trace_digest(random_trace(seed=1, target_records=800))
    b = trace_digest(random_trace(seed=2, target_records=800))
    assert a != b
    assert a == trace_digest(random_trace(seed=1, target_records=800))


def test_error_fault_surfaces_as_spec_error(small_trace):
    _, path = small_trace
    with pytest.raises(SpecError, match="injected job error"):
        execute_job(JobSpec(trace_path=str(path), fault="error").validate(), attempt=0)


def test_fault_registry_is_closed():
    assert set(FAULTS) == {"crash", "crash-once", "hang", "error"}
