"""The matrix's other surfaces: streaming, the profiling service, the paper.

Each leg reaches the reference through a different path: frames sliced
as their epochs arrive, jobs answered by a unix daemon and a 2-shard TCP
fleet, and the paper's Table II re-derived from indexed UCWA3 files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.harness.experiments import cached_run
from repro.profiler.api import ENGINES, job_criteria, run_slice_job
from repro.profiler.cdg import build_index
from repro.profiler.slicer import BackwardSlicer
from repro.profiler.vectorized import attach_index
from repro.service.client import ServiceClient
from repro.service.fleet.router import FleetClient
from repro.trace.columnar import ColumnarTrace, save_columnar
from repro.trace.store import load_any_trace

from .checks import assert_streaming
from .inputs import trace

GOLDEN = Path(__file__).parent.parent / "harness" / "goldens" / "paper_numbers.json"


# Streaming; the frame seeds stream in
# ``tests/profiler/test_incremental_differential.py``.


@pytest.mark.parametrize("source", ("row", "ucwa2", "ucwa3"))
@pytest.mark.parametrize("name", ("two-frames-back", "empty-frame"))
def test_streaming_matches_prefix_reference(name, source, source_paths):
    assert_streaming(name, source, source_paths)


# The profiling service.

SERVICE_JOBS = (("pixels+syscalls", None), ("pixels", 2))


def test_service_and_fleet_match_reference(service_factory, fleet_factory, source_paths):
    """A unix daemon (by UCWA2 path, UCWA3 path and ``trace_ref``) and a
    2-shard TCP fleet return the reference's ``flags_sha256`` under every
    engine."""
    store, paths = trace("frame-1"), source_paths("frame-1")
    daemon = ServiceClient(service_factory().socket_path)
    ref = daemon.upload_trace(paths["ucwa3"])["digest"]
    fleet = FleetClient(fleet_factory(n_shards=2).config, auth_token="test-fleet-secret")
    cdi = build_index(store.forward())
    for criteria, frame in SERVICE_JOBS:
        want = BackwardSlicer(store, cdi, job_criteria(store, criteria, frame)).run()
        digest = hashlib.sha256(bytes(want.flags)).hexdigest()
        for engine in ENGINES:
            spec = {"criteria": criteria, "engine": engine}
            if frame is not None:
                spec["frame"] = frame
            responses = {
                route: daemon.submit({**spec, **target}, wait=True)
                for route, target in (
                    ("ucwa2 path", {"trace_path": str(paths["ucwa2"])}),
                    ("ucwa3 path", {"trace_path": str(paths["ucwa3-index"])}),
                    ("trace_ref", {"trace_ref": ref}),
                )
            }
            responses["fleet"] = fleet.submit_trace(paths["ucwa2"], wait=True, **spec)
            for route, response in responses.items():
                label = f"{route} {engine} {criteria} frame={frame}"
                assert response["outcome"] in ("ok", "cache-memory", "cache-disk"), label
                assert response["result"]["flags_sha256"] == digest, label
                assert response["result"]["slice_size"] == want.slice_size(), label


# The paper.

TABLE2 = json.loads(GOLDEN.read_text("utf-8"))["table2"]


@pytest.mark.parametrize("workload", sorted(TABLE2))
def test_table2_from_indexed_ucwa3(workload, tmp_path):
    """Each Table II workload, converted to an indexed UCWA3 file and
    sliced with the default engine, reproduces its golden fraction."""
    cols = ColumnarTrace.from_store(cached_run(workload).store)
    attach_index(cols)
    save_columnar(cols, tmp_path / "t.ucwa")
    result, stats = run_slice_job(load_any_trace(tmp_path / "t.ucwa"))
    assert result.engine_stats["engine"] == "vectorized"
    assert stats.fraction == TABLE2[workload]["all_fraction"]
