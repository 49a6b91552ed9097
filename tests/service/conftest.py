"""Shared fixtures: saved fuzz traces and a booted daemon with a client.

The daemon and fleet factories live in ``tests/conftest.py``.
"""

import pytest

from repro.service.client import ServiceClient
from repro.trace.store import save_trace
from repro.workloads.fuzz import random_frame_trace, random_trace


@pytest.fixture(scope="session")
def fuzz_trace_path(tmp_path_factory):
    """A well-formed ~4k-record trace on disk (pixel markers guaranteed)."""
    store = random_trace(seed=11, target_records=4_000)
    path = tmp_path_factory.mktemp("svc-traces") / "fuzz.ucwa"
    save_trace(store, path)
    return path


@pytest.fixture(scope="session")
def frame_trace_path(tmp_path_factory):
    """A multi-frame trace (streaming slicing needs frame epochs)."""
    store = random_frame_trace(seed=5, n_frames=4, records_per_frame=300)
    path = tmp_path_factory.mktemp("svc-traces") / "frames.ucwa"
    save_trace(store, path)
    return path


@pytest.fixture
def service(service_factory):
    server = service_factory()
    return server, ServiceClient(server.socket_path)
