"""Fixtures shared across test packages: the conformance inputs' trace
files, in-process profiling daemons and localhost TCP fleets, torn down
at test end.

Sockets live in a short ``mkdtemp`` directory rather than ``tmp_path``
because ``AF_UNIX`` paths are capped at ~108 bytes and pytest's nested
tmp directories can exceed that.
"""

import functools
import shutil
import tempfile

import pytest

from repro.service.fleet.supervisor import FleetSupervisor
from repro.service.server import ProfilingServer

from .conformance.inputs import trace, write_sources


@pytest.fixture(scope="session")
def source_paths(tmp_path_factory):
    """Conformance input name -> its file sources, each written once."""
    return functools.lru_cache(maxsize=None)(
        lambda name: write_sources(trace(name), tmp_path_factory.mktemp(name))
    )


@pytest.fixture
def service_factory():
    """Boot in-process daemons; everything is torn down at test end."""
    started = []
    tmp_dirs = []

    def boot(**kwargs) -> ProfilingServer:
        tmp = tempfile.mkdtemp(prefix="repro-svc-")
        tmp_dirs.append(tmp)
        kwargs.setdefault("workers", 2)
        kwargs.setdefault("queue_size", 16)
        server = ProfilingServer(f"{tmp}/s.sock", f"{tmp}/cache", **kwargs)
        server.start()
        started.append(server)
        return server

    yield boot
    for server in started:
        server.close()
    for tmp in tmp_dirs:
        shutil.rmtree(tmp, ignore_errors=True)


@pytest.fixture
def fleet_factory():
    """Boot localhost TCP fleets; everything torn down at test end."""
    started = []
    tmp_dirs = []

    def boot(n_shards=2, **kwargs) -> FleetSupervisor:
        tmp = tempfile.mkdtemp(prefix="repro-fleet-")
        tmp_dirs.append(tmp)
        kwargs.setdefault("workers", 2)
        kwargs.setdefault("auth_token", "test-fleet-secret")
        supervisor = FleetSupervisor(tmp, n_shards, **kwargs)
        supervisor.start()
        started.append(supervisor)
        return supervisor

    yield boot
    for supervisor in started:
        supervisor.stop()
    for tmp in tmp_dirs:
        shutil.rmtree(tmp, ignore_errors=True)
