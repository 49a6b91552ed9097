"""Everything that pauses the cyclic collector leaves it as it found it.

``collector_paused`` is the one helper; the trace recipes
(``run_engine``, ``run_frames``) and ``Profiler.slice`` run under it,
and ``ColumnarTrace.materialize`` uses it too (its own check is
``tests/trace/test_store.py::test_decoding_leaves_the_collector_as_it_found_it``).
Each is checked from an enabled and from a disabled collector.
"""

from __future__ import annotations

import gc

import pytest

from repro.harness.experiments import run_engine, run_frames
from repro.profiler import Profiler, pixel_criteria
from repro.profiler.api import ENGINES
from repro.trace.columnar import ColumnarTrace
from repro.trace.records import collector_paused
from repro.workloads import benchmark
from repro.workloads.fuzz import random_frame_trace


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collecting(request):
    """Start the test with the collector in the given state."""
    found = gc.isenabled()
    if request.param:
        gc.enable()
    else:
        gc.disable()
    yield request.param
    if found:
        gc.enable()
    else:
        gc.disable()


def test_paused_inside_and_restored_on_return(collecting):
    with collector_paused():
        assert not gc.isenabled()
    assert gc.isenabled() is collecting


def test_restored_when_the_block_raises(collecting):
    with pytest.raises(KeyError):
        with collector_paused():
            raise KeyError("boom")
    assert gc.isenabled() is collecting


def test_nested_pauses_restore_the_outer_state(collecting):
    with collector_paused():
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled() is collecting


def test_a_block_that_switches_the_collector_is_undone(collecting):
    with collector_paused():
        gc.enable()
    assert gc.isenabled() is collecting


def test_as_a_decorator_every_call_pauses_and_restores(collecting):
    @collector_paused()
    def state() -> bool:
        return gc.isenabled()

    @collector_paused()
    def fail() -> None:
        raise ValueError("boom")

    assert (state(), state()) == (False, False)
    assert gc.isenabled() is collecting
    with pytest.raises(ValueError):
        fail()
    assert gc.isenabled() is collecting


def test_run_engine(collecting):
    engine = run_engine(benchmark("wiki_article"), metrics_ticks=2)
    assert len(engine.trace_store()) > 0
    assert gc.isenabled() is collecting


def test_run_frames(collecting):
    result = run_frames(benchmark("ticker"))
    assert result.report.frames
    assert gc.isenabled() is collecting


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("source", ["rows", "columns"])
def test_profiler_slice(engine, source, collecting):
    store = random_frame_trace(3, n_frames=3, records_per_frame=80)
    if source == "columns":
        store = ColumnarTrace.from_store(store)
    result = Profiler(store).slice(pixel_criteria(store), engine=engine)
    assert len(result.flags) == len(store)
    assert gc.isenabled() is collecting


def test_profiler_slice_that_raises(collecting):
    store = random_frame_trace(3, n_frames=2, records_per_frame=60)
    with pytest.raises(ValueError):
        Profiler(store).slice(pixel_criteria(store), engine="no-such-engine")
    assert gc.isenabled() is collecting
