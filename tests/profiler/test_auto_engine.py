"""The default ``engine="auto"``: which engine it picks, and that it is exact.

The routing matrix crosses every trace source the profiler accepts with
every criteria family plus one frame-windowed query.  Each case asserts
the engine ``auto`` reports in ``engine_stats["engine"]`` and that the
result equals the sequential reference in every other field (flags,
timeline, visited count, reasons): ``auto`` may only pick a faster
engine where nothing but the speed changes.
"""

import dataclasses

import pytest

np = pytest.importorskip("numpy")

from repro.profiler import Profiler
from repro.profiler.api import ENGINES, job_criteria, resolve_engine, run_slice_job
from repro.profiler.cdg import build_index
from repro.profiler.incremental import SliceCheckpoint
from repro.profiler.redundancy import analyze_frames
from repro.profiler.slicer import SlicerOptions, slice_trace
from repro.trace.columnar import ColumnarTrace, convert_trace
from repro.trace.store import load_any_trace, save_trace
from repro.workloads.fuzz import random_frame_trace

#: source -> (how the store is obtained, extra slice arguments, expected pick)
SOURCES = {
    "row-store": ("store", {}, "sequential"),
    "ucwa2-file": ("v2", {}, "sequential"),
    "ucwa3-index": ("v3", {}, "vectorized"),
    "ucwa3-no-index": ("v3-bare", {}, "sequential"),
    # The next five start from the trace auto would otherwise run
    # vectorized, so each shows its own rule taking over.
    "checkpoint": ("v3", {"checkpoint": True}, "incremental"),
    "sample-every": ("v3", {"sample_every": 97}, "sequential"),
    "options": ("v3", {"options": SlicerOptions(track_reasons=True)}, "sequential"),
    # Only the reference returns timelines and reasons, checkpoint or not.
    "checkpoint+sample-every": (
        "v3", {"checkpoint": True, "sample_every": 97}, "sequential",
    ),
    "checkpoint+reasons": (
        "v3",
        {"checkpoint": True, "options": SlicerOptions(track_reasons=True)},
        "sequential",
    ),
}

#: criteria family, and the frame it is windowed to (None: whole trace)
QUERIES = {
    "pixels": ("pixels", None),
    "syscalls": ("syscalls", None),
    "pixels+syscalls": ("pixels+syscalls", None),
    "frame-windowed": ("pixels+syscalls", 1),
}


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    store = random_frame_trace(7)
    root = tmp_path_factory.mktemp("auto")
    paths = {"v2": root / "t2.ucwa", "v3": root / "t3.ucwa", "v3-bare": root / "t3b.ucwa"}
    save_trace(store, paths["v2"])
    convert_trace(paths["v2"], paths["v3"])
    convert_trace(paths["v2"], paths["v3-bare"], with_index=False)
    return store, paths


def _open(traces, kind):
    store, paths = traces
    return store if kind == "store" else load_any_trace(paths[kind])


def _fields(result):
    return {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name != "engine_stats"
    }


@pytest.mark.parametrize("query", sorted(QUERIES))
@pytest.mark.parametrize("source", sorted(SOURCES))
def test_auto_routing_matrix(traces, source, query):
    kind, extra, expected = SOURCES[source]
    family, frame = QUERIES[query]
    store = _open(traces, kind)
    kwargs = dict(extra)
    if kwargs.pop("checkpoint", False):
        kwargs["checkpoint"] = SliceCheckpoint()

    got = Profiler(store).slice(job_criteria(store, family, frame), **kwargs)

    assert got.engine_stats["engine"] == expected
    row = traces[0]
    kwargs.pop("checkpoint", None)
    reference = Profiler(row).slice(
        job_criteria(row, family, frame), engine="sequential", **kwargs
    )
    assert reference.engine_stats["engine"] == "sequential"
    assert bytes(got.flags) == bytes(reference.flags)
    assert _fields(got) == _fields(reference)


def test_resolve_engine_rules(traces):
    store, paths = traces
    indexed = load_any_trace(paths["v3"])
    assert isinstance(indexed, ColumnarTrace) and indexed.index is not None
    assert resolve_engine(store) == "sequential"
    assert resolve_engine(indexed) == "vectorized"
    assert resolve_engine(indexed, sample_every=0) == "vectorized"
    assert resolve_engine(indexed, options=SlicerOptions()) == "vectorized"
    assert (
        resolve_engine(indexed, options=SlicerOptions(control_dependences=False))
        == "sequential"
    )
    assert resolve_engine(store, checkpoint=SliceCheckpoint()) == "incremental"
    assert (
        resolve_engine(store, checkpoint=SliceCheckpoint(), sample_every=5)
        == "sequential"
    )
    assert ENGINES[0] == "auto"


def test_every_public_default_is_auto(traces):
    store, paths = traces
    indexed = load_any_trace(paths["v3"])
    criteria = job_criteria(indexed, "pixels")
    for result in (
        Profiler(indexed).pixel_slice(),
        Profiler(indexed).syscall_slice(),
        Profiler(indexed).combined_slice(),
        run_slice_job(indexed)[0],
        slice_trace(indexed, criteria),
    ):
        assert result.engine_stats["engine"] == "vectorized"
    assert run_slice_job(store)[0].engine_stats["engine"] == "sequential"


def test_slice_trace_is_profiler_slice(traces):
    """One dispatch table: slice_trace forwards, supplied CDI included."""
    store, _ = traces
    cdi = build_index(store.forward())
    assert Profiler(store, cdi=cdi).control_dependence_index() is cdi
    criteria = job_criteria(store, "pixels")
    got = slice_trace(store, criteria, cdi=cdi)
    assert got.engine_stats == {"engine": "sequential"}
    assert bytes(got.flags) == bytes(Profiler(store).slice(criteria).flags)
    with pytest.raises(ValueError) as via_helper:
        slice_trace(store, criteria, engine="turbo")
    with pytest.raises(ValueError) as via_profiler:
        Profiler(store).slice(criteria, engine="turbo")
    assert str(via_helper.value) == str(via_profiler.value)
    assert "auto" in str(via_helper.value)


def test_analyze_frames_auto_matches_sequential(traces):
    store, paths = traces
    reference = analyze_frames(store, engine="sequential")
    assert analyze_frames(load_any_trace(paths["v3"])) == reference
    assert analyze_frames(store) == reference
