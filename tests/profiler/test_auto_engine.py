"""The default ``engine="auto"``: which engine it picks, and that it is exact.

The routing matrix crosses every trace source the profiler accepts, and
every request beyond the flags, with every criteria family plus one
frame-windowed query, on one frame trace opened afresh per case
(``tests/conformance/checks.py``: :func:`assert_auto_request`).  Each
case asserts the engine ``auto`` reports in ``engine_stats["engine"]``
and that the result equals the sequential reference in every other
field (flags, timeline, visited count, reasons): ``auto`` may only pick
a faster engine where nothing but the speed changes.
"""

import pytest

from repro.profiler import Profiler
from repro.profiler.api import ENGINES, resolve_engine, run_slice_job
from repro.profiler.incremental import SliceCheckpoint
from repro.profiler.redundancy import analyze_frames
from repro.profiler.slicer import SlicerOptions

from ..conformance.checks import REQUESTS, assert_auto_request
from ..conformance.inputs import OPTIONS, SOURCES, open_source, queries, trace

NAME = "frame-7"

#: case -> (trace source, request).  The requests start from the
#: indexed file auto would otherwise run vectorized, so each shows its
#: own rule taking over; only the reference returns timelines and
#: reasons, checkpoint or not.
ROUTES = {
    "row-store": ("row", None),
    "ucwa3-index": ("ucwa3-index", None),
    "ucwa3-no-index": ("ucwa3", None),
    "checkpoint": ("ucwa3-index", "checkpoint"),
    "sample-every": ("ucwa3-index", "sample-every"),
    "options": ("ucwa3-index", "track-reasons"),
    "checkpoint+sample-every": ("ucwa3-index", "checkpoint+sample-every"),
    "checkpoint+reasons": ("ucwa3-index", "checkpoint+reasons"),
}

#: case -> query name (``tests/conformance/inputs.py``: :func:`queries`)
QUERIES = {
    "pixels": "pixels",
    "syscalls": "syscalls",
    "pixels+syscalls": "pixels+syscalls",
    "frame-windowed": "pixels+syscalls:frame1",
}


@pytest.mark.parametrize("query", sorted(QUERIES))
@pytest.mark.parametrize("source", sorted(ROUTES))
def test_auto_routing_matrix(source, query, source_paths):
    kind, request = ROUTES[source]
    store = open_source(NAME, kind, source_paths)
    kwargs = REQUESTS[request]() if request else {}
    assert_auto_request(NAME, kind, Profiler(store), queries(store), QUERIES[query], kwargs)


def test_resolve_engine_rules(source_paths):
    store, bare = trace(NAME), open_source(NAME, "ucwa3", source_paths)
    indexed = open_source(NAME, "ucwa3-index", source_paths)
    assert indexed.index is not None and ENGINES[0] == "auto"
    for trace_, kwargs, want in (
        (store, {}, "sequential"),
        (bare, {}, "sequential"),
        (indexed, {}, "vectorized"),
        (indexed, {"sample_every": 0}, "vectorized"),
        (indexed, {"options": SlicerOptions()}, "vectorized"),
        (indexed, {"options": OPTIONS["no-control"]}, "sequential"),
        (store, {"checkpoint": SliceCheckpoint()}, "incremental"),
        (store, {"checkpoint": SliceCheckpoint(), "sample_every": 5}, "sequential"),
    ):
        assert resolve_engine(trace_, **kwargs) == want, kwargs


def test_every_public_default_is_auto(source_paths):
    indexed = open_source(NAME, "ucwa3-index", source_paths)
    profiler = Profiler(indexed)
    for result in (
        profiler.pixel_slice(),
        profiler.syscall_slice(),
        profiler.combined_slice(),
        run_slice_job(indexed)[0],
    ):
        assert result.engine_stats["engine"] == "vectorized"
    assert run_slice_job(trace(NAME))[0].engine_stats["engine"] == "sequential"


def test_analyze_frames_auto_matches_sequential(source_paths):
    want = analyze_frames(trace(NAME), engine="sequential")
    assert analyze_frames(trace(NAME)) == want
    for source in SOURCES[1:]:
        assert analyze_frames(open_source(NAME, source, source_paths)) == want, source
