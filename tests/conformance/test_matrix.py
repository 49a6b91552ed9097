"""Conformance matrix: every slicing engine against one reference.

The reference is the sequential engine (``BackwardSlicer``) over the row
store; ``checks.py`` holds what each case compares.
:func:`test_reference_trio` checks the reference against the
transitive-closure oracle and the epoch core chained over small epochs,
plus the timeline and join-reason legs only it returns, on the frame
inputs; the fuzz seeds run the same check in
``tests/profiler/test_differential.py``.  :func:`test_engine_matrix`
runs every engine of ``repro.profiler.api.ENGINES`` on every trace
source, query and option set and compares the flags byte for byte with
the reference, and on a file source also the statistics
``run_slice_job`` reports (total, in-slice, per thread) and the
unnecessary-computation categories.
"""

from __future__ import annotations

import pytest

from repro.profiler.api import ENGINES
from repro.profiler.slicer import DEFAULT_OPTIONS

from .checks import assert_engine, assert_reference_trio, assert_requests
from .inputs import ENGINE_GENERATED, OPTIONS, SOURCES

#: input -> the sources its engine cross covers.  The other seeds of each
#: generator run in the sweeps under ``tests/profiler/``; the browser
#: traces, ten times a fuzz trace, cross their row stores with the
#: default options.
CROSS = {
    **dict.fromkeys(
        ("random-0", "frame-1", "sync-3", "cross-frame", "two-frames-back", "empty-frame"),
        SOURCES,
    ),
    **dict.fromkeys(("page-7", "ticker"), ("row",)),
}


@pytest.mark.parametrize(
    "name",
    ("frame-0", "frame-1", "frame-2", "ticker", "cross-frame", "two-frames-back", "empty-frame"),
)
def test_reference_trio(name):
    # Windowed queries: on the inputs crossed on every source.
    assert_reference_trio(name, windowed=CROSS.get(name) == SOURCES)


def _options_for(name, source, engine):
    """The ablations on the fuzz and hand-built row stores, and on their
    indexed files for the two engines that there leave the stored index
    (``vectorized``) or route away from it (``auto``); else the defaults."""
    if name not in ENGINE_GENERATED and (
        source == "row" or (source == "ucwa3-index" and engine in ("vectorized", "auto"))
    ):
        return OPTIONS
    return {"default": DEFAULT_OPTIONS}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name,source", [(n, s) for n, sources in CROSS.items() for s in sources])
def test_engine_matrix(name, source, engine, source_paths, tmp_path):
    options = _options_for(name, source, engine)
    profiler, query_set = assert_engine(name, source, engine, source_paths, tmp_path, options)
    if name not in ENGINE_GENERATED:  # there auto's requests would rerun the reference
        assert_requests(name, source, engine, profiler, query_set)
