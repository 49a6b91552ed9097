"""Differential testing: incremental ≡ sequential ≡ vectorized, per seed.

The conformance checks of ``tests/conformance/checks.py`` over every
randomized multi-frame trace (``frame-<seed>``:
:func:`repro.workloads.fuzz.random_frame_trace`, with a raster-free
frame 2 on every third seed):

* the incremental region-memoizing engine runs every query (each
  frame's pixels, the whole-trace families) with a fresh checkpoint,
  with one checkpoint **shared across the sweep**, and with one saved
  to disk and reloaded mid-sweep — the sharing is the point: a memo
  recorded while slicing frame 2 is consulted while slicing frame 3,
  so any unsound reuse shows up as a flag mismatch;
* the vectorized columnar engine runs the same queries (an independent
  formulation, so a bug would have to be implemented twice to slip
  through);
* :class:`StreamingSliceSession` over the epoch stream of the row store,
  a UCWA2 file and a UCWA3 file must answer each frame like a
  sequential slice of the *stream prefix* (fresh CDI per prefix).
"""

import pytest

from repro.profiler.incremental import RESIDENT_REGIONS, StreamingSliceSession
from repro.trace.stream import open_epoch_stream
from repro.workloads.fuzz import random_frame_trace

from ..conformance.checks import assert_engine, assert_streaming
from ..conformance.inputs import trace


@pytest.mark.parametrize("seed", range(60))
def test_three_engines_agree_per_frame(seed, source_paths, tmp_path):
    name = f"frame-{seed}"
    spans = [s for s in trace(name).frame_spans() if s.complete]
    assert len(spans) >= 4, f"{name}: expected 4 complete frames"
    for engine in ("incremental", "vectorized"):
        assert_engine(name, "row", engine, source_paths, tmp_path)


# Streaming re-slices every prefix sequentially, so it runs on a smaller
# seed set.


@pytest.mark.parametrize("seed", range(10))
def test_streaming_session_matches_prefix_sequential(seed, source_paths):
    for source in ("row", "ucwa2", "ucwa3"):
        assert_streaming(f"frame-{seed}", source, source_paths)


def test_streaming_session_bounded_residency():
    store = random_frame_trace(0, n_frames=6)
    session = StreamingSliceSession(open_epoch_stream(store))
    for result in session.results():
        assert len(session.resident) <= RESIDENT_REGIONS
    assert len(session.regions) > RESIDENT_REGIONS  # regions were evicted
    # Evicted regions re-materialize through the stream: the last frame
    # still sliced its full prefix (n_seen may since have grown past it
    # by the trailing non-frame gap).
    assert len(result.flags) == result.hi <= session.n_seen


def test_streaming_rejects_gapped_epoch():
    stream = open_epoch_stream(trace("frame-1"))
    session = StreamingSliceSession(stream)
    epochs = list(stream.epochs())
    session.feed(epochs[0])
    with pytest.raises(ValueError, match="does not continue"):
        session.feed(epochs[2])
