"""Streaming epoch reader: region tiling, span access, format invariance."""

import pytest

from repro.trace.records import FrameSpan
from repro.trace.store import TraceStore, save_trace
from repro.trace.stream import (
    NO_FRAME,
    OFFSET_STRIDE,
    compute_regions,
    open_epoch_stream,
    region_digest,
)
from repro.workloads.fuzz import random_frame_trace, random_trace


@pytest.fixture(scope="module")
def frame_store():
    return random_frame_trace(7)


# --------------------------------------------------------------------- #
# Region tiling                                                         #
# --------------------------------------------------------------------- #


def test_regions_tile_exactly(frame_store):
    regions = compute_regions(
        frame_store.metadata.complete_frames(), len(frame_store)
    )
    cursor = 0
    for i, region in enumerate(regions):
        assert region.index == i
        assert region.lo == cursor
        assert region.hi > region.lo
        cursor = region.hi
    assert cursor == len(frame_store)


def test_regions_match_frame_spans(frame_store):
    regions = compute_regions(
        frame_store.metadata.complete_frames(), len(frame_store)
    )
    frames = [r for r in regions if r.is_frame]
    spans = [s for s in frame_store.frame_spans() if s.complete]
    assert [(r.lo, r.hi, r.frame_id, r.kind) for r in frames] == [
        (s.begin, s.end + 1, s.frame_id, s.kind) for s in spans
    ]
    assert regions[0].kind in ("prologue", "load", "update")
    for region in regions:
        if not region.is_frame:
            assert region.kind in ("prologue", "gap")
            assert region.frame_id == NO_FRAME


def test_frameless_trace_is_one_region():
    store = random_trace(3)
    regions = compute_regions(store.metadata.complete_frames(), len(store))
    assert [r.key() for r in regions] == [(0, len(store), NO_FRAME, "all")]


def test_tiling_stable_under_growth(frame_store):
    """A prefix's regions are a prefix of the full tiling (modulo the
    trailing gap), so checkpoints built mid-stream stay valid."""
    frames = frame_store.metadata.complete_frames()
    full = compute_regions(frames, len(frame_store))
    mid = full[len(full) // 2]
    prefix = compute_regions(frames, mid.hi)
    for a, b in zip(prefix, full):
        if a.key() != b.key():  # only the cut-off trailing gap may differ
            assert not a.is_frame and a.hi == mid.hi
    assert prefix[-1].hi == mid.hi


def test_incomplete_trailing_frame_lands_in_gap():
    frames = [
        FrameSpan(frame_id=0, kind="load", begin=2, end=10),
        FrameSpan(frame_id=1, kind="update", begin=14, end=None),
    ]
    regions = compute_regions(frames, 20)
    assert [r.key() for r in regions] == [
        (0, 2, NO_FRAME, "prologue"),
        (2, 11, 0, "load"),
        (11, 20, NO_FRAME, "gap"),
    ]


# --------------------------------------------------------------------- #
# Epoch streams                                                         #
# --------------------------------------------------------------------- #


def _stream_variants(store, tmp_path):
    from repro.trace.columnar import ColumnarTrace, save_columnar

    v2 = tmp_path / "t.ucwa"
    v3 = tmp_path / "t3.ucwa"
    save_trace(store, v2)
    save_columnar(ColumnarTrace.from_store(store), v3)
    return {
        "store": open_epoch_stream(store),
        "file-v2": open_epoch_stream(v2),
        "file-v3": open_epoch_stream(str(v3)),
    }


def test_span_round_trip_across_sources(frame_store, tmp_path):
    reference = list(frame_store.records())
    for name, stream in _stream_variants(frame_store, tmp_path).items():
        assert len(stream) == len(reference), name
        # whole trace, a frame region, and an unaligned slice
        probes = [(0, len(reference)), (5, 6), (17, 170)]
        probes += [(r.lo, r.hi) for r in stream.regions]
        for lo, hi in probes:
            assert stream.span(lo, hi) == reference[lo:hi], (name, lo, hi)


def test_epochs_cover_trace_with_tiles(frame_store, tmp_path):
    for name, stream in _stream_variants(frame_store, tmp_path).items():
        cursor = 0
        tiles = []
        for epoch in stream.epochs():
            assert epoch.lo == cursor, name
            assert len(epoch.records) == epoch.region.n_records()
            tiles.extend(epoch.tiles)
            cursor = epoch.hi
        assert cursor == len(stream), name
        assert tiles == list(frame_store.metadata.tile_buffers), name


def test_span_bounds_checked(frame_store, tmp_path):
    stream = open_epoch_stream(
        (lambda p: (save_trace(frame_store, p), p)[1])(tmp_path / "b.ucwa")
    )
    with pytest.raises(ValueError, match="span"):
        stream.span(0, len(stream) + 1)


def test_empty_span_at_a_stride_boundary(tmp_path):
    source = random_trace(3, target_records=OFFSET_STRIDE + 200)
    store = TraceStore(source.symbols)
    store.extend(source.records()[:OFFSET_STRIDE])
    path = tmp_path / "stride.ucwa"
    save_trace(store, path)
    stream = open_epoch_stream(path)
    assert len(stream) % OFFSET_STRIDE == 0
    assert stream.span(len(stream), len(stream)) == []
    assert stream.span(0, len(stream)) == store.records()


def test_open_epoch_stream_rejects_junk():
    with pytest.raises(TypeError, match="cannot stream"):
        open_epoch_stream(42)


# --------------------------------------------------------------------- #
# Region digests                                                        #
# --------------------------------------------------------------------- #


def test_region_digest_format_invariant(frame_store, tmp_path):
    streams = _stream_variants(frame_store, tmp_path)
    regions = streams["store"].regions
    for region in regions:
        digests = {
            name: region_digest(stream.span(region.lo, region.hi))
            for name, stream in streams.items()
        }
        assert len(set(digests.values())) == 1, (region, digests)


def test_region_digest_detects_tampering(frame_store):
    records = frame_store.span(0, 40)
    import dataclasses

    tampered = list(records)
    tampered[7] = dataclasses.replace(tampered[7], pc=tampered[7].pc ^ 1)
    assert region_digest(records) != region_digest(tampered)
    assert region_digest(records) == region_digest(frame_store.span(0, 40))
