"""The bounded per-frame walks against one full sequential slice per frame.

``analyze_frames`` on the sequential engine slices each frame with
``bounded_frame_flags``: its share of one seedless walk from the trace
end, its own span, and below the span only while an invocation open at
the frame's begin may still flag an in-span RET.  The reference,
``frames_reference.py``, is the loop it replaced: a full
``Profiler.slice(engine="sequential")`` per frame.  Every case checks
the report and every frame's in-span flags against it, on the
multi-frame workloads, on ``random_frame_trace`` sweeps whose deep
single-threaded frames put invocations across a frame's begin, and on a
hand-built trace whose in-span RET has its CALL at record 1.
"""

import pytest

from repro.harness.experiments import cached_frames
from repro.machine import Tracer
from repro.machine.tracer import TILE_MARKER
from repro.profiler import Profiler
from repro.profiler.criteria import Criterion, SlicingCriteria
from repro.profiler.epoch import SliceFrontier, run_epoch
from repro.profiler.redundancy import (
    analyze_frames,
    bounded_frame_flags,
    frame_pixel_criteria,
)
from repro.trace.records import InstrKind
from repro.workloads import MULTIFRAME_BENCHMARKS
from repro.workloads.fuzz import random_frame_trace

from .frames_reference import analyze_frames_reference, reference_frame_flags

#: sweep name -> ``random_frame_trace`` keyword arguments.  One thread
#: with deep calls and short frames puts invocations across a frame's
#: begin; the last sweep interleaves the default three threads.
SWEEPS = {
    "deep-8": dict(n_threads=1, max_depth=8, records_per_frame=60),
    "deep-10": dict(n_threads=1, max_depth=10, records_per_frame=120),
    "deep-9-empty": dict(n_threads=1, max_depth=9, records_per_frame=90, empty_frame_at=1),
    "threads-empty": dict(empty_frame_at=2),
}
SEEDS = range(40)


def bounded_flags(store):
    """(span, in-span flags or None) per complete frame, from the bounded walks."""
    frames = [
        (span, frame_pixel_criteria(store, span))
        for span in store.frame_spans()
        if span.complete
    ]
    sliced = [(span, criteria) for span, criteria in frames if criteria.criteria]
    deps_of = Profiler(store).control_dependence_index().deps_of
    flags = iter(bounded_frame_flags(store.records(), sliced, deps_of))
    return [
        (span, bytes(next(flags)) if criteria.criteria else None)
        for span, criteria in frames
    ]


def assert_matches_reference(store):
    want = analyze_frames_reference(store)
    assert analyze_frames(store) == want
    for (span, got), (ref_span, ref) in zip(bounded_flags(store), reference_frame_flags(store)):
        assert span == ref_span
        assert got == ref, f"frame {span.frame_id} [{span.begin}, {span.end}]"


def straddling_rets(store):
    """(span, RET index) for every RET inside a complete frame whose CALL
    lies before the frame's begin."""
    calls = {}
    pairs = []
    for i, rec in enumerate(store.records()):
        if rec.kind == InstrKind.CALL:
            calls.setdefault(rec.tid, []).append(i)
        elif rec.kind == InstrKind.RET and calls.get(rec.tid):
            pairs.append((calls[rec.tid].pop(), i))
    return [
        (span, ret)
        for span in store.frame_spans()
        if span.complete
        for call, ret in pairs
        if call < span.begin <= ret <= span.end
    ]


@pytest.mark.parametrize("name", MULTIFRAME_BENCHMARKS)
def test_workload_matches_reference(name):
    assert_matches_reference(cached_frames(name).store)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_seed_sweep_matches_reference(sweep, seed):
    assert_matches_reference(random_frame_trace(seed, **SWEEPS[sweep]))


def test_sweeps_reach_below_the_frame():
    """The deep sweeps do what they are for: invocations cross frame
    begins, and some of their in-span RETs join the slice only through a
    CALL below the frame."""
    crossing = joined = 0
    for sweep in ("deep-8", "deep-10", "deep-9-empty"):
        for seed in SEEDS:
            store = random_frame_trace(seed, **SWEEPS[sweep])
            flags = dict((span.frame_id, f) for span, f in reference_frame_flags(store))
            for span, ret in straddling_rets(store):
                crossing += 1
                in_span = flags[span.frame_id]
                joined += bool(in_span and in_span[ret - span.begin])
    assert crossing >= 500 and joined >= 300, (crossing, joined)


def deep_return_trace():
    """Frame 0 ends an invocation that record 1 opened.

    The frame's paint writes the rastered cell inside ``render``, so the
    invocation is needed; its RET, inside the frame, joins the slice
    when the backward walk reaches the CALL at record 1, 300 records
    below the frame."""
    tracer = Tracer()
    tracer.spawn_thread(1, "CrRendererMain", "main_loop")
    tracer.op("boot", writes=(0x10,))
    tracer.call("render", site="c0")
    for k in range(300):
        tracer.op(f"prep{k % 4}", writes=(0x20 + k % 4,))
    tracer.frame_begin(0, "load")
    tracer.op("paint", reads=(0x10,), writes=(0x100,))
    tracer.marker(TILE_MARKER, (0x100,))
    tracer.ret()
    tracer.frame_end(0)
    tracer.frame_begin(1, "update")
    tracer.op("paint", reads=(0x21,), writes=(0x101,))
    tracer.marker(TILE_MARKER, (0x101,))
    tracer.frame_end(1)
    return tracer.store


def test_in_span_ret_with_call_at_record_one():
    store = deep_return_trace()
    assert_matches_reference(store)
    records = store.records()
    span = store.frame_spans()[0]
    (_, ret), = straddling_rets(store)
    assert records[1].kind == InstrKind.CALL and records[ret].kind == InstrKind.RET
    (_, flags), _ = bounded_flags(store)
    assert flags[ret - span.begin]
    # The frame's own records alone leave the RET out: only the walk
    # below the frame, down to record 1, puts it in.
    criteria = frame_pixel_criteria(store, span)
    deps_of = Profiler(store).control_dependence_index().deps_of
    own = run_epoch(
        records, span.begin, span.end + 1, SliceFrontier.empty(),
        criteria.by_index(), False, span.end, deps_of,
    )
    assert not own.flags[ret - span.begin]


@pytest.mark.parametrize(
    "criteria",
    [
        SlicingCriteria(name="syscalls", include_syscalls=True),
        SlicingCriteria(name="before", criteria=(Criterion(index=0, cells=(0x10,)),)),
        SlicingCriteria(name="after", criteria=(Criterion(index=308, cells=(0x101,)),)),
    ],
    ids=lambda criteria: criteria.name,
)
def test_criteria_outside_the_frame_are_refused(criteria):
    store = deep_return_trace()
    span = store.frame_spans()[0]
    deps_of = Profiler(store).control_dependence_index().deps_of
    with pytest.raises(ValueError, match="outside frame 0"):
        bounded_frame_flags(store.records(), [(span, criteria)], deps_of)
