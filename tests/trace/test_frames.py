"""Frame epochs: tracer validation, binary round trip, lint check."""

import pytest

from repro.machine import Tracer
from repro.machine.tracer import TILE_MARKER
from repro.trace.lint import lint_trace
from repro.trace.records import (
    FRAME_BEGIN_MARKER,
    FRAME_END_MARKER,
    FrameSpan,
    InstrKind,
    TraceRecord,
)
from repro.trace.columnar import save_ucwa3
from repro.trace.store import load_any_trace


def _frame_trace():
    tracer = Tracer()
    tracer.spawn_thread(1, "CrRendererMain", "main_loop")
    tracer.frame_begin(0, "load")
    tracer.op("build", writes=(0x10,))
    tracer.op("paint", reads=(0x10,), writes=(0x20,))
    tracer.marker(TILE_MARKER, cells=(0x20,))
    tracer.frame_end(0)
    tracer.frame_begin(1, "update")
    tracer.op("tick", reads=(0x10,), writes=(0x21,))
    tracer.marker(TILE_MARKER, cells=(0x21,))
    tracer.frame_end(1)
    return tracer.store


def test_frame_spans_recorded():
    store = _frame_trace()
    spans = store.frame_spans()
    assert [s.frame_id for s in spans] == [0, 1]
    assert [s.kind for s in spans] == ["load", "update"]
    assert all(s.complete for s in spans)
    records = list(store.records())
    for span in spans:
        assert records[span.begin].marker == FRAME_BEGIN_MARKER
        assert records[span.end].marker == FRAME_END_MARKER
        assert span.n_records() == span.end - span.begin + 1


def test_frame_round_trip(tmp_path):
    store = _frame_trace()
    path = tmp_path / "frames.ucwa"
    save_ucwa3(store, path, with_index=False)
    loaded = load_any_trace(path)
    assert list(loaded.records()) == list(store.records())
    assert [
        (s.frame_id, s.kind, s.begin, s.end) for s in loaded.frame_spans()
    ] == [(s.frame_id, s.kind, s.begin, s.end) for s in store.frame_spans()]


def test_incomplete_frame_round_trips_as_incomplete(tmp_path):
    tracer = Tracer()
    tracer.spawn_thread(1, "CrRendererMain", "main_loop")
    tracer.frame_begin(0, "load")
    tracer.op("work", writes=(0x10,))
    path = tmp_path / "open.ucwa"
    save_ucwa3(tracer.store, path, with_index=False)
    loaded = load_any_trace(path)
    assert loaded.frame_spans() == []  # only complete spans qualify
    spans = loaded.metadata.frames
    assert len(spans) == 1 and not spans[0].complete


def test_tracer_rejects_nested_frames():
    tracer = Tracer()
    tracer.spawn_thread(1, "CrRendererMain", "main_loop")
    tracer.frame_begin(0, "load")
    with pytest.raises(RuntimeError, match="still open"):
        tracer.frame_begin(1, "update")


def test_tracer_rejects_non_increasing_frame_ids():
    tracer = Tracer()
    tracer.spawn_thread(1, "CrRendererMain", "main_loop")
    tracer.frame_begin(1, "load")
    tracer.frame_end(1)
    with pytest.raises(RuntimeError, match="must increase"):
        tracer.frame_begin(1, "update")


def test_tracer_rejects_mismatched_frame_end():
    tracer = Tracer()
    tracer.spawn_thread(1, "CrRendererMain", "main_loop")
    tracer.frame_begin(0, "load")
    with pytest.raises(RuntimeError, match="not the open frame"):
        tracer.frame_end(3)


def test_lint_accepts_clean_frame_trace():
    report = lint_trace(_frame_trace())
    assert report.ok, report.summary()


def test_lint_flags_unbalanced_frame_markers():
    store = _frame_trace()
    store.extend(
        [TraceRecord(tid=1, pc=999, kind=InstrKind.MARKER, fn=0, marker=FRAME_END_MARKER)]
    )
    report = lint_trace(store)
    assert not report.ok
    assert any(i.check == "frame-epoch-monotonicity" for i in report.issues)


def test_lint_flags_overlapping_frame_spans():
    store = _frame_trace()
    spans = store.metadata.frames
    spans.append(FrameSpan(frame_id=2, kind="update", begin=spans[-1].end, end=None))
    report = lint_trace(store)
    assert any(i.check == "frame-epoch-monotonicity" for i in report.issues)
