"""Cross-frame redundancy profiling invariants."""

import pytest

from repro.browser import BrowserEngine
from repro.machine import Tracer
from repro.machine.tracer import TILE_MARKER
from repro.profiler import analyze_frames, frame_pixel_criteria
from repro.profiler.redundancy import _stability_pass
from repro.workloads import benchmark


@pytest.fixture(scope="module")
def ticker_store():
    bench = benchmark("ticker")
    engine = BrowserEngine(bench.config)
    engine.load_page(bench.page)
    engine.run_session(bench.actions)
    return engine.trace_store()


@pytest.fixture(scope="module")
def ticker_report(ticker_store):
    return analyze_frames(ticker_store)


def test_one_result_per_complete_frame(ticker_store, ticker_report):
    spans = ticker_store.frame_spans()
    assert len(ticker_report.frames) == len(spans) >= 5
    for frame, span in zip(ticker_report.frames, spans):
        assert frame.frame_id == span.frame_id
        assert frame.kind == span.kind
        assert frame.total == span.n_records()


def test_breakdown_partitions_each_frame(ticker_report):
    for frame in ticker_report.frames:
        assert frame.in_slice + frame.redundant + frame.fresh_unnecessary == frame.total
        assert frame.unnecessary == frame.redundant + frame.fresh_unnecessary
        assert 0.0 <= frame.slice_fraction <= 1.0
        assert 0.0 <= frame.redundant_fraction <= 1.0


def test_load_frame_has_no_redundancy(ticker_report):
    # Frame 0 computes everything for the first time; nothing executed in
    # an earlier frame, so (almost) nothing can be frame-redundant.
    load = ticker_report.first()
    assert load.kind == "load"
    assert load.redundant_fraction < 0.01


def test_update_frames_detect_redundancy(ticker_report):
    updates = ticker_report.updates()
    assert updates
    assert any(frame.redundant > 0 for frame in updates)


def test_steady_state_ratio(ticker_report):
    ratio = ticker_report.steady_state_ratio()
    assert ratio is not None
    assert ratio < 0.5, f"update frames should be well under half of load, got {ratio:.1%}"


def test_frame_criteria_restrict_to_span(ticker_store):
    spans = ticker_store.frame_spans()
    crits = frame_pixel_criteria(ticker_store, spans[1])
    assert crits.window_end == spans[1].end
    for crit in crits.criteria:
        assert spans[1].begin <= crit.index <= spans[1].end


def test_frameless_trace_is_rejected():
    tracer = Tracer()
    tracer.spawn_thread(1, "CrRendererMain", "main_loop")
    tracer.op("work", writes=(0x10,))
    tracer.marker(TILE_MARKER, cells=(0x10,))
    with pytest.raises(ValueError, match="no complete frame epochs"):
        analyze_frames(tracer.store)


def test_stability_pass_sees_silent_writes():
    # b rereads a cell rewritten only by a stable re-execution of a: the
    # rewrite is silent, so b stays stable (transitive redundancy).
    tracer = Tracer()
    tracer.spawn_thread(1, "CrRendererMain", "main_loop")
    a0 = tracer.op("produce", reads=(0x1,), writes=(0x10,))
    b0 = tracer.op("consume", reads=(0x10,), writes=(0x20,))
    a1 = tracer.op("produce", reads=(0x1,), writes=(0x10,))  # silent rewrite
    b1 = tracer.op("consume", reads=(0x10,), writes=(0x20,))
    c = tracer.op("invalidate", writes=(0x10,))  # genuinely new write
    b2 = tracer.op("consume", reads=(0x10,), writes=(0x20,))
    prev, stable = _stability_pass(tracer.store)
    assert stable[a1] and prev[a1] == a0
    assert stable[b1] and prev[b1] == b0
    assert not stable[b2], "a changing write must break stability"
