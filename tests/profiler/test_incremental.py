"""Incremental engine: registration, checkpoint reuse, adversarial traces.

The differential guarantee (incremental ≡ sequential ≡ vectorized, byte
for byte, on every trace source) is checked by the conformance matrix in
``tests/conformance/``, whose inputs include the three hand-built traces
below, and by its frame-seed sweep in ``test_incremental_differential.py``;
this module covers the engine plumbing and the records a
region-memoizing engine is most likely to get wrong:

* a slice whose dependence chain crosses a frame boundary,
* a chain reaching back **two** frames (the middle frame must thread the
  frontier through untouched),
* an empty frame (no raster, empty criteria),
* resuming from a checkpoint that was serialized to disk mid-sweep,
* the steady-state guard: with a shared checkpoint, frame ``N+1``'s
  slice touches well under half the records a full re-slice walks.
"""

import pytest

from repro.profiler import Profiler
from repro.profiler.api import ENGINES
from repro.profiler.cdg import build_index
from repro.profiler.criteria import syscall_criteria
from repro.profiler.incremental import (
    IncrementalSlicer,
    SliceCheckpoint,
    options_key,
)
from repro.profiler.redundancy import frame_pixel_criteria
from repro.profiler.slicer import DEFAULT_OPTIONS, SlicerOptions
from repro.workloads.fuzz import random_trace

from ..conformance.inputs import (
    cross_frame_trace,
    empty_frame_trace,
    open_source,
    trace,
    two_frames_back_trace,
)


@pytest.fixture(scope="module")
def ticker_store():
    return trace("ticker")


# --------------------------------------------------------------------- #
# Engine registration                                                   #
# --------------------------------------------------------------------- #


def test_profiler_engine_matches_sequential(ticker_store):
    profiler = Profiler(ticker_store)
    span = ticker_store.frame_spans()[1]
    criteria = frame_pixel_criteria(ticker_store, span)
    seq = profiler.slice(criteria, engine="sequential")
    inc = profiler.slice(criteria, engine="incremental")
    assert bytes(inc.flags) == bytes(seq.flags)
    assert inc.engine_stats["engine"] == "incremental"
    assert inc.engine_stats["records_total"] == len(ticker_store)


def test_unknown_engine_rejected(source_paths):
    """On a row store and an indexed file alike, the error names the
    unknown engine and every registered one."""
    for store in (trace("frame-2"), open_source("frame-2", "ucwa3-index", source_paths)):
        for engine in ("sideways", "turbo", "parallel"):
            with pytest.raises(ValueError) as err:
                Profiler(store).pixel_slice(engine=engine)
            assert all(name in str(err.value) for name in (repr(engine), *ENGINES))


@pytest.mark.parametrize(
    "request_kwargs",
    ({"sample_every": 5}, {"options": SlicerOptions(track_reasons=True)}),
    ids=("sample-every", "track-reasons"),
)
@pytest.mark.parametrize("engine", ("vectorized", "incremental"))
def test_fast_engines_reject_timeline_and_reasons(engine, request_kwargs):
    """Only the sequential engine returns timelines and join reasons."""
    store = random_trace(5, target_records=400)
    with pytest.raises(ValueError, match="sequential"):
        Profiler(store).slice(
            syscall_criteria(store), engine=engine, **request_kwargs
        )


# --------------------------------------------------------------------- #
# Checkpoint reuse                                                      #
# --------------------------------------------------------------------- #


def test_shared_checkpoint_steady_state_guard(ticker_store):
    """Frame N+1 from frame N's checkpoint touches < 50% of the records
    a full re-slice walks (the CI smoke guard)."""
    profiler = Profiler(ticker_store)
    spans = ticker_store.frame_spans()
    assert len(spans) >= 5
    for i, span in enumerate(spans):
        criteria = frame_pixel_criteria(ticker_store, span)
        seq = profiler.slice(criteria, engine="sequential")
        inc = profiler.slice(criteria, engine="incremental")
        assert bytes(inc.flags) == bytes(seq.flags), f"frame {span.frame_id}"
        stats = inc.engine_stats
        if i >= 3:  # steady state: every seedless region is memoized
            touched = stats["records_touched"] / stats["records_total"]
            assert touched < 0.5, (
                f"frame {span.frame_id}: incremental touched {touched:.1%} "
                f"of the trace; expected well under 50%"
            )
            assert stats["memo_exact"] + stats["memo_pass_through"] > 0


def test_fresh_checkpoint_per_call_never_reuses(ticker_store):
    spans = ticker_store.frame_spans()
    cdi = build_index(ticker_store.records())
    for span in spans[:2]:
        criteria = frame_pixel_criteria(ticker_store, span)
        slicer = IncrementalSlicer(ticker_store, cdi, criteria)
        slicer.run()
        assert slicer.exact_hits == 0 and slicer.pass_throughs == 0
        assert slicer.records_touched == len(ticker_store)


def test_options_change_drops_memos(ticker_store):
    profiler = Profiler(ticker_store)
    span = ticker_store.frame_spans()[1]
    criteria = frame_pixel_criteria(ticker_store, span)
    profiler.slice(criteria, engine="incremental")
    ckpt = profiler.slice_checkpoint()
    assert ckpt.memos
    ckpt.ensure_layout(ckpt.regions, "cd=0;call=1")
    assert not ckpt.memos and not ckpt.facts


def test_checkpoint_disk_resume(ticker_store, tmp_path):
    """Serialize mid-sweep, reload, and keep slicing: the reloaded memos
    are reused and the flags stay byte-identical to sequential."""
    profiler = Profiler(ticker_store)
    spans = ticker_store.frame_spans()
    half = spans[: len(spans) // 2]
    for span in half:
        profiler.slice(
            frame_pixel_criteria(ticker_store, span), engine="incremental"
        )
    path = tmp_path / "ticker.ckpt"
    profiler.slice_checkpoint().save(path)

    resumed = SliceCheckpoint.load(path)
    assert resumed.options_key == options_key(DEFAULT_OPTIONS)
    assert set(resumed.memos) == set(profiler.slice_checkpoint().memos)
    fresh = Profiler(ticker_store)
    for span in spans[len(spans) // 2 :]:
        criteria = frame_pixel_criteria(ticker_store, span)
        seq = fresh.slice(criteria, engine="sequential")
        inc = fresh.slice(criteria, engine="incremental", checkpoint=resumed)
        assert bytes(inc.flags) == bytes(seq.flags), f"frame {span.frame_id}"
    assert resumed.counters.exact_hits + resumed.counters.pass_throughs > 0


# --------------------------------------------------------------------- #
# Adversarial hand-built traces                                         #
# --------------------------------------------------------------------- #


def _frame_slice(store, frame):
    """Frame ``frame``'s pixel slice, by the incremental engine."""
    criteria = frame_pixel_criteria(store, store.frame_spans()[frame])
    profiler = Profiler(store, cdi=build_index(store.records()))
    return profiler.slice(criteria, engine="incremental")


def _written(store, cell):
    return next(
        i for i, r in enumerate(store.records()) if r.mem_written == (cell,)
    )


def test_cross_frame_memory_dependence():
    """Frame 1's paint reads a cell only frame 0 wrote: the producing
    write in frame 0 must be in frame 1's slice."""
    store = cross_frame_trace()
    result = _frame_slice(store, 1)
    assert result.flags[_written(store, 0x100)], (
        "cross-frame producer must be in the slice"
    )


def test_slice_reaches_back_two_frames():
    """The dependence chain skips the middle frame entirely, so the
    incremental walk must pass the frontier through frame 1 unresolved
    and land it on frame 0's write."""
    store = two_frames_back_trace()
    result = _frame_slice(store, 2)
    assert result.flags[_written(store, 0x300)], "chain must reach back two frames"
    assert not result.flags[_written(store, 0x310)], (
        "middle frame's work is off-chain"
    )


def test_empty_frame():
    """A frame that rasters nothing yields empty criteria and an
    all-zero slice."""
    store = empty_frame_trace()
    assert not frame_pixel_criteria(store, store.frame_spans()[1]).criteria
    assert not any(_frame_slice(store, 1).flags)
