"""Behavioural tests of the backward slicer on hand-built traces."""

import pytest

from repro.machine import Tracer
from repro.machine.tracer import TILE_MARKER
from repro.profiler import (
    Profiler,
    custom_criteria,
    pixel_criteria,
    syscall_criteria,
)
from repro.profiler.criteria import SlicingCriteria
from repro.trace.records import InstrKind


def make_tracer():
    tracer = Tracer()
    tracer.spawn_thread(1, "CrRendererMain", "root")
    return tracer


def slice_with(tracer, criteria, **kwargs):
    return Profiler(tracer.store).slice(criteria, **kwargs)


def test_straight_line_dataflow():
    tracer = make_tracer()
    a, b, out, junk = 0x100, 0x101, 0x102, 0x103
    with tracer.function("f"):
        i_src = tracer.op("src", writes=(a,))
        i_mid = tracer.op("mid", reads=(a,), writes=(b,))
        i_junk = tracer.op("junk", writes=(junk,))
        i_out = tracer.op("out", reads=(b,), writes=(out,))
    crit = custom_criteria("test", (((i_out + 1), (out,)),))
    # Criterion point just after the writing instruction: anchor at the RET.
    result = slice_with(tracer, crit)
    assert i_out in result
    assert i_mid in result
    assert i_src in result
    assert i_junk not in result


def test_overwritten_definition_not_in_slice():
    tracer = make_tracer()
    cell, src1, src2 = 0x200, 0x201, 0x202
    with tracer.function("f"):
        i_dead = tracer.op("first", reads=(src1,), writes=(cell,))
        i_live = tracer.op("second", reads=(src2,), writes=(cell,))
        i_use = tracer.op("use", reads=(cell,), writes=(0x203,))
    crit = custom_criteria("test", ((i_use + 1, (0x203,)),))
    result = slice_with(tracer, crit)
    assert i_live in result
    assert i_use in result
    assert i_dead not in result  # killed by the second write


def test_control_dependence_pulls_in_branch_and_condition():
    tracer = make_tracer()
    cond_src, cond, val, out = 0x300, 0x301, 0x302, 0x303
    with tracer.function("f"):
        i_cond_src = tracer.op("cond_src", writes=(cond_src,))
        i_cond = tracer.op("cond", reads=(cond_src,), writes=(cond,))
        tracer.compare_and_branch("if", reads=(cond,))
        i_then = tracer.op("then", writes=(val,))
        i_merge = tracer.op("merge", reads=(val,), writes=(out,))
    # Re-run the function taking the other arm so the branch has two
    # dynamic successors and real control dependence exists.
    with tracer.function("f"):
        tracer.op("cond_src", writes=(cond_src,))
        tracer.op("cond", reads=(cond_src,), writes=(cond,))
        tracer.compare_and_branch("if", reads=(cond,))
        tracer.op("merge", reads=(val,), writes=(out,))
    crit = custom_criteria("test", ((i_merge + 1, (out,)),))
    result = slice_with(tracer, crit)
    assert i_then in result
    records = tracer.store.records()
    # The branch and its cmp must have joined the slice.
    br_pc = tracer.pc_of("f", "if$br")
    cmp_pc = tracer.pc_of("f", "if$cmp")
    sliced_pcs = {records[i].pc for i in result.indices()}
    assert br_pc in sliced_pcs
    assert cmp_pc in sliced_pcs
    # And liveness must have flowed through the condition to its producers.
    assert i_cond in result
    assert i_cond_src in result


def test_unneeded_function_call_excluded():
    tracer = make_tracer()
    useful, useless, out = 0x400, 0x401, 0x402
    with tracer.function("outer"):
        with tracer.function("useful_fn"):
            i_useful = tracer.op("w", writes=(useful,))
        with tracer.function("useless_fn"):
            i_useless = tracer.op("w", writes=(useless,))
        i_out = tracer.op("combine", reads=(useful,), writes=(out,))
    crit = custom_criteria("test", ((i_out + 1, (out,)),))
    result = slice_with(tracer, crit)
    records = tracer.store.records()
    assert i_useful in result
    assert i_useless not in result
    # CALL/RET of the useful invocation join the slice...
    call_useful = next(
        i for i, r in enumerate(records)
        if r.kind == InstrKind.CALL and r.pc == tracer.pc_of("outer", "call:useful_fn")
    )
    assert call_useful in result
    assert (i_useful + 1) in result  # its RET record
    # ...but the useless invocation's do not.
    call_useless = next(
        i for i, r in enumerate(records)
        if r.kind == InstrKind.CALL and r.pc == tracer.pc_of("outer", "call:useless_fn")
    )
    assert call_useless not in result
    assert (i_useless + 1) not in result


def test_cross_thread_dataflow_through_shared_memory():
    tracer = make_tracer()
    tracer.spawn_thread(2, "Compositor", "root2")
    shared, out = 0x500, 0x501
    tracer.switch(1)
    with tracer.function("producer"):
        i_prod = tracer.op("w", writes=(shared,))
    tracer.switch(2)
    with tracer.function("consumer"):
        i_cons = tracer.op("r", reads=(shared,), writes=(out,))
    crit = custom_criteria("test", ((i_cons + 1, (out,)),))
    result = slice_with(tracer, crit)
    assert i_cons in result
    assert i_prod in result  # shared live-memory set crosses threads


def test_registers_do_not_leak_across_threads():
    tracer = make_tracer()
    tracer.spawn_thread(2, "Compositor", "root2")
    from repro.machine.registers import RAX

    tracer.switch(1)
    with tracer.function("f1"):
        i_t1 = tracer.op("w", reg_writes=(RAX,))
    tracer.switch(2)
    with tracer.function("f2"):
        i_t2 = tracer.op("r", reg_reads=(RAX,), writes=(0x600,))
    crit = custom_criteria("test", ((i_t2 + 1, (0x600,)),))
    result = slice_with(tracer, crit)
    assert i_t2 in result
    # Thread 2's RAX is a different architectural register than thread 1's.
    assert i_t1 not in result


def test_pixel_criteria_via_tile_marker():
    tracer = make_tracer()
    display_item, pixel = 0x700, 0x701
    with tracer.function("blink::paint::Paint"):
        i_item = tracer.op("record", writes=(display_item,))
        i_junk = tracer.op("junk", writes=(0x702,))
    with tracer.function("cc::RasterBufferProvider::PlaybackToMemory"):
        i_raster = tracer.op("raster", reads=(display_item,), writes=(pixel,))
        tracer.marker(TILE_MARKER, cells=(pixel,))
    result = slice_with(tracer, pixel_criteria(tracer.store))
    assert i_raster in result
    assert i_item in result
    assert i_junk not in result


def test_pixel_criteria_requires_markers():
    tracer = make_tracer()
    with tracer.function("f"):
        tracer.op("a")
    with pytest.raises(ValueError):
        pixel_criteria(tracer.store)


def test_syscall_criteria_seed_inputs():
    tracer = make_tracer()
    buf, junk = 0x800, 0x801
    with tracer.function("net::Send"):
        i_fill = tracer.op("fill", writes=(buf,))
        i_junk = tracer.op("junk", writes=(junk,))
        i_sys = tracer.syscall("sendto", reads=(buf,))
    result = slice_with(tracer, syscall_criteria(tracer.store))
    assert i_sys in result
    assert i_fill in result
    assert i_junk not in result


def test_syscall_not_seeded_under_pixel_criteria():
    tracer = make_tracer()
    buf, pixel = 0x900, 0x901
    with tracer.function("net::Send"):
        i_fill = tracer.op("fill", writes=(buf,))
        i_sys = tracer.syscall("sendto", reads=(buf,))
    with tracer.function("cc::Raster"):
        tracer.op("raster", writes=(pixel,))
        tracer.marker(TILE_MARKER, cells=(pixel,))
    result = slice_with(tracer, pixel_criteria(tracer.store))
    assert i_sys not in result
    assert i_fill not in result


def test_syscall_output_feeding_pixels_is_in_pixel_slice():
    # recvfrom writes the resource buffer the raster path consumes.
    tracer = make_tracer()
    buf, pixel = 0xA00, 0xA01
    with tracer.function("net::Recv"):
        i_sys = tracer.syscall("recvfrom", writes=(buf,))
    with tracer.function("cc::Raster"):
        i_raster = tracer.op("raster", reads=(buf,), writes=(pixel,))
        tracer.marker(TILE_MARKER, cells=(pixel,))
    result = slice_with(tracer, pixel_criteria(tracer.store))
    assert i_raster in result
    assert i_sys in result


def test_windowed_criteria_exclude_late_seeds():
    tracer = make_tracer()
    early_pix, late_pix = 0xB00, 0xB01
    with tracer.function("cc::Raster"):
        i_early = tracer.op("early", writes=(early_pix,))
        m_early = tracer.marker(TILE_MARKER, cells=(early_pix,))
        i_late = tracer.op("late", writes=(late_pix,))
        tracer.marker(TILE_MARKER, cells=(late_pix,))
    crit = pixel_criteria(tracer.store).windowed(m_early)
    result = slice_with(tracer, crit)
    assert i_early in result
    assert i_late not in result


def test_timeline_samples_monotonic():
    tracer = make_tracer()
    cells = [0xC00 + i for i in range(50)]
    with tracer.function("f"):
        for i, cell in enumerate(cells):
            tracer.op(f"w{i}", writes=(cell,))
        last = tracer.op("out", reads=(cells[-1],), writes=(0xCFF,))
    crit = custom_criteria("test", ((last + 1, (0xCFF,)),))
    result = slice_with(tracer, crit, sample_every=10)
    assert result.timeline, "expected timeline samples"
    processed = [s.processed for s in result.timeline]
    assert processed == sorted(processed)
    in_slice = [s.in_slice for s in result.timeline]
    assert in_slice == sorted(in_slice)
    assert all(s.in_slice <= s.processed for s in result.timeline)


def test_timeline_counts_retroactive_ret_at_its_call():
    """A RET that joins retroactively is counted when its CALL is visited:
    sampling every record, ``in_slice`` does not move at g's RET and
    rises by two (CALL and RET) at g's CALL."""
    tracer, crit = _reasons_trace()
    result = slice_with(tracer, crit, sample_every=1)
    records = tracer.store.records()
    n = len(records)
    g = tracer.symbols.lookup("g")
    ret_g = next(
        i for i, r in enumerate(records) if r.kind == InstrKind.RET and r.fn == g
    )
    call_g = next(
        i for i, r in enumerate(records)
        if r.kind == InstrKind.CALL and r.pc == tracer.pc_of("f", "call:g")
    )
    assert ret_g in result and call_g in result
    # timeline[k] is the sample taken after visiting record n - 1 - k.
    in_slice = [0] + [s.in_slice for s in result.timeline]

    def rise(i):
        return in_slice[n - i] - in_slice[n - 1 - i]

    assert rise(ret_g) == 0
    assert rise(call_g) == 2
    assert len(result.timeline) == n + 1
    assert result.timeline[-1].in_slice == result.slice_size()


def test_slice_result_helpers():
    tracer = make_tracer()
    with tracer.function("f"):
        i_a = tracer.op("a", writes=(0xD00,))
        tracer.op("b", writes=(0xD01,))
        i_c = tracer.op("c", reads=(0xD00,), writes=(0xD02,))
    crit = custom_criteria("t", ((i_c + 1, (0xD02,)),))
    result = slice_with(tracer, crit)
    assert result.slice_size() == len(result.indices())
    assert 0.0 < result.fraction() < 1.0
    assert result.total() == len(tracer.store)
    assert i_a in result.indices()


# --------------------------------------------------------------------- #
# Join-reason tracking                                                  #
# --------------------------------------------------------------------- #


def _reasons_trace():
    """One trace that exercises every join kind.

    data (cell), register, control (branch), call (CALL and its
    retroactively-flagged RET), and syscall.
    """
    tracer = make_tracer()
    cond, val, out = 0xE00, 0xE01, 0xE02
    with tracer.function("f"):
        tracer.op("cond_src", writes=(cond,))
        tracer.compare_and_branch("if", reads=(cond,))
        with tracer.function("g"):
            tracer.op("make", writes=(val,), reg_writes=(3,))
            tracer.op("shuffle", reg_reads=(3,), reg_writes=(4,))
            tracer.op("spill", reg_reads=(4,), writes=(val,))
        i_use = tracer.op("use", reads=(val,), writes=(out,))
        tracer.syscall("write", reads=(out,))
    # Second run through the other arm so the branch has two dynamic
    # successors and real control dependence exists.
    with tracer.function("f"):
        tracer.op("cond_src", writes=(cond,))
        tracer.compare_and_branch("if", reads=(cond,))
        tracer.op("use", reads=(val,), writes=(out,))
        tracer.syscall("write", reads=(out,))
    crit = SlicingCriteria(
        name="t",
        criteria=custom_criteria("t", ((i_use + 1, (out,)),)).criteria,
        include_syscalls=True,
    )
    return tracer, crit


def test_track_reasons_records_every_join_kind():
    from repro.profiler import SlicerOptions

    tracer, crit = _reasons_trace()
    result = slice_with(tracer, crit, options=SlicerOptions(track_reasons=True))
    assert result.reasons is not None
    kinds = {kind for kind, _ in result.reasons.values()}
    assert {"data", "register", "control", "call", "syscall"} <= kinds


def test_track_reasons_sum_to_slice_size():
    from repro.profiler import SlicerOptions

    tracer, crit = _reasons_trace()
    result = slice_with(tracer, crit, options=SlicerOptions(track_reasons=True))
    # Every sliced record carries exactly one reason — in particular the
    # retroactively-flagged RETs of needed invocations must not be missed.
    assert set(result.reasons) == set(result.indices())
    assert len(result.reasons) == result.slice_size()


def test_track_reasons_on_retroactive_ret():
    from repro.profiler import SlicerOptions

    tracer, crit = _reasons_trace()
    result = slice_with(tracer, crit, options=SlicerOptions(track_reasons=True))
    records = tracer.store.records()
    g = tracer.symbols.lookup("g")
    ret_g = next(
        i for i, r in enumerate(records)
        if r.kind == InstrKind.RET and r.fn == g
    )
    call_g = next(
        i for i, r in enumerate(records)
        if r.kind == InstrKind.CALL and r.pc == tracer.pc_of("f", "call:g")
    )
    assert ret_g in result and call_g in result
    assert result.reasons[ret_g] == ("call", g)
    assert result.reasons[call_g] == ("call", g)


def test_reason_summary_matches_slice_size():
    from repro.profiler import SlicerOptions, reason_summary

    tracer, crit = _reasons_trace()
    result = slice_with(tracer, crit, options=SlicerOptions(track_reasons=True))
    summary = reason_summary(result)
    assert sum(summary.values()) == result.slice_size()


def test_track_reasons_chained_epochs_agree():
    from repro.profiler import SlicerOptions
    from repro.profiler.cdg import build_index

    from ..conformance.epoch_chain import chained_epoch_slice

    tracer, crit = _reasons_trace()
    options = SlicerOptions(track_reasons=True)
    seq = slice_with(tracer, crit, options=options)
    store = tracer.store
    chain = chained_epoch_slice(
        store, build_index(store.forward()), crit, epoch_size=4, options=options
    )
    assert bytes(chain.flags) == bytes(seq.flags)
    assert set(chain.reasons) == set(seq.reasons)
