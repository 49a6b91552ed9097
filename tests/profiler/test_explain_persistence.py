"""Tests for slice explanations and slicer options."""

import pytest

from repro.machine import Tracer
from repro.machine.tracer import TILE_MARKER
from repro.profiler import (
    Profiler,
    SlicerOptions,
    custom_criteria,
    pixel_criteria,
    syscall_criteria,
)
from repro.profiler.explain import chain_heads, explain_record, reason_summary


def make_tracer():
    tracer = Tracer()
    tracer.spawn_thread(1, "CrRendererMain", "root")
    return tracer


def traced_program():
    tracer = make_tracer()
    cond, val, out, pixel = 0x10, 0x11, 0x12, 0x13
    with tracer.function("outer"):
        i_cond = tracer.op("set_cond", writes=(cond,))
        tracer.compare_and_branch("check", reads=(cond,))
        with tracer.function("producer"):
            i_val = tracer.op("compute", writes=(val,))
        i_out = tracer.op("combine", reads=(val,), writes=(out,))
    # Second run taking a different path so control dependence is real.
    with tracer.function("outer"):
        tracer.op("set_cond", writes=(cond,))
        tracer.compare_and_branch("check", reads=(cond,))
        tracer.op("combine", reads=(val,), writes=(out,))
    with tracer.function("cc::Raster"):
        i_raster = tracer.op("raster", reads=(out,), writes=(pixel,))
        tracer.marker(TILE_MARKER, cells=(pixel,))
    return tracer, i_cond, i_val, i_out, i_raster


def test_reason_tracking_kinds():
    tracer, i_cond, i_val, i_out, i_raster = traced_program()
    prof = Profiler(tracer.store)
    result = prof.slice(
        pixel_criteria(tracer.store), options=SlicerOptions(track_reasons=True)
    )
    assert result.reasons is not None
    summary = reason_summary(result)
    assert summary.get("data", 0) > 0
    assert summary.get("control", 0) > 0
    assert summary.get("call", 0) > 0


def test_explain_record_strings():
    tracer, i_cond, i_val, i_out, i_raster = traced_program()
    prof = Profiler(tracer.store)
    result = prof.slice(
        pixel_criteria(tracer.store), options=SlicerOptions(track_reasons=True)
    )
    assert "wrote live memory cell" in explain_record(tracer.store, result, i_raster)
    # A record outside the slice:
    outside = next(i for i in range(len(tracer.store)) if not result.flags[i])
    assert "not in the slice" in explain_record(tracer.store, result, outside)


def test_explain_without_tracking():
    tracer, *_ = traced_program()
    prof = Profiler(tracer.store)
    result = prof.slice(pixel_criteria(tracer.store))
    sliced = result.indices()[0]
    assert "track_reasons" in explain_record(tracer.store, result, sliced)
    with pytest.raises(ValueError):
        reason_summary(result)


def test_syscall_reason():
    tracer = make_tracer()
    with tracer.function("net::Send"):
        tracer.op("fill", writes=(0x20,))
        i_sys = tracer.syscall("sendto", reads=(0x20,))
    prof = Profiler(tracer.store)
    result = prof.slice(
        syscall_criteria(tracer.store), options=SlicerOptions(track_reasons=True)
    )
    assert "syscall sendto" in explain_record(tracer.store, result, i_sys)


def test_chain_heads_are_earliest_sliced():
    tracer, i_cond, *_ = traced_program()
    prof = Profiler(tracer.store)
    result = prof.slice(pixel_criteria(tracer.store))
    heads = chain_heads(tracer.store, result, limit=3)
    assert heads
    assert heads[0][0] == result.indices()[0]


def test_options_disable_control_dependences():
    tracer, i_cond, i_val, i_out, i_raster = traced_program()
    prof = Profiler(tracer.store)
    full = prof.slice(pixel_criteria(tracer.store))
    reduced = prof.slice(
        pixel_criteria(tracer.store),
        options=SlicerOptions(control_dependences=False),
    )
    assert reduced.slice_size() < full.slice_size()
    # The condition producer only joins through the branch chain.
    assert full.flags[i_cond]
    assert not reduced.flags[i_cond]


def test_options_disable_call_sites():
    tracer, i_cond, i_val, i_out, i_raster = traced_program()
    prof = Profiler(tracer.store)
    reduced = prof.slice(
        pixel_criteria(tracer.store),
        options=SlicerOptions(call_site_dependences=False),
    )
    records = tracer.store.records()
    from repro.trace.records import InstrKind

    producer_calls = [
        i
        for i, r in enumerate(records)
        if r.kind == InstrKind.CALL
        and r.pc == tracer.pc_of("outer", "call:producer")
    ]
    assert producer_calls
    assert all(not reduced.flags[i] for i in producer_calls)
    # The producer's body still joins via dataflow.
    assert reduced.flags[i_val]
