"""Unit tests for the tracer (pc stability, frames, syscalls, markers)."""

import pytest

from repro.machine import FLAGS, Tracer
from repro.machine.registers import (
    RAX,
    RCX,
    RDI,
    RSI,
    R11,
    SYSCALL_ARG_REGISTERS,
)
from repro.machine.tracer import LOAD_COMPLETE_MARKER, TILE_MARKER
from repro.trace.records import InstrKind


def make_tracer():
    tracer = Tracer()
    tracer.spawn_thread(1, "CrRendererMain", "base::threading::ThreadMain")
    return tracer


def test_same_site_same_pc():
    tracer = make_tracer()
    with tracer.function("blink::html::Parse"):
        i1 = tracer.op("step", reads=(0x1000,), writes=(0x2000,))
        i2 = tracer.op("step", reads=(0x1001,), writes=(0x2001,))
    recs = tracer.store.records()
    assert recs[i1].pc == recs[i2].pc


def test_different_sites_different_pcs():
    tracer = make_tracer()
    with tracer.function("f"):
        i1 = tracer.op("a")
        i2 = tracer.op("b")
    recs = tracer.store.records()
    assert recs[i1].pc != recs[i2].pc


def test_same_label_different_functions_different_pcs():
    tracer = make_tracer()
    with tracer.function("f"):
        i1 = tracer.op("x")
    with tracer.function("g"):
        i2 = tracer.op("x")
    recs = tracer.store.records()
    assert recs[i1].pc != recs[i2].pc
    assert recs[i1].fn != recs[i2].fn


def test_call_ret_bracketing():
    tracer = make_tracer()
    with tracer.function("outer"):
        with tracer.function("inner"):
            tracer.op("w")
    kinds = [r.kind for r in tracer.store.forward()]
    assert kinds == [
        InstrKind.CALL,  # root -> outer
        InstrKind.CALL,  # outer -> inner
        InstrKind.OP,
        InstrKind.RET,  # inner
        InstrKind.RET,  # outer
    ]
    recs = tracer.store.records()
    # CALL records belong to the caller; RET records to the callee.
    assert tracer.symbols.name(recs[1].fn) == "outer"
    assert tracer.symbols.name(recs[3].fn) == "inner"


def test_ret_from_root_raises():
    tracer = make_tracer()
    with pytest.raises(RuntimeError):
        tracer.ret()


def test_compare_and_branch_flags_dataflow():
    tracer = make_tracer()
    with tracer.function("f"):
        tracer.compare_and_branch("cond", reads=(0x1234,))
    cmp_rec, br_rec = tracer.store.records()[-3:-1]
    assert cmp_rec.kind == InstrKind.CMP
    assert cmp_rec.mem_read == (0x1234,)
    assert FLAGS in cmp_rec.regs_written
    assert br_rec.kind == InstrKind.BRANCH
    assert FLAGS in br_rec.regs_read


def test_syscall_abi_registers():
    tracer = make_tracer()
    with tracer.function("net::Socket::Send"):
        idx = tracer.syscall("sendto", reads=(0x9000, 0x9001))
    rec = tracer.store.records()[idx]
    assert rec.kind == InstrKind.SYSCALL
    assert rec.regs_read == SYSCALL_ARG_REGISTERS[:6]
    assert set(rec.regs_written) == {RAX, RCX, R11}
    assert rec.mem_read == (0x9000, 0x9001)


def test_recvfrom_writes_buffer():
    tracer = make_tracer()
    with tracer.function("net::Socket::Recv"):
        idx = tracer.syscall("recvfrom", writes=(0xA000,))
    rec = tracer.store.records()[idx]
    assert rec.mem_written == (0xA000,)


def test_tile_marker_side_channel():
    tracer = make_tracer()
    with tracer.function("cc::RasterBufferProvider::PlaybackToMemory"):
        idx = tracer.marker(TILE_MARKER, cells=(0x5000, 0x5001))
    meta = tracer.store.metadata
    assert meta.tile_buffers == [(idx, (0x5000, 0x5001))]
    assert tracer.store.records()[idx].marker == TILE_MARKER


def test_load_complete_marker():
    tracer = make_tracer()
    with tracer.function("f"):
        idx = tracer.marker(LOAD_COMPLETE_MARKER)
    assert tracer.store.metadata.load_complete_index == idx


def test_thread_switch_and_metadata():
    tracer = make_tracer()
    tracer.spawn_thread(2, "Compositor", "base::threading::ThreadMain")
    tracer.switch(2)
    with tracer.function("cc::Scheduler::Run"):
        idx = tracer.op("w")
    assert tracer.store.records()[idx].tid == 2
    assert tracer.store.metadata.thread_names == {
        1: "CrRendererMain",
        2: "Compositor",
    }
    assert tracer.store.metadata.main_thread_id() == 1


def test_spawn_duplicate_thread_rejected():
    tracer = make_tracer()
    with pytest.raises(ValueError):
        tracer.spawn_thread(1, "again", "root")


def test_switch_unknown_thread_rejected():
    tracer = make_tracer()
    with pytest.raises(KeyError):
        tracer.switch(99)


def test_clock_ticks_per_record():
    tracer = make_tracer()
    with tracer.function("f"):
        tracer.op("a")
        tracer.op("b")
    # CALL + 2 OPs + RET = 4 instructions.
    assert tracer.clock.now_us == pytest.approx(4 * tracer.clock.instr_cost_us)


def test_pc_of_lookup():
    tracer = make_tracer()
    with tracer.function("f"):
        idx = tracer.op("here")
    rec = tracer.store.records()[idx]
    assert tracer.pc_of("f", "here") == rec.pc
    assert tracer.pc_of("f", "nowhere") is None
    assert tracer.pc_of("nofn", "here") is None


def test_syscall_models_consistent():
    from repro.machine.syscalls import BY_NAME, BY_NUMBER, OUTPUT_SYSCALL_NUMBERS, model_for

    assert BY_NAME["sendto"].number == 44
    assert BY_NAME["recvfrom"].writes_user_memory
    assert BY_NAME["sendto"].is_output
    assert not BY_NAME["recvfrom"].is_output
    assert BY_NAME["futex"].reads_user_memory and BY_NAME["futex"].writes_user_memory
    for number in OUTPUT_SYSCALL_NUMBERS:
        assert BY_NUMBER[number].is_output
    assert model_for("write").nargs == 3
    with pytest.raises(KeyError):
        model_for("not_a_syscall")


def test_unknown_syscall_name_rejected_by_tracer():
    tracer = make_tracer()
    with tracer.function("f"):
        with pytest.raises(KeyError):
            tracer.syscall("bogus_syscall")


def test_function_context_manager_pops_on_exception():
    tracer = make_tracer()
    with pytest.raises(ValueError):
        with tracer.function("f"):
            raise ValueError("boom")
    # The frame was popped: current function is the thread root again.
    assert tracer.symbols.name(tracer.current_function()) == "base::threading::ThreadMain"


def test_function_context_manager_emits_ret_when_the_body_raises():
    tracer = make_tracer()
    with pytest.raises(ValueError, match="boom"):
        with tracer.function("f"):
            tracer.op("w")
            raise ValueError("boom")
    call, op, ret = tracer.store.records()
    assert [call.kind, op.kind, ret.kind] == [InstrKind.CALL, InstrKind.OP, InstrKind.RET]
    assert tracer.symbols.name(ret.fn) == "f"
    assert ret.pc == tracer.pc_of("f", "$ret")
