"""Trace sanitizer: clean traces pass, corrupted traces fail by name."""

import dataclasses

import pytest

from repro.machine.registers import FLAGS, RBX
from repro.machine.tracer import TILE_MARKER, Tracer
from repro.trace.lint import TraceLintError, lint_or_raise, lint_trace
from repro.trace.records import InstrKind, TraceRecord
from repro.trace.store import save_trace
from repro.workloads.fuzz import random_trace


def _clean_store():
    """A small hand-built trace satisfying every invariant."""
    tracer = Tracer()
    tracer.spawn_thread(1, "CrRendererMain", "main_loop")
    tracer.op("init", writes=(0x10, 0x11), reg_writes=(RBX,))
    tracer.call("work")
    tracer.op("step", reads=(0x10,), writes=(0x12,), reg_reads=(RBX,))
    tracer.compare_and_branch("loop", (0x12,))
    tracer.syscall("write", reads=(0x12,))
    tracer.ret()
    tracer.op("paint", writes=(0x20, 0x21))
    tracer.marker(TILE_MARKER, (0x20, 0x21))
    return tracer.store


def _counts(report):
    return {check: n for check, n in report.counts.items() if n}


def test_clean_trace_passes():
    report = lint_trace(_clean_store())
    assert report.ok
    assert _counts(report) == {}
    assert "PASS" in report.summary()


@pytest.mark.parametrize("seed", range(5))
def test_fuzz_traces_are_fully_clean(seed):
    """The generator is def-before-use: not even warnings remain."""
    report = lint_trace(random_trace(seed, target_records=1_200))
    assert report.ok
    assert _counts(report) == {}


def test_fuzz_trace_lints_before_slicing():
    lint_or_raise(random_trace(3))  # must not raise


def test_wiki_workload_trace_passes():
    from repro.harness.experiments import run_engine
    from repro.workloads import benchmark

    bench = benchmark("wiki_article")
    bench.config.load_animation_ticks = 2
    report = lint_trace(run_engine(bench).trace_store())
    assert report.ok, report.summary()
    # Real engine traces read pre-initialized state; that is diagnostic only.
    errors = {
        c: n for c, n in _counts(report).items() if c != "memory-use-before-def"
    }
    assert errors == {}


def test_unbalanced_call_is_named_violation():
    store = _clean_store()
    records = store.records()
    ret_at = next(
        i for i, r in enumerate(records) if r.kind == InstrKind.RET
    )
    del records[ret_at]
    report = lint_trace(store)
    assert not report.ok
    assert report.counts["call-ret-balance"] == 1
    with pytest.raises(TraceLintError, match="call-ret-balance"):
        lint_or_raise(store)


def test_extra_ret_is_named_violation():
    store = _clean_store()
    store.append(
        TraceRecord(tid=1, pc=999, kind=InstrKind.RET, fn=0)
    )
    report = lint_trace(store)
    assert report.counts["call-ret-balance"] == 1


def test_stripped_cmp_is_named_violation():
    store = _clean_store()
    records = store.records()
    cmp_at = next(
        i for i, r in enumerate(records) if r.kind == InstrKind.CMP
    )
    del records[cmp_at]
    report = lint_trace(store)
    assert not report.ok
    assert report.counts["branch-flags-pairing"] >= 1
    # The branch now also reads FLAGS that nothing wrote.
    assert report.counts["register-use-before-def"] >= 1


def test_register_read_before_write_is_named_violation():
    store = _clean_store()
    records = store.records()
    records[0] = dataclasses.replace(records[0], regs_read=(FLAGS,))
    report = lint_trace(store)
    assert report.counts["register-use-before-def"] == 1
    assert "flags" in str(report.errors[0])


def test_syscall_arg_registers_are_exempt():
    # The ABI hand-off is implicit: a SYSCALL reading rdi/rsi without a
    # prior write must not be flagged (calibrated on real engine traces).
    report = lint_trace(_clean_store())
    assert report.counts["register-use-before-def"] == 0


def test_memory_use_before_def_is_warning_only():
    store = _clean_store()
    records = store.records()
    records[0] = dataclasses.replace(records[0], mem_read=(0x999,))
    report = lint_trace(store)
    assert report.counts["memory-use-before-def"] == 1
    assert report.ok  # warnings do not fail the lint
    lint_or_raise(store)  # and do not raise


def test_non_monotone_tile_markers_are_named_violation():
    store = _clean_store()
    store.metadata.tile_buffers.append((0, (0x20,)))  # before the real one
    report = lint_trace(store)
    assert report.counts["monotone-marker-clock"] >= 1


def test_marker_metadata_mismatch_is_named_violation():
    store = _clean_store()
    index, _cells = store.metadata.tile_buffers[0]
    store.metadata.tile_buffers[0] = (index, (0xDEAD,))
    report = lint_trace(store)
    assert report.counts["monotone-marker-clock"] == 1


def test_malformed_syscall_record_is_named_violation():
    store = _clean_store()
    records = store.records()
    sys_at = next(
        i for i, r in enumerate(records) if r.kind == InstrKind.SYSCALL
    )
    records[sys_at] = dataclasses.replace(records[sys_at], syscall=None)
    report = lint_trace(store)
    assert report.counts["record-shape"] == 1


def test_unknown_tid_is_named_violation():
    store = _clean_store()
    store.append(TraceRecord(tid=77, pc=1, kind=InstrKind.OP, fn=0))
    report = lint_trace(store)
    assert report.counts["record-shape"] == 1


def _locked_store(ops):
    """A clean trace plus a scripted sequence of lock marker events."""
    tracer = Tracer()
    tracer.spawn_thread(1, "CrRendererMain", "main_loop")
    tracer.op("init", writes=(0x10,))
    for op, cell in ops:
        if op == "acquire":
            tracer.lock_acquire(cell)
        else:
            tracer.lock_release(cell)
    return tracer.store


def test_recursive_lock_acquire_is_named_violation():
    store = _locked_store(
        [("acquire", 0x900), ("acquire", 0x900), ("release", 0x900)]
    )
    report = lint_trace(store)
    assert report.counts["lock-discipline"] == 1
    assert "recursive" in str(report.errors[0])


def test_release_of_unheld_lock_is_named_violation():
    store = _locked_store([("release", 0x900)])
    report = lint_trace(store)
    assert report.counts["lock-discipline"] == 1
    assert "not held" in str(report.errors[0])


def test_lock_held_at_trace_end_is_named_violation():
    store = _locked_store([("acquire", 0x900)])
    report = lint_trace(store)
    assert report.counts["lock-discipline"] == 1
    assert "still held" in str(report.errors[0])


def test_malformed_sync_marker_is_named_violation():
    tracer = Tracer()
    tracer.spawn_thread(1, "CrRendererMain", "main_loop")
    tracer.marker("sync:release", (0x900, 0x901))  # two sync cells: invalid
    report = lint_trace(tracer.store)
    assert report.counts["lock-discipline"] == 1
    assert "malformed" in str(report.errors[0])


def test_sync_markers_are_exempt_from_memory_use_before_def():
    # Sync cells are never data-written; the markers that "read" them must
    # not trip the use-before-def heuristics.
    store = _locked_store([("acquire", 0x900), ("release", 0x900)])
    report = lint_trace(store)
    assert report.counts["memory-use-before-def"] == 0


def test_ipc_use_before_def_is_named_violation():
    tracer = Tracer()
    tracer.spawn_thread(3, "Chrome_ChildIOThread", "io_loop")
    with tracer.function("ipc::ChannelMojo::OnMessageReceived"):
        tracer.op("unpickle0", reads=(0x700,), writes=(0x700,))
    report = lint_trace(tracer.store)
    assert not report.ok
    assert report.counts["ipc-use-before-def"] == 1
    # The generic warning fires too, but only the IPC check is an error.
    assert report.counts["memory-use-before-def"] == 1


def test_ipc_frames_with_produced_payloads_pass():
    from repro.browser.context import EngineContext, IO_THREAD, MAIN_THREAD
    from repro.browser.ipc.channel import IPCChannel

    ctx = EngineContext()
    ctx.spawn_threads()
    channel = IPCChannel(ctx)
    ctx.tracer.switch(MAIN_THREAD)
    buffer_cell = channel.serialize("Swap")
    ctx.tracer.switch(IO_THREAD)
    channel.flush_on_io_thread(buffer_cell)
    channel.receive("Ack")
    report = lint_trace(ctx.tracer.store)
    assert report.counts["ipc-use-before-def"] == 0
    assert report.counts["lock-discipline"] == 0


def test_cli_lint_json_output(tmp_path, capsys):
    import json

    from repro.trace.__main__ import main as trace_main

    path = tmp_path / "clean.ucwa"
    save_trace(random_trace(13, target_records=800), path)
    assert trace_main(["lint", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True
    assert data["path"] == str(path)
    from repro.trace.lint import CHECKS

    assert set(data["counts"]) == set(CHECKS)
    assert data["issues"] == []


def test_cli_lint_json_reports_findings_and_fails(tmp_path, capsys):
    import json

    from repro.trace.__main__ import main as trace_main

    tracer = Tracer()
    tracer.spawn_thread(1, "CrRendererMain", "main_loop")
    tracer.op("init", writes=(0x10,))
    tracer.lock_acquire(0x900)  # never released
    path = tmp_path / "held.ucwa"
    save_trace(tracer.store, path)
    assert trace_main(["lint", str(path), "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is False
    assert data["counts"]["lock-discipline"] == 1
    assert data["issues"][0]["check"] == "lock-discipline"
    assert data["issues"][0]["severity"] == "error"


def test_cli_lint_passes_on_clean_trace(tmp_path, capsys):
    from repro.trace.__main__ import main as trace_main

    path = tmp_path / "clean.ucwa"
    save_trace(random_trace(11, target_records=800), path)
    assert trace_main(["lint", str(path)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_cli_lint_fails_on_corrupted_trace(tmp_path, capsys):
    from repro.trace.__main__ import main as trace_main

    store = random_trace(12, target_records=800)
    records = store.records()
    ret_at = next(i for i, r in enumerate(records) if r.kind == InstrKind.RET)
    del records[ret_at]
    # Deleting a record shifts every later index; re-anchor the metadata so
    # only the CALL/RET imbalance is under test.
    store.metadata.tile_buffers = [
        (i - 1 if i > ret_at else i, cells)
        for i, cells in store.metadata.tile_buffers
    ]
    path = tmp_path / "corrupt.ucwa"
    save_trace(store, path)
    assert trace_main(["lint", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "call-ret-balance" in out


def test_cli_lint_rejects_bad_options(tmp_path, capsys):
    from repro.trace.__main__ import main as trace_main

    path = tmp_path / "t.ucwa"
    save_trace(_clean_store(), path)
    assert trace_main(["lint", str(path), "--epoch-size=4096"]) == 2
    assert trace_main(["lint", str(path), "--bogus"]) == 2
