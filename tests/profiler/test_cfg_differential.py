"""CFG differential: the forward pass's CFG builders against the per-record reference.

The forward pass builds its function CFGs from the steps the tracer
recorded as it emitted (a store it made carries them), and from one
batch loop over ``(tid, pc, kind, fn)`` columns for every other trace.
Both are checked against the per-record builder the column walk
replaced (kept verbatim in ``cfg_reference.py``) on every registered
workload, the frame recipe of the multi-frame workloads, three
``random_page`` sites, the three fuzz generators, seeded random emit
programs over every tracer emit, and hand-built traces that break the
CALL/RET discipline.  Every way of feeding it must agree with the
reference: the tracer's steps (checked to walk no column), the same
records as a list, a row store, a UCWA3 image's columns, and one epoch
at a time through :class:`~repro.profiler.incremental.IncrementalCDI`
(stream epochs, and odd-sized batches that split CALLs from their
callees).  A store that had records added through ``append`` or
``extend``, or whose tracer raised in an emit, must agree too.  Nodes,
node order, successors, predecessors, entries, exits and branch pcs
must all be equal.
"""

from __future__ import annotations

import random

import pytest

from repro.harness.experiments import cached_frames, cached_run, run_engine
from repro.machine import Tracer
from repro.machine.tracer import LOAD_COMPLETE_MARKER, TILE_MARKER
from repro.profiler.cfg import DynamicCFGBuilder, build_cfgs
from repro.profiler.incremental import IncrementalCDI
from repro.trace.columnar import ColumnarTrace, parse_columnar, serialize_columnar
from repro.trace.records import InstrKind, TraceRecord
from repro.trace.store import TraceStore, epoch_bounds
from repro.trace.stream import open_epoch_stream
from repro.trace.symbols import SymbolTable
from repro.workloads import (
    MULTIFRAME_BENCHMARKS,
    TABLE2_BENCHMARKS,
    benchmark,
    benchmark_names,
)
from repro.workloads.fuzz import (
    random_frame_trace,
    random_page,
    random_sync_trace,
    random_trace,
)

from . import cfg_reference

SEEDS = range(12)


def cfg_view(cfgs):
    """Everything a FunctionCFG holds, comparable with ``==``."""
    return {
        fn: (
            list(cfg.succs),
            cfg.succs,
            cfg.preds,
            cfg.entries,
            cfg.exits,
            cfg.branch_pcs,
        )
        for fn, cfg in cfgs.items()
    }


def through_incremental_cdi(batches):
    cdi = IncrementalCDI()
    for records in batches:
        cdi.feed(records)
    return cdi._builder.finish()


def no_column_walk(*_columns):
    raise AssertionError("the forward pass walked the columns")


def carried_cfgs(store: TraceStore):
    """``build_cfgs`` of a store that carries its tracer's steps, with
    the column walk made to fail."""
    assert store.cfg_steps is not None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DynamicCFGBuilder, "feed_columns", no_column_walk)
        return build_cfgs(store)


def assert_builders_agree(store: TraceStore, batch_sizes=()) -> None:
    want = cfg_view(cfg_reference.build_cfgs(store.forward()))
    if store.cfg_steps is not None:
        assert cfg_view(carried_cfgs(store)) == want, "tracer steps"
    assert cfg_view(build_cfgs(store)) == want, "row store"
    assert cfg_view(build_cfgs(store.records())) == want, "record list"
    cols = parse_columnar(serialize_columnar(ColumnarTrace.from_store(store)))
    assert cols._materialized is None
    assert cfg_view(build_cfgs(cols)) == want, "UCWA3 columns"
    assert not cols._spans, "the columnar forward pass built records"
    epochs = [epoch.records for epoch in open_epoch_stream(store).epochs()]
    assert cfg_view(through_incremental_cdi(epochs)) == want, "stream epochs"
    for size in batch_sizes:
        batches = [store.span(lo, hi) for lo, hi in epoch_bounds(len(store), size)]
        assert cfg_view(through_incremental_cdi(batches)) == want, f"batches of {size}"


def workload_store(name: str) -> TraceStore:
    if name in TABLE2_BENCHMARKS:
        return cached_run(name).store
    return run_engine(benchmark(name), metrics_ticks=2).trace_store()


def assert_tracer_store_agrees(store: TraceStore, batch_sizes=()) -> None:
    assert store.cfg_steps is not None, "a tracer-made store carries its steps"
    assert_builders_agree(store, batch_sizes)


@pytest.mark.parametrize("name", benchmark_names())
def test_workload_cfgs_match_the_reference(name):
    assert_tracer_store_agrees(workload_store(name))


@pytest.mark.parametrize("name", MULTIFRAME_BENCHMARKS)
def test_frame_recipe_cfgs_match_the_reference(name):
    assert_tracer_store_agrees(cached_frames(name).store)


@pytest.mark.parametrize("seed", [0, 1, 9342])
def test_random_page_cfgs_match_the_reference(seed):
    assert_tracer_store_agrees(run_engine(random_page(seed), metrics_ticks=2).trace_store())


@pytest.mark.parametrize("seed", SEEDS)
def test_random_trace_cfgs_match_the_reference(seed):
    assert_tracer_store_agrees(random_trace(seed), batch_sizes=(1, 7, 61))


@pytest.mark.parametrize("seed", SEEDS)
def test_random_frame_trace_cfgs_match_the_reference(seed):
    assert_tracer_store_agrees(random_frame_trace(seed), batch_sizes=(7, 61))


@pytest.mark.parametrize("seed", SEEDS)
def test_random_sync_trace_cfgs_match_the_reference(seed):
    store, _races = random_sync_trace(seed)
    assert_tracer_store_agrees(store, batch_sizes=(7, 61))


FUNCTIONS = ("layout", "raster", "memcpy", "strlen")
LABELS = ("a", "b", "load", "store")
#: ``leaf_call`` shapes: none, one OP, two, and six labels that wrap at 4
LEAF_SHAPES = ((), ("body",), ("copy0", "copy1"), tuple(f"it{i % 4}" for i in range(6)))
#: ``accumulate`` label cycles of one, three and eight labels
RUN_LABELS = (("t0",), ("e0", "e1", "e2"), tuple(f"tok{i}" for i in range(8)))
MARKERS = (TILE_MARKER, LOAD_COMPLETE_MARKER, "vsync")
SYSCALLS = ("write", "futex", "gettid")


def emit_program(seed: int, steps: int = 700):
    """A seeded list of ``(method, args)`` tracer emits.

    It spawns up to four threads and switches between them inside open
    calls, and uses every emit method: ``leaf_call`` with every shape,
    ``accumulate`` with 0, 1, n, n + 1 and 3n cells for a cycle of n
    labels.  It ends with a CALL as a thread's last record and leaves
    frames open.
    """
    rng = random.Random(seed)
    program = [("spawn_thread", (1, "T1", "ThreadMain"))]
    depth = {1: 0}
    current = 1
    frame_id, frame_open = 0, False

    def cells(count):
        return tuple(rng.randrange(0x1000, 0x1040) for _ in range(count))

    for _ in range(steps):
        roll = rng.random()
        if roll < 0.04 and len(depth) < 4:
            tid = len(depth) + 1
            program.append(("spawn_thread", (tid, f"T{tid}", rng.choice(FUNCTIONS))))
            depth[tid] = 0
        elif roll < 0.14:
            current = rng.choice(sorted(depth))
            program.append(("switch", (current,)))
        elif roll < 0.34:
            program.append(("op", (rng.choice(LABELS), cells(rng.randint(0, 2)), cells(1))))
        elif roll < 0.42:
            program.append(("compare_and_branch", (rng.choice(LABELS), cells(2))))
        elif roll < 0.52:
            program.append(("call", (rng.choice(FUNCTIONS), rng.choice((None, "site")))))
            depth[current] += 1
        elif roll < 0.60:
            if depth[current]:
                program.append(("ret", ()))
                depth[current] -= 1
        elif roll < 0.70:
            program.append(("leaf_call", (rng.choice(FUNCTIONS), rng.choice(LEAF_SHAPES),
                                          cells(1), cells(1))))
        elif roll < 0.78:
            labels = rng.choice(RUN_LABELS)
            n = len(labels)
            count = rng.choice((0, 1, n, n + 1, 3 * n))
            program.append(("accumulate", (labels, range(0x2000, 0x2000 + count), 0x1fff)))
        elif roll < 0.83:
            program.append(("marker", (rng.choice(MARKERS), cells(rng.randint(0, 2)))))
        elif roll < 0.87:
            method = rng.choice(("sync_release", "sync_acquire", "lock_acquire", "lock_release"))
            program.append((method, (0x1f00,)))
        elif roll < 0.92:
            program.append(("syscall", (rng.choice(SYSCALLS), cells(1), cells(1))))
        elif roll < 0.95:
            if frame_open:
                program.append(("frame_end", (frame_id,)))
            else:
                frame_id += 1
                program.append(("frame_begin", (frame_id, "update")))
            frame_open = not frame_open
    program.append(("call", ("pending", None)))
    return program


def run_program(program, tracer=None) -> TraceStore:
    tracer = tracer if tracer is not None else Tracer()
    for method, args in program:
        getattr(tracer, method)(*args)
    return tracer.store


@pytest.mark.parametrize("seed", SEEDS)
def test_random_emit_program_cfgs_match_the_reference(seed):
    assert_tracer_store_agrees(run_program(emit_program(seed)), batch_sizes=(7,))


def test_emit_programs_cover_every_emit_and_shape():
    programs = [emit_program(seed) for seed in SEEDS]
    emits = [(method, args) for program in programs for method, args in program]
    assert {method for method, _args in emits} >= {
        "spawn_thread", "switch", "op", "compare_and_branch", "call", "ret",
        "leaf_call", "accumulate", "marker", "syscall", "frame_begin", "frame_end",
        "sync_release", "sync_acquire", "lock_acquire", "lock_release",
    }
    assert {args[1] for method, args in emits if method == "leaf_call"} == set(LEAF_SHAPES)
    runs = {(args[0], len(args[1])) for method, args in emits if method == "accumulate"}
    for labels in RUN_LABELS:
        n = len(labels)
        assert {(labels, count) for count in (0, 1, n, n + 1, 3 * n)} <= runs
    for program in programs:
        store = run_program(program)
        assert store.records()[-1].kind == InstrKind.CALL
        # Called frames that ran a record are still open at the end.
        last_pcs = store.cfg_steps.last_pcs.values()
        assert any(pc is not None for lasts in last_pcs for pc in lasts[1:])
    switched_in_a_call = False
    for program in programs:
        depth, current = {}, None
        for method, args in program:
            if method == "spawn_thread":
                depth[args[0]] = 0
                current = args[0] if current is None else current
            elif method == "switch":
                switched_in_a_call |= depth[current] > 0 and args[0] != current
                current = args[0]
            elif method == "call":
                depth[current] += 1
            elif method == "ret":
                depth[current] -= 1
    assert switched_in_a_call


@pytest.mark.parametrize("how", ["append", "extend"])
def test_records_added_to_a_tracer_store_get_the_column_walk(how):
    store = run_program(emit_program(3))
    before = cfg_view(carried_cfgs(store))
    # A BRANCH at a pc the tracer never emitted, in the first thread's
    # root function: a store that kept its steps would miss it.
    root = store.records()[0].fn
    record = TraceRecord(tid=1, pc=(root + 1) * (1 << 20) + 4_000, kind=InstrKind.BRANCH, fn=root)
    if how == "append":
        store.append(record)
    else:
        store.extend([record])
    assert store.cfg_steps is None
    assert_builders_agree(store)
    assert cfg_view(build_cfgs(store)) != before


def test_emits_that_raised_leave_the_steps_as_they_were():
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="no thread"):
        tracer.op("a")
    tracer.spawn_thread(1, "main", "root")
    tracer.op("a")
    with pytest.raises(KeyError):
        tracer.syscall("no_such_syscall")
    with pytest.raises(RuntimeError, match="root frame"):
        tracer.ret()
    tracer.op("b")
    tracer.call("f")
    with pytest.raises(KeyError):
        tracer.syscall("no_such_syscall")
    tracer.op("c")
    tracer.ret()
    with pytest.raises(RuntimeError, match="root frame"):
        tracer.ret()
    tracer.syscall("write")
    # The rest of a program whose first emit spawns thread 1.
    run_program(emit_program(5)[1:], tracer)
    assert_tracer_store_agrees(tracer.store)


def unbalanced_trace(seed: int, n: int = 600) -> TraceStore:
    """Records with random threads, functions, kinds and pcs: fn changes
    without a CALL, RETs on empty stacks, pcs shared between functions,
    and CALLs left open at the end of the trace."""
    rng = random.Random(seed)
    kinds = list(InstrKind)
    store = TraceStore(SymbolTable())
    for _ in range(n):
        store.append(
            TraceRecord(
                tid=rng.randrange(3),
                pc=rng.randrange(1, 24),
                kind=rng.choice(kinds),
                fn=rng.randrange(4),
            )
        )
    return store


@pytest.mark.parametrize("seed", SEEDS)
def test_unbalanced_trace_cfgs_match_the_reference(seed):
    store = unbalanced_trace(seed)
    assert store.cfg_steps is None
    assert_builders_agree(store, batch_sizes=(1, 2, 7))
