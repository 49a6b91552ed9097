"""The tracer against its one-tick-per-record reference.

``Tracer`` emits records without touching the clock: the clock counts
the tracer's record list and charges what was appended since its last
sync to the thread ``switch`` last selected.  ``leaf_call`` and
``accumulate`` emit a fixed shape of records in one call.
``tracer_reference.py`` keeps the emit methods that tick the clock once
per record, and the loops the two shape emits replace.  Every case runs
the same emits through both and asserts exactly equal records, pc
table, symbol ids, trace metadata, clock readings taken between the
emits, busy totals and Figure 2 series:

* seeded random emit programs over every emit method, thread spawns
  and switches, idle gaps (fractional ones included), explicit ticks
  and clock reads at random points, under three instruction costs;
* a helper shape first used from two callers, in either order, a
  ``plain_bulk`` whose labels wrap, and a zero-weight helper;
* whole workload runs (ticker, bing, ``random_page(0)``) through an
  engine whose context builds a reference tracer.  These also check
  the CFG steps the tracer recorded as it emitted: ``build_cfgs`` of
  the ``Tracer`` run, which reads them, equals the column walk over the
  reference run's records, whose store carries no steps.
"""

import math
import random

import pytest

from repro.browser import BrowserEngine, context
from repro.browser.context import EngineContext
from repro.harness.experiments import cached_run, run_engine
from repro.machine import Tracer
from repro.machine.clock import VirtualClock
from repro.machine.tracer import LOAD_COMPLETE_MARKER, TILE_MARKER
from repro.profiler.cfg import build_cfgs
from repro.trace.records import InstrKind
from repro.workloads import benchmark
from repro.workloads.fuzz import random_page

from ..profiler.test_cfg_differential import cfg_view
from .tracer_reference import ReferenceTracer

INSTR_COSTS = (30.0, 0.7, 33.3)
THREADS = (1, 2, 3, 7)
FUNCTIONS = ("blink::LayoutBlock::Layout", "cc::TileManager::Raster", "memcpy", "malloc")
LABELS = ("a", "b", "load", "store")
#: ``leaf_call`` shapes: one OP, two, none, and 40 labels that wrap at 32
LEAF_SHAPES = (
    ("body",),
    ("copy0", "copy1"),
    (),
    tuple(f"it{i % 32}" for i in range(40)),
)
RUN_LABELS = (tuple(f"tok{i}" for i in range(64)), ("e0", "e1", "e2"))
SYSCALLS = ("write", "sendto", "recvfrom", "futex", "gettid")
MARKERS = (TILE_MARKER, LOAD_COMPLETE_MARKER, "vsync")


def emit_program(seed, steps=1200):
    """A seeded list of ``(target, method, args)`` steps.

    ``target`` is ``"tracer"`` or ``"clock"`` for a call, or ``"read"``
    for a clock reading to record.  The program keeps its own call
    depths and frame state, so it is valid for any correct tracer.
    """
    rng = random.Random(seed)
    program = []
    spawned = []
    depth = {}
    current = None
    frame_id, frame_open = 0, False

    def cells(count):
        return tuple(rng.randrange(0x1000, 0x1040) for _ in range(count))

    def spawn():
        nonlocal current
        tid = THREADS[len(spawned)]
        program.append(("tracer", "spawn_thread", (tid, f"T{tid}", "ThreadMain")))
        spawned.append(tid)
        depth[tid] = 0
        if current is None:
            current = tid

    spawn()
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.03 and len(spawned) < len(THREADS):
            spawn()
        elif roll < 0.11:
            current = rng.choice(spawned)
            program.append(("tracer", "switch", (current,)))
        elif roll < 0.33:
            program.append(("tracer", "op", (rng.choice(LABELS), cells(rng.randint(0, 2)),
                                             cells(rng.randint(0, 2)), cells(rng.randint(0, 1)))))
        elif roll < 0.38:
            program.append(("tracer", "compare_and_branch", (rng.choice(LABELS), cells(2))))
        elif roll < 0.45:
            site = rng.choice((None, None, "site"))
            program.append(("tracer", "call", (rng.choice(FUNCTIONS), site)))
            depth[current] += 1
        elif roll < 0.51:
            if depth[current]:
                program.append(("tracer", "ret", ()))
                depth[current] -= 1
        elif roll < 0.59:
            shape = rng.choice(LEAF_SHAPES)
            program.append(("tracer", "leaf_call", (rng.choice(FUNCTIONS), shape,
                                                    cells(rng.randint(0, 2)), cells(1))))
        elif roll < 0.63:
            base = rng.randrange(0x2000, 0x3000)
            count = rng.choice((0, 1, 5, rng.randint(1, 150)))
            program.append(("tracer", "accumulate", (rng.choice(RUN_LABELS),
                                                     range(base, base + count), 0x1fff)))
        elif roll < 0.66:
            program.append(("tracer", "marker", (rng.choice(MARKERS), cells(rng.randint(0, 2)))))
        elif roll < 0.68:
            method = rng.choice(("sync_release", "sync_acquire", "lock_acquire", "lock_release"))
            program.append(("tracer", method, (0x1f00,)))
        elif roll < 0.71:
            program.append(("tracer", "syscall", (rng.choice(SYSCALLS), cells(1), cells(1))))
        elif roll < 0.73:
            if frame_open:
                program.append(("tracer", "frame_end", (frame_id,)))
            else:
                frame_id += 1
                program.append(("tracer", "frame_begin", (frame_id, "update")))
            frame_open = not frame_open
        elif roll < 0.79:
            gap = rng.choice((0.0, 0.5, 0.25, 7.0, float(rng.randint(1, 90_000)),
                              rng.uniform(0.0, 250_000.0), "edge", "whole"))
            program.append(("clock", "idle", (gap,)))
        elif roll < 0.81:
            program.append(("clock", "tick", (rng.choice(spawned), rng.randint(0, 5))))
        else:
            what = rng.choice(("now_us", "now_us", "series", "busy", "dict"))
            program.append(("read", what, (rng.choice(spawned),)))
    return program


def read_clock(clock, what, tid):
    if what == "now_us":
        return clock.now_us
    if what == "series":
        return clock.utilization_series(tid)
    if what == "busy":
        return clock.busy_time_us(tid)
    return dict(clock._busy)


def run_program(tracer, program):
    """Apply ``program``; return the clock readings it asked for."""
    clock = tracer.clock
    readings = []
    for target, method, args in program:
        if target == "read":
            readings.append((method, read_clock(clock, method, *args)))
        elif target == "clock" and method == "idle" and args[0] in ("edge", "whole"):
            # A gap to the next bucket edge, or to the next whole microsecond.
            now = clock.now_us
            unit = clock.bucket_us if args[0] == "edge" else 1.0
            clock.idle(math.ceil(now / unit) * unit - now)
        else:
            getattr(tracer if target == "tracer" else clock, method)(*args)
    return readings


def site_table(tracer):
    """The pc table, labels included, in the order sites were first seen."""
    return list(tracer._sites.items())


def assert_same_run(tracer, reference):
    """Everything a finished run leaves, compared exactly.

    JS emit-site labels name AST node ids, which each engine numbers
    from 1, so two engine runs in one process have the same labels.
    """
    assert tracer.store.records() == reference.store.records()
    assert site_table(tracer) == site_table(reference)
    assert list(tracer.symbols) == list(reference.symbols)
    assert tracer.store.metadata == reference.store.metadata
    clock, ref_clock = tracer.clock, reference.clock
    assert clock.now_us == ref_clock.now_us
    assert dict(clock._busy) == dict(ref_clock._busy)
    for tid in tracer.store.metadata.thread_names:
        assert clock.utilization_series(tid) == ref_clock.utilization_series(tid)
        assert clock.busy_time_us(tid) == ref_clock.busy_time_us(tid)


def tracer_pair(instr_cost_us=30.0, bucket_us=100_000):
    return (
        Tracer(clock=VirtualClock(instr_cost_us, bucket_us)),
        ReferenceTracer(clock=VirtualClock(instr_cost_us, bucket_us)),
    )


@pytest.mark.parametrize("instr_cost_us", INSTR_COSTS)
@pytest.mark.parametrize("seed", range(6))
def test_random_emit_programs_match_the_reference(instr_cost_us, seed):
    program = emit_program(seed)
    tracer, reference = tracer_pair(instr_cost_us)
    readings = run_program(tracer, program)
    assert readings == run_program(reference, program)
    assert len(readings) > 100
    assert len(tracer.store) > 1000
    assert_same_run(tracer, reference)


def test_random_programs_cover_every_emit_and_both_sync_paths():
    """The seeds above reach every record kind, wrapped labels, and both
    the one-tick sync and the replayed one."""
    program = emit_program(0)
    methods = {method for _target, method, _args in program}
    assert {"spawn_thread", "switch", "op", "compare_and_branch", "call", "ret",
            "leaf_call", "accumulate", "marker", "syscall", "frame_begin",
            "frame_end", "sync_acquire", "idle", "tick", "now_us", "series"} <= methods
    assert any(args[1] is LEAF_SHAPES[2] for _t, method, args in program if method == "leaf_call")
    assert any(len(args[1]) > 64 for _t, method, args in program if method == "accumulate")
    untimed = [step for step in program if step[1] != "tick"]
    for instr_cost_us, one_tick in ((30.0, True), (0.7, False)):
        tracer, _ = tracer_pair(instr_cost_us)
        clock = tracer.clock
        add, sync = clock._add, clock._sync
        # Per sync with records pending: the counts it handed to ``_add``.
        syncs = []
        clock._sync = lambda: (
            syncs.append([]) if len(clock._records) > clock._synced else None,
            sync(),
        )
        clock._add = lambda tid, n: (syncs[-1].append(n), add(tid, n))
        run_program(tracer, untimed)
        assert any(len(adds) == 1 and adds[0] > 1 for adds in syncs) is one_tick
        assert any(len(adds) > 1 for adds in syncs)


def test_ticks_before_an_idle_land_before_the_gap():
    tracer, reference = tracer_pair(instr_cost_us=30.0, bucket_us=100)
    for each in (tracer, reference):
        each.spawn_thread(1, "main", "root")
        each.op("a")
        each.op("b")
        each.clock.idle(70.0)
        each.op("c")
    # 60 us in bucket 0, the gap to 130, then 30 us in bucket 1.
    assert tracer.clock.utilization_series(1) == [(0.0, 0.6), (0.0001, 0.3)]
    assert tracer.clock.now_us == 160.0
    assert_same_run(tracer, reference)


def test_a_switch_charges_the_records_before_it_to_the_old_thread():
    tracer, reference = tracer_pair(instr_cost_us=1.0, bucket_us=100)
    for each in (tracer, reference):
        each.spawn_thread(1, "main", "root")
        each.spawn_thread(2, "compositor", "root")
        for label in "abc":
            each.op(label)
        each.switch(2)
        each.op("d")
    assert tracer.clock.busy_time_us(1) == 3.0
    assert tracer.clock.busy_time_us(2) == 1.0
    assert_same_run(tracer, reference)


@pytest.mark.parametrize("callers", [("A", "B"), ("B", "A")])
def test_a_leaf_shape_first_used_from_two_callers(callers):
    tracer, reference = tracer_pair()
    shape = ("copy0", "copy1")
    for each in (tracer, reference):
        each.spawn_thread(1, "main", "root")
        # The callee already has a site from an ordinary call.
        with each.function("memcpy"):
            each.op("copy1", reads=(1,), writes=(2,))
        for caller in callers + callers:
            with each.function(caller):
                each.leaf_call("memcpy", shape, (3,), (4,))
                each.op("after")
    assert_same_run(tracer, reference)
    call_pcs = {r.pc for r in tracer.store.records() if r.kind == InstrKind.CALL}
    assert len(call_pcs) == 5


def context_pair():
    """An engine context and one whose tracer is the reference."""
    ctx = EngineContext()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(context, "Tracer", ReferenceTracer)
        ref_ctx = EngineContext()
    assert type(ref_ctx.tracer) is ReferenceTracer
    for each in (ctx, ref_ctx):
        each.spawn_threads()
    return ctx, ref_ctx


def test_plain_bulk_above_32_and_a_zero_weight_helper():
    ctx, ref_ctx = context_pair()
    for each in (ctx, ref_ctx):
        each.plain_bulk("std_push_heap", weight=5, reads=[1], writes=[2])
        each.plain_bulk("std_push_heap", weight=45, reads=(3,), writes=(4,))
        each.runtime_helper("zero", (5,), (6,), weight=0)
        each.libc_memcpy([7], [8], weight=0)
        each.plain_helper("strlen", reads=(9,))
        each.libc_memcpy((10,), (11,))
    assert_same_run(ctx.tracer, ref_ctx.tracer)
    records = ctx.tracer.store.records()
    assert len(records) == (2 + 5) + (2 + 45) + 2 + 2 + 3 + 4
    assert [r.kind for r in records[54:58]] == [InstrKind.CALL, InstrKind.RET] * 2
    bulk_pcs = [r.pc for r in records[8:53]]
    assert len(set(bulk_pcs)) == 32 and bulk_pcs[32:] == bulk_pcs[:13]


def frames_run(name):
    bench = benchmark(name)
    engine = BrowserEngine(bench.config)
    engine.load_page(bench.page)
    engine.run_session(bench.actions)
    return engine


WORKLOAD_RUNS = {
    "ticker": lambda: frames_run("ticker"),
    "bing": lambda: run_engine(benchmark("bing"), metrics_ticks=2),
    "random_page:0": lambda: run_engine(random_page(0), metrics_ticks=2),
}


@pytest.mark.parametrize("name", sorted(WORKLOAD_RUNS))
def test_workload_runs_match_a_reference_tracer_run(name, monkeypatch):
    if name == "bing":
        # The same recipe as cached_run's, which other tests share.
        engine = cached_run("bing").engine
    else:
        engine = WORKLOAD_RUNS[name]()
    monkeypatch.setattr(context, "Tracer", ReferenceTracer)
    reference = WORKLOAD_RUNS[name]()
    assert type(reference.ctx.tracer) is ReferenceTracer
    assert_same_run(engine.ctx.tracer, reference.ctx.tracer)
    assert engine.frame_digests() == reference.frame_digests()
    store, ref_store = engine.trace_store(), reference.trace_store()
    assert store.cfg_steps is not None and ref_store.cfg_steps is None
    assert cfg_view(build_cfgs(store)) == cfg_view(build_cfgs(ref_store))
