"""The backward walk against its plain per-record statement.

``run_epoch`` keeps the running thread's stack, live registers and
pending branches across a run of that thread's records, meets criteria
through a sorted index list and counts timeline samples down.
``epoch_reference.py`` keeps the loop without those shortcuts.  Every
case runs both from the same entry frontier and asserts equal
``EpochResult``s — flags, ``extra``, exit frontier, ``min_depth``, join
reasons and timeline — on ``random_trace`` and ``random_frame_trace``
seeds:

* whole-trace walks of every conformance query under every
  ``SlicerOptions`` ablation, plain and with a Figure 4 timeline and
  join reasons;
* criteria naming registers of a thread other than the one running at
  their index, and of the running one before it has a live set;
* fixed-size sub-ranges ``[lo, hi)`` chained from the trace end, each
  from the exit frontier of the one above it (through its byte form,
  as a ``.ckpt`` stores it), as the incremental engine runs them.
"""

import random

import pytest

from repro.machine import Tracer
from repro.profiler import Profiler
from repro.profiler.criteria import Criterion, SlicingCriteria
from repro.profiler.epoch import SliceFrontier, run_epoch
from repro.profiler.slicer import SlicerOptions
from repro.trace.records import InstrKind
from repro.trace.store import epoch_bounds
from repro.workloads.fuzz import random_frame_trace, random_trace

from ..conformance.inputs import OPTIONS, queries
from .epoch_reference import run_epoch_reference

SEEDS = range(24)

#: generator name -> seed -> a small trace
TRACES = {
    "random": lambda seed: random_trace(seed, target_records=600 + 50 * (seed % 5)),
    "frame": lambda seed: random_frame_trace(
        seed, records_per_frame=150, empty_frame_at=2 if seed % 3 == 1 else None
    ),
}


def assert_same_walk(records, lo, hi, frontier, criteria, deps_of, options, **kwargs):
    """Run both walks over ``[lo, hi)``; return the (equal) result."""
    args = (
        records, lo, hi, frontier, criteria.by_index(), criteria.include_syscalls,
        criteria.window_end, deps_of, options,
    )
    got = run_epoch(*args, **kwargs)
    want = run_epoch_reference(*args, **kwargs)
    for name in ("flags", "extra", "frontier", "min_depth", "reasons", "timeline"):
        assert getattr(got, name) == getattr(want, name), (criteria.name, lo, hi, name)
    assert got == want
    return got


def deps_for(profiler, options):
    if options.control_dependences:
        return profiler.control_dependence_index().deps_of
    return lambda pc: ()


def register_criteria(store, seed):
    """Criteria at random points naming live registers of other threads,
    of the running thread, and cells, some at the same index."""
    rng = random.Random(seed)
    records = store.records()
    n = len(records)
    written = {}
    for rec in records[: n // 2]:
        for reg in rec.regs_written:
            written.setdefault(rec.tid, set()).add(reg)
    tids = sorted(written)
    points = []
    for index in sorted(rng.sample(range(n // 2, n), 12)):
        running = records[index].tid
        others = [tid for tid in tids if tid != running] or tids
        regs = [(tid, rng.choice(sorted(written[tid]))) for tid in rng.sample(others, 1)]
        if running in written and rng.random() < 0.5:
            regs.append((running, rng.choice(sorted(written[running]))))
        cells = records[index - 1].mem_written[:1]
        points.append(Criterion(index=index, cells=cells, regs=tuple(regs)))
    # Two criteria at one index are merged by ``by_index``.
    points.append(Criterion(index=points[0].index, regs=((tids[0], 1),)))
    return SlicingCriteria(name="registers", criteria=tuple(points))


def all_queries(store, seed):
    out = dict(queries(store))
    out["registers"] = register_criteria(store, seed)
    out["registers+syscalls"] = SlicingCriteria(
        name="registers+syscalls",
        criteria=out["registers"].criteria,
        include_syscalls=True,
        window_end=len(store) * 3 // 4,
    )
    return out


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("generator", sorted(TRACES))
def test_whole_trace_walks_match(generator, seed):
    store = TRACES[generator](seed)
    records = store.records()
    n = len(records)
    main_tid = store.metadata.main_thread_id()
    profiler = Profiler(store)
    sample_every = 7 + seed % 50
    for options in OPTIONS.values():
        deps_of = deps_for(profiler, options)
        tracked = SlicerOptions(
            control_dependences=options.control_dependences,
            call_site_dependences=options.call_site_dependences,
            track_reasons=True,
        )
        for criteria in all_queries(store, seed).values():
            empty = SliceFrontier.empty()
            assert_same_walk(records, 0, n, empty, criteria, deps_of, options)
            result = assert_same_walk(
                records, 0, n, empty, criteria, deps_of, tracked,
                sample_every=sample_every, main_tid=main_tid,
            )
            assert len(result.timeline) == n // sample_every + 1


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("generator", sorted(TRACES))
def test_chained_sub_ranges_match(generator, seed):
    store = TRACES[generator](seed)
    records = store.records()
    n = len(records)
    main_tid = store.metadata.main_thread_id()
    profiler = Profiler(store)
    epoch_size = (23, 64, 181)[seed % 3]
    options = OPTIONS[sorted(OPTIONS)[seed % len(OPTIONS)]]
    deps_of = deps_for(profiler, options)
    carried = 0
    for criteria in all_queries(store, seed).values():
        frontier = SliceFrontier.empty()
        for k, (lo, hi) in enumerate(reversed(epoch_bounds(n, epoch_size))):
            kwargs = {"sample_every": 5, "main_tid": main_tid} if k % 2 else {}
            result = assert_same_walk(
                records, lo, hi, frontier, criteria, deps_of, options, **kwargs
            )
            frontier = SliceFrontier.from_bytes(result.frontier.to_bytes())
            carried += bool(frontier.live_mem or frontier.live_regs or frontier.pending)
    assert carried, "no sub-range started from a frontier with live state"


def test_criterion_regs_for_the_running_thread_before_its_set_exists():
    """A criterion that creates the running thread's live-register set
    must be seen by the same record's register check."""
    tracer = Tracer()
    tracer.spawn_thread(1, "CrRendererMain", "main_loop")
    tracer.spawn_thread(2, "Worker2", "worker_loop")
    tracer.switch(2)
    tracer.op("w0", reg_writes=(3,))
    tracer.op("w1", reg_reads=(3,), reg_writes=(4,))
    tracer.switch(1)
    tracer.op("m0", reg_writes=(5,))
    tracer.op("m1", reg_reads=(5,), reg_writes=(6,))
    store = tracer.store
    records = store.records()
    assert [rec.kind for rec in records] == [InstrKind.OP] * 4
    deps_of = Profiler(store).control_dependence_index().deps_of
    criteria = SlicingCriteria(
        name="cross-thread",
        criteria=(
            Criterion(index=3, regs=((2, 4),)),
            Criterion(index=2, regs=((1, 6), (1, 5))),
        ),
    )
    result = assert_same_walk(
        records, 0, 4, SliceFrontier.empty(), criteria, deps_of, OPTIONS["default"]
    )
    assert result.flags == bytes([1, 1, 1, 0])
