"""Randomized workload generators for the differential slicer tests.

Two levels of fuzzing, both deterministic given the seed:

* :func:`random_trace` builds an instruction trace directly with
  :class:`~repro.machine.tracer.Tracer` — random multi-threaded
  interleavings of ops, compare-and-branch pairs, nested calls,
  syscalls, and tile markers over a small shared cell pool (small pools
  make dependences dense, which is what stresses the slicers).
* :func:`random_page` assembles a full synthetic website from the
  :mod:`.generator` content pieces plus a randomized browsing session,
  to be run through the real browser engine.

The differential tests slice the resulting traces with the sequential
engine, the epoch core chained over small epochs, and the oracle, and
assert identical sliced-record sets; on mismatch the failing seed
reproduces the trace exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..browser import EngineConfig, PageSpec, UserAction
from ..machine.registers import NUM_REGISTERS
from ..machine.tracer import TILE_MARKER, Tracer
from ..trace.store import TraceStore
from .base import Benchmark
from .generator import (
    css_framework,
    footer_links,
    js_analytics_library,
    js_lazy_widgets,
    js_utility_library,
    lorem,
    nav_menu,
    product_grid,
)

#: syscalls the fuzzer draws from (a mix of memory-reading, -writing and
#: memory-free models from the machine's syscall table)
_SYSCALL_NAMES = ("write", "read", "futex", "clock_gettime", "sched_yield")


def random_trace(
    seed: int,
    target_records: int = 2_000,
    n_threads: int = 3,
    n_cells: int = 96,
    max_depth: int = 5,
) -> TraceStore:
    """A random but well-formed multi-threaded trace.

    Guarantees (the same invariants ``repro.trace.lint`` checks): every
    CALL is matched by a RET (threads are unwound at the end), every
    BRANCH is preceded by its CMP, registers and memory cells are written
    before they are read (per-thread boot ops seed the pools), and at
    least one ``TILE_MARKER`` with pixel cells is emitted on the main
    thread so ``pixel_criteria`` always applies.
    """
    rng = random.Random(seed)
    tracer = Tracer()
    tids = list(range(1, n_threads + 1))
    tracer.spawn_thread(1, "CrRendererMain", "main_loop")
    for tid in tids[1:]:
        tracer.spawn_thread(tid, f"Worker{tid}", f"worker_loop_{tid}")

    cells = list(range(0x1000, 0x1000 + n_cells))
    regs = list(range(1, NUM_REGISTERS))  # skip FLAGS; branches manage it
    # Small per-function site-label pools so pcs repeat across dynamic
    # instances (repeated pcs are what give the CDG real structure).
    depth: dict = {tid: 0 for tid in tids}
    pixel_cells = tuple(rng.sample(cells, k=min(8, n_cells)))
    markers_emitted = 0

    # Def-before-use bookkeeping: reads are sampled from what has already
    # been written (registers per thread, memory cells globally), so the
    # generated trace passes the sanitizer's use-before-def checks.
    written_regs: dict = {tid: [] for tid in tids}
    written_cells: List[int] = []
    written_cell_set: set = set()

    def some(pool, lo, hi):
        return tuple(rng.sample(pool, k=rng.randint(lo, min(hi, len(pool)))))

    def note_cells(written) -> None:
        for cell in written:
            if cell not in written_cell_set:
                written_cell_set.add(cell)
                written_cells.append(cell)

    def note_regs(tid, written) -> None:
        for reg in written:
            if reg not in written_regs[tid]:
                written_regs[tid].append(reg)

    # Boot each thread: seed its register file and the shared cell pool
    # (the main thread also initializes the pixel buffer).
    for tid in tids:
        tracer.switch(tid)
        cell_writes = pixel_cells if tid == 1 else some(cells, 2, 4)
        reg_writes = some(regs, 2, 4)
        tracer.op("boot", writes=cell_writes, reg_writes=reg_writes)
        note_cells(cell_writes)
        note_regs(tid, reg_writes)

    while len(tracer.store) < target_records:
        tid = rng.choice(tids)
        tracer.switch(tid)
        for _ in range(rng.randint(1, 6)):
            roll = rng.random()
            label = f"s{rng.randrange(8)}"
            if roll < 0.45:
                reg_writes = some(regs, 0, 2)
                cell_writes = some(cells, 0, 2)
                tracer.op(
                    label,
                    reads=some(written_cells, 0, 3),
                    writes=cell_writes,
                    reg_reads=some(written_regs[tid], 0, 2),
                    reg_writes=reg_writes,
                )
                note_cells(cell_writes)
                note_regs(tid, reg_writes)
            elif roll < 0.70:
                tracer.compare_and_branch(
                    f"b{rng.randrange(6)}", some(written_cells, 1, 2)
                )
            elif roll < 0.82 and depth[tid] < max_depth:
                tracer.call(f"fn_{rng.randrange(10)}", site=f"c{rng.randrange(6)}")
                depth[tid] += 1
            elif roll < 0.90 and depth[tid] > 0:
                tracer.ret()
                depth[tid] -= 1
            elif roll < 0.96:
                cell_writes = some(cells, 0, 2)
                tracer.syscall(
                    rng.choice(_SYSCALL_NAMES),
                    reads=some(written_cells, 0, 2),
                    writes=cell_writes,
                )
                note_cells(cell_writes)
            else:
                tracer.marker(TILE_MARKER, some(pixel_cells, 1, 4))
                markers_emitted += 1

    # Make the pixel criteria non-empty even for unlucky rolls, seeding
    # from cells something actually wrote.
    tracer.switch(1)
    if markers_emitted == 0 or rng.random() < 0.5:
        tracer.op("final_paint", writes=pixel_cells[:4])
        tracer.marker(TILE_MARKER, pixel_cells[:4])
    # Unwind every thread so CALL/RET pairing is balanced.
    for tid in tids:
        tracer.switch(tid)
        while depth[tid] > 0:
            tracer.ret()
            depth[tid] -= 1
    return tracer.store


def random_frame_trace(
    seed: int,
    n_frames: int = 4,
    records_per_frame: int = 350,
    n_threads: int = 3,
    n_cells: int = 96,
    max_depth: int = 5,
    empty_frame_at: Optional[int] = None,
) -> TraceStore:
    """A random multi-frame trace (the incremental engine's fuzz input).

    Same well-formedness guarantees as :func:`random_trace`, plus frame
    structure: ``n_frames`` complete ``frame:begin``/``frame:end`` epochs
    (frame 0 is ``load``, the rest ``update``), separated by random gap
    activity, each rastering at least one tile inside its span — so every
    frame yields a non-empty per-frame pixel criterion.  Threads share
    one small cell pool *across* frames, so slices routinely reach back
    through earlier frames (the cross-frame dependences the incremental
    checkpoint must thread exactly).  ``empty_frame_at`` makes that frame
    raster nothing (its pixel criteria set is empty) — the adversarial
    empty-frame case.
    """
    rng = random.Random(seed ^ 0xF7A3E)
    tracer = Tracer()
    tids = list(range(1, n_threads + 1))
    tracer.spawn_thread(1, "CrRendererMain", "main_loop")
    for tid in tids[1:]:
        tracer.spawn_thread(tid, f"Worker{tid}", f"worker_loop_{tid}")

    cells = list(range(0x1000, 0x1000 + n_cells))
    regs = list(range(1, NUM_REGISTERS))
    depth: dict = {tid: 0 for tid in tids}
    pixel_cells = tuple(rng.sample(cells, k=min(8, n_cells)))

    written_regs: dict = {tid: [] for tid in tids}
    written_cells: List[int] = []
    written_cell_set: set = set()

    def some(pool, lo, hi):
        return tuple(rng.sample(pool, k=rng.randint(lo, min(hi, len(pool)))))

    def note_cells(written) -> None:
        for cell in written:
            if cell not in written_cell_set:
                written_cell_set.add(cell)
                written_cells.append(cell)

    def note_regs(tid, written) -> None:
        for reg in written:
            if reg not in written_regs[tid]:
                written_regs[tid].append(reg)

    for tid in tids:
        tracer.switch(tid)
        cell_writes = pixel_cells if tid == 1 else some(cells, 2, 4)
        reg_writes = some(regs, 2, 4)
        tracer.op("boot", writes=cell_writes, reg_writes=reg_writes)
        note_cells(cell_writes)
        note_regs(tid, reg_writes)

    def burst(allow_markers: bool) -> None:
        tid = rng.choice(tids)
        tracer.switch(tid)
        for _ in range(rng.randint(1, 6)):
            roll = rng.random()
            label = f"s{rng.randrange(8)}"
            if roll < 0.45:
                reg_writes = some(regs, 0, 2)
                cell_writes = some(cells, 0, 2)
                tracer.op(
                    label,
                    reads=some(written_cells, 0, 3),
                    writes=cell_writes,
                    reg_reads=some(written_regs[tid], 0, 2),
                    reg_writes=reg_writes,
                )
                note_cells(cell_writes)
                note_regs(tid, reg_writes)
            elif roll < 0.70:
                tracer.compare_and_branch(
                    f"b{rng.randrange(6)}", some(written_cells, 1, 2)
                )
            elif roll < 0.82 and depth[tid] < max_depth:
                tracer.call(f"fn_{rng.randrange(10)}", site=f"c{rng.randrange(6)}")
                depth[tid] += 1
            elif roll < 0.90 and depth[tid] > 0:
                tracer.ret()
                depth[tid] -= 1
            elif roll < 0.96:
                cell_writes = some(cells, 0, 2)
                tracer.syscall(
                    rng.choice(_SYSCALL_NAMES),
                    reads=some(written_cells, 0, 2),
                    writes=cell_writes,
                )
                note_cells(cell_writes)
            elif allow_markers:
                tracer.marker(TILE_MARKER, some(pixel_cells, 1, 4))

    # Prologue activity before the first frame.
    for _ in range(rng.randint(0, 6)):
        burst(allow_markers=False)

    for frame_id in range(n_frames):
        tracer.switch(rng.choice(tids))
        kind = "load" if frame_id == 0 else "update"
        tracer.frame_begin(frame_id, kind)
        rasters = empty_frame_at is None or frame_id != empty_frame_at
        target = len(tracer.store) + records_per_frame
        while len(tracer.store) < target:
            burst(allow_markers=rasters)
        if rasters:
            # Guarantee a non-empty per-frame pixel criterion, seeded
            # from cells something actually wrote.
            tracer.switch(1)
            tracer.op("final_paint", writes=pixel_cells[:4])
            tracer.marker(TILE_MARKER, pixel_cells[:4])
        tracer.frame_end(frame_id)
        # Gap activity between frames (and after the last).
        for _ in range(rng.randint(0, 4)):
            burst(allow_markers=False)

    for tid in tids:
        tracer.switch(tid)
        while depth[tid] > 0:
            tracer.ret()
            depth[tid] -= 1
    return tracer.store


@dataclass(frozen=True)
class InjectedRace:
    """Ground truth for one deliberately unsynchronized access pair."""

    cell: int
    first_index: int
    second_index: int
    first_tid: int
    second_tid: int


def random_sync_trace(
    seed: int,
    target_records: int = 2_500,
    n_threads: int = 4,
    n_locks: int = 3,
    inject_races: int = 0,
) -> Tuple[TraceStore, List[InjectedRace]]:
    """A *well-synchronized* random trace, with optional injected races.

    Unlike :func:`random_trace` (whose threads deliberately share cells
    without any ordering — dense dependences for the slicer differential
    tests), every cross-thread access here is ordered by a sync edge:

    * each thread owns a private cell pool nobody else touches;
    * shared cells are partitioned into lock-guarded groups, only ever
      accessed inside ``lock:acquire``/``lock:release`` sections;
    * message-passing hand-offs write a transfer cell, release a sync
      token, and the consumer acquires the token before reading.

    With ``inject_races=0`` the trace is race-free by construction (the
    detector's false-positive check).  Each injection performs one
    conflicting cross-thread pair on a lock-guarded cell *without* taking
    the lock, separated by a small burst of ordinary activity; the
    returned descriptors are the ground truth for measuring recall.  An
    injection can still be masked by an incidental release/acquire chain
    between its two halves, so measured recall is honest rather than 1.0
    by definition.
    """
    rng = random.Random(seed ^ 0x5CAB)
    tracer = Tracer()
    tids = list(range(1, n_threads + 1))
    tracer.spawn_thread(1, "CrRendererMain", "main_loop")
    for tid in tids[1:]:
        tracer.spawn_thread(tid, f"Worker{tid}", f"worker_loop_{tid}")

    private = {tid: [0x2000 + tid * 0x100 + i for i in range(8)] for tid in tids}
    lock_cells = [0x9000 + j for j in range(n_locks)]
    guarded = {j: [0x4000 + j * 0x10 + i for i in range(4)] for j in range(n_locks)}
    tokens = [0xA000 + j for j in range(n_threads)]
    depth = {tid: 0 for tid in tids}

    # Boot: every thread seeds its private pool; the main thread seeds the
    # guarded groups under their locks.
    for tid in tids:
        tracer.switch(tid)
        tracer.op("boot", writes=tuple(private[tid]))
    tracer.switch(1)
    for j in range(n_locks):
        tracer.lock_acquire(lock_cells[j])
        tracer.op(f"init_group{j}", writes=tuple(guarded[j]))
        tracer.lock_release(lock_cells[j])

    def private_block(tid: int) -> None:
        pool = private[tid]
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            if roll < 0.55:
                tracer.op(
                    f"p{rng.randrange(8)}",
                    reads=tuple(rng.sample(pool, k=rng.randint(0, 2))),
                    writes=tuple(rng.sample(pool, k=rng.randint(1, 2))),
                )
            elif roll < 0.75:
                tracer.compare_and_branch(
                    f"b{rng.randrange(6)}", tuple(rng.sample(pool, k=1))
                )
            elif roll < 0.85 and depth[tid] < 4:
                tracer.call(f"fn_{rng.randrange(8)}", site=f"c{rng.randrange(4)}")
                depth[tid] += 1
            elif roll < 0.92 and depth[tid] > 0:
                tracer.ret()
                depth[tid] -= 1
            else:
                tracer.syscall(
                    rng.choice(_SYSCALL_NAMES),
                    reads=tuple(rng.sample(pool, k=1)),
                    writes=tuple(rng.sample(pool, k=1)),
                )

    def critical_section(tid: int) -> None:
        j = rng.randrange(n_locks)
        tracer.lock_acquire(lock_cells[j])
        for _ in range(rng.randint(1, 3)):
            cell = rng.choice(guarded[j])
            tracer.op(f"cs{rng.randrange(8)}", reads=(cell,), writes=(cell,))
        tracer.lock_release(lock_cells[j])

    transfer_counter = [0]

    def hand_off(producer: int) -> None:
        consumer = rng.choice([t for t in tids if t != producer])
        token = tokens[producer - 1]
        # Fresh cell per hand-off: reusing one would need an ack edge back
        # to the producer before its next write (write-after-read).
        transfer = 0x6000 + transfer_counter[0]
        transfer_counter[0] += 1
        tracer.switch(producer)
        tracer.op("produce", writes=(transfer,))
        tracer.sync_release(token)
        tracer.switch(consumer)
        tracer.sync_acquire(token)
        tracer.op("consume", reads=(transfer,), writes=(transfer,))

    def activity_block() -> None:
        tid = rng.choice(tids)
        tracer.switch(tid)
        roll = rng.random()
        if roll < 0.60:
            private_block(tid)
        elif roll < 0.90:
            critical_section(tid)
        else:
            hand_off(tid)

    injected: List[InjectedRace] = []
    inject_at = sorted(
        rng.sample(range(10, max(11, target_records - 50)), k=inject_races)
    )

    def inject() -> None:
        j = rng.randrange(n_locks)
        cell = rng.choice(guarded[j])
        first, second = rng.sample(tids, k=2)
        tracer.switch(first)
        first_index = tracer.op("racy_write", writes=(cell,))
        # A short burst of unrelated activity keeps the pair apart; an
        # unlucky burst can legitimately mask the race via an incidental
        # release/acquire chain involving both threads.
        for _ in range(rng.randint(0, 2)):
            activity_block()
        tracer.switch(second)
        if rng.random() < 0.5:
            second_index = tracer.op("racy_read", reads=(cell,))
        else:
            second_index = tracer.op("racy_write2", writes=(cell,))
        injected.append(
            InjectedRace(
                cell=cell,
                first_index=first_index,
                second_index=second_index,
                first_tid=first,
                second_tid=second,
            )
        )

    while len(tracer.store) < target_records:
        if inject_at and len(tracer.store) >= inject_at[0]:
            inject_at.pop(0)
            inject()
        else:
            activity_block()
    while inject_at:
        inject_at.pop(0)
        inject()

    for tid in tids:
        tracer.switch(tid)
        while depth[tid] > 0:
            tracer.ret()
            depth[tid] -= 1
    return tracer.store, injected


def random_page(seed: int, n_actions: Optional[int] = None) -> Benchmark:
    """A randomized synthetic website plus browsing session.

    Reuses the deterministic content generators behind the bundled
    benchmarks (utility/analytics/lazy-widget JS, a CSS framework with
    dead rules, product grid, nav chrome) with seed-driven proportions.
    """
    rng = random.Random(seed)
    lib_functions = rng.randint(6, 18)
    lib = js_utility_library(
        "fuzzlib",
        n_functions=lib_functions,
        n_used=rng.randint(1, lib_functions),
        seed=seed,
        loop_scale=rng.randint(8, 24),
    )
    widgets = js_lazy_widgets(
        n_widgets=rng.randint(2, 6), n_activated=rng.randint(0, 2)
    )
    grid, images = product_grid(rng, rng.randint(4, 16))
    nav = nav_menu(rng.randint(3, 8), rng)
    used = ("card", "card-title", "card-price", "buy-btn", "nav-list", "nav-item")
    sheet = css_framework("fuzzcss", used, n_extra_rules=rng.randint(5, 40), seed=seed)

    html = f"""<!DOCTYPE html>
<html><head><title>fuzz {seed}</title>
<link rel="stylesheet" href="fuzz.css">
<script src="fuzzlib.js"></script>
<script src="widgets.js"></script>
<script src="metrics.js"></script>
</head><body onload="fuzzlib_init()">
<header>{nav}</header>
<main><p>{lorem(rng, rng.randint(30, 120))}</p>{grid}</main>
{footer_links(rng)}
</body></html>"""

    page = PageSpec(
        url=f"https://fuzz.example/{seed}",
        html=html,
        stylesheets={"fuzz.css": sheet},
        scripts={
            "fuzzlib.js": lib,
            "widgets.js": widgets,
            "metrics.js": js_analytics_library(),
        },
        images=images,
    )
    config = EngineConfig(
        viewport_width=rng.choice((360, 800, 1280)),
        viewport_height=rng.choice((640, 720, 800)),
        raster_threads=rng.randint(1, 2),
        load_animation_ticks=rng.randint(1, 3),
        seed=seed,
    )
    if n_actions is None:
        n_actions = rng.randint(0, 4)
    actions: List[UserAction] = []
    for _ in range(n_actions):
        if rng.random() < 0.6:
            actions.append(
                UserAction(
                    kind="scroll",
                    amount=rng.choice((-300, 200, 400, 600)),
                    think_time_ms=rng.randint(100, 800),
                )
            )
        else:
            actions.append(
                UserAction(
                    kind="click",
                    target_id=f"nav{rng.randrange(3)}",
                    think_time_ms=rng.randint(100, 800),
                )
            )
    return Benchmark(
        name=f"fuzz_{seed}",
        description=f"randomized differential-test page (seed {seed})",
        page=page,
        config=config,
        actions=actions,
    )
