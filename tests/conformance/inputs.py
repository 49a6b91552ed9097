"""The conformance inputs, trace sources, queries and option sets.

Every input is named so a failing case reproduces from its id alone:
``random-5`` is ``random_trace(5, ...)`` (``random-4-2000`` sets
``target_records=2000``), ``frame-1`` is ``random_frame_trace(1)`` with
a raster-free frame 2 (as on every third seed), and so on.  The most
recently used traces are kept in memory.
"""

from __future__ import annotations

import functools
from pathlib import Path

from repro.browser import BrowserEngine
from repro.harness.experiments import run_engine
from repro.machine import Tracer
from repro.machine.tracer import TILE_MARKER
from repro.profiler.api import job_criteria
from repro.profiler.criteria import syscall_criteria
from repro.profiler.slicer import DEFAULT_OPTIONS, SlicerOptions
from repro.profiler.vectorized import attach_index
from repro.trace.columnar import ColumnarTrace, save_columnar
from repro.trace.store import TraceStore, load_any_trace
from repro.workloads import benchmark
from repro.workloads.fuzz import random_frame_trace, random_page, random_sync_trace, random_trace

# Hand-built frame traces: the incremental engine's adversarial shapes.


def _tile(cell):
    return (TILE_MARKER, (), (cell,))


def _frames(*frames) -> TraceStore:
    """One main thread running ``frames``, each a list of ``(op name,
    reads, writes)``; a ``TILE_MARKER`` entry rasters its written cells."""
    tracer = Tracer()
    tracer.spawn_thread(1, "CrRendererMain", "main_loop")
    for frame_id, ops in enumerate(frames):
        tracer.frame_begin(frame_id, "update" if frame_id else "load")
        for name, reads, writes in ops:
            if name == TILE_MARKER:
                tracer.marker(TILE_MARKER, writes)
            else:
                tracer.op(name, reads=reads, writes=writes)
        tracer.frame_end(frame_id)
    return tracer.store


def cross_frame_trace() -> TraceStore:
    """Frame 1's paint reads a cell (0x100) only frame 0 wrote."""
    return _frames(
        [("model_init", (), (0x100,)), ("paint0", (), (0x200,)), _tile(0x200)],
        [("style", (0x100,), (0x201,)), ("paint1", (0x201,), (0x202,)), _tile(0x202)],
    )


def two_frames_back_trace() -> TraceStore:
    """Frame 2 reads 0x300, written in frame 0; frame 1 works off-chain
    (0x310), so the frontier must pass through it unresolved."""
    return _frames(
        [("deep_init", (), (0x300,)), ("paint0", (), (0x400,)), _tile(0x400)],
        [("unrelated", (), (0x310,)), ("paint1", (0x310,), (0x401,)), _tile(0x401)],
        [("paint2", (0x300,), (0x402,)), _tile(0x402)],
    )


def empty_frame_trace() -> TraceStore:
    """Frame 1 rasters nothing (empty criteria) between two that do."""
    return _frames(
        [("init", (), (0x500,)), ("paint0", (), (0x600,)), _tile(0x600)],
        [("tick", (0x500,), ())],
        [("paint2", (0x500,), (0x601,)), _tile(0x601)],
    )


# Generated inputs.


def _frame(seed: int) -> TraceStore:
    return random_frame_trace(seed, empty_frame_at=2 if seed % 3 == 1 else None)


def _sync(seed: int) -> TraceStore:
    store, injected = random_sync_trace(seed, target_records=2_000)
    assert not injected
    return store


def _page(seed: int) -> TraceStore:
    return run_engine(random_page(seed, n_actions=1), metrics_ticks=1).trace_store()


def _ticker() -> TraceStore:
    bench = benchmark("ticker")
    engine = BrowserEngine(bench.config)
    engine.load_page(bench.page)
    engine.run_session(bench.actions)
    return engine.trace_store()


#: input name -> the function that generates its trace
INPUTS = {
    **{
        f"random-{seed}": functools.partial(
            random_trace, seed, target_records=1_500 + 100 * (seed % 7)
        )
        for seed in range(60)
    },
    **{
        f"random-{seed}-{records}": functools.partial(random_trace, seed, target_records=records)
        for seed, records in ((4, 2_000), (17, 2_000), (31, 2_000), (33, 2_000), (6, 2_500),
                              (28, 2_500))
    },
    **{f"frame-{seed}": functools.partial(_frame, seed) for seed in range(60)},
    **{f"sync-{seed}": functools.partial(_sync, seed) for seed in (3, 11)},
    **{f"page-{seed}": functools.partial(_page, seed) for seed in (7, 21)},
    "ticker": _ticker,
    "cross-frame": cross_frame_trace,
    "two-frames-back": two_frames_back_trace,
    "empty-frame": empty_frame_trace,
}

#: inputs the simulated browser produced
ENGINE_GENERATED = ("page-7", "page-21", "ticker")

#: inputs whose threads synchronize: these must also be race-free
RACE_FREE = (*ENGINE_GENERATED, "sync-3", "sync-11")


@functools.lru_cache(maxsize=16)
def trace(name: str) -> TraceStore:
    return INPUTS[name]()


# Sources, queries, option sets.

SOURCES = ("row", "ucwa3", "ucwa3-index")


def write_sources(store, directory: Path) -> dict:
    """Save ``store`` as every file source; returns source -> path."""
    paths = {s: directory / f"{s}.ucwa" for s in SOURCES[1:]}
    cols = ColumnarTrace.from_store(store)
    save_columnar(cols, paths["ucwa3"])
    attach_index(cols)
    save_columnar(cols, paths["ucwa3-index"])
    return paths


def open_source(name: str, source: str, paths):
    """A fresh trace object (``paths(name)`` maps file sources to paths):
    a loaded ``ColumnarTrace`` keeps the rows the first engine
    materializes, which would hide a broken ``ColumnarTrace.span`` from
    every engine after it."""
    return trace(name) if source == "row" else load_any_trace(paths(name)[source])


def queries(store) -> dict:
    """Query name -> criteria: the whole-trace families, then windowed
    queries.  On frame traces those are the pixels of each complete frame
    (the raster-free one included) and pixels+syscalls up to frame 1;
    otherwise the syscalls in the first half of the trace."""
    families = ["syscalls"]
    if store.metadata.tile_buffers:
        families = ["pixels", "syscalls", "pixels+syscalls"]
    out = {family: job_criteria(store, family) for family in families}
    frames = len(store.frame_spans())
    windowed = [("pixels", frame) for frame in range(frames)]
    windowed += [("pixels+syscalls", 1)] if frames > 1 else []
    for family, frame in windowed:
        criteria = job_criteria(store, family, frame)
        out[criteria.name] = criteria
    if not frames:
        out["syscalls:half"] = syscall_criteria(store).windowed(len(store) // 2)
    return out


#: the defaults plus the ablations that drop control / call-site influence
OPTIONS = {
    "default": DEFAULT_OPTIONS,
    "no-control": SlicerOptions(control_dependences=False),
    "no-callsite": SlicerOptions(call_site_dependences=False),
    "data-only": SlicerOptions(control_dependences=False, call_site_dependences=False),
}
