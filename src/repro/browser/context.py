"""Shared engine context: the "tab process" environment.

Every browser subsystem receives an :class:`EngineContext`, which bundles
the tracer (instruction emission), the address space (abstract memory for
all engine data), the virtual clock, and the thread registry.  The context
also provides small helpers for common instrumentation shapes (chunked
buffers for resource bytes, allocation helper calls through plain-named
runtime functions, debug trace events).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional, Tuple

from ..machine import AddressSpace, TracedLock, Tracer, VirtualClock
from ..machine.memory import MemRegion

#: Resource bytes are mirrored into one abstract cell per this many bytes.
BYTES_PER_CELL = 64

#: Raster tiles are squares of this many pixels (as in Chromium).
TILE_SIZE = 256

#: Pixel cells cover square blocks of this many pixels per side; a 256x256
#: tile therefore owns 16 pixel cells.
PIXEL_BLOCK = 64

# Thread ids of the tab process (fixed roles, as in Chromium).
MAIN_THREAD = 1
COMPOSITOR_THREAD = 2
IO_THREAD = 3
FIRST_RASTER_THREAD = 4
#: ThreadPoolForegroundWorker threads (image decode, background parsing)
FIRST_WORKER_THREAD = 20
#: number of ThreadPoolForegroundWorker threads
WORKER_THREADS = 2

#: ``maybe_debug_event`` emits one debug trace-event record every this
#: many engine operations.
DEBUG_EVENT_PERIOD = 9


#: ``plain_helper``'s one label.
_BODY = ("body",)


@lru_cache(maxsize=None)
def _site_labels(prefix: str, count: int, period: int) -> Tuple[str, ...]:
    """Labels ``prefix{i % period}`` of ``count`` OPs, one tuple per shape
    (``Tracer.leaf_call`` memoizes its pcs by the tuple)."""
    return tuple(f"{prefix}{i % period}" for i in range(count))


@dataclass
class EngineConfig:
    """Tunable parameters of the simulated engine."""

    viewport_width: int = 1280
    viewport_height: int = 800
    #: number of CompositorTileWorker (rasterizer) threads
    raster_threads: int = 2
    #: extra prepaint margin rastered around the viewport, in pixels
    interest_margin: int = 512
    #: also rasterize low-resolution duplicate tiles (Chromium's low-res
    #: tiling, prominent in mobile-emulated sessions; the duplicates are
    #: rarely displayed, so this work is usually wasted)
    raster_low_res: bool = False
    #: vsync BeginFrame ticks pumped while the page settles after load
    #: (hero carousels / spinners keep the compositor animating)
    load_animation_ticks: int = 30
    #: BeginFrame ticks pumped after each user action
    action_animation_ticks: int = 6
    #: random seed for workload-level jitter
    seed: int = 1


class EngineContext:
    """Everything a subsystem needs to run and be traced."""

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        self.config = config if config is not None else EngineConfig()
        self.clock = VirtualClock()
        self.tracer = Tracer(clock=self.clock)
        self.memory = AddressSpace()
        self._debug_counter_cell: Optional[int] = None
        self._debug_log_cell: Optional[int] = None
        self._ops_since_debug = 0
        self._spawned = False
        self._next_node_id = 0
        self._locks: Dict[str, TracedLock] = {}

    def lock(self, name: str) -> TracedLock:
        """The process-wide lock registry: one TracedLock per name.

        Each lock is backed by a dedicated memory cell so release/acquire
        pairs are visible to the race detector, and lock names are stable
        so the static lock-order analysis can match acquisition sites
        against dynamic traces.
        """
        lock = self._locks.get(name)
        if lock is None:
            lock = TracedLock(self.tracer, self.memory.alloc_cell(name), name)
            self._locks[name] = lock
        return lock

    def next_node_id(self) -> int:
        """Allocate a DOM node id, unique and stable within this context.

        Per-context (not process-global) so that traces are reproducible
        regardless of how many engines ran earlier in the process.
        """
        node_id = self._next_node_id
        self._next_node_id += 1
        return node_id

    # ------------------------------------------------------------------ #
    # Thread setup                                                       #
    # ------------------------------------------------------------------ #

    def spawn_threads(self) -> None:
        """Create the tab process's threads (Chromium roles)."""
        if self._spawned:
            return
        tracer = self.tracer
        tracer.spawn_thread(MAIN_THREAD, "CrRendererMain", "base::threading::ThreadMain")
        tracer.spawn_thread(COMPOSITOR_THREAD, "Compositor", "base::threading::ThreadMain")
        tracer.spawn_thread(IO_THREAD, "ChromeIOThread", "base::threading::ThreadMain")
        for i in range(self.config.raster_threads):
            tracer.spawn_thread(
                FIRST_RASTER_THREAD + i,
                f"CompositorTileWorker{i + 1}",
                "base::threading::ThreadMain",
            )
        for i in range(WORKER_THREADS):
            tracer.spawn_thread(
                FIRST_WORKER_THREAD + i,
                f"ThreadPoolForegroundWorker{i + 1}",
                "base::threading::ThreadMain",
            )
        tracer.switch(MAIN_THREAD)
        self._spawned = True

    def raster_thread_ids(self) -> Tuple[int, ...]:
        return tuple(
            FIRST_RASTER_THREAD + i for i in range(self.config.raster_threads)
        )

    def worker_thread_ids(self) -> Tuple[int, ...]:
        return tuple(FIRST_WORKER_THREAD + i for i in range(WORKER_THREADS))

    # ------------------------------------------------------------------ #
    # Buffers                                                            #
    # ------------------------------------------------------------------ #

    def alloc_bytes(self, name: str, nbytes: int) -> MemRegion:
        """Allocate cells mirroring a byte buffer (1 cell / 64 bytes)."""
        ncells = max(1, (nbytes + BYTES_PER_CELL - 1) // BYTES_PER_CELL)
        return self.memory.alloc(name, ncells)

    @staticmethod
    def byte_cell(region: MemRegion, byte_offset: int) -> int:
        """Cell backing a byte offset of a buffer allocated by alloc_bytes."""
        return region.cell(min(byte_offset // BYTES_PER_CELL, region.size - 1))

    # ------------------------------------------------------------------ #
    # Debug bookkeeping (the paper's "Debugging" category)               #
    # ------------------------------------------------------------------ #

    def debug_event(self, weight: int = 1) -> None:
        """Emit built-in trace-event bookkeeping instructions.

        Chromium compiled with debugging off still executes its default
        trace_event machinery; the paper finds this among the top
        unnecessary-computation categories.  The emitted records read and
        write only the debug ring buffer, so they can never join a pixel
        slice.
        """
        if self._debug_counter_cell is None:
            self._debug_counter_cell = self.memory.alloc_cell("debug:counter")
            self._debug_log_cell = self.memory.alloc_cell("debug:ring")
        tracer = self.tracer
        with tracer.function("base::trace_event::TraceLog::AddTraceEvent"):
            # The ring buffer is shared by every thread in the process;
            # real TraceLog serializes appends under its own lock.
            with self.lock("base:lock:trace_event").held():
                for i in range(weight):
                    tracer.op(
                        f"log{i}",
                        reads=(self._debug_counter_cell,),
                        writes=(self._debug_counter_cell, self._debug_log_cell),
                    )

    def maybe_debug_event(self) -> None:
        """Emit a debug event every :data:`DEBUG_EVENT_PERIOD` calls."""
        self._ops_since_debug += 1
        if self._ops_since_debug >= DEBUG_EVENT_PERIOD:
            self._ops_since_debug = 0
            self.debug_event(weight=1)

    # ------------------------------------------------------------------ #
    # Allocator / libc helpers (uncategorizable by namespace)            #
    # ------------------------------------------------------------------ #

    def libc_malloc(self, result_cell: int) -> None:
        """Allocator bookkeeping: touches only the freelist (plus the
        returned object's header), so it is uncategorizable waste unless
        the object itself matters."""
        cell = self._malloc_freelist_cell()
        tracer = self.tracer
        with tracer.function("malloc"):
            tracer.op("pop_freelist", reads=(cell,), writes=(cell,))
            tracer.op("write_header", reads=(cell,), writes=(result_cell,))

    def libc_memcpy(self, reads, writes, weight: int = 2) -> None:
        """A real data copy: joins the slice whenever its output matters."""
        self.tracer.leaf_call("memcpy", _site_labels("copy", weight, weight), reads, writes)

    def _malloc_freelist_cell(self) -> int:
        if not hasattr(self, "_freelist_cell"):
            self._freelist_cell = self.memory.alloc_cell("libc:freelist")
        return self._freelist_cell

    def plain_helper(self, name: str, reads=(), writes=()) -> None:
        """One call into a plain-named (namespace-less) runtime function.

        Real binaries spend a large share of instructions in C-runtime and
        stub functions (blitters, hash lookups, allocators) that the
        paper's namespace analysis cannot categorize — only 53-74% of
        non-slice instructions were categorizable.  The helper's dataflow
        mirrors its caller's, so its usefulness follows the surrounding
        chain.
        """
        self.tracer.leaf_call(name, _BODY, reads, writes)

    def plain_bulk(self, name: str, weight: int, reads=(), writes=()) -> None:
        """A longer run inside one plain-named function (stdlib loops)."""
        self.tracer.leaf_call(name, _site_labels("it", weight, 32), reads, writes)

    # ------------------------------------------------------------------ #
    # Plain-named runtime helpers (uncategorizable functions)            #
    # ------------------------------------------------------------------ #

    def runtime_helper(
        self,
        name: str,
        reads: Tuple[int, ...],
        writes: Tuple[int, ...],
        weight: int = 2,
    ) -> None:
        """Run a C-runtime-style helper (``memcpy``, ``malloc``, ...).

        These functions have no ``::`` namespace, so instructions spent in
        them are *uncategorizable* in the Figure 5 methodology — matching
        the paper, where only 53-74% of non-slice instructions could be
        categorized.
        """
        self.tracer.leaf_call(name, _site_labels("w", weight, weight), reads, writes)
