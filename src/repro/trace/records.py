"""Trace record model.

A trace is a sequence of :class:`TraceRecord` objects, one per dynamically
executed machine instruction, in program (execution) order.  This mirrors
the information the paper's Pin tool collects (Section IV-A): static
information (instruction kind, registers accessed) and dynamic information
(memory addresses accessed, thread id, syscall number).

Memory is modelled at word granularity: each abstract address identifies one
slicer-visible location (a "variable" in the paper's terminology).  The
slicer never needs values, only locations and the dynamic path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

#: Marker-tag prefixes of the synchronization-event convention.  A MARKER
#: record whose tag starts with one of these is a *sync event*, not a data
#: access: its single memory cell identifies the synchronization object
#: (lock, task queue, IPC channel, hand-off token) and its tag encodes the
#: release/acquire direction.  The happens-before race detector
#: (:mod:`repro.tsan`) derives every cross-thread ordering edge from these
#: records; everything else in the trace is treated as plain shared-memory
#: access.
SYNC_MARKER_PREFIX = "sync:"
LOCK_MARKER_PREFIX = "lock:"

LOCK_ACQUIRE_MARKER = "lock:acquire"
LOCK_RELEASE_MARKER = "lock:release"

#: release joins the releasing thread's clock into the object's clock;
#: acquire joins the object's clock into the acquiring thread's clock.
SYNC_RELEASE = "release"
SYNC_ACQUIRE = "acquire"


@dataclass(frozen=True)
class SyncEvent:
    """One parsed synchronization marker.

    Attributes:
        index: record index in the trace.
        tid: thread that executed the sync operation.
        op: ``"release"`` or ``"acquire"``.
        obj: abstract cell identifying the synchronization object.
        kind: edge family — ``"lock"`` for mutual-exclusion locks,
            ``"ipc"`` for channel edges, ``"task"`` for scheduler edges,
            ``"plain"`` for bare hand-off tokens (thread-pool dispatch).
    """

    index: int
    tid: int
    op: str
    obj: int
    kind: str


def sync_marker_tag(op: str, kind: Optional[str] = None) -> str:
    """Compose the marker tag for a sync event (inverse of parsing)."""
    if op not in (SYNC_RELEASE, SYNC_ACQUIRE):
        raise ValueError(f"sync op must be release/acquire, got {op!r}")
    if kind is None or kind == "plain":
        return f"{SYNC_MARKER_PREFIX}{op}"
    if kind == "lock":
        return f"{LOCK_MARKER_PREFIX}{op}"
    return f"{SYNC_MARKER_PREFIX}{kind}:{op}"


def is_sync_marker(record: "TraceRecord") -> bool:
    """True for MARKER records following the sync/lock tag convention."""
    return (
        record.kind == InstrKind.MARKER
        and record.marker is not None
        and (
            record.marker.startswith(SYNC_MARKER_PREFIX)
            or record.marker.startswith(LOCK_MARKER_PREFIX)
        )
    )


def sync_event_of(index: int, record: "TraceRecord") -> Optional[SyncEvent]:
    """Parse a record into a :class:`SyncEvent`, or None for non-sync records.

    Malformed sync markers (unknown op, no object cell) return None; the
    trace sanitizer's ``lock-discipline`` check reports them loudly.
    """
    if not is_sync_marker(record):
        return None
    tag = record.marker or ""
    if tag.startswith(LOCK_MARKER_PREFIX):
        kind, op = "lock", tag[len(LOCK_MARKER_PREFIX):]
    else:
        rest = tag[len(SYNC_MARKER_PREFIX):]
        if ":" in rest:
            kind, op = rest.split(":", 1)
        else:
            kind, op = "plain", rest
    if op not in (SYNC_RELEASE, SYNC_ACQUIRE) or len(record.mem_read) != 1:
        return None
    return SyncEvent(
        index=index, tid=record.tid, op=op, obj=record.mem_read[0], kind=kind
    )


#: Marker tags bracketing one frame of the incremental render pipeline.
#: The tracer emits FRAME_BEGIN when the engine starts producing a frame
#: (BeginMainFrame / scroll handling) and FRAME_END right after that
#: frame's draw; the span of records between them is the frame's trace
#: epoch.  The "frame:" prefix is disjoint from the sync/lock prefixes, so
#: frame markers are never mistaken for happens-before edges.
FRAME_BEGIN_MARKER = "frame:begin"
FRAME_END_MARKER = "frame:end"


@dataclass
class FrameSpan:
    """One rendered frame's extent in the trace (metadata side channel).

    Attributes:
        frame_id: 0-based frame number, strictly increasing per trace.
        kind: what produced the frame — ``"load"`` (the first full
            render), ``"update"`` (an invalidation-driven re-render), or
            ``"scroll"`` (a compositor-thread scroll redraw).
        begin: record index of the FRAME_BEGIN marker.
        end: record index of the FRAME_END marker (``None`` while the
            frame is still open during collection).
    """

    frame_id: int
    kind: str
    begin: int
    end: Optional[int] = None

    @property
    def complete(self) -> bool:
        return self.end is not None

    def n_records(self) -> int:
        """Number of records in the frame span, markers included."""
        if self.end is None:
            return 0
        return self.end - self.begin + 1


class InstrKind(enum.IntEnum):
    """Kind of a dynamically executed instruction.

    The kinds match what the paper's forward/backward passes need to
    distinguish: ordinary data operations, compare (flag-setting)
    operations, conditional branches, call/return pairs (function boundary
    detection), system calls, and the special marker instruction
    (``xchg %r13w, %r13w`` in the paper) used to anchor pixel-buffer
    slicing criteria.
    """

    OP = 0
    CMP = 1
    BRANCH = 2
    CALL = 3
    RET = 4
    SYSCALL = 5
    MARKER = 6


#: Empty tuple singletons used to keep record construction cheap.
NO_REGS: Tuple[int, ...] = ()
NO_MEM: Tuple[int, ...] = ()


@dataclass(frozen=True, slots=True, init=False)
class TraceRecord:
    """One dynamically executed instruction.

    Records are slotted (no per-instance ``__dict__``): a trace holds one
    record per executed instruction, so both the memory per record and
    the construction cost matter.  The ``__init__`` is hand-written with
    the generated one's signature; code that builds records in bulk calls
    :func:`new_record`, which makes the same record for less.

    Attributes:
        tid: id of the thread that executed the instruction.
        pc: static program counter.  Stable per (function, emit-site), so
            repeated executions of the same static instruction share a pc.
        kind: the :class:`InstrKind`.
        fn: symbol id of the enclosing function (see
            :class:`repro.trace.symbols.SymbolTable`).
        regs_read: architectural registers read (per-thread context).
        regs_written: architectural registers written.
        mem_read: abstract word addresses read.
        mem_written: abstract word addresses written.
        syscall: syscall number for ``SYSCALL`` records, else ``None``.
        marker: marker tag for ``MARKER`` records, else ``None``.  Used by
            slicing criteria to find the program points of interest.
    """

    tid: int
    pc: int
    kind: InstrKind
    fn: int
    regs_read: Tuple[int, ...] = NO_REGS
    regs_written: Tuple[int, ...] = NO_REGS
    mem_read: Tuple[int, ...] = NO_MEM
    mem_written: Tuple[int, ...] = NO_MEM
    syscall: Optional[int] = None
    marker: Optional[str] = None

    def __init__(
        self,
        tid: int,
        pc: int,
        kind: InstrKind,
        fn: int,
        regs_read: Tuple[int, ...] = NO_REGS,
        regs_written: Tuple[int, ...] = NO_REGS,
        mem_read: Tuple[int, ...] = NO_MEM,
        mem_written: Tuple[int, ...] = NO_MEM,
        syscall: Optional[int] = None,
        marker: Optional[str] = None,
    ) -> None:
        # Frozen: bypass the raising __setattr__, looked up once per record.
        set_field = object.__setattr__
        set_field(self, "tid", tid)
        set_field(self, "pc", pc)
        set_field(self, "kind", kind)
        set_field(self, "fn", fn)
        set_field(self, "regs_read", regs_read)
        set_field(self, "regs_written", regs_written)
        set_field(self, "mem_read", mem_read)
        set_field(self, "mem_written", mem_written)
        set_field(self, "syscall", syscall)
        set_field(self, "marker", marker)

    def touches_memory(self) -> bool:
        """Return True if the instruction accesses any memory location."""
        return bool(self.mem_read or self.mem_written)


class _UnfrozenRecord:
    """:class:`TraceRecord`'s slot layout without its frozen ``__setattr__``.

    :func:`new_record` fills one and retypes it to ``TraceRecord``; the
    identical ``__slots__`` are what make the ``__class__`` assignment
    legal.  Never handed out under this type.
    """

    __slots__ = TraceRecord.__slots__


_blank_record = object.__new__


def new_record(
    tid: int,
    pc: int,
    kind: InstrKind,
    fn: int,
    regs_read: Tuple[int, ...] = NO_REGS,
    regs_written: Tuple[int, ...] = NO_REGS,
    mem_read: Tuple[int, ...] = NO_MEM,
    mem_written: Tuple[int, ...] = NO_MEM,
    syscall: Optional[int] = None,
    marker: Optional[str] = None,
) -> TraceRecord:
    """Build a :class:`TraceRecord`: the constructor of every bulk producer.

    Same signature and result as ``TraceRecord(...)``, about a fifth of
    its cost: the fields go into an unfrozen twin with plain slot stores,
    which is then retyped, instead of through ten ``object.__setattr__``
    calls.  The result is an ordinary frozen ``TraceRecord`` (assignment
    raises, equality, hashing and pickling are the dataclass's).  The
    tracer and the UCWA3 record materializer build every record through
    this; ``TraceRecord(...)`` stays for keyword construction and
    :func:`dataclasses.replace`.
    """
    record: Any = _blank_record(_UnfrozenRecord)
    record.tid = tid
    record.pc = pc
    record.kind = kind
    record.fn = fn
    record.regs_read = regs_read
    record.regs_written = regs_written
    record.mem_read = mem_read
    record.mem_written = mem_written
    record.syscall = syscall
    record.marker = marker
    record.__class__ = TraceRecord
    return record


@dataclass
class TraceMetadata:
    """Side information accompanying a trace.

    The paper stores the pixel-buffer addresses and marker points in an
    external file written by the modified ``PlaybackToMemory``; this class
    is the equivalent side channel.

    Attributes:
        thread_names: tid -> human-readable role ("CrRendererMain",
            "Compositor", "CompositorTileWorker1", ...).
        tile_buffers: list of (record_index, tuple-of-pixel-cell-addresses)
            captured each time a finished tile was written (one entry per
            MARKER occurrence, in trace order).
        load_complete_index: record index at which the page finished
            loading (used for the Bing partial-slice experiment).
        frames: list of :class:`FrameSpan`, one per rendered frame, in
            frame-id order (the incremental pipeline's frame epochs).
        notes: free-form annotations (workload name, viewport, ...).
    """

    thread_names: dict = field(default_factory=dict)
    tile_buffers: list = field(default_factory=list)
    load_complete_index: Optional[int] = None
    frames: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def main_thread_id(self) -> Optional[int]:
        """Return the tid of the renderer main thread, if known."""
        for tid, name in self.thread_names.items():
            if name == "CrRendererMain":
                return tid
        return None

    def thread_ids_by_role(self, prefix: str) -> list:
        """Return tids whose role name starts with ``prefix``, sorted."""
        return sorted(
            tid for tid, name in self.thread_names.items() if name.startswith(prefix)
        )

    def complete_frames(self) -> list:
        """Frame spans that have both begin and end markers, in order."""
        return [span for span in self.frames if span.complete]
