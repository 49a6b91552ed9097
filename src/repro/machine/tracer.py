"""The tracer: produces Pin-style instruction traces from engine activity.

The simulated browser engine performs its semantic work in Python (real
parsing, real layout arithmetic, real pixel blending) and *mirrors the
dataflow* of that work through this tracer: every primitive step emits one
:class:`~repro.trace.records.TraceRecord` naming the abstract memory cells
and registers it reads and writes.  Control decisions emit a ``cmp``/
``branch`` pair so that liveness flows from branch conditions back into the
data that produced them, and the dynamic CFG has real diamonds and back
edges.

Program counters are stable per (function symbol, emit-site label): the same
static instruction always executes at the same pc, which is what makes
dynamic CFG construction (paper Section III-A) well-defined.  The tracer
also records that CFG as it emits: each distinct step from one pc to the
next within a frame is written once into the store's
:class:`~repro.trace.store.CFGSteps`, which the forward pass reads.
"""

from __future__ import annotations

from itertools import cycle
from typing import Dict, List, Optional, Sequence, Tuple

from ..trace.records import (
    FRAME_BEGIN_MARKER,
    FRAME_END_MARKER,
    LOCK_ACQUIRE_MARKER,
    LOCK_RELEASE_MARKER,
    NO_MEM,
    NO_REGS,
    SYNC_ACQUIRE,
    SYNC_RELEASE,
    FrameSpan,
    InstrKind,
    TraceMetadata,
    new_record,
    sync_marker_tag,
)
from ..trace.store import CFGSteps, TraceStore
from ..trace.symbols import SymbolTable
from .clock import VirtualClock
from .registers import (
    FLAGS,
    SYSCALL_ARG_REGISTERS,
    SYSCALL_RESULT_REGISTERS,
)
from .syscalls import BY_NAME

#: pc space reserved per function; functions can have up to this many sites.
FN_SPAN = 1 << 20

#: Marker tags with dedicated side-channel handling.
TILE_MARKER = "tile_ready"
LOAD_COMPLETE_MARKER = "load_complete"


#: The register tuple the compare writes and the branch reads.
_FLAGS_ONLY = (FLAGS,)
_NO_THREAD = "no thread spawned yet"

#: Record kinds as module globals (cheaper to load than enum attributes).
_OP, _CMP, _BRANCH = InstrKind.OP, InstrKind.CMP, InstrKind.BRANCH
_CALL, _RET = InstrKind.CALL, InstrKind.RET
_SYSCALL, _MARKER = InstrKind.SYSCALL, InstrKind.MARKER

#: A step memo key: function, the previous pc in its frame (``None``
#: before the frame's first record), and the emit's label argument.
_StepKey = Tuple[int, Optional[int], str]
#: ``leaf_call``'s memo entry: callee symbol, call pc, op pcs, ret pc.
_LeafSites = Tuple[int, int, Tuple[int, ...], int]


class _Invocation:
    """``with tracer.function(name)``: CALL on entry, RET on exit.

    The RET is emitted whether or not the body raised; an exception in the
    body still propagates.
    """

    __slots__ = ("tracer", "name", "site")

    def __init__(self, tracer: "Tracer", name: str, site: Optional[str]) -> None:
        self.tracer = tracer
        self.name = name
        self.site = site

    def __enter__(self) -> None:
        self.tracer.call(self.name, self.site)

    def __exit__(self, exc_type, exc, tb) -> None:
        self.tracer.ret()


class Tracer:
    """Collects the instruction trace of the simulated tab process.

    Every emit method takes the same path: read the current thread, the
    function on top of its call stack and the site's pc (``_pc`` assigns
    one to a new site), then append one record per instruction, built
    positionally by :func:`~repro.trace.records.new_record`, to the
    store's record list (``TraceStore.append`` is one call more per
    record).  The steps are written out in each method rather than shared
    through a helper, because they run once per traced instruction.

    Each emit also records the dynamic CFG (paper Section III-A) into
    the store's :class:`~repro.trace.store.CFGSteps`.  Beside each
    thread's call stack the tracer keeps the last pc of every open
    frame, and an emit method looks up its pcs in a memo keyed by the
    step: ``(fn, previous pc in the frame, label)``.  A hit costs about
    what a ``(fn, label)`` lookup does; a miss is exactly a step the
    trace has not taken before, so the method takes the pc from
    ``_pc`` (pcs are still assigned in first-use order) and records the
    ``(fn, previous pc, pc)`` step, plus the branch pc of a BRANCH or
    the return site of a RET.  The forward pass then reads each
    distinct step once instead of walking every record.  A new emit
    method must do the same, or ``tests/profiler/test_cfg_differential.py``
    fails.

    No emit method touches the clock.  The clock counts this tracer's
    record list (:meth:`VirtualClock.count_records`): each record
    appended is one instruction of the thread :meth:`switch` last
    selected, and :meth:`switch` is the one place the thread changes.

    Two emits cover fixed shapes in one call: :meth:`leaf_call` (a CALL,
    one OP per label, a RET) and :meth:`accumulate` (a run of OPs whose
    labels cycle through a tuple).  They memoize their pcs, and fill the
    memos through ``_pc`` in the order the one-record emits would first
    see the sites, so a trace does not show which way it was emitted.
    ``leaf_call`` records the caller's step through its memo and the
    callee's fixed steps on a miss; ``accumulate`` records its entry
    step on every run and its label cycle as far as its longest run.
    """

    def __init__(
        self,
        symbols: Optional[SymbolTable] = None,
        clock: Optional[VirtualClock] = None,
    ) -> None:
        self.symbols = symbols if symbols is not None else SymbolTable()
        self.clock = clock if clock is not None else VirtualClock()
        self.store = TraceStore(self.symbols, TraceMetadata())
        #: the store's record list: emits append to it directly
        self._records = self.store.records()
        #: the pc table: (fn, label) -> pc
        self._sites: Dict[Tuple[int, str], int] = {}
        self._site_counts: Dict[int, int] = {}
        #: the CFG the emits record, carried by the store; the tracer
        #: writes into its containers directly
        cfg = self.store.cfg_steps = CFGSteps()
        self._steps = cfg.steps
        self._branches = cfg.branches
        self._returns = cfg.returns
        #: the step-keyed memos (a miss records the step): (fn, previous
        #: pc, label) -> pc for ``op`` and ``call``, (fn, previous pc) ->
        #: pc for ``ret``, (fn, previous pc, label) -> (cmp pc, branch pc)
        #: for ``compare_and_branch``, (fn, previous pc, syscall name) ->
        #: pc and (fn, previous pc, marker tag) -> pc
        self._op_steps: Dict[_StepKey, int] = {}
        self._ret_steps: Dict[Tuple[int, Optional[int]], int] = {}
        self._branch_steps: Dict[_StepKey, Tuple[int, int]] = {}
        self._syscall_steps: Dict[_StepKey, int] = {}
        self._marker_steps: Dict[_StepKey, int] = {}
        #: (caller, previous pc, function, labels) -> (callee, call pc,
        #: op pcs, ret pc) for ``leaf_call``; (fn, labels) -> the pcs of
        #: the labels used so far, in order, for ``accumulate``
        self._leaf_steps: Dict[
            Tuple[int, Optional[int], str, Tuple[str, ...]], _LeafSites
        ] = {}
        self._run_sites: Dict[Tuple[int, Tuple[str, ...]], List[int]] = {}
        #: tid -> call stack of function symbol ids (root frame first)
        self._stacks = cfg.stacks
        #: tid -> the last pc of each frame of its call stack (``None``
        #: until the frame's first record)
        self._last_pcs = cfg.last_pcs
        self._tid: Optional[int] = None
        #: the current thread's call stack (``_stacks[_tid]``) and last
        #: pcs (``_last_pcs[_tid]``)
        self._stack: List[int] = []
        self._last: List[Optional[int]] = []
        self.clock.count_records(self._records)

    # ------------------------------------------------------------------ #
    # Threads                                                            #
    # ------------------------------------------------------------------ #

    def spawn_thread(self, tid: int, name: str, root_function: str) -> None:
        """Register a thread whose outermost frame is ``root_function``."""
        if tid in self._stacks:
            raise ValueError(f"thread {tid} already exists")
        self._stacks[tid] = [self.symbols.intern(root_function)]
        self._last_pcs[tid] = [None]
        self.store.metadata.thread_names[tid] = name
        if self._tid is None:
            self.switch(tid)

    def switch(self, tid: int) -> None:
        """Make ``tid`` the currently executing thread."""
        stack = self._stacks.get(tid)
        if stack is None:
            raise KeyError(f"unknown thread {tid}")
        self.clock.switch(tid)
        self._tid = tid
        self._stack = stack
        self._last = self._last_pcs[tid]

    @property
    def current_tid(self) -> int:
        if self._tid is None:
            raise RuntimeError(_NO_THREAD)
        return self._tid

    def current_function(self) -> int:
        """Symbol id of the function on top of the current thread's stack."""
        if self._tid is None:
            raise RuntimeError(_NO_THREAD)
        return self._stack[-1]

    # ------------------------------------------------------------------ #
    # pc management                                                      #
    # ------------------------------------------------------------------ #

    def _pc(self, fn: int, label: str) -> int:
        key = (fn, label)
        pc = self._sites.get(key)
        if pc is None:
            index = self._site_counts.get(fn, 0)
            if index >= FN_SPAN:
                raise OverflowError(
                    f"function {self.symbols.name(fn)} exceeded {FN_SPAN} sites"
                )
            self._site_counts[fn] = index + 1
            pc = (fn + 1) * FN_SPAN + index
            self._sites[key] = pc
        return pc

    def _step(self, fn: int, prev: Optional[int], label: str) -> int:
        """The pc of ``label`` in ``fn``; records the step to it from ``prev``.

        The miss path of the step-keyed memos.
        """
        pc = self._pc(fn, label)
        self._steps[fn, prev, pc] = None
        return pc

    def pc_of(self, function: str, label: str) -> Optional[int]:
        """Look up the pc of an already-observed emit site (diagnostics)."""
        fn = self.symbols.lookup(function)
        if fn is None:
            return None
        return self._sites.get((fn, label))

    # ------------------------------------------------------------------ #
    # Record emission                                                    #
    # ------------------------------------------------------------------ #

    def op(
        self,
        label: str,
        reads: Tuple[int, ...] = (),
        writes: Tuple[int, ...] = (),
        reg_reads: Tuple[int, ...] = (),
        reg_writes: Tuple[int, ...] = (),
    ) -> int:
        """Emit an ordinary data-operation record at site ``label``."""
        tid = self._tid
        if tid is None:
            raise RuntimeError(_NO_THREAD)
        fn = self._stack[-1]
        last = self._last
        key = (fn, last[-1], label)
        pc = self._op_steps.get(key)
        if pc is None:
            pc = self._op_steps[key] = self._step(fn, key[1], label)
        last[-1] = pc
        records = self._records
        records.append(
            new_record(
                tid, pc, _OP, fn,
                tuple(reg_reads), tuple(reg_writes), tuple(reads), tuple(writes),
            )
        )
        return len(records) - 1

    def compare_and_branch(self, label: str, reads: Tuple[int, ...]) -> None:
        """Emit a decision point: ``cmp`` (reads cells, sets FLAGS) + branch.

        The engine calls this once per evaluation of a conditional; the
        branch's dynamic successors (whatever records follow in this
        function) define the control dependences discovered by the CDG.
        """
        tid = self._tid
        if tid is None:
            raise RuntimeError(_NO_THREAD)
        fn = self._stack[-1]
        last = self._last
        key = (fn, last[-1], label)
        pcs = self._branch_steps.get(key)
        if pcs is None:
            cmp_pc = self._step(fn, key[1], label + "$cmp")
            br_pc = self._step(fn, cmp_pc, label + "$br")
            self._branches.add((fn, br_pc))
            pcs = self._branch_steps[key] = (cmp_pc, br_pc)
        cmp_pc, br_pc = pcs
        last[-1] = br_pc
        records = self._records
        records.append(new_record(tid, cmp_pc, _CMP, fn, NO_REGS, _FLAGS_ONLY, tuple(reads)))
        records.append(new_record(tid, br_pc, _BRANCH, fn, _FLAGS_ONLY))

    # ------------------------------------------------------------------ #
    # Functions                                                          #
    # ------------------------------------------------------------------ #

    def call(self, function: str, site: Optional[str] = None) -> None:
        """Emit a CALL at the caller and push ``function``."""
        tid = self._tid
        if tid is None:
            raise RuntimeError(_NO_THREAD)
        caller = self._stack[-1]
        callee = self.symbols.intern(function)
        label = site if site is not None else f"call:{function}"
        last = self._last
        key = (caller, last[-1], label)
        pc = self._op_steps.get(key)
        if pc is None:
            pc = self._op_steps[key] = self._step(caller, key[1], label)
        last[-1] = pc
        self._records.append(new_record(tid, pc, _CALL, caller))
        self._stack.append(callee)
        last.append(None)

    def ret(self) -> None:
        """Emit a RET in the current function and pop it."""
        tid = self._tid
        if tid is None:
            raise RuntimeError(_NO_THREAD)
        stack = self._stack
        if len(stack) <= 1:
            raise RuntimeError(f"thread {tid}: return from root frame")
        fn = stack[-1]
        last = self._last
        key = (fn, last[-1])
        pc = self._ret_steps.get(key)
        if pc is None:
            pc = self._ret_steps[key] = self._step(fn, key[1], "$ret")
            self._returns.add((fn, pc))
        self._records.append(new_record(tid, pc, _RET, fn))
        stack.pop()
        last.pop()

    def function(self, name: str, site: Optional[str] = None) -> _Invocation:
        """Context manager bracketing a function invocation."""
        return _Invocation(self, name, site)

    def leaf_call(
        self,
        function: str,
        labels: Tuple[str, ...],
        reads: Tuple[int, ...] = (),
        writes: Tuple[int, ...] = (),
    ) -> None:
        """Call ``function``, run one OP per label in it, and return.

        The records of ``with self.function(function):`` around one
        ``self.op(label, reads, writes)`` per label, for a leaf function
        whose OPs all share their operands.  Callers keep one ``labels``
        tuple per shape rather than build it per call (the
        ``EngineContext`` helpers cache theirs).

        A memo miss records the caller's step to the CALL and every
        step of the callee's fixed shape (its entry, the chain of OPs,
        the RET and its return site); those are already recorded when
        the shape was met from another step, and recording them again
        changes nothing.
        """
        tid = self._tid
        if tid is None:
            raise RuntimeError(_NO_THREAD)
        caller = self._stack[-1]
        last = self._last
        key = (caller, last[-1], function, labels)
        sites = self._leaf_steps.get(key)
        if sites is None:
            callee = self.symbols.intern(function)
            call_pc = self._step(caller, key[1], f"call:{function}")
            pcs = tuple([self._pc(callee, label) for label in labels])
            ret_pc = self._pc(callee, "$ret")
            steps = self._steps
            src = None
            for pc in pcs + (ret_pc,):
                steps[callee, src, pc] = None
                src = pc
            self._returns.add((callee, ret_pc))
            sites = self._leaf_steps[key] = (callee, call_pc, pcs, ret_pc)
        callee, call_pc, pcs, ret_pc = sites
        last[-1] = call_pc
        reads = tuple(reads)
        writes = tuple(writes)
        append = self._records.append
        append(new_record(tid, call_pc, _CALL, caller))
        for pc in pcs:
            append(new_record(tid, pc, _OP, callee, NO_REGS, NO_REGS, reads, writes))
        append(new_record(tid, ret_pc, _RET, callee))

    def accumulate(self, labels: Tuple[str, ...], cells: Sequence[int], acc: int) -> None:
        """One OP per cell that folds the cell into cell ``acc``.

        The records of ``self.op(labels[i % len(labels)], reads=(cell,
        acc), writes=(acc,))`` for the ``i``-th of ``cells``, in order.
        Only the labels a run reaches get a pc, as the loop would give
        them.  Every run records its entry step; the steps between
        labels, the wrap from the last label to the first included, are
        recorded as far as the longest run so far reaches.
        """
        tid = self._tid
        if tid is None:
            raise RuntimeError(_NO_THREAD)
        fn = self._stack[-1]
        pcs = self._run_sites.get((fn, labels))
        if pcs is None:
            pcs = self._run_sites[fn, labels] = []
        count = len(cells)
        if not count:
            return
        known = len(pcs)
        if known < count and known < len(labels):
            pcs.extend([self._pc(fn, label) for label in labels[known:count]])
        steps = self._steps
        last = self._last
        steps[fn, last[-1], pcs[0]] = None
        for i in range(max(known, 1), len(pcs)):
            steps[fn, pcs[i - 1], pcs[i]] = None
        if count > len(pcs):
            steps[fn, pcs[-1], pcs[0]] = None
        last[-1] = pcs[(count - 1) % len(pcs)]
        writes = (acc,)
        append = self._records.append
        for pc, cell in zip(cycle(pcs), cells):
            append(new_record(tid, pc, _OP, fn, NO_REGS, NO_REGS, (cell, acc), writes))

    # ------------------------------------------------------------------ #
    # Syscalls and markers                                               #
    # ------------------------------------------------------------------ #

    def syscall(
        self,
        name: str,
        reads: Tuple[int, ...] = (),
        writes: Tuple[int, ...] = (),
    ) -> int:
        """Emit a SYSCALL record with AMD64 ABI register effects.

        ``reads``/``writes`` are the concrete user-memory cells the kernel
        touches for this dynamic instance (resolved by the caller, as the
        paper's Pin tool resolves ``buf``/``dest_addr`` pointers).
        """
        model = BY_NAME[name]
        tid = self._tid
        if tid is None:
            raise RuntimeError(_NO_THREAD)
        fn = self._stack[-1]
        last = self._last
        key = (fn, last[-1], name)
        pc = self._syscall_steps.get(key)
        if pc is None:
            pc = self._syscall_steps[key] = self._step(fn, key[1], f"syscall:{name}")
        last[-1] = pc
        records = self._records
        records.append(
            new_record(
                tid, pc, _SYSCALL, fn,
                SYSCALL_ARG_REGISTERS[: model.nargs], SYSCALL_RESULT_REGISTERS,
                tuple(reads), tuple(writes), model.number,
            )
        )
        return len(records) - 1

    def marker(self, tag: str, cells: Tuple[int, ...] = ()) -> int:
        """Emit a MARKER record (the paper's ``xchg %r13w,%r13w``).

        ``TILE_MARKER`` markers additionally log (record index, pixel
        cells) into the trace metadata — the equivalent of the external
        file written by the paper's modified ``PlaybackToMemory``.
        """
        tid = self._tid
        if tid is None:
            raise RuntimeError(_NO_THREAD)
        fn = self._stack[-1]
        last = self._last
        key = (fn, last[-1], tag)
        pc = self._marker_steps.get(key)
        if pc is None:
            pc = self._marker_steps[key] = self._step(fn, key[1], f"marker:{tag}")
        last[-1] = pc
        cells = tuple(cells)
        records = self._records
        records.append(
            new_record(tid, pc, _MARKER, fn, NO_REGS, NO_REGS, cells, NO_MEM, None, tag)
        )
        index = len(records) - 1
        if tag == TILE_MARKER:
            self.store.metadata.tile_buffers.append((index, cells))
        elif tag == LOAD_COMPLETE_MARKER:
            self.store.metadata.load_complete_index = index
        return index

    # ------------------------------------------------------------------ #
    # Frame epochs                                                       #
    # ------------------------------------------------------------------ #

    def frame_begin(self, frame_id: int, kind: str) -> int:
        """Open frame ``frame_id`` (emit FRAME_BEGIN, record its span).

        Frames must be strictly increasing and non-overlapping: opening a
        new frame while another is still open is a pipeline bug, surfaced
        here rather than left for the trace linter to find post-mortem.
        """
        frames = self.store.metadata.frames
        if frames and not frames[-1].complete:
            raise RuntimeError(
                f"frame {frame_id} opened while frame "
                f"{frames[-1].frame_id} is still open"
            )
        if frames and frame_id <= frames[-1].frame_id:
            raise RuntimeError(
                f"frame ids must increase: {frame_id} after {frames[-1].frame_id}"
            )
        index = self.marker(FRAME_BEGIN_MARKER)
        frames.append(FrameSpan(frame_id=frame_id, kind=kind, begin=index))
        return index

    def frame_end(self, frame_id: int) -> int:
        """Close frame ``frame_id`` (emit FRAME_END, complete its span)."""
        frames = self.store.metadata.frames
        if not frames or frames[-1].complete or frames[-1].frame_id != frame_id:
            raise RuntimeError(f"frame {frame_id} is not the open frame")
        index = self.marker(FRAME_END_MARKER)
        frames[-1].end = index
        return index

    # ------------------------------------------------------------------ #
    # Synchronization events                                              #
    # ------------------------------------------------------------------ #

    def sync_release(self, obj: int, kind: Optional[str] = None) -> int:
        """Publish the current thread's history into sync object ``obj``.

        Everything this thread did before the release happens-before
        whatever any thread does after a matching :meth:`sync_acquire` on
        the same object.  ``kind`` selects the edge family recorded in the
        marker tag (``ipc``, ``task``, ... — see
        :func:`repro.trace.records.sync_marker_tag`).
        """
        return self.marker(sync_marker_tag(SYNC_RELEASE, kind), cells=(obj,))

    def sync_acquire(self, obj: int, kind: Optional[str] = None) -> int:
        """Import the history published into sync object ``obj``."""
        return self.marker(sync_marker_tag(SYNC_ACQUIRE, kind), cells=(obj,))

    def lock_acquire(self, obj: int) -> int:
        """Acquire a mutual-exclusion lock identified by cell ``obj``."""
        return self.marker(LOCK_ACQUIRE_MARKER, cells=(obj,))

    def lock_release(self, obj: int) -> int:
        """Release a mutual-exclusion lock identified by cell ``obj``."""
        return self.marker(LOCK_RELEASE_MARKER, cells=(obj,))


class _CriticalSection:
    """``with lock.held()``: acquire on entry, release on exit.

    The release is emitted whether or not the body raised.
    """

    __slots__ = ("lock",)

    def __init__(self, lock: "TracedLock") -> None:
        self.lock = lock

    def __enter__(self) -> "TracedLock":
        lock = self.lock
        lock.tracer.lock_acquire(lock.cell)
        return lock

    def __exit__(self, exc_type, exc, tb) -> None:
        lock = self.lock
        lock.tracer.lock_release(lock.cell)


class TracedLock:
    """A mutual-exclusion lock whose critical sections appear in the trace.

    The lock itself is only a trace-level annotation — the engine is
    cooperatively scheduled, so there is nothing to block on.  What the
    annotation buys is a happens-before edge from each release to every
    later acquire of the same lock cell, chaining the critical sections of
    all threads into a total order the race detector can rely on.
    """

    __slots__ = ("tracer", "cell", "name", "_section")

    def __init__(self, tracer: Tracer, cell: int, name: str) -> None:
        self.tracer = tracer
        self.cell = cell
        self.name = name
        self._section = _CriticalSection(self)

    def held(self) -> _CriticalSection:
        """Bracket a critical section (static lock-order analysis keys on
        ``with ctx.lock("...").held():`` sites)."""
        return self._section
