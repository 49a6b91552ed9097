"""The backward pass: frontiers and the one per-record walk.

:func:`run_epoch` is the only code that applies the liveness rules of
paper Section III-B.  The backward pass carries four pieces of state
from the end of the trace toward its beginning: the shared live memory
set, per-thread live registers, per-thread pending branches, and
per-thread reconstructed frame stacks.  That state only ever flows
*backward* (from higher record indices to lower ones), so the pass
factors into a chain of **epochs** ``[lo, hi)``: :func:`run_epoch` runs
one epoch from its **entry frontier** (the slicer state in force just
after record ``hi - 1``) and returns its flags plus its **exit
frontier** (the state just before ``lo``), which is the entry frontier
of the epoch before it.

The sequential engine (:class:`.slicer.BackwardSlicer`) is one epoch,
``[0, n)`` from the empty frontier, and is the only caller that asks for
Figure-4 timeline samples.  The incremental engine (:mod:`.incremental`)
chains epochs over the frame-region tiling and memoizes each region's
run; :func:`try_pass_through` decides when a memoized run stays valid
under a larger entry frontier.  :class:`SliceFrontier` serializes to a
flat ``struct``-packed byte string, which is how ``.ckpt`` sidecars
store frontiers.  The exactness argument is in
``docs/incremental-slicing.md``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..trace.records import InstrKind, TraceRecord
from .slicer import DEFAULT_OPTIONS, SlicerOptions, TimelineSample

#: A reconstructed frame in a frontier: (fn, ret_index or -1, needed, is_root).
FrameTuple = Tuple[int, int, int, int]


# --------------------------------------------------------------------- #
# Frontiers                                                             #
# --------------------------------------------------------------------- #

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_TID_COUNT = struct.Struct("<IH")
_FRAME_FIELDS = "IqBB"
_FRAME = struct.Struct("<" + _FRAME_FIELDS)


@dataclass(frozen=True)
class SliceFrontier:
    """Slicer state crossing an epoch boundary (one dataflow fact set).

    All collections are stored in canonical sorted form so that two
    frontiers holding the same facts compare equal and serialize to the
    same bytes.

    Attributes:
        live_mem: live memory cells (shared across threads).
        live_regs: per-thread live architectural registers.
        pending: per-thread pending branch pcs.
        stacks: per-thread reconstructed frame stacks, bottom to top.
            Each frame is ``(fn, ret_index, needed, is_root)`` with
            ``ret_index == -1`` for frames whose RET lies outside the
            trace (truncated or synthetic root frames).
    """

    live_mem: Tuple[int, ...] = ()
    live_regs: Tuple[Tuple[int, Tuple[int, ...]], ...] = ()
    pending: Tuple[Tuple[int, Tuple[int, ...]], ...] = ()
    stacks: Tuple[Tuple[int, Tuple[FrameTuple, ...]], ...] = ()

    @staticmethod
    def empty() -> "SliceFrontier":
        return _EMPTY_FRONTIER

    @staticmethod
    def from_state(
        live_mem: Set[int],
        live_regs: Dict[int, Set[int]],
        pending: Dict[int, Set[int]],
        stacks: Dict[int, List["_Frame"]],
    ) -> "SliceFrontier":
        """Canonicalize mutable slicer state into a frontier."""
        return SliceFrontier(
            live_mem=tuple(sorted(live_mem)),
            live_regs=tuple(
                (tid, tuple(sorted(regs)))
                for tid, regs in sorted(live_regs.items())
                if regs
            ),
            pending=tuple(
                (tid, tuple(sorted(pcs)))
                for tid, pcs in sorted(pending.items())
                if pcs
            ),
            stacks=tuple(
                (
                    tid,
                    tuple(
                        (
                            f.fn,
                            -1 if f.ret_index is None else f.ret_index,
                            int(f.needed),
                            int(f.is_root),
                        )
                        for f in stack
                    ),
                )
                for tid, stack in sorted(stacks.items())
                if stack
            ),
        )

    # -- compact serialization ------------------------------------------ #

    def to_bytes(self) -> bytes:
        chunks: List[bytes] = [_U32.pack(len(self.live_mem))]
        chunks.extend(_U64.pack(cell) for cell in self.live_mem)
        for group in (self.live_regs, self.pending):
            chunks.append(_U32.pack(len(group)))
            for tid, values in group:
                chunks.append(_TID_COUNT.pack(tid, len(values)))
                chunks.extend(_U64.pack(v) for v in values)
        chunks.append(_U32.pack(len(self.stacks)))
        for tid, frames in self.stacks:
            chunks.append(_TID_COUNT.pack(tid, len(frames)))
            chunks.extend(_FRAME.pack(*frame) for frame in frames)
        return b"".join(chunks)

    @staticmethod
    def from_bytes(data: bytes) -> "SliceFrontier":
        """Decode :meth:`to_bytes` output.

        Raises ``ValueError`` on short input or trailing bytes, so a
        damaged frontier in a checkpoint reads as damaged state.
        """
        size = len(data)
        pos = 0

        def take(fmt: str, nbytes: int) -> Tuple[int, ...]:
            nonlocal pos
            end = pos + nbytes
            if end > size:
                raise ValueError(
                    f"truncated slice frontier: need {end} bytes, have {size}"
                )
            values = struct.unpack_from(fmt, data, pos)
            pos = end
            return values

        def take_u64s(count: int) -> Tuple[int, ...]:
            return take(f"<{count}Q", _U64.size * count)

        (n_mem,) = take(_U32.format, _U32.size)
        live_mem = take_u64s(n_mem)
        groups: List[Tuple[Tuple[int, Tuple[int, ...]], ...]] = []
        for _ in range(2):
            (n_tids,) = take(_U32.format, _U32.size)
            entries = []
            for _ in range(n_tids):
                tid, count = take(_TID_COUNT.format, _TID_COUNT.size)
                entries.append((tid, take_u64s(count)))
            groups.append(tuple(entries))
        (n_stacks,) = take(_U32.format, _U32.size)
        stacks = []
        for _ in range(n_stacks):
            tid, depth = take(_TID_COUNT.format, _TID_COUNT.size)
            flat = take("<" + _FRAME_FIELDS * depth, _FRAME.size * depth)
            stacks.append(
                (tid, tuple(flat[j : j + 4] for j in range(0, len(flat), 4)))
            )
        if pos != size:
            raise ValueError(
                f"slice frontier has {size - pos} trailing bytes after {pos}"
            )
        return SliceFrontier(
            live_mem=live_mem,
            live_regs=groups[0],
            pending=groups[1],
            stacks=tuple(stacks),
        )


_EMPTY_FRONTIER = SliceFrontier()


class _Frame:
    """A function invocation reconstructed while walking backward."""

    __slots__ = ("fn", "ret_index", "needed", "is_root")

    def __init__(
        self,
        fn: int,
        ret_index: Optional[int],
        needed: bool = False,
        is_root: bool = False,
    ) -> None:
        self.fn = fn
        self.ret_index = ret_index
        self.needed = needed
        self.is_root = is_root

    @staticmethod
    def from_tuple(t: FrameTuple) -> "_Frame":
        fn, ret_index, needed, is_root = t
        return _Frame(fn, None if ret_index < 0 else ret_index, bool(needed), bool(is_root))


# --------------------------------------------------------------------- #
# Epoch transfer function                                               #
# --------------------------------------------------------------------- #


@dataclass
class EpochResult:
    """Output of running the backward pass over one epoch."""

    #: flags for records [lo, hi), epoch-relative
    flags: bytes
    #: (ret_index, callee fn) pairs to flag retroactively at indices >= hi
    extra: Tuple[Tuple[int, int], ...]
    #: slicer state just before record ``lo`` (the exit frontier)
    frontier: SliceFrontier
    #: per-tid minimum stack depth reached; frames below this depth
    #: survived the epoch untouched (needed-bit OR pass-through is safe)
    min_depth: Dict[int, int]
    #: join reasons (absolute record indices) when tracking was requested
    reasons: Optional[Dict[int, Tuple[str, int]]] = None
    #: Figure-4 progress samples when ``sample_every`` was given
    timeline: List[TimelineSample] = field(default_factory=list)


@dataclass
class EpochSummary:
    """Static (frontier-independent) facts about an epoch, used by the
    delta pass-through test."""

    mem_written: Set[int] = field(default_factory=set)
    regs_written: Dict[int, Set[int]] = field(default_factory=dict)
    branch_pcs: Dict[int, Set[int]] = field(default_factory=dict)
    tids: Set[int] = field(default_factory=set)


def summarize_epoch(records: Sequence[TraceRecord], lo: int, hi: int) -> EpochSummary:
    """Collect the write/branch footprint of records ``[lo, hi)``.

    RET records are excluded: they never take part in the liveness rule
    (the backward pass skips them before the gen/kill step).
    """
    summary = EpochSummary()
    ret = InstrKind.RET
    branch = InstrKind.BRANCH
    for i in range(lo, hi):
        rec = records[i]
        tid = rec.tid
        summary.tids.add(tid)
        kind = rec.kind
        if kind == ret:
            continue
        if rec.mem_written:
            summary.mem_written.update(rec.mem_written)
        if rec.regs_written:
            summary.regs_written.setdefault(tid, set()).update(rec.regs_written)
        if kind == branch:
            summary.branch_pcs.setdefault(tid, set()).add(rec.pc)
    return summary


def run_epoch(
    records: Sequence[TraceRecord],
    lo: int,
    hi: int,
    frontier: SliceFrontier,
    crit_by_index: Dict[int, "object"],
    include_syscalls: bool,
    window_end: Optional[int],
    deps_of,
    options: SlicerOptions = DEFAULT_OPTIONS,
    sample_every: Optional[int] = None,
    main_tid: Optional[int] = None,
) -> EpochResult:
    """Run the backward pass over records ``[lo, hi)`` from ``frontier``.

    Retroactive RET flags beyond ``hi`` are reported in ``extra`` instead
    of being written directly.  With ``sample_every``, a timeline sample
    is taken after every ``sample_every`` visited records and once more
    at the end.  A sample counts the records visited and the flags set so
    far (those of thread ``main_tid`` separately); a RET that joins
    retroactively counts when its CALL is visited.

    The loop holds the running thread's stack, live registers and
    pending branches while consecutive records share a thread, and
    looks them up again when the thread changes or a criterion adds
    registers (a criterion may name any thread's registers, this one's
    included).  Criteria are met through their indices in ``[lo, hi)``,
    highest first, and timeline samples through the index at which the
    next one falls due.
    """
    flags = bytearray(hi - lo)
    extra: List[Tuple[int, int]] = []
    live_mem: Set[int] = set(frontier.live_mem)
    live_regs: Dict[int, Set[int]] = {tid: set(v) for tid, v in frontier.live_regs}
    pending: Dict[int, Set[int]] = {tid: set(v) for tid, v in frontier.pending}
    stacks: Dict[int, List[_Frame]] = {
        tid: [_Frame.from_tuple(f) for f in frames] for tid, frames in frontier.stacks
    }
    min_depth: Dict[int, int] = {tid: len(stack) for tid, stack in stacks.items()}
    reasons: Optional[Dict[int, Tuple[str, int]]] = (
        {} if options.track_reasons else None
    )
    call_site_dependences = options.call_site_dependences
    timeline: List[TimelineSample] = []
    in_slice_count = 0
    processed_main = 0
    in_slice_main = 0

    # Criterion indices, highest first, ending in a sentinel no index hits.
    crit_points = sorted((i for i in crit_by_index if lo <= i < hi), reverse=True)
    crit_points.append(lo - 1)
    crit_pos = 0
    next_crit = crit_points[0]
    # The highest index at which a SYSCALL seeds the slice.
    if not include_syscalls:
        syscall_top = lo - 1
    elif window_end is None:
        syscall_top = hi
    else:
        syscall_top = window_end
    # The index after whose visit the next timeline sample falls due.
    sampling = bool(sample_every)
    next_sample = hi - sample_every if sampling else lo - 1

    RET = InstrKind.RET
    CALL = InstrKind.CALL
    BRANCH = InstrKind.BRANCH
    SYSCALL = InstrKind.SYSCALL

    # The running thread and its state; ``cur_tid = None`` forces a lookup.
    cur_tid: Optional[int] = None
    stack: List[_Frame] = []
    tregs: Optional[Set[int]] = None
    tpending: Optional[Set[int]] = None
    is_main = False

    for i in range(hi - 1, lo - 1, -1):
        rec = records[i]
        tid = rec.tid

        if i == next_crit:
            crit = crit_by_index[i]
            live_mem.update(crit.cells)
            if crit.regs:
                for reg_tid, reg in crit.regs:
                    live_regs.setdefault(reg_tid, set()).add(reg)
                cur_tid = None
            crit_pos += 1
            next_crit = crit_points[crit_pos]

        if tid != cur_tid:
            cur_tid = tid
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks[tid] = []
                min_depth[tid] = 0
            tregs = live_regs.get(tid)
            tpending = pending.get(tid)
            is_main = sampling and tid == main_tid
        if is_main:
            processed_main += 1

        kind = rec.kind
        if kind == RET:
            stack.append(_Frame(rec.fn, i))
            if i == next_sample:
                timeline.append(
                    TimelineSample(hi - i, in_slice_count, processed_main, in_slice_main)
                )
                next_sample -= sample_every
            continue

        in_slice = False
        reason: Tuple[str, int] = ("data", -1)

        if kind == CALL:
            fn = rec.fn
            callee: Optional[_Frame] = None
            if not stack:
                stack.append(_Frame(fn, None, False, True))
            elif not stack[-1].is_root or stack[-1].fn != fn:
                callee = stack.pop()
                if len(stack) < min_depth[tid]:
                    min_depth[tid] = len(stack)
                if not stack:
                    stack.append(_Frame(fn, None, False, True))
            if callee is not None and callee.needed and call_site_dependences:
                in_slice = True
                reason = ("call", callee.fn)
                ret_index = callee.ret_index
                if ret_index is not None:
                    if ret_index >= hi:
                        extra.append((ret_index, callee.fn))
                    elif not flags[ret_index - lo]:
                        flags[ret_index - lo] = 1
                        in_slice_count += 1
                        if is_main:
                            in_slice_main += 1
                        if reasons is not None:
                            # Without this entry the per-kind reason counts
                            # would not sum to the slice size.
                            reasons[ret_index] = ("call", callee.fn)
        else:
            if not stack or stack[-1].fn != rec.fn:
                stack.append(_Frame(rec.fn, None, False, True))
            if kind == BRANCH:
                if tpending and rec.pc in tpending:
                    in_slice = True
                    reason = ("control", rec.pc)
                    tpending.discard(rec.pc)
            elif kind == SYSCALL:
                if i <= syscall_top:
                    in_slice = True
                    reason = ("syscall", rec.syscall or 0)

        mem_written = rec.mem_written
        if not in_slice:
            for addr in mem_written:
                if addr in live_mem:
                    in_slice = True
                    reason = ("data", addr)
                    break
            if not in_slice and tregs:
                for reg in rec.regs_written:
                    if reg in tregs:
                        in_slice = True
                        reason = ("register", reg)
                        break

        if in_slice:
            if mem_written:
                live_mem.difference_update(mem_written)
            regs_written = rec.regs_written
            if regs_written:
                if tregs is None:
                    tregs = live_regs.setdefault(tid, set())
                tregs.difference_update(regs_written)
            mem_read = rec.mem_read
            if mem_read:
                live_mem.update(mem_read)
            regs_read = rec.regs_read
            if regs_read:
                if tregs is None:
                    tregs = live_regs.setdefault(tid, set())
                tregs.update(regs_read)
            cdeps = deps_of(rec.pc)
            if cdeps:
                if tpending is None:
                    tpending = pending.setdefault(tid, set())
                tpending.update(cdeps)
            stack[-1].needed = True
            if reasons is not None:
                reasons[i] = reason
            if not flags[i - lo]:
                flags[i - lo] = 1
                in_slice_count += 1
                if is_main:
                    in_slice_main += 1

        if i == next_sample:
            timeline.append(
                TimelineSample(hi - i, in_slice_count, processed_main, in_slice_main)
            )
            next_sample -= sample_every

    if sampling:
        timeline.append(
            TimelineSample(hi - lo, in_slice_count, processed_main, in_slice_main)
        )
    return EpochResult(
        flags=bytes(flags),
        extra=tuple(extra),
        frontier=SliceFrontier.from_state(live_mem, live_regs, pending, stacks),
        min_depth=min_depth,
        reasons=reasons,
        timeline=timeline,
    )


# --------------------------------------------------------------------- #
# Delta pass-through                                                    #
# --------------------------------------------------------------------- #


def _as_dict(pairs: Tuple[Tuple[int, Tuple[int, ...]], ...]) -> Dict[int, Set[int]]:
    return {tid: set(values) for tid, values in pairs}


def try_pass_through(
    old_in: SliceFrontier,
    new_in: SliceFrontier,
    result: EpochResult,
    summary: EpochSummary,
) -> Optional[SliceFrontier]:
    """If the epoch's previous run stays valid under ``new_in``, return
    its exit frontier augmented with the pass-through deltas; else None.

    The previous run stays valid when the new entry frontier is a
    superset of the old one and none of the additions interact with the
    epoch: added live cells / registers the epoch never writes, added
    pending branches whose pc the epoch's thread never executes a BRANCH
    for, and frame needed-bits flipped on only for frames the epoch never
    popped.  Such facts would have flowed through the epoch unchanged, so
    the recorded flags stay correct and the exit frontier is simply the
    old exit frontier plus the same additions.
    """
    old_mem = set(old_in.live_mem)
    new_mem = set(new_in.live_mem)
    if not old_mem <= new_mem:
        return None
    delta_mem = new_mem - old_mem
    if delta_mem & summary.mem_written:
        return None

    old_regs = _as_dict(old_in.live_regs)
    new_regs = _as_dict(new_in.live_regs)
    delta_regs: Dict[int, Set[int]] = {}
    for tid, regs in old_regs.items():
        if not regs <= new_regs.get(tid, set()):
            return None
    for tid, regs in new_regs.items():
        delta = regs - old_regs.get(tid, set())
        if delta:
            if delta & summary.regs_written.get(tid, set()):
                return None
            delta_regs[tid] = delta

    old_pending = _as_dict(old_in.pending)
    new_pending = _as_dict(new_in.pending)
    delta_pending: Dict[int, Set[int]] = {}
    for tid, pcs in old_pending.items():
        if not pcs <= new_pending.get(tid, set()):
            return None
    for tid, pcs in new_pending.items():
        delta = pcs - old_pending.get(tid, set())
        if delta:
            if delta & summary.branch_pcs.get(tid, set()):
                return None
            delta_pending[tid] = delta

    old_stacks = dict(old_in.stacks)
    new_stacks = dict(new_in.stacks)
    # needed-bit OR sets, per tid: frame indices to flip on in the output.
    needed_deltas: Dict[int, Set[int]] = {}
    for tid in set(old_stacks) | set(new_stacks):
        old_stack = old_stacks.get(tid, ())
        new_stack = new_stacks.get(tid, ())
        if old_stack == new_stack:
            continue
        if tid not in summary.tids:
            # The epoch never touches this thread: its state (whatever it
            # is) passes through wholesale.  Represent that as replacing
            # the thread's stack in the output below.
            needed_deltas[tid] = {-1}  # sentinel: replace entire stack
            continue
        if len(old_stack) != len(new_stack):
            return None
        depth_ok = result.min_depth.get(tid, len(old_stack))
        for idx, (old_f, new_f) in enumerate(zip(old_stack, new_stack)):
            if old_f[:2] != new_f[:2] or old_f[3] != new_f[3]:
                return None  # structural difference (fn / ret / is_root)
            if old_f[2] != new_f[2]:
                if old_f[2] and not new_f[2]:
                    return None  # needed bit retracted: must re-run
                if idx >= depth_ok:
                    return None  # frame was popped during the epoch
                needed_deltas.setdefault(tid, set()).add(idx)

    # Build the augmented exit frontier.
    out = result.frontier
    aug_mem = tuple(sorted(set(out.live_mem) | delta_mem))
    out_regs = _as_dict(out.live_regs)
    for tid, delta in delta_regs.items():
        out_regs.setdefault(tid, set()).update(delta)
    out_pending = _as_dict(out.pending)
    for tid, delta in delta_pending.items():
        out_pending.setdefault(tid, set()).update(delta)
    out_stacks: Dict[int, Tuple[FrameTuple, ...]] = dict(out.stacks)
    for tid, indices in needed_deltas.items():
        if indices == {-1}:
            # Untouched thread: exit state == entry state.
            new_stack = new_stacks.get(tid, ())
            if new_stack:
                out_stacks[tid] = new_stack
            else:
                out_stacks.pop(tid, None)
            continue
        frames = list(out_stacks.get(tid, ()))
        for idx in indices:
            fn, ret_index, _needed, is_root = frames[idx]
            frames[idx] = (fn, ret_index, 1, is_root)
        out_stacks[tid] = tuple(frames)
    return SliceFrontier(
        live_mem=aug_mem,
        live_regs=tuple(
            (tid, tuple(sorted(regs)))
            for tid, regs in sorted(out_regs.items())
            if regs
        ),
        pending=tuple(
            (tid, tuple(sorted(pcs)))
            for tid, pcs in sorted(out_pending.items())
            if pcs
        ),
        stacks=tuple(sorted(out_stacks.items())),
    )


# --------------------------------------------------------------------- #
# Helpers                                                               #
# --------------------------------------------------------------------- #


class _EpochView:
    """Absolute-indexed view over one epoch's materialized records.

    :func:`run_epoch` indexes ``records[i]`` by absolute trace index;
    an epoch read through ``span(lo, hi)`` materializes only its own
    records, and this adapter re-bases the absolute indices onto that
    span.
    """

    __slots__ = ("lo", "recs")

    def __init__(self, lo: int, recs: List[TraceRecord]) -> None:
        self.lo = lo
        self.recs = recs

    def __getitem__(self, i: int) -> TraceRecord:
        return self.recs[i - self.lo]
