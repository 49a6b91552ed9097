"""Test-side reference: the backward walk as one plain per-record loop.

:func:`run_epoch_reference` is :func:`repro.profiler.epoch.run_epoch` as
it stood before the walk cached per-thread state across runs of one
thread's records, matched criteria against a sorted index list and
counted timeline samples down.  It reads ``crit_by_index``, the thread's
stack, live registers and pending branches afresh for every record, so
it is the plain statement of the liveness rules of paper Section III-B.
``test_epoch_reference.py`` checks that the walk in ``src/`` returns an
equal :class:`~repro.profiler.epoch.EpochResult` on every input it
tries.  Kept as it was, the way ``cfg_reference.py`` keeps the
per-record CFG builder.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.profiler.epoch import EpochResult, SliceFrontier, _Frame
from repro.profiler.slicer import DEFAULT_OPTIONS, SlicerOptions, TimelineSample
from repro.trace.records import InstrKind, TraceRecord


def run_epoch_reference(
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

    RET = InstrKind.RET
    CALL = InstrKind.CALL
    BRANCH = InstrKind.BRANCH
    SYSCALL = InstrKind.SYSCALL

    for i in range(hi - 1, lo - 1, -1):
        rec = records[i]
        tid = rec.tid
        if tid == main_tid:
            processed_main += 1

        crit = crit_by_index.get(i)
        if crit is not None:
            live_mem.update(crit.cells)
            for reg_tid, reg in crit.regs:
                live_regs.setdefault(reg_tid, set()).add(reg)

        stack = stacks.get(tid)
        if stack is None:
            stack = stacks[tid] = []
            min_depth[tid] = 0
        kind = rec.kind
        if kind == RET:
            stack.append(_Frame(rec.fn, ret_index=i))
            if sample_every and (hi - i) % sample_every == 0:
                timeline.append(
                    TimelineSample(hi - i, in_slice_count, processed_main, in_slice_main)
                )
            continue

        if not stack:
            stack.append(_Frame(rec.fn, ret_index=None, is_root=True))
        elif stack[-1].fn != rec.fn and kind != CALL:
            stack.append(_Frame(rec.fn, ret_index=None, is_root=True))

        frame = stack[-1]
        tregs = live_regs.get(tid)
        tpending = pending.get(tid)

        in_slice = False
        reason: Tuple[str, int] = ("data", -1)

        if kind == CALL:
            callee: Optional[_Frame] = None
            if stack and (not stack[-1].is_root or stack[-1].fn != rec.fn):
                callee = stack.pop()
                if len(stack) < min_depth.get(tid, 0):
                    min_depth[tid] = len(stack)
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
                        if tid == main_tid:
                            in_slice_main += 1
                        if reasons is not None:
                            # Without this entry the per-kind reason counts
                            # would not sum to the slice size.
                            reasons[ret_index] = ("call", callee.fn)
            if not stack:
                stack.append(_Frame(rec.fn, ret_index=None, is_root=True))
            frame = stack[-1]
        elif kind == BRANCH:
            if tpending and rec.pc in tpending:
                in_slice = True
                reason = ("control", rec.pc)
                tpending.discard(rec.pc)
        elif kind == SYSCALL:
            if include_syscalls and (window_end is None or i <= window_end):
                in_slice = True
                reason = ("syscall", rec.syscall or 0)

        if not in_slice:
            for addr in rec.mem_written:
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
            if rec.mem_written:
                live_mem.difference_update(rec.mem_written)
            if rec.regs_written:
                if tregs is None:
                    tregs = live_regs.setdefault(tid, set())
                tregs.difference_update(rec.regs_written)
            if rec.mem_read:
                live_mem.update(rec.mem_read)
            if rec.regs_read:
                if tregs is None:
                    tregs = live_regs.setdefault(tid, set())
                tregs.update(rec.regs_read)
            cdeps = deps_of(rec.pc)
            if cdeps:
                if tpending is None:
                    tpending = pending.setdefault(tid, set())
                tpending.update(cdeps)
            frame.needed = True
            if reasons is not None:
                reasons[i] = reason
            if not flags[i - lo]:
                flags[i - lo] = 1
                in_slice_count += 1
                if tid == main_tid:
                    in_slice_main += 1

        if sample_every and (hi - i) % sample_every == 0:
            timeline.append(
                TimelineSample(hi - i, in_slice_count, processed_main, in_slice_main)
            )

    if sample_every:
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
