"""Dynamic backward slicing (the backward pass, paper Section III-B).

The slicer walks the trace from the end to the beginning, maintaining:

* a **live memory set**, shared by all threads (threads of the tab process
  share one address space);
* one **live register set per thread** (each thread has its own
  architectural context);
* one **pending branch set per thread**: when an instruction joins the
  slice, every branch it is control dependent on (CDG lookup) is marked
  pending; the first dynamic instance of a pending branch met while walking
  backward is the nearest preceding instance — it joins the slice and its
  condition becomes live;
* per-thread **frame reconstruction** for dynamic call-site control
  dependence: when any instruction of a function invocation joins the
  slice, the invocation's CALL (and matching RET) join the slice too, so
  the call overhead of useful functions counts as useful and the inclusion
  propagates transitively toward the thread root.

Data dependences are discovered by liveness analysis, exactly as in the
paper: an instruction that writes a live location joins the slice, its
writes are killed and its reads become live.  Because the trace carries
exact addresses, there is no aliasing imprecision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..machine.syscalls import BY_NUMBER
from ..trace.records import InstrKind
from ..trace.store import TraceStore
from .cdg import ControlDependenceIndex
from .criteria import SlicingCriteria


@dataclass
class TimelineSample:
    """One sample of backward-pass progress (drives Figure 4).

    Attributes:
        processed: records processed so far (all threads).
        in_slice: of those, how many joined the slice.
        processed_main: records processed belonging to the main thread.
        in_slice_main: of those, how many joined the slice.
    """

    processed: int
    in_slice: int
    processed_main: int
    in_slice_main: int

    def fraction_all(self) -> float:
        return self.in_slice / self.processed if self.processed else 0.0

    def fraction_main(self) -> float:
        return self.in_slice_main / self.processed_main if self.processed_main else 0.0


@dataclass(frozen=True)
class SlicerOptions:
    """Ablation/diagnostic switches of the backward pass.

    Disabling a mechanism quantifies its contribution to the slice (the
    ablation benches use these); ``track_reasons`` records, for every
    sliced record, why it joined.
    """

    #: follow control dependences (pending-branch mechanism, Section III-B)
    control_dependences: bool = True
    #: include CALL/RET of invocations whose body joined the slice
    call_site_dependences: bool = True
    #: record a (kind, detail) join reason per sliced record
    track_reasons: bool = False


DEFAULT_OPTIONS = SlicerOptions()


@dataclass
class SliceResult:
    """Output of one backward slicing run."""

    criteria_name: str
    flags: bytearray  # flags[i] == 1 iff record i is in the slice
    timeline: List[TimelineSample] = field(default_factory=list)
    #: number of records actually visited (== len(flags) unless windowed)
    visited: int = 0
    #: record index -> (reason kind, detail), when reasons were tracked.
    #: kinds: "data" (a written cell was live), "register", "control"
    #: (pending branch), "call" (needed invocation; both the CALL and its
    #: retroactively-flagged RET carry this kind), "syscall" (criteria).
    #: When tracking is on, every sliced record has exactly one entry, so
    #: the per-kind counts sum to the slice size.
    reasons: Optional[Dict[int, Tuple[str, int]]] = None
    #: engine diagnostics: "engine" (the engine that ran, whatever name the
    #: caller passed) plus engine-specific counters (for the incremental
    #: engine: regions, region_runs, memo_exact, records_touched, ...).
    engine_stats: Dict[str, object] = field(default_factory=dict)

    def __contains__(self, index: int) -> bool:
        return bool(self.flags[index])

    def slice_size(self) -> int:
        return sum(self.flags)

    def total(self) -> int:
        return len(self.flags)

    def fraction(self) -> float:
        return self.slice_size() / len(self.flags) if self.flags else 0.0

    def indices(self) -> List[int]:
        """Record indices in the slice, ascending."""
        return [i for i, flag in enumerate(self.flags) if flag]


class _BackwardFrame:
    """A function invocation context reconstructed while walking backward."""

    __slots__ = ("fn", "ret_index", "needed", "is_root")

    def __init__(self, fn: int, ret_index: Optional[int], is_root: bool = False) -> None:
        self.fn = fn
        self.ret_index = ret_index
        self.needed = False
        self.is_root = is_root


class BackwardSlicer:
    """Runs the backward pass for one criteria set over one trace."""

    def __init__(
        self,
        store: TraceStore,
        cdi: ControlDependenceIndex,
        criteria: SlicingCriteria,
        sample_every: Optional[int] = None,
        main_tid: Optional[int] = None,
        options: SlicerOptions = DEFAULT_OPTIONS,
    ) -> None:
        self._store = store
        self._cdi = cdi
        self._criteria = criteria
        self._sample_every = sample_every
        self._options = options
        meta_main = store.metadata.main_thread_id()
        self._main_tid = main_tid if main_tid is not None else meta_main

    def run(self) -> SliceResult:
        store = self._store
        records = store.records()
        n = len(records)
        flags = bytearray(n)
        result = SliceResult(
            criteria_name=self._criteria.name,
            flags=flags,
            engine_stats={"engine": "sequential"},
        )

        crit_by_index = self._criteria.by_index()
        include_syscalls = self._criteria.include_syscalls
        window_end = self._criteria.window_end
        options = self._options
        deps_of = self._cdi.deps_of if options.control_dependences else (lambda pc: ())
        reasons: Optional[Dict[int, Tuple[str, int]]] = (
            {} if options.track_reasons else None
        )
        if reasons is not None:
            result.reasons = reasons

        live_mem: Set[int] = set()
        live_regs: Dict[int, Set[int]] = {}
        pending: Dict[int, Set[int]] = {}
        stacks: Dict[int, List[_BackwardFrame]] = {}

        processed = 0
        in_slice_count = 0
        processed_main = 0
        in_slice_main = 0
        main_tid = self._main_tid
        sample_every = self._sample_every

        for i in range(n - 1, -1, -1):
            rec = records[i]
            tid = rec.tid

            # -- criteria seeding -------------------------------------- #
            crit = crit_by_index.get(i)
            if crit is not None:
                live_mem.update(crit.cells)
                for reg_tid, reg in crit.regs:
                    live_regs.setdefault(reg_tid, set()).add(reg)

            # -- backward frame reconstruction ------------------------- #
            stack = stacks.setdefault(tid, [])
            kind = rec.kind
            if kind == InstrKind.RET:
                stack.append(_BackwardFrame(rec.fn, ret_index=i))
                processed += 1
                if tid == main_tid:
                    processed_main += 1
                if sample_every and processed % sample_every == 0:
                    result.timeline.append(
                        TimelineSample(processed, in_slice_count, processed_main, in_slice_main)
                    )
                continue

            if not stack:
                stack.append(_BackwardFrame(rec.fn, ret_index=None, is_root=True))
            elif stack[-1].fn != rec.fn and kind != InstrKind.CALL:
                # Frame entered but never returned before trace truncation.
                stack.append(_BackwardFrame(rec.fn, ret_index=None, is_root=True))

            frame = stack[-1]
            tregs = live_regs.get(tid)
            tpending = pending.get(tid)

            in_slice = False
            reason: Tuple[str, int] = ("data", -1)

            if kind == InstrKind.CALL:
                # Close the callee frame (pushed when its RET was met, or a
                # synthetic root for truncated invocations).
                callee: Optional[_BackwardFrame] = None
                if stack and (not stack[-1].is_root or stack[-1].fn != rec.fn):
                    callee = stack.pop()
                if callee is not None and callee.needed and options.call_site_dependences:
                    in_slice = True
                    reason = ("call", callee.fn)
                    if callee.ret_index is not None and not flags[callee.ret_index]:
                        flags[callee.ret_index] = 1
                        in_slice_count += 1
                        if tid == main_tid:
                            in_slice_main += 1
                        if reasons is not None:
                            # The RET joins retroactively, paired with this
                            # CALL; without a reason entry here the reason
                            # counts would not sum to the slice size.
                            reasons[callee.ret_index] = ("call", callee.fn)
                # The frame the CALL itself belongs to:
                if not stack:
                    stack.append(_BackwardFrame(rec.fn, ret_index=None, is_root=True))
                frame = stack[-1]
            elif kind == InstrKind.BRANCH:
                if tpending and rec.pc in tpending:
                    in_slice = True
                    reason = ("control", rec.pc)
                    tpending.discard(rec.pc)
            elif kind == InstrKind.SYSCALL:
                if include_syscalls and (window_end is None or i <= window_end):
                    in_slice = True
                    reason = ("syscall", rec.syscall or 0)

            # -- liveness rule (data dependences) ---------------------- #
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
                # Kill definitions, gen uses.
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
                # Control dependences become pending.
                cdeps = deps_of(rec.pc)
                if cdeps:
                    if tpending is None:
                        tpending = pending.setdefault(tid, set())
                    tpending.update(cdeps)
                # Dynamic call-site dependence: this invocation is useful.
                frame.needed = True
                if reasons is not None:
                    reasons[i] = reason
                if not flags[i]:
                    flags[i] = 1
                    in_slice_count += 1
                    if tid == main_tid:
                        in_slice_main += 1

            processed += 1
            if tid == main_tid:
                processed_main += 1
            if sample_every and processed % sample_every == 0:
                result.timeline.append(
                    TimelineSample(processed, in_slice_count, processed_main, in_slice_main)
                )

        result.visited = processed
        if sample_every:
            result.timeline.append(
                TimelineSample(processed, in_slice_count, processed_main, in_slice_main)
            )
        return result


def slice_trace(
    store: TraceStore,
    criteria: SlicingCriteria,
    cdi: Optional[ControlDependenceIndex] = None,
    sample_every: Optional[int] = None,
    engine: str = "auto",
    checkpoint=None,
) -> SliceResult:
    """One-call convenience: forward pass (if needed) + backward pass.

    A thin call into :meth:`repro.profiler.api.Profiler.slice`, with
    ``cdi`` (when given) as the profiler's forward-pass result, so engine
    names, ``"auto"`` and engine validation live in one place.
    """
    from .api import Profiler

    return Profiler(store, cdi=cdi).slice(
        criteria,
        sample_every=sample_every,
        engine=engine,
        checkpoint=checkpoint,
    )
