"""Reference backward slicer: direct transitive closure, no cleverness.

This module exists to *check* the real slicers, not to be fast.  It
formulates the backward slice the textbook way — as a reachability
closure over explicit dependence edges — instead of the streaming
liveness pass used by :mod:`.slicer` and :mod:`.epoch`:

* **data**: a joined record's memory reads depend on the latest earlier
  writer of each cell (any thread); register reads on the latest earlier
  writer in the same thread.  Looked up by binary search over
  precomputed per-cell / per-register writer index lists.
* **control**: a joined record depends on the nearest preceding dynamic
  instance (same thread) of every branch in its static
  control-dependence set.
* **call-site**: when any record of a dynamic invocation joins, the
  invocation's CALL joins as a normal record (so the dependence
  propagates to the caller) and its RET is flagged without generating
  further dependences — mirroring the sequential pass, where RETs skip
  the gen/kill step entirely.

The closure provably matches the liveness formulation: the liveness pass
flags a writer exactly when it is the *latest* writer of a cell that some
later joined record reads (any earlier writer's cell is killed first, and
a later non-joined writer of a live cell is impossible because writing a
live cell forces a join).  The differential tests exercise this
equivalence on randomized traces against both engines.

Dynamic invocations are reconstructed by a simple forward simulation,
which assumes well-formed traces (every CALL eventually matched by its
RET or by end of trace; threads start at their root function).  Traces
produced by :class:`~repro.machine.tracer.Tracer` — including all engine
workloads and the fuzz generators — are well-formed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from typing import Dict, List, Optional, Tuple

from ..trace.records import InstrKind
from ..trace.store import TraceStore
from .cdg import ControlDependenceIndex
from .criteria import SlicingCriteria
from .slicer import DEFAULT_OPTIONS, SliceResult, SlicerOptions


class _Invocation:
    """One dynamic function invocation (a node of the dynamic call tree)."""

    __slots__ = ("fn", "call_index", "ret_index", "parent", "needed")

    def __init__(self, fn: Optional[int], call_index: Optional[int], parent) -> None:
        self.fn = fn
        self.call_index = call_index
        self.ret_index: Optional[int] = None
        self.parent = parent
        self.needed = False


class OracleSlicer:
    """Transitive-closure reference implementation of the backward pass."""

    def __init__(
        self,
        store: TraceStore,
        cdi: ControlDependenceIndex,
        criteria: SlicingCriteria,
        options: SlicerOptions = DEFAULT_OPTIONS,
    ) -> None:
        self._store = store
        self._cdi = cdi
        self._criteria = criteria
        self._options = options

    # -- dependence indexes -------------------------------------------- #

    def _build_indexes(self):
        """Writer/branch index lists (ascending) and the invocation map."""
        records = self._store.records()
        mem_writers: Dict[int, List[int]] = {}
        reg_writers: Dict[Tuple[int, int], List[int]] = {}
        branches: Dict[Tuple[int, int], List[int]] = {}
        record_inv: List[Optional[_Invocation]] = [None] * len(records)
        stacks: Dict[int, List[_Invocation]] = {}

        RET = InstrKind.RET
        CALL = InstrKind.CALL
        BRANCH = InstrKind.BRANCH

        for i, rec in enumerate(records):
            tid = rec.tid
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks[tid] = [_Invocation(rec.fn, None, None)]
            top = stack[-1]
            kind = rec.kind

            if kind == RET:
                # RETs close the current invocation and take no part in
                # the liveness rule, so they are left out of the writer
                # lists entirely.
                if top.fn is None:
                    top.fn = rec.fn
                top.ret_index = i
                record_inv[i] = top
                stack.pop()
                if not stack:
                    stack.append(_Invocation(None, None, None))
                continue

            if top.fn is None:
                top.fn = rec.fn
            elif top.fn != rec.fn and kind != CALL:
                # Entered before the trace started (truncated frame).
                top = _Invocation(rec.fn, None, top)
                stack.append(top)

            record_inv[i] = top
            if kind == CALL:
                stack.append(_Invocation(None, i, top))
            elif kind == BRANCH:
                branches.setdefault((tid, rec.pc), []).append(i)

            for addr in rec.mem_written:
                mem_writers.setdefault(addr, []).append(i)
            for reg in rec.regs_written:
                reg_writers.setdefault((tid, reg), []).append(i)

        return mem_writers, reg_writers, branches, record_inv

    # -- the closure ---------------------------------------------------- #

    def run(self) -> SliceResult:
        store = self._store
        records = store.records()
        n = len(records)
        criteria = self._criteria
        options = self._options
        mem_writers, reg_writers, branches, record_inv = self._build_indexes()
        deps_of = (
            self._cdi.deps_of if options.control_dependences else (lambda pc: ())
        )

        flags = bytearray(n)
        worklist: deque = deque()

        def join(index: int) -> None:
            if not flags[index]:
                flags[index] = 1
                worklist.append(index)

        def latest(indices: Optional[List[int]], before: int) -> Optional[int]:
            if not indices:
                return None
            pos = bisect_left(indices, before)
            return indices[pos - 1] if pos else None

        # Seeds: criteria cells/registers resolve to their latest writer at
        # or before the criterion index (the criterion is applied before
        # the record itself is processed in the streaming pass, so the
        # criterion's own record counts as a candidate writer).
        for crit in criteria.by_index().values():
            for cell in crit.cells:
                writers = mem_writers.get(cell)
                if writers:
                    pos = bisect_right(writers, crit.index)
                    if pos:
                        join(writers[pos - 1])
            for reg_tid, reg in crit.regs:
                writers = reg_writers.get((reg_tid, reg))
                if writers:
                    pos = bisect_right(writers, crit.index)
                    if pos:
                        join(writers[pos - 1])
        if criteria.include_syscalls:
            window_end = criteria.window_end
            for i, rec in enumerate(records):
                if rec.kind == InstrKind.SYSCALL and (
                    window_end is None or i <= window_end
                ):
                    join(i)

        call_site = options.call_site_dependences
        while worklist:
            i = worklist.popleft()
            rec = records[i]
            tid = rec.tid

            for addr in rec.mem_read:
                writer = latest(mem_writers.get(addr), i)
                if writer is not None:
                    join(writer)
            for reg in rec.regs_read:
                writer = latest(reg_writers.get((tid, reg)), i)
                if writer is not None:
                    join(writer)
            for dep_pc in deps_of(rec.pc):
                branch = latest(branches.get((tid, dep_pc)), i)
                if branch is not None:
                    join(branch)

            inv = record_inv[i]
            if inv is not None and not inv.needed:
                inv.needed = True
                # The CALL/RET pair joins only when a CALL exists in the
                # trace: the streaming pass flags the RET at CALL-pop time,
                # so a frame truncated at the trace start (RET but no CALL)
                # never has its RET flagged.
                if call_site and inv.call_index is not None:
                    join(inv.call_index)
                    if inv.ret_index is not None and not flags[inv.ret_index]:
                        # RETs never generate dependences of their own:
                        # flag without enqueueing.
                        flags[inv.ret_index] = 1

        result = SliceResult(criteria_name=criteria.name, flags=flags)
        result.visited = n
        result.engine_stats = {"engine": "oracle"}
        return result

