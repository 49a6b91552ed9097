"""Dynamic control-flow graph construction (forward pass, part 1).

The profiler builds one CFG per function from the trace of dynamically
executed instructions (paper Section III-A).  Function boundaries are
identified by matching CALL and RETURN instructions; building CFGs from the
*dynamic* trace is necessary because the targets of indirect branches cannot
be derived statically.  Every CFG gets a virtual EXIT node fed by all
observed exit points (return sites, plus the last observed pc of frames that
were still live when trace collection stopped).

The CFGs are assembled from the distinct ``(fn, previous pc, pc)`` steps of
the trace (:meth:`DynamicCFGBuilder.add_steps`).  A fresh trace's steps are
the ones its tracer recorded as it emitted (``TraceStore.cfg_steps``); every
other trace source walks its control columns to collect them
(:meth:`DynamicCFGBuilder.feed_columns`).
"""

from __future__ import annotations

import collections.abc
from itertools import chain
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..trace.records import InstrKind, TraceRecord
from ..trace.store import TraceStore, record_columns

#: Virtual exit node id, shared by every function CFG.  Real pcs are
#: positive (pc = (fn + 1) * FN_SPAN + site), so -1 can never collide.
VIRTUAL_EXIT = -1


class FunctionCFG:
    """Aggregated dynamic CFG of one function.

    All invocations of the function contribute nodes and edges; this matches
    how a static CFG would look restricted to the dynamically exercised
    paths, which is the object the paper computes postdominators on.
    """

    __slots__ = ("fn", "succs", "preds", "entries", "exits", "branch_pcs")

    def __init__(self, fn: int) -> None:
        self.fn = fn
        self.succs: Dict[int, Set[int]] = {}
        self.preds: Dict[int, Set[int]] = {}
        self.entries: Set[int] = set()
        self.exits: Set[int] = set()
        self.branch_pcs: Set[int] = set()

    def add_node(self, pc: int) -> None:
        if pc not in self.succs:
            self.succs[pc] = set()
            self.preds[pc] = set()

    def add_edge(self, src: int, dst: int) -> None:
        self.add_node(src)
        self.add_node(dst)
        self.succs[src].add(dst)
        self.preds[dst].add(src)

    def nodes(self) -> Iterable[int]:
        return self.succs.keys()

    def __len__(self) -> int:
        return len(self.succs)

    def seal(self) -> None:
        """Finalize the CFG: ensure every node can reach an exit.

        Nodes without successors are necessarily last-observed pcs of some
        path, so they are exit points.  This guarantees the virtual EXIT
        postdominates everything, which the postdominator analysis relies
        on.
        """
        for pc, succ in self.succs.items():
            if not succ:
                self.exits.add(pc)
        if not self.exits and self.succs:
            # Pure cycle with no observed exit (can only happen on heavily
            # truncated traces): treat every node as a potential exit.
            self.exits.update(self.succs.keys())


#: Control-column kinds the frame rules act on, as plain ints.
_BRANCH = int(InstrKind.BRANCH)
_CALL = int(InstrKind.CALL)
_RET = int(InstrKind.RET)


class DynamicCFGBuilder:
    """Accumulates per-function CFGs from batches of trace records.

    Maintains one call stack per thread; records of different threads may
    interleave arbitrarily (the trace is a single sequential stream of a
    multi-threaded process pinned to one core).  A stack holds
    ``[fn, last_pc]`` frames; a ``None`` on top means the thread's last
    record was a CALL whose callee has not run yet.  Batches may be fed
    one after another (a growing stream feeds one epoch at a time): the
    stacks carry over, and the CFGs are up to date after every batch.
    """

    def __init__(self) -> None:
        self._cfgs: Dict[int, FunctionCFG] = {}
        #: tid -> ``[fn, last_pc]`` frames, ``None`` for a pending callee
        self._stacks: Dict[int, List[Any]] = {}

    def feed_columns(
        self,
        tids: Iterable[int],
        pcs: Iterable[int],
        kinds: Iterable[int],
        fns: Iterable[int],
    ) -> None:
        """Feed records given as parallel ``(tid, pc, kind, fn)`` sequences.

        One loop applies the frame rules and collects each distinct
        ``(fn, previous pc, pc)`` step in first-seen order (previous pc
        ``None`` for an entry); only then do the distinct steps, branch
        pcs and return sites go to :meth:`add_steps`.  Every record
        belongs to the frame of its own ``fn``, so ``fn`` names the CFG
        of each step.
        """
        stacks = self._stacks
        steps: Dict[Tuple[int, Optional[int], int], None] = {}
        branches: Set[Tuple[int, int]] = set()
        returns: Set[Tuple[int, int]] = set()
        current_tid: Optional[int] = None
        stack: List[Any] = []
        for tid, pc, kind, fn in zip(tids, pcs, kinds, fns):
            if tid != current_tid:
                current_tid = tid
                stack = stacks.setdefault(tid, [])
            if not stack:
                frame = [fn, None]  # thread root frame
                stack.append(frame)
            else:
                frame = stack[-1]
                if frame is None:
                    # The thread's previous record was a CALL: this one is
                    # the first instruction of the callee.
                    frame = stack[-1] = [fn, None]
                elif frame[0] != fn:
                    # Should not happen with balanced CALL/RET; tolerate
                    # anomalies (e.g. hand-built traces) by re-basing onto
                    # a fresh frame.
                    frame = [fn, None]
                    stack.append(frame)
            steps[fn, frame[1], pc] = None
            frame[1] = pc
            if kind == _BRANCH:
                branches.add((fn, pc))
            elif kind == _CALL:
                stack.append(None)
            elif kind == _RET:
                returns.add((fn, pc))
                stack.pop()
        self.add_steps(steps, branches, returns)

    def add_steps(
        self,
        steps: Iterable[Tuple[int, Optional[int], int]],
        branches: Iterable[Tuple[int, int]],
        exits: Iterable[Tuple[int, int]],
    ) -> None:
        """Add distinct steps, branch pcs and exit points to the CFGs.

        ``steps`` are ``(fn, previous pc, pc)`` in first-seen order
        (previous pc ``None`` for an entry), which fixes node order;
        ``branches`` and ``exits`` are ``(fn, pc)`` pairs of functions
        that have a step.  :meth:`feed_columns` collects its steps from
        the records; a tracer records them as it emits
        (:class:`~repro.trace.store.CFGSteps`).
        """
        cfgs = self._cfgs
        for fn, src, dst in steps:
            cfg = cfgs.get(fn)
            if cfg is None:
                cfg = cfgs[fn] = FunctionCFG(fn)
            cfg.add_node(dst)
            if src is None:
                cfg.entries.add(dst)
            else:
                cfg.succs[src].add(dst)
                cfg.preds[dst].add(src)
        for fn, pc in branches:
            cfgs[fn].branch_pcs.add(pc)
        for fn, pc in exits:
            cfgs[fn].exits.add(pc)

    def feed(self, record: TraceRecord) -> None:
        """Feed one record (a batch of one; see :meth:`feed_columns`)."""
        self.feed_columns((record.tid,), (record.pc,), (record.kind,), (record.fn,))

    def open_frames(self) -> Iterator[Tuple[int, int]]:
        """``(fn, last pc)`` of every frame still live after the last batch."""
        for stack in self._stacks.values():
            for frame in stack:
                if frame is not None:
                    yield frame[0], frame[1]

    def finish(self) -> Dict[int, FunctionCFG]:
        """Close truncated frames and seal every CFG."""
        for fn, last_pc in self.open_frames():
            self._cfgs[fn].exits.add(last_pc)
        for cfg in self._cfgs.values():
            cfg.seal()
        return self._cfgs


def build_cfgs(trace) -> Dict[int, FunctionCFG]:
    """Build all function CFGs of a trace.

    A row store that carries the CFG steps its tracer recorded
    (``TraceStore.cfg_steps``) hands them to the builder as they are,
    with the last pc of every frame still open as an exit; no record is
    read.  Every other trace walks its columns: a row store or a
    :class:`~repro.trace.columnar.ColumnarTrace` feeds the builder its
    ``control_columns()``, so a columnar trace builds no record object,
    and a bare list, tuple or iterator of records is read attribute by
    attribute.
    """
    builder = DynamicCFGBuilder()
    carried = trace.cfg_steps if isinstance(trace, TraceStore) else None
    if carried is not None:
        builder.add_steps(
            carried.steps,
            carried.branches,
            chain(carried.returns, carried.open_frames()),
        )
    elif isinstance(trace, (list, tuple, collections.abc.Iterator)):
        builder.feed_columns(*record_columns(trace))
    else:
        builder.feed_columns(*trace.control_columns())
    return builder.finish()
