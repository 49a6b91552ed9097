"""The per-record dynamic CFG builder, kept as the reference.

This is the builder the profiler used before its CFG construction became
one batch loop over ``(tid, pc, kind, fn)`` columns
(:meth:`repro.profiler.cfg.DynamicCFGBuilder.feed_columns`).  It is kept
verbatim: ``test_cfg_differential.py`` checks that the batch builder
produces the same :class:`~repro.profiler.cfg.FunctionCFG`s on every
trace source.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.profiler.cfg import FunctionCFG
from repro.trace.records import InstrKind, TraceRecord


class _Frame:
    """One live invocation during forward stack reconstruction."""

    __slots__ = ("fn", "last_pc", "awaiting_callee", "call_pc")

    def __init__(self, fn: int) -> None:
        self.fn = fn
        self.last_pc: Optional[int] = None
        self.awaiting_callee = False
        self.call_pc: Optional[int] = None


class DynamicCFGBuilder:
    """Streams trace records and accumulates per-function CFGs.

    Maintains one call stack per thread; records of different threads may
    interleave arbitrarily (the trace is a single sequential stream of a
    multi-threaded process pinned to one core).
    """

    def __init__(self) -> None:
        self._cfgs: Dict[int, FunctionCFG] = {}
        self._stacks: Dict[int, List[_Frame]] = {}

    def _cfg(self, fn: int) -> FunctionCFG:
        cfg = self._cfgs.get(fn)
        if cfg is None:
            cfg = FunctionCFG(fn)
            self._cfgs[fn] = cfg
        return cfg

    def feed(self, record: TraceRecord) -> None:
        stack = self._stacks.setdefault(record.tid, [])

        if stack and stack[-1].awaiting_callee:
            # Previous record in this thread was a CALL: this record is the
            # first instruction of the callee.
            stack[-1].awaiting_callee = False
            stack.append(_Frame(record.fn))
        elif not stack:
            stack.append(_Frame(record.fn))  # thread root frame
        elif stack[-1].fn != record.fn:
            # Should not happen with balanced CALL/RET; tolerate anomalies
            # (e.g. hand-built traces) by re-basing onto a fresh frame.
            stack.append(_Frame(record.fn))

        frame = stack[-1]
        cfg = self._cfg(frame.fn)
        cfg.add_node(record.pc)
        if frame.last_pc is None:
            cfg.entries.add(record.pc)
        else:
            cfg.add_edge(frame.last_pc, record.pc)
        frame.last_pc = record.pc

        kind = record.kind
        if kind == InstrKind.BRANCH:
            cfg.branch_pcs.add(record.pc)
        elif kind == InstrKind.CALL:
            frame.awaiting_callee = True
        elif kind == InstrKind.RET:
            cfg.exits.add(record.pc)
            stack.pop()

    def finish(self) -> Dict[int, FunctionCFG]:
        """Close truncated frames and seal every CFG."""
        for stack in self._stacks.values():
            for frame in stack:
                if frame.last_pc is not None:
                    self._cfg(frame.fn).exits.add(frame.last_pc)
        for cfg in self._cfgs.values():
            cfg.seal()
        return self._cfgs


def build_cfgs(records: Iterable[TraceRecord]) -> Dict[int, FunctionCFG]:
    """Convenience wrapper: build all function CFGs from a record stream."""
    builder = DynamicCFGBuilder()
    for record in records:
        builder.feed(record)
    return builder.finish()
