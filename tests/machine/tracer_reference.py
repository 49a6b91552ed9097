"""Test-side reference: the tracer's emit methods, one clock tick per record.

:class:`ReferenceTracer` is :class:`repro.machine.tracer.Tracer` with
the emit methods as they stood before the clock counted the tracer's
record list.  Each of ``op``, ``compare_and_branch``, ``call``, ``ret``,
``syscall`` and ``marker`` calls ``VirtualClock.tick`` once per record
it appends, ``switch`` leaves the clock alone, and the clock never
counts this tracer's records, so every tick is an explicit one.
``leaf_call`` and ``accumulate`` are the loops of one-record emits that
they replace.  ``test_tracer_reference.py`` checks that ``Tracer``
emits equal records, pcs and symbols and leaves an equal clock.  Kept
as it was, the way ``tests/profiler/epoch_reference.py`` keeps the
per-record backward walk.

Its emits look their pcs up by ``(fn, label)``, in the per-method memos
``_branch_sites``, ``_syscall_sites`` and ``_marker_sites`` it makes
for itself (``Tracer``'s memos are keyed by the CFG step), and record
no CFG steps, so its store carries none: the forward pass walks its
records' columns.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.machine.clock import VirtualClock
from repro.machine.registers import SYSCALL_ARG_REGISTERS, SYSCALL_RESULT_REGISTERS
from repro.machine.syscalls import BY_NAME
from repro.machine.tracer import (
    _CALL,
    _CMP,
    _BRANCH,
    _FLAGS_ONLY,
    _MARKER,
    _NO_THREAD,
    _OP,
    _RET,
    _SYSCALL,
    LOAD_COMPLETE_MARKER,
    TILE_MARKER,
    Tracer,
)
from repro.trace.records import NO_MEM, NO_REGS, new_record
from repro.trace.symbols import SymbolTable


class ReferenceTracer(Tracer):
    """``Tracer`` whose emit methods tick the clock once per record."""

    def __init__(
        self,
        symbols: Optional[SymbolTable] = None,
        clock: Optional[VirtualClock] = None,
    ) -> None:
        # ``Tracer`` makes the clock it is given count its record list:
        # give it a spare one, and keep the real one for explicit ticks.
        super().__init__(symbols, VirtualClock())
        self.clock = clock if clock is not None else VirtualClock()
        self._branch_sites: Dict[Tuple[int, str], Tuple[int, int]] = {}
        self._syscall_sites: Dict[Tuple[int, str], int] = {}
        self._marker_sites: Dict[Tuple[int, str], int] = {}
        self.store.cfg_steps = None

    def switch(self, tid: int) -> None:
        """Make ``tid`` the currently executing thread."""
        stack = self._stacks.get(tid)
        if stack is None:
            raise KeyError(f"unknown thread {tid}")
        self._tid = tid
        self._stack = stack

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
        pc = self._sites.get((fn, label))
        if pc is None:
            pc = self._pc(fn, label)
        self.clock.tick(tid)
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
        pcs = self._branch_sites.get((fn, label))
        if pcs is None:
            pcs = self._branch_sites[fn, label] = (
                self._pc(fn, label + "$cmp"),
                self._pc(fn, label + "$br"),
            )
        cmp_pc, br_pc = pcs
        records = self._records
        self.clock.tick(tid)
        records.append(new_record(tid, cmp_pc, _CMP, fn, NO_REGS, _FLAGS_ONLY, tuple(reads)))
        self.clock.tick(tid)
        records.append(new_record(tid, br_pc, _BRANCH, fn, _FLAGS_ONLY))

    def call(self, function: str, site: Optional[str] = None) -> None:
        """Emit a CALL at the caller and push ``function``."""
        tid = self._tid
        if tid is None:
            raise RuntimeError(_NO_THREAD)
        caller = self._stack[-1]
        callee = self.symbols.intern(function)
        label = site if site is not None else f"call:{function}"
        pc = self._sites.get((caller, label))
        if pc is None:
            pc = self._pc(caller, label)
        self.clock.tick(tid)
        self._records.append(new_record(tid, pc, _CALL, caller))
        self._stack.append(callee)

    def ret(self) -> None:
        """Emit a RET in the current function and pop it."""
        tid = self._tid
        if tid is None:
            raise RuntimeError(_NO_THREAD)
        stack = self._stack
        if len(stack) <= 1:
            raise RuntimeError(f"thread {tid}: return from root frame")
        fn = stack[-1]
        pc = self._sites.get((fn, "$ret"))
        if pc is None:
            pc = self._pc(fn, "$ret")
        self.clock.tick(tid)
        self._records.append(new_record(tid, pc, _RET, fn))
        stack.pop()

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
        pc = self._syscall_sites.get((fn, name))
        if pc is None:
            pc = self._syscall_sites[fn, name] = self._pc(fn, f"syscall:{name}")
        self.clock.tick(tid)
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
        pc = self._marker_sites.get((fn, tag))
        if pc is None:
            pc = self._marker_sites[fn, tag] = self._pc(fn, f"marker:{tag}")
        cells = tuple(cells)
        self.clock.tick(tid)
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

    def leaf_call(
        self,
        function: str,
        labels: Tuple[str, ...],
        reads: Tuple[int, ...] = (),
        writes: Tuple[int, ...] = (),
    ) -> None:
        with self.function(function):
            for label in labels:
                self.op(label, reads=tuple(reads), writes=tuple(writes))

    def accumulate(self, labels: Tuple[str, ...], cells: Sequence[int], acc: int) -> None:
        for i, cell in enumerate(cells):
            self.op(labels[i % len(labels)], reads=(cell, acc), writes=(acc,))
