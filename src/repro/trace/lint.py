"""Trace sanitizer: well-formedness lint for instruction traces.

A trace produced by :class:`~repro.machine.tracer.Tracer` obeys structural
invariants the slicers silently rely on.  ``lint_trace`` checks them
explicitly so a corrupted or hand-built trace fails loudly *before* a
slicer produces quietly-wrong results.  Named checks:

* ``call-ret-balance`` (error) — per thread, RETs never outnumber CALLs
  at any prefix and every CALL is unwound by the end of the trace;
* ``branch-flags-pairing`` (error) — every BRANCH reads FLAGS and is
  immediately preceded on its thread by the CMP that wrote them;
* ``register-use-before-def`` (error) — a record reads a register its
  thread never wrote.  SYSCALL reads of the AMD64 argument registers are
  exempt: the ABI hand-off is implicit in the tracer's model;
* ``record-shape`` (error) — kind-specific fields are consistent
  (SYSCALL has a syscall number, MARKER has a tag, register ids are in
  range, the tid was spawned);
* ``monotone-marker-clock`` (error) — tile-marker metadata indices are
  strictly increasing, in range, and point at TILE_MARKER records whose
  pixel cells match the metadata side channel;
* ``ipc-use-before-def`` (error) — a record inside the IPC receive/flush
  frames (``ipc::ChannelMojo::OnMessageReceived`` / ``WriteToPipe``) reads
  a payload cell nothing ever wrote: a message consumed before any
  ``send_from``/``recvfrom`` produced it;
* ``lock-discipline`` (error) — per thread: recursive acquisition of a
  lock already held, release of a lock not held, locks still held at the
  end of the trace, or a malformed sync marker (sync/lock-tagged but not
  parseable as a :class:`~repro.trace.records.SyncEvent`);
* ``frame-epoch-monotonicity`` (error) — FRAME_BEGIN/FRAME_END markers
  pair up in the record stream (no nested or unclosed frames), and the
  frame-span metadata mirrors them exactly: ids strictly increasing,
  spans complete, non-overlapping, in trace order, each endpoint pointing
  at the matching marker record;
* ``memory-use-before-def`` (warning) — a cell is read before any record
  writes it.  Real engine traces legitimately read pre-initialized state
  (fetched bytes, config), so this is diagnostic, not fatal.  Sync
  markers are exempt: their single "read" cell names the synchronization
  object, which is never data-written by design;
* ``checkpoint-consistency`` (error, only with a ``--checkpoint`` image)
  — a serialized slice checkpoint matches the trace it claims to
  summarize: its region tiling equals the trace's canonical frame-region
  tiling, every memoized region has facts, and every summarized region's
  record count and :func:`~repro.trace.stream.region_digest` match the
  records it covers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..machine.registers import (
    NUM_REGISTERS,
    SYSCALL_ARG_REGISTERS,
    register_name,
)
from ..machine.tracer import TILE_MARKER
from .records import (
    FRAME_BEGIN_MARKER,
    FRAME_END_MARKER,
    InstrKind,
    is_sync_marker,
    sync_event_of,
)
from .checkpoint import CheckpointImage
from .store import TraceStore
from .stream import compute_regions, region_digest

ERROR = "error"
WARNING = "warning"

#: every named check, in report order
CHECKS = (
    "call-ret-balance",
    "branch-flags-pairing",
    "register-use-before-def",
    "record-shape",
    "monotone-marker-clock",
    "ipc-use-before-def",
    "lock-discipline",
    "frame-epoch-monotonicity",
    "memory-use-before-def",
    "checkpoint-consistency",
)

_FLAGS = 0
_SYSCALL_ARGS = set(SYSCALL_ARG_REGISTERS)

#: frames whose reads consume IPC payload cells
_IPC_CONSUMER_FNS = (
    "ipc::ChannelMojo::OnMessageReceived",
    "ipc::ChannelMojo::WriteToPipe",
)


@dataclass(frozen=True)
class LintIssue:
    """One violation of a named invariant."""

    check: str
    severity: str
    message: str
    #: record index the issue anchors to, if any
    index: Optional[int] = None

    def __str__(self) -> str:
        where = f" @record {self.index}" if self.index is not None else ""
        return f"[{self.severity}] {self.check}{where}: {self.message}"


@dataclass
class LintReport:
    """All issues found in one trace, plus per-check tallies."""

    n_records: int
    issues: List[LintIssue] = field(default_factory=list)
    #: total violations per check (issues are capped, counts are not)
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def errors(self) -> List[LintIssue]:
        return [i for i in self.issues if i.severity == ERROR]

    @property
    def warnings(self) -> List[LintIssue]:
        return [i for i in self.issues if i.severity == WARNING]

    @property
    def ok(self) -> bool:
        """True when no *error*-severity invariant is violated."""
        return not any(
            count and _SEVERITY[check] == ERROR
            for check, count in self.counts.items()
        )

    def summary(self) -> str:
        lines = [f"{self.n_records} records linted"]
        for check in CHECKS:
            count = self.counts.get(check, 0)
            status = "ok" if count == 0 else f"{count} violation(s)"
            lines.append(f"  {check:<24s} {status}")
        shown = len(self.issues)
        total = sum(self.counts.values())
        if total > shown:
            lines.append(f"  ({shown} of {total} issues shown)")
        lines.extend(str(issue) for issue in self.issues)
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


_SEVERITY = {check: ERROR for check in CHECKS}
_SEVERITY["memory-use-before-def"] = WARNING


class TraceLintError(ValueError):
    """Raised by :func:`lint_or_raise` when a trace violates an invariant."""

    def __init__(self, report: LintReport) -> None:
        self.report = report
        failed = sorted(
            check
            for check, count in report.counts.items()
            if count and _SEVERITY[check] == ERROR
        )
        super().__init__(
            f"trace lint failed ({', '.join(failed)}):\n" + report.summary()
        )


class _Collector:
    def __init__(self, max_issues_per_check: int) -> None:
        self.max = max_issues_per_check
        self.report: Optional[LintReport] = None

    def bind(self, report: LintReport) -> None:
        self.report = report

    def add(self, check: str, message: str, index: Optional[int] = None) -> None:
        report = self.report
        assert report is not None
        count = report.counts.get(check, 0)
        report.counts[check] = count + 1
        if count < self.max:
            report.issues.append(
                LintIssue(check, _SEVERITY[check], message, index)
            )


def lint_trace(
    store: TraceStore,
    max_issues_per_check: int = 10,
    checkpoint: Optional[CheckpointImage] = None,
) -> LintReport:
    """Check every invariant; return a report (never raises).

    ``checkpoint`` additionally runs the ``checkpoint-consistency`` check
    against the given serialized slice checkpoint (normally the trace's
    ``.ckpt`` sidecar); without one the check trivially passes.
    """
    report = LintReport(n_records=len(store))
    out = _Collector(max_issues_per_check)
    out.bind(report)
    for check in CHECKS:
        report.counts.setdefault(check, 0)

    known_tids = set(store.metadata.thread_names)
    depth: Dict[int, int] = {}
    regs_written: Dict[int, Set[int]] = {}
    mem_written: Set[int] = set()
    prev_kind: Dict[int, InstrKind] = {}
    warned_cells: Set[int] = set()
    ipc_warned: Set[int] = set()
    held_locks: Dict[int, List[int]] = {}
    open_frame_begin: Optional[int] = None
    n_stream_frames = 0
    ipc_fns: Set[int] = set()
    for fn_name in _IPC_CONSUMER_FNS:
        sym = store.symbols.lookup(fn_name)
        if sym is not None:
            ipc_fns.add(sym)

    for index, rec in enumerate(store.forward()):
        # -- record-shape ---------------------------------------------- #
        if rec.tid not in known_tids:
            out.add("record-shape", f"tid {rec.tid} was never spawned", index)
            known_tids.add(rec.tid)  # report each unknown tid once
        if rec.kind == InstrKind.SYSCALL and rec.syscall is None:
            out.add("record-shape", "SYSCALL record without syscall number", index)
        if rec.kind != InstrKind.SYSCALL and rec.syscall is not None:
            out.add(
                "record-shape",
                f"{rec.kind.name} record carries syscall={rec.syscall}",
                index,
            )
        if rec.kind == InstrKind.MARKER and rec.marker is None:
            out.add("record-shape", "MARKER record without marker tag", index)
        for reg in (*rec.regs_read, *rec.regs_written):
            if not 0 <= reg < NUM_REGISTERS:
                out.add("record-shape", f"register id {reg} out of range", index)

        # -- call-ret-balance ------------------------------------------ #
        if rec.kind == InstrKind.CALL:
            depth[rec.tid] = depth.get(rec.tid, 0) + 1
        elif rec.kind == InstrKind.RET:
            depth[rec.tid] = depth.get(rec.tid, 0) - 1
            if depth[rec.tid] < 0:
                out.add(
                    "call-ret-balance",
                    f"thread {rec.tid}: RET without matching CALL",
                    index,
                )
                depth[rec.tid] = 0

        # -- branch-flags-pairing -------------------------------------- #
        if rec.kind == InstrKind.BRANCH:
            if _FLAGS not in rec.regs_read:
                out.add("branch-flags-pairing", "BRANCH does not read FLAGS", index)
            if prev_kind.get(rec.tid) != InstrKind.CMP:
                out.add(
                    "branch-flags-pairing",
                    f"thread {rec.tid}: BRANCH not preceded by CMP",
                    index,
                )
        prev_kind[rec.tid] = rec.kind

        # -- register-use-before-def ----------------------------------- #
        written = regs_written.setdefault(rec.tid, set())
        for reg in rec.regs_read:
            if reg in written:
                continue
            if rec.kind == InstrKind.SYSCALL and reg in _SYSCALL_ARGS:
                continue  # implicit ABI argument set-up
            out.add(
                "register-use-before-def",
                f"thread {rec.tid} reads {register_name(reg)} before any write",
                index,
            )
        written.update(rec.regs_written)

        # -- lock-discipline ------------------------------------------- #
        sync_marker = is_sync_marker(rec)
        if sync_marker:
            event = sync_event_of(index, rec)
            if event is None:
                out.add(
                    "lock-discipline",
                    f"malformed sync marker {rec.marker!r} "
                    f"with {len(rec.mem_read)} sync cell(s)",
                    index,
                )
            elif event.kind == "lock":
                held = held_locks.setdefault(event.tid, [])
                if event.op == "acquire":
                    if event.obj in held:
                        out.add(
                            "lock-discipline",
                            f"thread {event.tid}: recursive acquire of lock "
                            f"cell {event.obj:#x}",
                            index,
                        )
                    else:
                        held.append(event.obj)
                elif event.obj in held:
                    held.remove(event.obj)
                else:
                    out.add(
                        "lock-discipline",
                        f"thread {event.tid}: release of lock cell "
                        f"{event.obj:#x} not held",
                        index,
                    )

        # -- frame-epoch-monotonicity: marker pairing ------------------ #
        if rec.kind == InstrKind.MARKER:
            if rec.marker == FRAME_BEGIN_MARKER:
                if open_frame_begin is not None:
                    out.add(
                        "frame-epoch-monotonicity",
                        f"frame begun while frame at {open_frame_begin} "
                        "is still open",
                        index,
                    )
                open_frame_begin = index
                n_stream_frames += 1
            elif rec.marker == FRAME_END_MARKER:
                if open_frame_begin is None:
                    out.add(
                        "frame-epoch-monotonicity",
                        "frame ended with no frame open",
                        index,
                    )
                open_frame_begin = None

        # -- ipc-use-before-def ---------------------------------------- #
        if rec.fn in ipc_fns and not sync_marker:
            for cell in rec.mem_read:
                if cell not in mem_written and cell not in ipc_warned:
                    ipc_warned.add(cell)
                    out.add(
                        "ipc-use-before-def",
                        f"{store.symbols.name(rec.fn)} consumes cell "
                        f"{cell:#x} that no send ever wrote",
                        index,
                    )

        # -- memory-use-before-def (warning) --------------------------- #
        if not sync_marker:
            for cell in rec.mem_read:
                if cell not in mem_written and cell not in warned_cells:
                    warned_cells.add(cell)
                    out.add(
                        "memory-use-before-def",
                        f"cell {cell:#x} read before any write",
                        index,
                    )
        mem_written.update(rec.mem_written)

    # -- call-ret-balance: final unwinding ----------------------------- #
    for tid in sorted(depth):
        if depth[tid] > 0:
            out.add(
                "call-ret-balance",
                f"thread {tid}: {depth[tid]} CALL(s) never returned",
            )

    # -- lock-discipline: locks held past the end of the trace --------- #
    for tid in sorted(held_locks):
        for obj in held_locks[tid]:
            out.add(
                "lock-discipline",
                f"thread {tid}: lock cell {obj:#x} still held at end of trace",
            )

    # -- monotone-marker-clock ----------------------------------------- #
    last_index = -1
    for index, cells in store.metadata.tile_buffers:
        if index <= last_index:
            out.add(
                "monotone-marker-clock",
                f"tile-marker index {index} not after previous {last_index}",
                index,
            )
        last_index = index
        if not 0 <= index < len(store):
            out.add(
                "monotone-marker-clock",
                f"tile-marker index {index} outside trace of {len(store)}",
            )
            continue
        rec = store[index]
        if rec.kind != InstrKind.MARKER or rec.marker != TILE_MARKER:
            out.add(
                "monotone-marker-clock",
                f"metadata points at {rec.kind.name}, not a {TILE_MARKER} marker",
                index,
            )
        elif tuple(rec.mem_read) != tuple(cells):
            out.add(
                "monotone-marker-clock",
                "metadata pixel cells disagree with the marker record",
                index,
            )
    load_idx = store.metadata.load_complete_index
    if load_idx is not None and not 0 <= load_idx < max(1, len(store)):
        out.add(
            "monotone-marker-clock",
            f"load-complete index {load_idx} outside trace of {len(store)}",
        )

    # -- frame-epoch-monotonicity: metadata vs record stream ------------ #
    if open_frame_begin is not None:
        out.add(
            "frame-epoch-monotonicity",
            f"frame begun at {open_frame_begin} never ended",
        )
    frames = store.metadata.frames
    if len(frames) != n_stream_frames:
        out.add(
            "frame-epoch-monotonicity",
            f"metadata lists {len(frames)} frame(s) but the trace "
            f"contains {n_stream_frames} frame-begin marker(s)",
        )
    prev_id = None
    prev_end = -1
    for span in frames:
        if prev_id is not None and span.frame_id <= prev_id:
            out.add(
                "frame-epoch-monotonicity",
                f"frame id {span.frame_id} not after previous {prev_id}",
                span.begin,
            )
        prev_id = span.frame_id
        if span.end is None:
            out.add(
                "frame-epoch-monotonicity",
                f"frame {span.frame_id} has no end marker",
                span.begin,
            )
            continue
        if span.begin <= prev_end or span.end <= span.begin:
            out.add(
                "frame-epoch-monotonicity",
                f"frame {span.frame_id} span [{span.begin}, {span.end}] "
                f"overlaps or inverts (previous end {prev_end})",
                span.begin,
            )
        prev_end = max(prev_end, span.end)
        for where, tag in ((span.begin, FRAME_BEGIN_MARKER), (span.end, FRAME_END_MARKER)):
            if not 0 <= where < len(store):
                out.add(
                    "frame-epoch-monotonicity",
                    f"frame {span.frame_id} index {where} outside trace "
                    f"of {len(store)}",
                )
                continue
            rec = store[where]
            if rec.kind != InstrKind.MARKER or rec.marker != tag:
                out.add(
                    "frame-epoch-monotonicity",
                    f"frame {span.frame_id} metadata points at "
                    f"{rec.kind.name}, not a {tag} marker",
                    where,
                )

    # -- checkpoint-consistency ----------------------------------------- #
    if checkpoint is not None:
        _check_checkpoint(store, checkpoint, out)

    return report


def _check_checkpoint(
    store: TraceStore, image: CheckpointImage, out: _Collector
) -> None:
    """Validate a serialized slice checkpoint against ``store``.

    The checkpoint may summarize a *prefix* of the trace (a mid-stream
    save), so non-frame regions are only checked structurally; frame
    regions must coincide with the trace's frame spans exactly, and every
    summarized region's record count and content digest must match the
    records it covers.
    """
    n = len(store)
    canonical = {
        region.frame_id: region.key()
        for region in compute_regions(store.metadata.complete_frames(), n)
        if region.is_frame
    }
    cursor = 0
    for position, (lo, hi, frame_id, kind) in enumerate(image.regions):
        if not 0 <= lo < hi <= n:
            out.add(
                "checkpoint-consistency",
                f"region {position} [{lo}, {hi}) outside trace of {n}",
            )
            continue
        if lo != cursor:
            out.add(
                "checkpoint-consistency",
                f"region {position} [{lo}, {hi}) does not continue the "
                f"tiling at {cursor}",
            )
        cursor = hi
        if frame_id >= 0 and canonical.get(frame_id) != (lo, hi, frame_id, kind):
            out.add(
                "checkpoint-consistency",
                f"frame {frame_id} region [{lo}, {hi}) kind {kind!r} does "
                f"not match the trace's frame spans",
                lo,
            )
    for index in sorted(image.facts):
        if not 0 <= index < len(image.regions):
            out.add(
                "checkpoint-consistency",
                f"facts for region {index} but checkpoint tiles only "
                f"{len(image.regions)} region(s)",
            )
            continue
        lo, hi, frame_id, _kind = image.regions[index]
        if not 0 <= lo < hi <= n:
            continue  # already reported above
        facts = image.facts[index]
        if facts.n_records != hi - lo:
            out.add(
                "checkpoint-consistency",
                f"region {index} claims {facts.n_records} record(s) but "
                f"covers [{lo}, {hi})",
                lo,
            )
            continue
        actual = region_digest(store.span(lo, hi))
        if facts.digest != actual:
            out.add(
                "checkpoint-consistency",
                f"region {index} digest {facts.digest[:12]}… does not match "
                f"records [{lo}, {hi}) ({actual[:12]}…)",
                lo,
            )
    for index in sorted(image.memos):
        if index not in image.facts:
            out.add(
                "checkpoint-consistency",
                f"memo for region {index} has no region facts",
            )


def lint_or_raise(
    store: TraceStore,
    checkpoint: Optional[CheckpointImage] = None,
) -> LintReport:
    """Lint and raise :class:`TraceLintError` on any error-severity issue."""
    report = lint_trace(store, checkpoint=checkpoint)
    if not report.ok:
        raise TraceLintError(report)
    return report
