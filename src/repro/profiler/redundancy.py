"""Cross-frame redundancy profiling.

The paper's slicing criterion asks "which instructions influenced the
pixels?" for a single page load.  With the incremental frame pipeline a
trace holds many frame epochs (``FrameSpan``), and the interesting
question becomes comparative: of the work a steady-state frame performs,
how much merely reproduces values the previous frame already computed?

For every complete frame this module

1. slices on *that frame's* pixel criterion alone — the tile buffers
   written between its ``frame:begin``/``frame:end`` markers, windowed to
   the frame's last record — and
2. classifies the frame's non-slice instructions as either

   * **redundant** — the same static instruction executed in an earlier
     frame and none of its inputs were written since, so it necessarily
     recomputed an identical value; or
   * **fresh-unnecessary** — new or input-changed work that still never
     reached this frame's pixels (the paper's classic unnecessary
     computation, now measured per frame).

A well-behaved incremental pipeline drives the redundant count toward
zero: work whose inputs did not change should be skipped by dirty
tracking, not re-executed.  The per-frame totals also quantify the
pipeline's savings directly (steady-state frames vs. the load frame).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..trace.records import FrameSpan, InstrKind, TraceRecord, collector_paused
from ..trace.store import TraceStore
from .api import Profiler, resolve_engine
from .criteria import Criterion, SlicingCriteria
from .epoch import SliceFrontier, run_epoch

#: Records in the first chunk a frame's walk takes below the frame's
#: begin; every further chunk doubles.
FIRST_CHUNK = 64


@dataclass(frozen=True)
class FrameRedundancy:
    """Redundancy breakdown of one frame epoch."""

    frame_id: int
    kind: str
    begin: int
    end: int
    total: int
    in_slice: int
    redundant: int
    fresh_unnecessary: int

    @property
    def unnecessary(self) -> int:
        return self.total - self.in_slice

    @property
    def slice_fraction(self) -> float:
        return self.in_slice / self.total if self.total else 0.0

    @property
    def redundant_fraction(self) -> float:
        """Share of the frame's instructions that recomputed old values."""
        return self.redundant / self.total if self.total else 0.0


@dataclass
class RedundancyReport:
    """Per-frame redundancy results for one multi-frame trace."""

    frames: List[FrameRedundancy] = field(default_factory=list)

    def first(self) -> Optional[FrameRedundancy]:
        return self.frames[0] if self.frames else None

    def updates(self) -> List[FrameRedundancy]:
        """Every frame after the initial load frame."""
        return self.frames[1:]

    def steady_state_ratio(self) -> Optional[float]:
        """Mean update-frame size relative to the load frame.

        The headline number for the incremental pipeline: a ratio of 0.1
        means steady-state frames execute 10% of the load frame's
        instructions.  ``None`` when the trace has fewer than two frames.
        """
        updates = self.updates()
        if not updates or not self.frames[0].total:
            return None
        mean = sum(f.total for f in updates) / len(updates)
        return mean / self.frames[0].total


def frame_pixel_criteria(store: TraceStore, span: FrameSpan) -> SlicingCriteria:
    """Pixel criteria restricted to tiles rastered within ``span``.

    Returns an empty criteria set (no points) when the frame rastered
    nothing — e.g. a scroll frame fully served from cached tiles.
    """
    if span.end is None:
        raise ValueError(f"frame {span.frame_id} is incomplete (no frame:end)")
    crits = tuple(
        Criterion(index=index, cells=cells)
        for index, cells in store.metadata.tile_buffers
        if span.begin <= index <= span.end
    )
    return SlicingCriteria(
        name=f"pixels:frame{span.frame_id}",
        criteria=crits,
        window_end=span.end,
    )


def _stability_pass(store: TraceStore) -> Tuple[List[int], bytearray]:
    """One forward pass computing, per record, its previous execution.

    Returns ``(prev_exec, stable)`` where ``prev_exec[i]`` is the record
    index of the previous dynamic execution of the same static instruction
    (same pc reading/writing the same cells) or ``-1``, and ``stable[i]``
    is 1 iff record ``i`` necessarily recomputed the value its previous
    execution produced.

    Stability propagates through *silent writes*: a cell overwritten only
    by stable re-executions still holds its old value, so readers of that
    cell stay stable too.  (An update frame that falls back to a
    whole-document relayout rewrites every geometry cell with unchanged
    values; without propagation the rewrite would mask the redundancy it
    embodies.)  Concretely, each cell tracks its last *changing* write —
    the last write by a record that was not itself stable — and record
    ``i`` is stable iff a previous execution exists and every input
    cell's last changing write happened at or before it.
    """
    last_changing_write: Dict[int, int] = {}
    seen: Dict[Tuple[int, Tuple[int, ...], Tuple[int, ...]], int] = {}
    prev_exec: List[int] = []
    stable = bytearray()
    for i, rec in enumerate(store.forward()):
        key = (rec.pc, rec.mem_read, rec.mem_written)
        prev = seen.get(key, -1)
        prev_exec.append(prev)
        is_stable = prev >= 0 and all(
            last_changing_write.get(cell, -1) <= prev for cell in rec.mem_read
        )
        stable.append(1 if is_stable else 0)
        seen[key] = i
        if not is_stable:
            for cell in rec.mem_written:
                last_changing_write[cell] = i
    return prev_exec, stable


def _holds_ret_in(frontier: SliceFrontier, begin: int, end: int) -> bool:
    """Whether an invocation in ``frontier`` returns at an index in
    ``[begin, end]``."""
    return any(
        begin <= frame[1] <= end for _tid, stack in frontier.stacks for frame in stack
    )


def bounded_frame_flags(
    records: Sequence[TraceRecord],
    frames: Sequence[Tuple[FrameSpan, SlicingCriteria]],
    deps_of,
) -> List[bytearray]:
    """Each frame's in-span slice flags, walking only as far as they need.

    ``frames`` pairs complete spans with criteria whose points all lie in
    the span and that seed no syscall, as :func:`frame_pixel_criteria`
    makes them (``ValueError`` otherwise).  Entry ``k`` of the result
    holds the flags of records ``[begin, end]`` of frame ``k`` that a
    full sequential slice on its criteria sets (control and call-site
    dependences on).  Every walk is a :func:`~.epoch.run_epoch` call
    chained from the exit frontier of the one above it, which is the
    sequential walk cut into pieces (docs/incremental-slicing.md):

    1. Above a frame no record can join its slice, so the walk from the
       trace end down to ``end + 1`` is seedless and its state there does
       not depend on the frame.  One seedless chain, cut at each frame's
       ``end + 1``, serves every frame.
    2. The frame's own records run from that frontier, with its criteria.
    3. Below ``begin`` an in-span flag can change only on the RET of an
       invocation open at ``begin``: it joins when the invocation's CALL
       is reached with the invocation needed.  The walk goes on down in
       chunks of :data:`FIRST_CHUNK` records, doubling, while the
       frontier still holds such an invocation, and takes the in-span
       RETs from each chunk's ``extra``.

    The walks run with the cyclic collector paused, as
    :meth:`Profiler.slice` runs.
    """
    results: List[bytearray] = [bytearray()] * len(frames)
    seedless = SliceFrontier.empty()
    top = len(records)
    by_end = sorted(range(len(frames)), key=lambda k: frames[k][0].end, reverse=True)
    with collector_paused():
        for k in by_end:
            span, criteria = frames[k]
            begin, end = span.begin, span.end
            crit_by_index = criteria.by_index()
            if criteria.include_syscalls or not all(
                begin <= i <= end for i in crit_by_index
            ):
                raise ValueError(
                    f"criteria {criteria.name!r} seed outside frame "
                    f"{span.frame_id} [{begin}, {end}]"
                )
            if end + 1 < top:
                seedless = run_epoch(
                    records, end + 1, top, seedless, {}, False, None, deps_of
                ).frontier
                top = end + 1
            epoch = run_epoch(
                records, begin, end + 1, seedless, crit_by_index, False, end, deps_of
            )
            flags = bytearray(epoch.flags)
            frontier, lo, chunk = epoch.frontier, begin, FIRST_CHUNK
            while lo > 0 and _holds_ret_in(frontier, begin, end):
                below = max(0, lo - chunk)
                epoch = run_epoch(
                    records, below, lo, frontier, crit_by_index, False, end, deps_of
                )
                for ret_index, _callee_fn in epoch.extra:
                    if begin <= ret_index <= end:
                        flags[ret_index - begin] = 1
                frontier, lo, chunk = epoch.frontier, below, chunk * 2
            results[k] = flags
    return results


def analyze_frames(store: TraceStore) -> RedundancyReport:
    """Per-frame pixel slices plus redundant/fresh classification.

    Frames are sliced on the engine :meth:`Profiler.slice` picks for the
    trace (:func:`~.api.resolve_engine`), since which sweep is faster
    depends on the trace.  On the sequential engine (a row store, or a
    columnar trace without a stored index) every frame is sliced by a
    bounded walk (:func:`bounded_frame_flags`): its own span, its share
    of one seedless walk down from the trace end, and below the span
    only as far as the invocations open at its begin reach.  That gives
    the in-span flags a full slice per frame gives, byte for byte.  A
    columnar trace with a stored index slices each frame vectorized,
    over its stored edges.

    Raises ``ValueError`` when the trace records no complete frame epochs
    (i.e. it predates the incremental pipeline's frame markers).
    """
    spans = [span for span in store.frame_spans() if span.complete]
    if not spans:
        raise ValueError(
            "trace has no complete frame epochs; re-collect it with the "
            "frame-aware engine"
        )
    profiler = Profiler(store)
    prev_exec, stable = _stability_pass(store)
    records = store.records()
    frames = [(span, frame_pixel_criteria(store, span)) for span in spans]
    sliced = [(span, criteria) for span, criteria in frames if criteria.criteria]
    if resolve_engine(store) == "sequential":
        deps_of = profiler.control_dependence_index().deps_of
        in_span = bounded_frame_flags(records, sliced, deps_of)
    else:
        in_span = [
            profiler.slice(criteria).flags[span.begin : span.end + 1]
            for span, criteria in sliced
        ]
    sliced_flags = iter(in_span)
    report = RedundancyReport()
    for span, criteria in frames:
        begin = span.begin
        flags = next(sliced_flags) if criteria.criteria else bytes(span.n_records())
        total = span.n_records()
        in_slice = 0
        redundant = 0
        for i in range(begin, span.end + 1):  # type: ignore[operator]
            if flags[i - begin]:
                in_slice += 1
                continue
            rec = records[i]
            if (
                rec.kind == InstrKind.OP
                and stable[i]
                and 0 <= prev_exec[i] < begin
            ):
                redundant += 1
        report.frames.append(
            FrameRedundancy(
                frame_id=span.frame_id,
                kind=span.kind,
                begin=begin,
                end=span.end,  # type: ignore[arg-type]
                total=total,
                in_slice=in_slice,
                redundant=redundant,
                fresh_unnecessary=total - in_slice - redundant,
            )
        )
    return report
