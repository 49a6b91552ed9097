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
from typing import Dict, List, Optional, Tuple

from ..trace.records import FrameSpan, InstrKind
from ..trace.store import TraceStore
from .api import Profiler
from .criteria import Criterion, SlicingCriteria


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
    cell stay stable too.  (A legacy full-relayout pass rewrites every
    geometry cell each frame with unchanged values; without propagation
    the rewrite would mask the redundancy it embodies.)  Concretely, each
    cell tracks its last *changing* write — the last write by a record
    that was not itself stable — and record ``i`` is stable iff a previous
    execution exists and every input cell's last changing write happened
    at or before it.
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


def analyze_frames(store: TraceStore, engine: str = "auto") -> RedundancyReport:
    """Per-frame pixel slices plus redundant/fresh classification.

    ``engine`` names the engine of every per-frame slice; the default
    ``"auto"`` resolves per slice as :meth:`Profiler.slice` does (a
    columnar trace with a stored index slices vectorized, a row store
    sequential).  ``engine="incremental"`` turns the F independent full
    slices into one streaming pass: every per-frame query extends the
    profiler's shared
    checkpoint, so each seedless region's backward run is paid once and
    later frames reuse it (same flags, byte for byte — the split is
    engine-invariant).

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
    records = list(store.records())
    report = RedundancyReport()
    for span in spans:
        criteria = frame_pixel_criteria(store, span)
        if criteria.criteria:
            result = profiler.slice(criteria, engine=engine)
            flags = result.flags
        else:
            flags = bytearray(len(records))
        total = span.n_records()
        in_slice = 0
        redundant = 0
        for i in range(span.begin, span.end + 1):  # type: ignore[operator]
            if flags[i]:
                in_slice += 1
                continue
            rec = records[i]
            if (
                rec.kind == InstrKind.OP
                and stable[i]
                and 0 <= prev_exec[i] < span.begin
            ):
                redundant += 1
        report.frames.append(
            FrameRedundancy(
                frame_id=span.frame_id,
                kind=span.kind,
                begin=span.begin,
                end=span.end,  # type: ignore[arg-type]
                total=total,
                in_slice=in_slice,
                redundant=redundant,
                fresh_unnecessary=total - in_slice - redundant,
            )
        )
    return report
