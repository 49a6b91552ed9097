"""Test-side reference: the per-frame redundancy profile, one full slice a frame.

:func:`analyze_frames_reference` is
:func:`repro.profiler.redundancy.analyze_frames` as it ran before each
frame's walk was bounded: every frame with pixel criteria gets a full
``Profiler.slice(criteria, engine="sequential")`` over all records
``[0, n)``, of which only the flags inside the frame's span are read.
``test_frame_sweep_reference.py`` checks the bounded walks and the
report against it.  Kept as it was, the way ``cfg_reference.py`` keeps
the per-record CFG builder.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.profiler import Profiler
from repro.profiler.redundancy import (
    FrameRedundancy,
    RedundancyReport,
    _stability_pass,
    frame_pixel_criteria,
)
from repro.trace.records import FrameSpan, InstrKind
from repro.trace.store import TraceStore


def reference_frame_flags(store: TraceStore) -> List[Tuple[FrameSpan, Optional[bytes]]]:
    """Per complete frame, the in-span flags of a full sequential slice on
    the frame's pixel criteria (``None`` for a frame that rasters nothing)."""
    profiler = Profiler(store)
    out: List[Tuple[FrameSpan, Optional[bytes]]] = []
    for span in store.frame_spans():
        if not span.complete:
            continue
        criteria = frame_pixel_criteria(store, span)
        flags = None
        if criteria.criteria:
            full = profiler.slice(criteria, engine="sequential").flags
            flags = bytes(full[span.begin : span.end + 1])
        out.append((span, flags))
    return out


def analyze_frames_reference(store: TraceStore) -> RedundancyReport:
    """The redundancy report, every frame sliced by a full sequential walk."""
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
            result = profiler.slice(criteria, engine="sequential")
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
