"""Streaming frame-epoch reader over UCWA sources.

The incremental slice engine (``repro.profiler.incremental``) consumes a
trace as a sequence of **regions** — the frame spans recorded by the
engine plus the prologue/gap stretches between them — rather than as one
monolithic record list.  This module owns that partition:

* :func:`compute_regions` derives the canonical region tiling of a trace
  from its complete :class:`~repro.trace.records.FrameSpan` metadata.
  The tiling is stable under stream growth: appending a new frame only
  appends new regions, so per-region checkpoints stay valid.
* :class:`EpochStream` yields one :class:`FrameEpoch` per region, in
  trace order, materializing only that region's records.  Sources:

  - an in-memory ``TraceStore`` or mmap-backed ``ColumnarTrace`` (zero
    copies beyond the requested span);
  - a UCWA2 file, decoded region by region from the file image
    (only the encoded bytes stay resident, never the full record list —
    records decode to 10-50x their encoded size);
  - a UCWA3 file, which loads as a columnar trace (mmap-backed columns,
    bounded memory by construction).

  ``span(lo, hi)`` re-materializes any region on demand, which is what
  lets the incremental engine re-run a checkpointed region after a cache
  miss without holding the whole trace.
* :func:`region_digest` fingerprints a region's records independently of
  the container format; checkpoint files carry it so ``python -m
  repro.trace lint`` can verify a checkpoint still matches the trace it
  claims to summarize (the ``checkpoint-consistency`` check).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Sequence, Tuple, Union

from .records import FrameSpan, TraceMetadata, TraceRecord
from .store import (
    TraceStore,
    _HEADER_V3,
    _Cursor,
    _decode_records,
    _patch_markers,
    _RecordWalker,
    _skip_record,
)

#: ``frame_id`` used by regions that are not frame spans.
NO_FRAME = -1

#: v2 file streams remember a record byte-offset every this many records,
#: so ``span()`` seeks near its target instead of re-skipping the prefix.
OFFSET_STRIDE = 1024


@dataclass(frozen=True)
class Region:
    """One contiguous stretch ``[lo, hi)`` of the region tiling.

    ``kind`` is the frame kind (``"load"``, ``"update"``, ...) for frame
    regions, ``"prologue"`` for records before the first frame,
    ``"gap"`` for records between/after frames, and ``"all"`` for a
    trace with no frame markers (the whole trace as one region).
    """

    index: int
    lo: int
    hi: int
    kind: str
    frame_id: int = NO_FRAME

    @property
    def is_frame(self) -> bool:
        return self.frame_id != NO_FRAME

    def n_records(self) -> int:
        return self.hi - self.lo

    def key(self) -> Tuple[int, int, int, str]:
        """Identity tuple used by checkpoints (position + extent + role)."""
        return (self.lo, self.hi, self.frame_id, self.kind)


def compute_regions(frames: Sequence[FrameSpan], n_records: int) -> List[Region]:
    """The canonical region tiling of a trace with ``frames`` spans.

    Only complete spans partition the trace; records of an unfinished
    trailing frame land in the final gap region (they re-tile once the
    frame completes, which is exactly when a checkpoint may summarize
    them).  The result tiles ``[0, n_records)`` exactly.
    """
    regions: List[Region] = []
    cursor = 0

    def push(lo: int, hi: int, kind: str, frame_id: int = NO_FRAME) -> None:
        if hi > lo:
            regions.append(Region(len(regions), lo, hi, kind, frame_id))

    for span in frames:
        if not span.complete:
            continue
        assert span.end is not None
        if span.begin > n_records or span.end >= n_records:
            break  # span beyond the (prefix) trace: not yet streamed
        push(cursor, span.begin, "prologue" if not regions else "gap")
        push(span.begin, span.end + 1, span.kind, span.frame_id)
        cursor = span.end + 1
    if not regions:
        push(0, n_records, "all")
    else:
        push(cursor, n_records, "gap")
    return regions


def region_digest(records: Sequence[TraceRecord]) -> str:
    """Format-invariant sha256 over a region's records.

    Hashes the semantic record fields (marker *names*, not table ids), so
    the digest agrees across UCWA2/UCWA3 containers and in-memory stores.
    """
    h = hashlib.sha256()
    head = struct.Struct("<IQBIq")
    u16 = struct.Struct("<H")
    for rec in records:
        h.update(
            head.pack(
                rec.tid,
                rec.pc,
                int(rec.kind),
                rec.fn,
                -1 if rec.syscall is None else rec.syscall,
            )
        )
        marker = (rec.marker or "").encode("utf-8")
        h.update(u16.pack(len(marker)))
        h.update(marker)
        for regs in (rec.regs_read, rec.regs_written):
            h.update(u16.pack(len(regs)))
            h.update(bytes(regs))
        for cells in (rec.mem_read, rec.mem_written):
            h.update(u16.pack(len(cells)))
            if cells:
                h.update(struct.pack(f"<{len(cells)}Q", *cells))
    return h.hexdigest()


@dataclass
class FrameEpoch:
    """One region of the stream, materialized.

    ``tiles`` carries the tile-buffer markers rastered inside the region
    (``(record index, pixel cells)`` pairs) — everything a consumer needs
    to form the region's frame-pixel slicing criteria without reading the
    whole trace's metadata side channel.
    """

    region: Region
    records: List[TraceRecord]
    tiles: Tuple[Tuple[int, Tuple[int, ...]], ...] = ()

    @property
    def lo(self) -> int:
        return self.region.lo

    @property
    def hi(self) -> int:
        return self.region.hi


class EpochStream:
    """Base streaming reader: regions, epochs, and random region access."""

    def __init__(
        self, symbols, metadata: TraceMetadata, n_records: int
    ) -> None:
        self.symbols = symbols
        self.metadata = metadata
        self.n_records = n_records
        self.regions: List[Region] = compute_regions(
            metadata.complete_frames(), n_records
        )

    def __len__(self) -> int:
        return self.n_records

    def span(self, lo: int, hi: int) -> List[TraceRecord]:
        """Materialize records ``[lo, hi)`` (re-readable at any time)."""
        raise NotImplementedError

    def tiles_in(self, lo: int, hi: int) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
        """Tile-buffer markers whose record index falls in ``[lo, hi)``."""
        return tuple(
            (index, cells)
            for index, cells in self.metadata.tile_buffers
            if lo <= index < hi
        )

    def epoch(self, region: Region) -> FrameEpoch:
        return FrameEpoch(
            region=region,
            records=self.span(region.lo, region.hi),
            tiles=self.tiles_in(region.lo, region.hi),
        )

    def epochs(self) -> Iterator[FrameEpoch]:
        """Yield every region in trace order, one materialized at a time."""
        for region in self.regions:
            yield self.epoch(region)


class _StoreStream(EpochStream):
    """Stream over an already-loaded trace (row store or columnar)."""

    def __init__(self, store) -> None:
        super().__init__(store.symbols, store.metadata, len(store))
        self._store = store

    def span(self, lo: int, hi: int) -> List[TraceRecord]:
        # A columnar trace's ``span`` keeps every region it builds; a
        # stream holds only what its session keeps resident.
        return self._store.materialize(lo, hi)


class _FileStreamV2(EpochStream):
    """Stream over a UCWA2 file image.

    Decodes records region by region; only the encoded file bytes stay
    resident.  A stride of record byte-offsets (one per
    :data:`OFFSET_STRIDE` records, collected during the initial
    length-only skip pass) makes ``span()`` seek-and-decode rather than
    re-walk the prefix.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        data = Path(path).read_bytes()
        walker = _RecordWalker(data, str(path))
        symbols = walker.read_symbols()
        offsets: List[int] = []
        cur = walker.cur
        for i in range(walker.n_records):
            if i % OFFSET_STRIDE == 0:
                offsets.append(cur.pos)
            _skip_record(cur)
        self._markers = walker.read_markers()
        metadata = TraceMetadata()
        walker.read_metadata(metadata)
        super().__init__(symbols, metadata, walker.n_records)
        self._data = cur.data  # the file image the offsets index
        self._label = str(path)
        self._offsets = offsets

    def span(self, lo: int, hi: int) -> List[TraceRecord]:
        if not 0 <= lo <= hi <= self.n_records:
            raise ValueError(
                f"{self._label}: span [{lo}, {hi}) outside trace of "
                f"{self.n_records}"
            )
        if lo == hi:
            return []
        cur = _Cursor(
            self._data, label=self._label, pos=self._offsets[lo // OFFSET_STRIDE]
        )
        for _ in range(lo % OFFSET_STRIDE):
            _skip_record(cur)
        records, marked = _decode_records(cur, hi - lo)
        _patch_markers(records, marked, self._markers, self._label)
        return records


def open_epoch_stream(
    source: Union[str, Path, TraceStore, object],
) -> EpochStream:
    """Open a streaming frame-epoch reader over any UCWA source.

    ``source`` may be a path to a UCWA2/UCWA3 file, or an
    already-loaded ``TraceStore`` / ``ColumnarTrace``.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            head = fh.read(len(_HEADER_V3))
        if head == _HEADER_V3:
            from .columnar import load_columnar

            return _StoreStream(load_columnar(source))
        return _FileStreamV2(source)
    if hasattr(source, "span") and hasattr(source, "metadata"):
        return _StoreStream(source)
    raise TypeError(
        f"cannot stream epochs from {type(source).__name__}; expected a "
        f"path, TraceStore, or ColumnarTrace"
    )
