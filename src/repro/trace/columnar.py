"""UCWA3: columnar (struct-of-arrays) trace format.

UCWA3 is the one on-disk trace format.  It stores a trace as flat typed
arrays — one array per fixed-width field, plus shared offset+value pools
for the variable-length operand lists — so the vectorized slicer
(:mod:`repro.profiler.vectorized`) can run batch array joins instead of
per-record dict chasing, and epoch readers materialize only the span they
need from zero-copy array views.

File layout::

    b"UCWA3\\n"
    u32 section_count
    section_count x (4-byte tag, u64 offset, u64 length)   # section table
    ... section payloads ...

Sections (offsets absolute, lengths exact; unknown tags are ignored so
the format is forward-extensible):

==========  ==========================================================
``SYMS``    symbol names, intern order (u32 count; u16 len + utf-8 each)
``MRKS``    marker names, first-use order (u32 count; u16 len + utf-8)
``CORE``    u64 n_records + 6 adaptive-width arrays: tid, pc, kind, fn,
            syscall+1 (0 = none), marker_id+1 (0 = none)
``REGR``    per-record regs-read counts array + flat values array
``REGW``    same for regs written
``MEMR``    per-record mem-read counts array + flat address array
``MEMW``    same for mem written
``META``    metadata tail, byte-identical to the metadata encoding of
            the digest image (thread names, tile buffers,
            load-complete index, frame spans)
``INVT``    *derived, optional*: per-record invocation id + per-
            invocation CALL/RET indices and function symbol
``EDGE``    *derived, optional*: the default-options dependence-edge
            stream, sorted by descending source record
==========  ==========================================================

Arrays use an adaptive integer width (u8/u16/u32/u64, whichever fits the
maximum value), which keeps a file at or below the size of the trace's
digest image even with the derived sections included.  Every array is
decoded zero-copy with ``np.frombuffer`` over one ``mmap`` of the file, so
loading is O(sections) and epoch slicing is pure array slicing.  Loading
checks every ``kind`` and marker id against its table, so a record built
later cannot fail.

The ``INVT``/``EDGE`` sections cache what the vectorized slicer would
otherwise derive on first use (see
:func:`repro.profiler.vectorized.attach_index`); they are excluded from
:func:`repro.trace.store.trace_digest`, which hashes the digest image
(:func:`repro.trace.store.serialize_trace`) — so a row store and every
UCWA3 file of it, indexed or not, share one digest.
"""

from __future__ import annotations

import copy
import mmap
import struct
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from .records import (
    FrameSpan,
    InstrKind,
    TraceMetadata,
    TraceRecord,
    collector_paused,
    new_record,
)
from .store import TraceStore, _encode_metadata, _HEADER_V3, epoch_bounds
from .symbols import SymbolTable

_SECTION = struct.Struct("<4sQQ")  # tag, absolute offset, length
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_THREAD_NAME = struct.Struct("<IH")
_FRAME_SPAN = struct.Struct("<IqqH")
_ARR_HEAD = struct.Struct("<BQ")  # width code, element count

_DTYPES: Dict[int, type] = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}

#: Sections a well-formed v3 file must carry (derived sections are optional).
_REQUIRED = (b"SYMS", b"MRKS", b"CORE", b"REGR", b"REGW", b"MEMR", b"MEMW", b"META")

#: ``InstrKind`` by encoded value: the record builders' kind lookup table.
_KINDS: Tuple[InstrKind, ...] = tuple(InstrKind(v) for v in range(len(InstrKind)))


def _nonzero(column: np.ndarray) -> Iterator[Tuple[int, int]]:
    """``(position, value)`` of every nonzero entry of ``column``."""
    at = np.flatnonzero(column)
    return zip(at.tolist(), column[at].tolist())


def _operands(off: np.ndarray, pool: np.ndarray, lo: int, hi: int) -> List[tuple]:
    """The operand tuples of records ``[lo, hi)`` from one offset+pool pair.

    Only the records that have operands get a tuple of their own, sliced
    from one tuple of the pool; the rest share ``()``.
    """
    out: List[tuple] = [()] * (hi - lo)
    bounds = off[lo : hi + 1]
    has = np.flatnonzero(np.diff(bounds))
    if len(has):
        base = int(bounds[0])
        values = tuple(pool[base : int(bounds[-1])].tolist())
        starts = (bounds[has] - base).tolist()
        ends = (bounds[has + 1] - base).tolist()
        for j, start, end in zip(has.tolist(), starts, ends):
            out[j] = values[start:end]
    return out


def distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``values``, as ``np.unique(values)``.

    Sorts and keeps each value that differs from its left neighbour.  For
    a values-only call numpy's ``np.unique`` hashes instead, which on
    large integer arrays is many times slower than this sort; the calls
    that also return inverses or counts sort already.
    """
    ordered = np.sort(np.asarray(values), axis=None)
    if len(ordered) < 2:
        return ordered
    keep = np.empty(len(ordered), bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _pack_array(values: np.ndarray) -> bytes:
    """Encode an integer array at the narrowest width that fits it."""
    maxv = int(values.max()) if len(values) else 0
    if maxv < (1 << 8):
        width = 1
    elif maxv < (1 << 16):
        width = 2
    elif maxv < (1 << 32):
        width = 4
    else:
        width = 8
    arr = np.ascontiguousarray(values, dtype=_DTYPES[width])
    return _ARR_HEAD.pack(width, len(arr)) + arr.tobytes()


class _SectionCursor:
    """Bounds-checked reader over one section's buffer slice."""

    def __init__(self, buf, start: int, end: int, label: str) -> None:
        self.buf = buf
        self.pos = start
        self.end = end
        self.label = label

    def _need(self, n: int) -> None:
        if self.pos + n > self.end:
            raise ValueError(
                f"{self.label}: truncated section "
                f"(need {n} bytes at offset {self.pos}, section ends at {self.end})"
            )

    def take(self, st: struct.Struct):
        self._need(st.size)
        values = st.unpack_from(self.buf, self.pos)
        self.pos += st.size
        return values

    def take_bytes(self, n: int) -> bytes:
        self._need(n)
        raw = bytes(self.buf[self.pos : self.pos + n])
        self.pos += n
        return raw

    def take_str(self, n: int) -> str:
        at = self.pos
        raw = self.take_bytes(n)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(
                f"{self.label}: invalid UTF-8 string at offset {at}"
            ) from None

    def take_array(self) -> np.ndarray:
        width, count = self.take(_ARR_HEAD)
        dtype = _DTYPES.get(width)
        if dtype is None:
            raise ValueError(
                f"{self.label}: bad array width code {width} at offset {self.pos}"
            )
        nbytes = width * count
        self._need(nbytes)
        arr = np.frombuffer(self.buf, dtype=dtype, count=count, offset=self.pos)
        self.pos += nbytes
        return arr


@dataclass
class SliceIndex:
    """Derived dependence structure cached in a v3 file (``INVT``/``EDGE``).

    Attributes:
        inv_id: per-record invocation id (-1 for none; RETs carry the
            invocation they close).
        inv_call: per-invocation CALL record index (-1 when the call lies
            before the trace window / thread root).
        inv_ret: per-invocation RET record index (-1 when truncated).
        inv_fn: per-invocation function symbol (-1 when never observed).
        edge_src: dependence-edge source record indices, **descending**.
        edge_tgt: matching targets; every target is strictly below its
            source, which is what makes the single-pass closure sweep of
            the vectorized engine correct.

    The edge stream is the *default-options* stream (control and
    call-site dependences enabled, merged with data/register edges and
    deduplicated); ablation runs rebuild their own stream from columns.
    """

    inv_id: np.ndarray
    inv_call: np.ndarray
    inv_ret: np.ndarray
    inv_fn: np.ndarray
    edge_src: np.ndarray
    edge_tgt: np.ndarray

    def n_edges(self) -> int:
        return len(self.edge_src)


class ColumnarTrace:
    """A trace as flat typed arrays (the UCWA3 in-memory model).

    Satisfies the read-side :class:`~repro.trace.store.TraceStore` API the
    profiler stack consumes — ``forward()``, ``records()``, ``span()``,
    indexing, ``metadata``, ``symbols`` — by materializing
    :class:`TraceRecord` objects on demand, while exposing the raw columns
    (``tid``, ``pc``, ``kind``, ``fn`` …) and operand pools for vectorized
    consumers.  Columns loaded from disk are read-only views into the
    file's mmap.
    """

    def __init__(
        self,
        symbols: SymbolTable,
        metadata: TraceMetadata,
        markers: List[str],
        tid: np.ndarray,
        pc: np.ndarray,
        kind: np.ndarray,
        fn: np.ndarray,
        syscall1: np.ndarray,
        marker1: np.ndarray,
        rr_off: np.ndarray,
        rr: np.ndarray,
        rw_off: np.ndarray,
        rw: np.ndarray,
        mr_off: np.ndarray,
        mr: np.ndarray,
        mw_off: np.ndarray,
        mw: np.ndarray,
        index: Optional[SliceIndex] = None,
        source_path: Optional[str] = None,
    ) -> None:
        self.symbols = symbols
        self.metadata = metadata
        self.markers = markers
        self.tid = tid
        self.pc = pc
        self.kind = kind
        self.fn = fn
        self.syscall1 = syscall1
        self.marker1 = marker1
        self.rr_off = rr_off
        self.rr = rr
        self.rw_off = rw_off
        self.rw = rw
        self.mr_off = mr_off
        self.mr = mr
        self.mw_off = mw_off
        self.mw = mw
        self.index = index
        self.source_path = source_path
        self._materialized: Optional[List[TraceRecord]] = None
        #: record lists ``span`` built, by ``(lo, hi)``
        self._spans: Dict[Tuple[int, int], List[TraceRecord]] = {}
        #: lazily built nearest-preceding-writer tables (see
        #: repro.profiler.vectorized); cached per trace because they are
        #: criteria-independent.
        self._writer_tables: Dict[str, tuple] = {}

    # -- core protocol -------------------------------------------------- #

    def __len__(self) -> int:
        return len(self.tid)

    def _record_at(self, i: int) -> TraceRecord:
        syscall1 = int(self.syscall1[i])
        marker1 = int(self.marker1[i])
        return new_record(
            tid=int(self.tid[i]),
            pc=int(self.pc[i]),
            kind=_KINDS[int(self.kind[i])],
            fn=int(self.fn[i]),
            regs_read=tuple(
                self.rr[self.rr_off[i] : self.rr_off[i + 1]].tolist()
            ),
            regs_written=tuple(
                self.rw[self.rw_off[i] : self.rw_off[i + 1]].tolist()
            ),
            mem_read=tuple(self.mr[self.mr_off[i] : self.mr_off[i + 1]].tolist()),
            mem_written=tuple(
                self.mw[self.mw_off[i] : self.mw_off[i + 1]].tolist()
            ),
            syscall=None if syscall1 == 0 else syscall1 - 1,
            marker=None if marker1 == 0 else self.markers[marker1 - 1],
        )

    def __getitem__(self, i: int) -> TraceRecord:
        if self._materialized is not None:
            return self._materialized[i]
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(i)
        return self._record_at(i)

    def span(self, lo: int, hi: int) -> List[TraceRecord]:
        """Records ``[lo, hi)`` (what the incremental engine reads per region).

        Each distinct span is materialized from the columns once and kept,
        so repeated queries on one trace do not rebuild the same records;
        a trace that already holds every record serves slices of them.
        """
        if self._materialized is not None:
            return self._materialized[lo:hi]
        records = self._spans.get((lo, hi))
        if records is None:
            records = self._spans[lo, hi] = self.materialize(lo, hi)
        return list(records)

    def materialize(self, lo: int, hi: int) -> List[TraceRecord]:
        """Build records ``[lo, hi)`` from the columns, keeping nothing.

        Every field is a list built from a column slice, and the records
        come from one ``map`` of :func:`~repro.trace.records.new_record`
        over those lists.  Kinds come from a lookup table, and only the
        records that have operands (or a syscall, or a marker) get their
        own value; every other record shares ``()`` (or ``None``).  A
        one-pass reader that must not hold what it read (an epoch
        stream) calls this instead of :meth:`span`.

        The pass runs under :func:`~repro.trace.records.collector_paused`:
        records and their operand tuples cannot form cycles, so the
        collections their allocation burst would trigger only rescan the
        growing record list.
        """
        n = hi - lo
        with collector_paused():
            syscalls: List[Optional[int]] = [None] * n
            for j, syscall1 in _nonzero(self.syscall1[lo:hi]):
                syscalls[j] = syscall1 - 1
            markers: List[Optional[str]] = [None] * n
            names = self.markers
            for j, marker1 in _nonzero(self.marker1[lo:hi]):
                markers[j] = names[marker1 - 1]
            records = list(
                map(
                    new_record,
                    self.tid[lo:hi].tolist(),
                    self.pc[lo:hi].tolist(),
                    map(_KINDS.__getitem__, self.kind[lo:hi].tolist()),
                    self.fn[lo:hi].tolist(),
                    _operands(self.rr_off, self.rr, lo, hi),
                    _operands(self.rw_off, self.rw, lo, hi),
                    _operands(self.mr_off, self.mr, lo, hi),
                    _operands(self.mw_off, self.mw, lo, hi),
                    syscalls,
                    markers,
                )
            )
        return records

    def records(self) -> List[TraceRecord]:
        """Full materialized record list (cached after first call)."""
        if self._materialized is None:
            self._materialized = self.materialize(0, len(self))
            self._spans.clear()
        return self._materialized

    def forward(self) -> Iterator[TraceRecord]:
        """Iterate records in execution order (materializing in batches)."""
        if self._materialized is not None:
            return iter(self._materialized)
        return self._forward_batched()

    def _forward_batched(self, batch: int = 8192) -> Iterator[TraceRecord]:
        for lo, hi in epoch_bounds(len(self), batch):
            yield from self.materialize(lo, hi)

    def backward(self) -> Iterator[TraceRecord]:
        return reversed(self.records())

    def thread_ids(self) -> List[int]:
        return distinct(self.tid).tolist()

    def frame_spans(self) -> List[FrameSpan]:
        return self.metadata.complete_frames()

    def instructions_per_thread(self) -> dict:
        utid, counts = np.unique(self.tid, return_counts=True)
        return dict(zip(utid.tolist(), counts.tolist()))

    def thread_slice_counts(self, flags) -> Tuple[dict, dict]:
        """Vectorized per-thread (total, in-slice) record counts.

        Fast path for :func:`repro.profiler.stats.compute_statistics`:
        two ``bincount`` calls instead of a Python pass over every record.
        """
        utid, inverse, counts = np.unique(
            self.tid, return_inverse=True, return_counts=True
        )
        tids = utid.tolist()
        totals = dict(zip(tids, counts.tolist()))
        flagged = np.frombuffer(bytes(flags), dtype=np.uint8).astype(bool)
        in_slice = np.bincount(inverse[flagged], minlength=len(utid))
        sliced = {
            tid: int(count)
            for tid, count in zip(tids, in_slice.tolist())
            if count
        }
        return totals, sliced

    def unsliced_fn_counts(self, flags) -> Dict[int, int]:
        """Per-function count of the records outside the slice.

        Fast path for :func:`repro.profiler.categorize.categorize_unnecessary`:
        one ``bincount`` over the ``fn`` column instead of a record pass.
        """
        flagged = np.frombuffer(bytes(flags), dtype=np.uint8).astype(bool)
        counts = np.bincount(np.asarray(self.fn, np.int64)[~flagged])
        present = np.nonzero(counts)[0]
        return dict(zip(present.tolist(), counts[present].tolist()))

    def control_columns(self) -> Tuple[List[int], List[int], List[int], List[int]]:
        """``(tid, pc, kind, fn)`` as lists: what the CFG builder reads.

        The forward pass (:func:`repro.profiler.cfg.build_cfgs`) runs on
        these, so it builds no record object.
        """
        return (
            self.tid.tolist(),
            self.pc.tolist(),
            self.kind.tolist(),
            self.fn.tolist(),
        )

    # -- conversions ---------------------------------------------------- #

    @staticmethod
    def from_store(store: TraceStore) -> "ColumnarTrace":
        """Build columns from an in-memory row store.

        Marker ids are assigned in first-use order — the same rule as the
        digest image (:func:`~repro.trace.store.serialize_trace`), so a
        store written, loaded and serialized gives the store's own image.
        The trace keeps a shallow copy of the row list
        as its materialized records, so a consumer that needs record
        objects (the CDG pass of :func:`~repro.profiler.vectorized.attach_index`
        on the v3 write path) reuses them instead of rebuilding them from
        the columns, and later appends to ``store`` do not leak in.
        """
        records = store.records()
        n = len(records)

        def column(name: str, dtype) -> np.ndarray:
            return np.fromiter(map(attrgetter(name), records), dtype, n)

        tid = column("tid", np.int64)
        pc = column("pc", np.uint64)
        kind = column("kind", np.uint8)
        fn = column("fn", np.int64)
        syscall1 = np.fromiter(
            (0 if r.syscall is None else r.syscall + 1 for r in records),
            np.int64,
            n,
        )
        markers: List[str] = []
        marker_ids: Dict[str, int] = {}
        marker1 = np.zeros(n, np.int64)
        for i, r in enumerate(records):
            if r.marker is not None:
                mid = marker_ids.get(r.marker)
                if mid is None:
                    mid = len(markers)
                    markers.append(r.marker)
                    marker_ids[r.marker] = mid
                marker1[i] = mid + 1

        def pool(name: str, dtype):
            lists = list(map(attrgetter(name), records))
            off = np.zeros(n + 1, np.int64)
            np.cumsum(np.fromiter(map(len, lists), np.int64, n), out=off[1:])
            flat = np.fromiter(chain.from_iterable(lists), dtype, int(off[-1]))
            return off, flat

        rr_off, rr = pool("regs_read", np.uint8)
        rw_off, rw = pool("regs_written", np.uint8)
        mr_off, mr = pool("mem_read", np.uint64)
        mw_off, mw = pool("mem_written", np.uint64)
        cols = ColumnarTrace(
            symbols=store.symbols,
            metadata=store.metadata,
            markers=markers,
            tid=tid,
            pc=pc,
            kind=kind,
            fn=fn,
            syscall1=syscall1,
            marker1=marker1,
            rr_off=rr_off,
            rr=rr,
            rw_off=rw_off,
            rw=rw,
            mr_off=mr_off,
            mr=mr,
            mw_off=mw_off,
            mw=mw,
        )
        cols._materialized = list(records)
        return cols


# --------------------------------------------------------------------- #
# Writer                                                                #
# --------------------------------------------------------------------- #


def _encode_names(names: List[str], count_st: struct.Struct) -> bytes:
    chunks = [count_st.pack(len(names))]
    for name in names:
        raw = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(raw)) + raw)
    return b"".join(chunks)


def serialize_columnar(trace: ColumnarTrace) -> bytes:
    """UCWA3 byte image of a columnar trace (index sections if attached)."""
    n = len(trace)
    counts = lambda off: np.diff(off)  # noqa: E731 - tiny local helper

    sections: List[Tuple[bytes, bytes]] = [
        (b"SYMS", _encode_names([name for _, name in trace.symbols], _U32)),
        (b"MRKS", _encode_names(trace.markers, _U32)),
        (
            b"CORE",
            _U64.pack(n)
            + _pack_array(trace.tid)
            + _pack_array(trace.pc)
            + _pack_array(trace.kind)
            + _pack_array(trace.fn)
            + _pack_array(trace.syscall1)
            + _pack_array(trace.marker1),
        ),
        (b"REGR", _pack_array(counts(trace.rr_off)) + _pack_array(trace.rr)),
        (b"REGW", _pack_array(counts(trace.rw_off)) + _pack_array(trace.rw)),
        (b"MEMR", _pack_array(counts(trace.mr_off)) + _pack_array(trace.mr)),
        (b"MEMW", _pack_array(counts(trace.mw_off)) + _pack_array(trace.mw)),
        (b"META", _encode_metadata(trace.metadata)),
    ]

    index = trace.index
    if index is not None:
        sections.append(
            (
                b"INVT",
                _U64.pack(n)
                + _pack_array(index.inv_id + 1)
                + _U64.pack(len(index.inv_call))
                + _pack_array(index.inv_call + 1)
                + _pack_array(index.inv_ret + 1)
                + _pack_array(index.inv_fn + 1),
            )
        )
        # Edge stream: per-source counts (ascending source order) plus
        # source-minus-target deltas in the stored (descending-source)
        # stream order.  Deltas are strictly positive because every edge
        # points to a lower index, so they pack tighter than raw targets.
        edge_counts = np.bincount(
            index.edge_src, minlength=n
        ) if n else np.zeros(0, np.int64)
        deltas = index.edge_src - index.edge_tgt
        sections.append(
            (
                b"EDGE",
                _U64.pack(n)
                + _U64.pack(len(index.edge_src))
                + _pack_array(edge_counts)
                + _pack_array(deltas),
            )
        )

    header = bytearray(_HEADER_V3)
    header += _U32.pack(len(sections))
    table_pos = len(header)
    header += b"\x00" * (_SECTION.size * len(sections))
    offset = len(header)
    payloads: List[bytes] = []
    for i, (tag, payload) in enumerate(sections):
        _SECTION.pack_into(header, table_pos + i * _SECTION.size, tag, offset, len(payload))
        payloads.append(payload)
        offset += len(payload)
    return bytes(header) + b"".join(payloads)


def save_columnar(trace: ColumnarTrace, path: Union[str, Path]) -> None:
    """Write a trace in UCWA3 form."""
    Path(path).write_bytes(serialize_columnar(trace))


def save_ucwa3(
    trace: Union[TraceStore, ColumnarTrace],
    path: Union[str, Path],
    with_index: bool = True,
) -> None:
    """Write a row store or a columnar trace as UCWA3.

    The one UCWA3 writer behind ``trace collect``, ``trace convert`` and
    the fleet load test: a row store is converted to columns, and the
    derived slice index (``INVT``/``EDGE``) is built unless the trace
    already carries one.  ``with_index=False`` writes no index, also
    when the input carries one (the input keeps it).
    """
    cols = trace if isinstance(trace, ColumnarTrace) else ColumnarTrace.from_store(trace)
    if not with_index:
        cols = copy.copy(cols)
        cols.index = None
    elif cols.index is None:
        from ..profiler.vectorized import attach_index

        attach_index(cols)
    save_columnar(cols, path)


# --------------------------------------------------------------------- #
# Reader                                                                #
# --------------------------------------------------------------------- #


def _read_section_table(buf, size: int, path: str) -> Dict[bytes, Tuple[int, int]]:
    if size < len(_HEADER_V3) or bytes(buf[: len(_HEADER_V3)]) != _HEADER_V3:
        raise ValueError(f"{path}: not a UCWA3 trace file")
    pos = len(_HEADER_V3)
    if pos + _U32.size > size:
        raise ValueError(f"{path}: truncated section table")
    (n_sections,) = _U32.unpack_from(buf, pos)
    pos += _U32.size
    table_end = pos + n_sections * _SECTION.size
    if table_end > size:
        raise ValueError(
            f"{path}: truncated section table "
            f"({n_sections} sections declared, file is {size} bytes)"
        )
    table: Dict[bytes, Tuple[int, int]] = {}
    for i in range(n_sections):
        tag, offset, length = _SECTION.unpack_from(buf, pos + i * _SECTION.size)
        if offset + length > size or offset < table_end:
            raise ValueError(
                f"{path}: section {tag.decode('ascii', 'replace')!r} "
                f"has bad extent (offset={offset}, length={length}, "
                f"file size={size})"
            )
        table[tag] = (offset, length)
    for tag in _REQUIRED:
        if tag not in table:
            raise ValueError(
                f"{path}: missing required section {tag.decode('ascii')!r}"
            )
    return table


def _decode_names(cur: _SectionCursor) -> List[str]:
    (count,) = cur.take(_U32)
    names: List[str] = []
    for _ in range(count):
        (length,) = cur.take(_U16)
        names.append(cur.take_str(length))
    return names


def _read_metadata(cur: _SectionCursor) -> TraceMetadata:
    """Decode the ``META`` section (:func:`~repro.trace.store._encode_metadata`)."""
    meta = TraceMetadata()
    for _ in range(cur.take(_U16)[0]):
        tid, length = cur.take(_THREAD_NAME)
        meta.thread_names[tid] = cur.take_str(length)
    for _ in range(cur.take(_U32)[0]):
        (index,) = cur.take(_U64)
        (n,) = cur.take(_U16)
        meta.tile_buffers.append((index, cur.take(struct.Struct(f"<{n}Q"))))
    (load_idx,) = cur.take(_I64)
    meta.load_complete_index = None if load_idx < 0 else load_idx
    for _ in range(cur.take(_U32)[0]):
        frame_id, begin, end, length = cur.take(_FRAME_SPAN)
        meta.frames.append(
            FrameSpan(
                frame_id=frame_id,
                kind=cur.take_str(length),
                begin=begin,
                end=None if end < 0 else end,
            )
        )
    return meta


def _offsets(counts: np.ndarray) -> np.ndarray:
    off = np.zeros(len(counts) + 1, np.int64)
    np.cumsum(counts, out=off[1:])
    return off


def _pool_sections(cur: _SectionCursor, n: int, tag: str, path: str):
    counts = cur.take_array()
    if len(counts) != n:
        raise ValueError(
            f"{path}: section {tag} holds {len(counts)} counts "
            f"for {n} records"
        )
    off = _offsets(counts)
    flat = cur.take_array()
    if len(flat) != int(off[-1]):
        raise ValueError(
            f"{path}: section {tag} pool length {len(flat)} "
            f"!= counts total {int(off[-1])}"
        )
    return off, flat


def parse_columnar(buf, path: str = "<bytes>") -> ColumnarTrace:
    """Decode a UCWA3 image from a buffer (bytes or mmap), zero-copy."""
    size = len(buf)
    table = _read_section_table(buf, size, path)

    def section(tag: bytes) -> _SectionCursor:
        offset, length = table[tag]
        return _SectionCursor(
            buf, offset, offset + length, f"{path}[{tag.decode('ascii')}]"
        )

    symbols = SymbolTable()
    for name in _decode_names(section(b"SYMS")):
        symbols.intern(name)
    markers = _decode_names(section(b"MRKS"))

    core = section(b"CORE")
    (n,) = core.take(_U64)
    tid = core.take_array()
    pc = core.take_array()
    kind = core.take_array()
    fn = core.take_array()
    syscall1 = core.take_array()
    marker1 = core.take_array()
    for name, col in (
        ("tid", tid), ("pc", pc), ("kind", kind),
        ("fn", fn), ("syscall", syscall1), ("marker", marker1),
    ):
        if len(col) != n:
            raise ValueError(
                f"{path}: CORE column {name} holds {len(col)} values "
                f"for {n} records"
            )
    if n and int(kind.max()) >= len(_KINDS):
        i = int(np.argmax(kind >= len(_KINDS)))
        raise ValueError(
            f"{path}: record {i} has unknown instruction kind {int(kind[i])}"
        )
    if n and int(marker1.max()) > len(markers):
        i = int(np.argmax(marker1 > len(markers)))
        raise ValueError(
            f"{path}: record {i} names marker {int(marker1[i]) - 1}, but the "
            f"marker table holds {len(markers)}"
        )

    rr_off, rr = _pool_sections(section(b"REGR"), n, "REGR", path)
    rw_off, rw = _pool_sections(section(b"REGW"), n, "REGW", path)
    mr_off, mr = _pool_sections(section(b"MEMR"), n, "MEMR", path)
    mw_off, mw = _pool_sections(section(b"MEMW"), n, "MEMW", path)

    metadata = _read_metadata(section(b"META"))

    index: Optional[SliceIndex] = None
    if b"INVT" in table and b"EDGE" in table:
        index = _decode_index(section(b"INVT"), section(b"EDGE"), n, path)

    return ColumnarTrace(
        symbols=symbols,
        metadata=metadata,
        markers=markers,
        tid=tid,
        pc=pc,
        kind=kind,
        fn=fn,
        syscall1=syscall1,
        marker1=marker1,
        rr_off=rr_off,
        rr=rr,
        rw_off=rw_off,
        rw=rw,
        mr_off=mr_off,
        mr=mr,
        mw_off=mw_off,
        mw=mw,
        index=index,
        source_path=None if path == "<bytes>" else path,
    )


def _decode_index(
    invt: _SectionCursor, edge: _SectionCursor, n: int, path: str
) -> SliceIndex:
    (n_inv_records,) = invt.take(_U64)
    if n_inv_records != n:
        raise ValueError(
            f"{path}: INVT built for {n_inv_records} records, trace has {n}"
        )
    inv_id = invt.take_array().astype(np.int64) - 1
    if len(inv_id) != n:
        raise ValueError(f"{path}: INVT inv_id holds {len(inv_id)} values for {n} records")
    (n_inv,) = invt.take(_U64)
    inv_call = invt.take_array().astype(np.int64) - 1
    inv_ret = invt.take_array().astype(np.int64) - 1
    inv_fn = invt.take_array().astype(np.int64) - 1
    if not (len(inv_call) == len(inv_ret) == len(inv_fn) == n_inv):
        raise ValueError(f"{path}: INVT invocation arrays disagree on length")

    (n_edge_records,) = edge.take(_U64)
    if n_edge_records != n:
        raise ValueError(
            f"{path}: EDGE built for {n_edge_records} records, trace has {n}"
        )
    (n_edges,) = edge.take(_U64)
    counts = edge.take_array()
    if len(counts) != n:
        raise ValueError(f"{path}: EDGE holds {len(counts)} counts for {n} records")
    if int(counts.sum()) != n_edges:
        raise ValueError(
            f"{path}: EDGE counts total {int(counts.sum())} != {n_edges} edges"
        )
    deltas = edge.take_array()
    if len(deltas) != n_edges:
        raise ValueError(
            f"{path}: EDGE delta array holds {len(deltas)} values for {n_edges} edges"
        )
    # Sources descend in the stored stream; counts are per ascending
    # source, so repeat over the reversed index range.
    src = np.repeat(np.arange(n - 1, -1, -1, dtype=np.int64), counts[::-1])
    tgt = src - deltas.astype(np.int64)
    if n_edges and (int(tgt.min()) < 0 or bool((tgt >= src).any())):
        raise ValueError(f"{path}: EDGE deltas out of range")
    return SliceIndex(
        inv_id=inv_id,
        inv_call=inv_call,
        inv_ret=inv_ret,
        inv_fn=inv_fn,
        edge_src=src,
        edge_tgt=tgt,
    )


def load_columnar(path: Union[str, Path]) -> ColumnarTrace:
    """Load a UCWA3 file, mmap-backed: columns are zero-copy views.

    Malformed input — wrong header (a UCWA2 or UCWA1 file included),
    truncated file, a section whose declared extent runs past the end, an
    unknown instruction kind, a marker id outside the marker table —
    raises ``ValueError`` with the path in the message.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        try:
            buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:  # zero-length file cannot be mapped
            raise ValueError(f"{path}: not a UCWA3 trace file (empty)") from None
    trace = parse_columnar(buf, str(path))
    trace.source_path = str(path)
    return trace


def convert_trace(
    src: Union[str, Path],
    dst: Union[str, Path],
    with_index: bool = True,
) -> None:
    """Re-encode a UCWA3 file (the ``trace convert`` subcommand),
    attaching the derived slice index unless ``with_index`` is False."""
    save_ucwa3(load_columnar(src), dst, with_index=with_index)
