"""Trace storage: in-memory store plus a compact binary file format.

The paper stores instruction traces in stable storage and streams them in a
forward pass and a backward pass.  ``TraceStore`` is the in-memory
equivalent; :func:`save_trace` / :func:`load_trace` provide a durable binary
round trip so traces can be collected once and profiled many times (the
paper notes the computed CDG is likewise reusable across criteria).

Two on-disk formats share the ``.ucwa`` extension:

* **UCWA2** — records + symbols + metadata, including frame spans.  This
  is the *canonical* record-stream encoding: :func:`serialize_trace`
  always emits it and :func:`trace_digest` hashes it, whatever format the
  trace was loaded from.
* **UCWA3** — the columnar struct-of-arrays layout (:mod:`.columnar`),
  holding the same logical content plus optional derived index sections.

:func:`load_any_trace` dispatches on the header; :func:`load_trace` reads
the row-oriented v2 encoding only.

All v2 parsing goes through one shared *section walker*
(:class:`_RecordWalker`), one record decoder (:func:`_decode_records`) and
its length-only twin (:func:`_skip_record`), so the full loader, the epoch
streamer and the columnar ``META`` reader can never disagree about where
a section starts.  Malformed input of any kind
raises ``ValueError`` naming the file.
"""

from __future__ import annotations

import gc
import hashlib
import os
import struct
import threading
import time
from collections import Counter
from operator import attrgetter
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Tuple,
    Union,
)

from .records import FrameSpan, InstrKind, TraceRecord, TraceMetadata, new_record
from .symbols import SymbolTable

# Unnecessary Computations in Web Apps.  v2 ends the metadata with a
# frame-span section (the incremental pipeline's frame epochs).  v3 is the
# columnar format handled by :mod:`repro.trace.columnar`.
_HEADER = b"UCWA2\n"
_HEADER_V3 = b"UCWA3\n"
#: A record's fixed fields and its regs-read count: tid, pc, kind, fn,
#: syscall (-1 = none), marker id (-1 = none), number of registers read.
_REC_HEAD = struct.Struct("<IQBIhhB")


class TraceSource(Protocol):
    """Anything that can stand in for a trace when serializing/hashing.

    Both :class:`TraceStore` and :class:`repro.trace.columnar.ColumnarTrace`
    satisfy this structurally, so :func:`serialize_trace` and
    :func:`trace_digest` accept either — which is what makes the digest
    format-invariant.
    """

    symbols: SymbolTable
    metadata: TraceMetadata

    def __len__(self) -> int: ...

    def forward(self) -> Iterator[TraceRecord]: ...


class TraceStore:
    """An in-memory instruction trace with its symbol table and metadata."""

    def __init__(
        self, symbols: SymbolTable, metadata: Optional[TraceMetadata] = None
    ) -> None:
        self.symbols = symbols
        self.metadata = metadata if metadata is not None else TraceMetadata()
        self._records: List[TraceRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, idx: int) -> TraceRecord:
        return self._records[idx]

    def append(self, record: TraceRecord) -> int:
        """Append a record, returning its index in the trace."""
        self._records.append(record)
        return len(self._records) - 1

    def extend(self, records: Iterable[TraceRecord]) -> None:
        self._records.extend(records)

    def forward(self) -> Iterator[TraceRecord]:
        """Iterate records in execution order (the profiler's forward pass)."""
        return iter(self._records)

    def backward(self) -> Iterator[TraceRecord]:
        """Iterate records in reverse execution order (the backward pass)."""
        return reversed(self._records)

    def records(self) -> List[TraceRecord]:
        """Direct access to the underlying record list.

        Read-only use, except by the :class:`~repro.machine.tracer.Tracer`
        that owns the store: it appends its records here directly.
        """
        return self._records

    def span(self, lo: int, hi: int) -> List[TraceRecord]:
        """Records ``[lo, hi)`` in execution order (one epoch's worth)."""
        return self._records[lo:hi]

    #: A row store already holds its records, so a one-pass reader's
    #: ``materialize`` is ``span`` (a columnar trace's keeps nothing).
    materialize = span

    def control_columns(self) -> "ControlColumns":
        """``(tid, pc, kind, fn)`` of every record: what the CFG builder reads."""
        return record_columns(self._records)

    def thread_slice_counts(self, flags) -> Tuple[dict, dict]:
        """Per-thread (total, in-slice) record counts under slice ``flags``."""
        totals: dict = {}
        sliced: dict = {}
        for i, rec in enumerate(self._records):
            totals[rec.tid] = totals.get(rec.tid, 0) + 1
            if flags[i]:
                sliced[rec.tid] = sliced.get(rec.tid, 0) + 1
        return totals, sliced

    def unsliced_fn_counts(self, flags) -> Dict[int, int]:
        """Per-function count of the records outside the slice."""
        return Counter(
            rec.fn for flag, rec in zip(flags, self._records) if not flag
        )

    def thread_ids(self) -> List[int]:
        """Distinct thread ids present in the trace, sorted."""
        return sorted({r.tid for r in self._records})

    def frame_spans(self) -> List[FrameSpan]:
        """Completed frame spans (incremental pipeline epochs), in order."""
        return self.metadata.complete_frames()

    def instructions_per_thread(self) -> dict:
        """Map tid -> number of records executed by that thread."""
        counts: dict = {}
        for record in self._records:
            counts[record.tid] = counts.get(record.tid, 0) + 1
        return counts


#: ``(tid, pc, kind, fn)``, one iterable per field: the forward pass's
#: input (see :class:`repro.profiler.cfg.DynamicCFGBuilder`).
ControlColumns = Tuple[Iterable[int], Iterable[int], Iterable[int], Iterable[int]]


def record_columns(records: Iterable[TraceRecord]) -> ControlColumns:
    """The ``(tid, pc, kind, fn)`` columns of a record sequence.

    Each column is a lazy attribute read over the records, so feeding
    them copies nothing.
    """
    if not isinstance(records, (list, tuple)):
        records = list(records)
    tids, pcs, kinds, fns = (
        map(attrgetter(name), records) for name in ("tid", "pc", "kind", "fn")
    )
    return tids, pcs, kinds, fns


def epoch_bounds(n_records: int, epoch_size: int) -> List[Tuple[int, int]]:
    """Split ``range(n_records)`` into ``[lo, hi)`` epochs of ``epoch_size``.

    The final epoch absorbs the remainder, so it may be shorter (never
    longer) than ``epoch_size``.  An empty trace yields no epochs.
    """
    if epoch_size <= 0:
        raise ValueError(f"epoch_size must be positive, got {epoch_size}")
    return [
        (lo, min(lo + epoch_size, n_records))
        for lo in range(0, n_records, epoch_size)
    ]


def _pack_addr_list(addrs) -> bytes:
    return struct.pack("<H", len(addrs)) + struct.pack(f"<{len(addrs)}Q", *addrs)


def _encode_metadata(meta: TraceMetadata) -> bytes:
    """Canonical v2 byte image of the metadata tail (maps sorted).

    Shared by :func:`serialize_trace` and the columnar format's ``META``
    section, so both formats agree byte-for-byte on metadata encoding.
    ``notes`` are deliberately not serialized (collection-time scratch).
    """
    chunks: List[bytes] = []
    chunks.append(struct.pack("<H", len(meta.thread_names)))
    for tid, name in sorted(meta.thread_names.items()):
        raw = name.encode("utf-8")
        chunks.append(struct.pack("<IH", tid, len(raw)) + raw)
    chunks.append(struct.pack("<I", len(meta.tile_buffers)))
    for index, cells in meta.tile_buffers:
        chunks.append(struct.pack("<Q", index) + _pack_addr_list(cells))
    load_idx = -1 if meta.load_complete_index is None else meta.load_complete_index
    chunks.append(struct.pack("<q", load_idx))

    chunks.append(struct.pack("<I", len(meta.frames)))
    for span in meta.frames:
        end = -1 if span.end is None else span.end
        raw = span.kind.encode("utf-8")
        chunks.append(
            struct.pack("<IqqH", span.frame_id, span.begin, end, len(raw)) + raw
        )
    return b"".join(chunks)


def serialize_trace(store: TraceSource) -> bytes:
    """Canonical UCWA2 byte image of a trace (records + symbols + metadata).

    The encoding is deterministic for a given trace: symbol names are
    emitted in intern order, marker ids are assigned in first-use order,
    and metadata maps are sorted.  :func:`save_trace` writes exactly these
    bytes, and :func:`trace_digest` hashes them, so two stores holding the
    same trace always share one digest — including a
    :class:`~repro.trace.columnar.ColumnarTrace` holding the same records
    (the digest is format-invariant by construction).
    """
    markers: List[str] = []
    marker_ids: dict = {}
    chunks: List[bytes] = [_HEADER]

    names = [name for _, name in store.symbols]
    chunks.append(struct.pack("<I", len(names)))
    for name in names:
        raw = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(raw)) + raw)

    chunks.append(struct.pack("<Q", len(store)))
    for rec in store.forward():
        syscall = -1 if rec.syscall is None else rec.syscall
        if rec.marker is None:
            marker_id = -1
        else:
            marker_id = marker_ids.get(rec.marker)
            if marker_id is None:
                marker_id = len(markers)
                markers.append(rec.marker)
                marker_ids[rec.marker] = marker_id
        chunks.append(
            _REC_HEAD.pack(
                rec.tid, rec.pc, int(rec.kind), rec.fn, syscall, marker_id,
                len(rec.regs_read),
            )
            + bytes(rec.regs_read)
        )
        chunks.append(struct.pack("<B", len(rec.regs_written)) + bytes(rec.regs_written))
        chunks.append(_pack_addr_list(rec.mem_read))
        chunks.append(_pack_addr_list(rec.mem_written))

    chunks.append(struct.pack("<H", len(markers)))
    for marker in markers:
        raw = marker.encode("utf-8")
        chunks.append(struct.pack("<H", len(raw)) + raw)

    chunks.append(_encode_metadata(store.metadata))
    return b"".join(chunks)


def save_trace(store: TraceSource, path: Union[str, Path]) -> None:
    """Serialize a trace (records + symbols + metadata) in UCWA2 form."""
    Path(path).write_bytes(serialize_trace(store))


def trace_digest(store: TraceSource) -> str:
    """Stable content digest of a trace (hex sha256 of its byte image).

    Used as the content-addressing component of profiling-service cache
    keys: two submits over byte-identical traces share a digest, and any
    change to records, symbols, or metadata produces a new one.  The hash
    is always taken over the canonical UCWA2 image, so a trace and its
    columnar (UCWA3) conversion share one digest and service cache keys
    never churn across formats.
    """
    return hashlib.sha256(serialize_trace(store)).hexdigest()


def file_digest(path: Union[str, Path]) -> str:
    """Hex sha256 of a trace file's raw bytes.

    For an on-disk job this is the cache-key digest: cheaper than parsing
    the trace, and any edit to the file (even a metadata-only one)
    invalidates dependent cache entries.  Note a v2 file and its v3
    re-save hash differently — the digest addresses *bytes*, not the
    decoded record set (use :func:`trace_digest` for format-invariant
    identity).
    """
    hasher = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            hasher.update(block)
    return hasher.hexdigest()


#: What identifies one version of a file's bytes without reading them:
#: ``(st_dev, st_ino, st_size, st_mtime_ns, st_ctime_ns)``.
FileIdentity = Tuple[int, int, int, int, int]


def file_identity(path: Union[str, Path]) -> FileIdentity:
    """The stat fields a rewrite of ``path`` changes (see :data:`FileIdentity`).

    An in-place rewrite that keeps the size and restores the mtime still
    moves the ctime, which no user call can set back; a file replaced by
    another (``os.replace``) has a new inode.
    """
    st = os.stat(path)
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)


#: git's "racy clean" window: a file whose mtime or ctime is this recent
#: may be rewritten within the same timestamp granule, leaving every
#: :data:`FileIdentity` field as it was, so its digest is not memoized.
RACY_WINDOW_NS = 2_000_000_000


class FileDigestMemo:
    """:func:`file_digest` memoized per path, valid while the file's
    :data:`FileIdentity` is unchanged.

    A lookup hits only when the path's identity equals the one stored
    with its digest, so a rewritten or replaced file is hashed again.
    A file whose mtime or ctime lies within :data:`RACY_WINDOW_NS` of
    ``clock()`` is hashed on every call and never stored, nor is one
    whose identity moved while it was hashed.  One entry per path, so a
    long-lived memo does not grow with rewrites.  Hashing happens
    outside the memo's lock.

    ``clock`` returns wall-clock nanoseconds (the stat timestamps' scale);
    a test passes its own to age a file without sleeping.
    """

    def __init__(self, clock: Callable[[], int] = time.time_ns) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: Dict[str, Tuple[FileIdentity, str]] = {}

    def digest(self, path: Union[str, Path]) -> str:
        """Hex sha256 of the bytes at ``path`` (see :func:`file_digest`)."""
        key = os.fspath(path)
        identity = file_identity(key)
        with self._lock:
            entry = self._entries.get(key)
        if entry is not None and entry[0] == identity:
            return entry[1]
        digest = file_digest(key)
        now = self._clock()
        mtime_ns, ctime_ns = identity[3], identity[4]
        if (
            now - mtime_ns >= RACY_WINDOW_NS
            and now - ctime_ns >= RACY_WINDOW_NS
            and file_identity(key) == identity
        ):
            with self._lock:
                self._entries[key] = (identity, digest)
        return digest


_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_THREAD_NAME = struct.Struct("<IH")
_FRAME_SPAN = struct.Struct("<IqqH")
#: Byte offset of the kind field inside ``_REC_HEAD`` (after tid, pc).
_KIND_OFFSET = 12

#: ``InstrKind`` by encoded value: the decoder's kind lookup table.
_KINDS: Tuple[InstrKind, ...] = tuple(InstrKind(v) for v in range(len(InstrKind)))


class _AddrStructs(Dict[int, struct.Struct]):
    """``n -> struct.Struct("<nQ")``: one compiled struct per list length."""

    def __missing__(self, n: int) -> struct.Struct:
        st = self[n] = struct.Struct(f"<{n}Q")
        return st


_ADDRS = _AddrStructs()


class _Cursor:
    """Tiny sequential unpacker over a bytes object.

    Every read is bounds-checked: running off the end of the buffer raises
    ``ValueError`` carrying ``label`` (the file path), never a bare
    ``struct.error`` or a silently-truncated byte string.  Offsets are
    positions in ``data`` (the whole file image, header included).
    """

    def __init__(self, data: bytes, label: str = "<trace>", pos: int = 0) -> None:
        self.data = data
        self.pos = pos
        self.label = label

    def _need(self, n: int) -> None:
        if self.pos + n > len(self.data):
            raise ValueError(
                f"{self.label}: truncated trace file "
                f"(need {n} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos})"
            )

    def take(self, st: struct.Struct) -> tuple:
        self._need(st.size)
        values = st.unpack_from(self.data, self.pos)
        self.pos += st.size
        return values

    def take_int(self, st: struct.Struct) -> int:
        return self.take(st)[0]

    def take_bytes(self, n: int) -> bytes:
        self._need(n)
        raw = self.data[self.pos : self.pos + n]
        self.pos += n
        return raw

    def skip(self, n: int) -> None:
        self._need(n)
        self.pos += n

    def take_str(self, n: int) -> str:
        at = self.pos
        raw = self.take_bytes(n)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(
                f"{self.label}: invalid UTF-8 string at offset {at}"
            ) from None

    def take_addrs(self) -> Tuple[int, ...]:
        """A u16 count followed by that many u64 addresses."""
        n = self.take_int(_U16)
        return self.take(_ADDRS[n]) if n else ()


def _decode_records(
    cur: _Cursor, count: int
) -> Tuple[List[TraceRecord], List[Tuple[int, int]]]:
    """Decode ``count`` records at the cursor: the one record decoder.

    Returns the records in order plus a ``(position, marker id)`` pair for
    every record that names a marker.  Marker names live in a table after
    the record section, so those records come back with ``marker=None``
    and :func:`_patch_markers` fills the names in once the table is read.

    One pass: precompiled structs, kinds from a lookup table, records
    built positionally by :func:`~repro.trace.records.new_record`.  The reads enforce the bounds: every
    ``unpack_from`` and byte index raises when it would run past the end,
    and every slice is followed by such a read within the same record.
    Any failure is re-raised as a ``ValueError`` naming the file, the
    record and its offset.

    The cyclic garbage collector is paused for the pass: records and
    their operand tuples cannot form cycles, so the collections their
    allocation burst would trigger only rescan the growing record list
    (about a fifth of the pass on bing).
    """
    data = cur.data
    pos = cur.pos
    head = _REC_HEAD.unpack_from
    head_size = _REC_HEAD.size
    u16 = _U16.unpack_from
    addrs = _ADDRS
    kinds = _KINDS
    record = new_record
    records: List[TraceRecord] = []
    append = records.append
    marked: List[Tuple[int, int]] = []
    i = start = 0
    collecting = gc.isenabled()
    gc.disable()
    try:
        for i in range(count):
            start = pos
            tid, pc, kind, fn, syscall, marker_id, n = head(data, pos)
            pos += head_size
            if n:
                regs_read = tuple(data[pos : pos + n])
                pos += n
            else:
                regs_read = ()
            n = data[pos]
            pos += 1
            if n:
                regs_written = tuple(data[pos : pos + n])
                pos += n
            else:
                regs_written = ()
            (n,) = u16(data, pos)
            pos += 2
            if n:
                mem_read = addrs[n].unpack_from(data, pos)
                pos += 8 * n
            else:
                mem_read = ()
            (n,) = u16(data, pos)
            pos += 2
            if n:
                mem_written = addrs[n].unpack_from(data, pos)
                pos += 8 * n
            else:
                mem_written = ()
            if marker_id >= 0:
                marked.append((i, marker_id))
            append(
                record(
                    tid, pc, kinds[kind], fn, regs_read, regs_written,
                    mem_read, mem_written, None if syscall < 0 else syscall,
                )
            )
    except (struct.error, IndexError):
        raise _bad_record(cur, i, start) from None
    finally:
        if collecting:
            gc.enable()
    cur.pos = pos
    return records, marked


def _bad_record(cur: _Cursor, index: int, start: int) -> ValueError:
    """The error for a record :func:`_decode_records` could not read."""
    data = cur.data
    if start + _REC_HEAD.size <= len(data):
        kind = data[start + _KIND_OFFSET]
        if kind >= len(_KINDS):
            return ValueError(
                f"{cur.label}: record {index} at offset {start} has "
                f"unknown instruction kind {kind}"
            )
    return ValueError(
        f"{cur.label}: truncated trace file (record {index} at offset "
        f"{start} runs past the end of the {len(data)}-byte file)"
    )


def _patch_markers(
    records: List[TraceRecord],
    marked: List[Tuple[int, int]],
    markers: List[str],
    label: str,
) -> None:
    """Name the marker records :func:`_decode_records` returned unnamed."""
    for pos, marker_id in marked:
        if marker_id >= len(markers):
            raise ValueError(
                f"{label}: a record names marker {marker_id}, but the "
                f"marker table holds {len(markers)}"
            )
        r = records[pos]
        records[pos] = new_record(
            r.tid, r.pc, r.kind, r.fn, r.regs_read, r.regs_written,
            r.mem_read, r.mem_written, r.syscall, markers[marker_id],
        )


def _skip_record(cur: _Cursor) -> None:
    """Advance the cursor past one record using only its length fields.

    Walks the same fields in the same order as :func:`_decode_records`, so
    the two can never disagree about a record's extent.
    """
    cur.skip(_REC_HEAD.size - 1)
    cur.skip(cur.take_int(_U8))
    cur.skip(cur.take_int(_U8))
    cur.skip(8 * cur.take_int(_U16))
    cur.skip(8 * cur.take_int(_U16))


def _read_metadata(cur: _Cursor, meta: TraceMetadata) -> None:
    """Decode the metadata tail (shared with the columnar ``META`` section)."""
    for _ in range(cur.take_int(_U16)):
        tid, length = cur.take(_THREAD_NAME)
        meta.thread_names[tid] = cur.take_str(length)
    for _ in range(cur.take_int(_U32)):
        index = cur.take_int(_U64)
        meta.tile_buffers.append((index, cur.take_addrs()))
    load_idx = cur.take_int(_I64)
    meta.load_complete_index = None if load_idx < 0 else load_idx
    for _ in range(cur.take_int(_U32)):
        frame_id, begin, end, length = cur.take(_FRAME_SPAN)
        meta.frames.append(
            FrameSpan(
                frame_id=frame_id,
                kind=cur.take_str(length),
                begin=begin,
                end=None if end < 0 else end,
            )
        )


class _RecordWalker:
    """Positioned view over a v2 file image: one walker per section.

    The walker owns all knowledge of section order (symbols, records,
    markers, metadata); :func:`load_trace` and the epoch streamer drive
    the same instance methods, so a format change cannot desync them.
    """

    def __init__(self, data: bytes, path: str) -> None:
        if data.startswith(_HEADER_V3):
            raise ValueError(
                f"{path}: UCWA3 columnar trace; use load_any_trace() or "
                f"repro.trace.columnar.load_columnar()"
            )
        if not data.startswith(_HEADER):
            raise ValueError(f"{path}: not a UCWA trace file")
        self.path = path
        self.cur = _Cursor(data, label=str(path), pos=len(_HEADER))
        self.n_records = 0

    def read_symbols(self) -> SymbolTable:
        symbols = SymbolTable()
        cur = self.cur
        for _ in range(cur.take_int(_U32)):
            symbols.intern(cur.take_str(cur.take_int(_U16)))
        self.n_records = cur.take_int(_U64)
        return symbols

    def skip_records(self) -> None:
        """Length-only pass over the record section (to reach the markers)."""
        for _ in range(self.n_records):
            _skip_record(self.cur)

    def read_markers(self) -> List[str]:
        cur = self.cur
        return [cur.take_str(cur.take_int(_U16)) for _ in range(cur.take_int(_U16))]

    def read_metadata(self, meta: TraceMetadata) -> None:
        _read_metadata(self.cur, meta)


def load_trace(path: Union[str, Path]) -> TraceStore:
    """Load a v2 trace previously written by :func:`save_trace`.

    Malformed input — wrong header, truncated file, a length field that
    runs past the end, an unknown instruction kind, a marker id outside
    the marker table — raises ``ValueError`` with the path in the
    message.  For format-dispatching loads (v3 included) use
    :func:`load_any_trace`.
    """
    data = Path(path).read_bytes()
    walker = _RecordWalker(data, str(path))
    symbols = walker.read_symbols()
    records, marked = _decode_records(walker.cur, walker.n_records)
    _patch_markers(records, marked, walker.read_markers(), walker.path)

    store = TraceStore(symbols)
    store.extend(records)
    walker.read_metadata(store.metadata)
    return store


def load_any_trace(path: Union[str, Path]):
    """Load a trace of any UCWA format, dispatching on the header.

    Returns a :class:`TraceStore` for v2 files and a
    :class:`repro.trace.columnar.ColumnarTrace` for v3 files.  Both satisfy
    the trace API the profiler consumes (``forward()``, ``records()``,
    ``metadata``, ``symbols``, indexing), so callers can stay
    format-agnostic.
    """
    with open(path, "rb") as fh:
        head = fh.read(len(_HEADER_V3))
    if head == _HEADER_V3:
        from .columnar import load_columnar

        return load_columnar(path)
    return load_trace(path)
