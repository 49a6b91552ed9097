"""Trace storage: the in-memory store, trace identity and file loading.

The paper stores instruction traces in stable storage and streams them in a
forward pass and a backward pass.  ``TraceStore`` is the in-memory
equivalent.  On disk a trace is a UCWA3 file (:mod:`.columnar`, written by
:func:`repro.trace.columnar.save_ucwa3`), which :func:`load_any_trace`
reads, so traces can be collected once and profiled many times (the paper
notes the computed CDG is likewise reusable across criteria).

:func:`serialize_trace` builds a trace's *digest image*: the byte layout
of the retired row-oriented UCWA2 format, kept only because
:func:`trace_digest` is defined as its sha256.  Nothing reads it back.
The metadata encoding inside it (:func:`_encode_metadata`) is also the
UCWA3 ``META`` section.
"""

from __future__ import annotations

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

from .records import FrameSpan, TraceRecord, TraceMetadata
from .symbols import SymbolTable

#: The digest image's first bytes (the retired UCWA2 file header).
_DIGEST_HEADER = b"UCWA2\n"
#: The header of a UCWA3 file, the one on-disk format
#: (:mod:`repro.trace.columnar`).
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
    """Canonical byte image of the metadata tail (maps sorted).

    Shared by :func:`serialize_trace` and the columnar format's ``META``
    section, so the two agree byte-for-byte on metadata encoding.
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
    """The digest image of a trace (records + symbols + metadata).

    The image is the layout of the old UCWA2 file format, byte for byte,
    kept only as the definition of :func:`trace_digest`; no reader of it
    is left.  The encoding is deterministic for a given trace: symbol
    names are emitted in intern order, marker ids are assigned in
    first-use order, and metadata maps are sorted.  So two stores holding
    the same trace always share one digest — including a
    :class:`~repro.trace.columnar.ColumnarTrace` holding the same records
    (the digest is format-invariant by construction).
    """
    markers: List[str] = []
    marker_ids: dict = {}
    chunks: List[bytes] = [_DIGEST_HEADER]

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


def trace_digest(store: TraceSource) -> str:
    """Stable content digest of a trace (hex sha256 of its byte image).

    Used as the content-addressing component of profiling-service cache
    keys: two submits over byte-identical traces share a digest, and any
    change to records, symbols, or metadata produces a new one.  The hash
    is taken over the digest image (:func:`serialize_trace`), so a row
    store and its columnar (UCWA3) conversion, indexed or not, share one
    digest.  That image is the old UCWA2 file layout, kept only as this
    digest's definition; redefining it moves every pinned digest and
    service cache key.
    """
    return hashlib.sha256(serialize_trace(store)).hexdigest()


def file_digest(path: Union[str, Path]) -> str:
    """Hex sha256 of a trace file's raw bytes.

    For an on-disk job this is the cache-key digest: cheaper than parsing
    the trace, and any edit to the file (even a metadata-only one)
    invalidates dependent cache entries.  Note an indexed file and its
    ``--no-index`` conversion hash differently — the digest addresses
    *bytes*, not the decoded record set (use :func:`trace_digest` for
    format-invariant identity).
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


def load_any_trace(path: Union[str, Path]):
    """Load a UCWA3 trace file as a
    :class:`repro.trace.columnar.ColumnarTrace`.

    The name predates UCWA3 being the one on-disk format; it stays the
    loader every CLI and the service call.  numpy is imported only here,
    on first use, so the row-store paths never pay for it.  Malformed
    input raises ``ValueError`` naming the file (see
    :func:`repro.trace.columnar.load_columnar`).
    """
    from .columnar import load_columnar

    return load_columnar(path)
