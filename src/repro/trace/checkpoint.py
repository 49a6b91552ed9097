"""Serialized per-frame dataflow checkpoints (the ``.ckpt`` sidecar).

The incremental slice engine (``repro.profiler.incremental``) memoizes,
per region of the :mod:`~repro.trace.stream` tiling, the backward pass's
transfer function: the entry/exit dataflow frontiers, the region's flag
bytes, and the static write/branch footprint that justifies reusing the
run.  :class:`CheckpointImage` is the *container-level* view of that
state — frontiers as opaque byte strings, footprints as plain integer
tuples — so the trace layer can serialize, load, and lint checkpoints
without importing the profiler.

The profiler's live ``SliceCheckpoint`` converts to/from this image; the
``checkpoint-consistency`` lint check (``python -m repro.trace lint
TRACE --checkpoint=PATH``) validates an image against the trace it
claims to summarize: the region tiling must match the trace's frame
spans, and every summarized region's record count and
:func:`~repro.trace.stream.region_digest` must match the records it
covers.
"""

from __future__ import annotations

import os
import struct
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple, Union

CHECKPOINT_MAGIC = b"UCWACKPT1\n"

#: conventional sidecar suffix: ``trace.ucwa`` -> ``trace.ucwa.ckpt``
CHECKPOINT_SUFFIX = ".ckpt"

_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")

#: per-tid value groups: (tid, values) pairs
TidGroups = Tuple[Tuple[int, Tuple[int, ...]], ...]


@dataclass(frozen=True)
class RegionFactsImage:
    """Frontier-independent facts about one region's records."""

    n_records: int
    digest: str
    has_syscall: bool
    #: pcs executed in the region (checkpoint invalidation: a
    #: control-dependence change at any of them voids the region's memo)
    pcs: Tuple[int, ...]
    #: write/branch footprint (the delta pass-through precondition)
    mem_written: Tuple[int, ...]
    regs_written: TidGroups
    branch_pcs: TidGroups
    tids: Tuple[int, ...]


@dataclass(frozen=True)
class RegionMemoImage:
    """One memoized seedless run of a region's backward transfer."""

    #: serialized entry frontier (state in force at ``hi``)
    entry: bytes
    #: serialized exit frontier (unresolved dependences crossing ``lo``)
    exit: bytes
    #: per-record slice flags for ``[lo, hi)``
    flags: bytes
    #: retroactive RET flags landing at indices ``>= hi``
    extra: Tuple[Tuple[int, int], ...]
    #: per-tid minimum stack depth reached during the run
    min_depth: Tuple[Tuple[int, int], ...]


@dataclass
class CheckpointImage:
    """Container-level checkpoint: region tiling + facts + memos."""

    trace_digest: str = ""
    options_key: str = ""
    #: region identity tuples ``(lo, hi, frame_id, kind)`` in trace order
    regions: List[Tuple[int, int, int, str]] = field(default_factory=list)
    facts: Dict[int, RegionFactsImage] = field(default_factory=dict)
    memos: Dict[int, RegionMemoImage] = field(default_factory=dict)

    # -- serialization -------------------------------------------------- #

    def to_bytes(self) -> bytes:
        chunks: List[bytes] = [CHECKPOINT_MAGIC]
        _put_str(chunks, self.trace_digest)
        _put_str(chunks, self.options_key)
        chunks.append(_U32.pack(len(self.regions)))
        for lo, hi, frame_id, kind in self.regions:
            chunks.append(_U64.pack(lo))
            chunks.append(_U64.pack(hi))
            chunks.append(_I64.pack(frame_id))
            _put_str(chunks, kind)
        chunks.append(_U32.pack(len(self.facts)))
        for index in sorted(self.facts):
            facts = self.facts[index]
            chunks.append(_U32.pack(index))
            chunks.append(_U64.pack(facts.n_records))
            _put_str(chunks, facts.digest)
            chunks.append(_U8.pack(int(facts.has_syscall)))
            _put_u64s(chunks, facts.pcs)
            _put_u64s(chunks, facts.mem_written)
            _put_groups(chunks, facts.regs_written)
            _put_groups(chunks, facts.branch_pcs)
            _put_u64s(chunks, facts.tids)
        chunks.append(_U32.pack(len(self.memos)))
        for index in sorted(self.memos):
            memo = self.memos[index]
            chunks.append(_U32.pack(index))
            _put_blob(chunks, memo.entry)
            _put_blob(chunks, memo.exit)
            _put_blob(chunks, memo.flags)
            chunks.append(_U32.pack(len(memo.extra)))
            for ret_index, fn in memo.extra:
                chunks.append(_U64.pack(ret_index))
                chunks.append(_U64.pack(fn))
            _put_groups_scalar(chunks, memo.min_depth)
        return b"".join(chunks)

    @staticmethod
    def from_bytes(data: bytes, label: str = "<checkpoint>") -> "CheckpointImage":
        if not data.startswith(CHECKPOINT_MAGIC):
            raise ValueError(f"{label}: not a UCWA checkpoint file")
        cur = _Reader(data, len(CHECKPOINT_MAGIC), label)
        image = CheckpointImage(
            trace_digest=cur.take_str(), options_key=cur.take_str()
        )
        for _ in range(cur.take(_U32)):
            lo = cur.take(_U64)
            hi = cur.take(_U64)
            frame_id = cur.take(_I64)
            kind = cur.take_str()
            image.regions.append((lo, hi, frame_id, kind))
        for _ in range(cur.take(_U32)):
            index = cur.take(_U32)
            image.facts[index] = RegionFactsImage(
                n_records=cur.take(_U64),
                digest=cur.take_str(),
                has_syscall=bool(cur.take(_U8)),
                pcs=cur.take_u64s(),
                mem_written=cur.take_u64s(),
                regs_written=cur.take_groups(),
                branch_pcs=cur.take_groups(),
                tids=cur.take_u64s(),
            )
        for _ in range(cur.take(_U32)):
            index = cur.take(_U32)
            entry = cur.take_blob()
            exit_ = cur.take_blob()
            flags = cur.take_blob()
            extra = tuple(
                (cur.take(_U64), cur.take(_U64)) for _ in range(cur.take(_U32))
            )
            image.memos[index] = RegionMemoImage(
                entry=entry,
                exit=exit_,
                flags=flags,
                extra=extra,
                min_depth=cur.take_groups_scalar(),
            )
        return image

    def save(self, path: Union[str, Path]) -> None:
        """Write atomically (tmp + replace): concurrent readers never see
        a torn checkpoint, concurrent writers race benignly (last wins).

        Each writer fills its own temporary file (named by process and
        thread), so one writer's replace cannot move another's file away.
        """
        target = Path(path)
        tmp = target.with_name(f"{target.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            tmp.write_bytes(self.to_bytes())
            tmp.replace(target)
        finally:
            tmp.unlink(missing_ok=True)

    @staticmethod
    def load(path: Union[str, Path]) -> "CheckpointImage":
        return CheckpointImage.from_bytes(Path(path).read_bytes(), str(path))


def sidecar_path(trace_path: Union[str, Path]) -> Path:
    """The conventional checkpoint path next to a trace file."""
    path = Path(trace_path)
    return path.with_name(path.name + CHECKPOINT_SUFFIX)


# --------------------------------------------------------------------- #
# pack/unpack helpers                                                   #
# --------------------------------------------------------------------- #


def _put_str(chunks: List[bytes], text: str) -> None:
    raw = text.encode("utf-8")
    chunks.append(_U32.pack(len(raw)))
    chunks.append(raw)


def _put_blob(chunks: List[bytes], blob: bytes) -> None:
    chunks.append(_U32.pack(len(blob)))
    chunks.append(bytes(blob))


def _put_u64s(chunks: List[bytes], values: Tuple[int, ...]) -> None:
    chunks.append(_U32.pack(len(values)))
    if values:
        chunks.append(struct.pack(f"<{len(values)}Q", *values))


def _put_groups(chunks: List[bytes], groups: TidGroups) -> None:
    chunks.append(_U32.pack(len(groups)))
    for tid, values in groups:
        chunks.append(_U64.pack(tid))
        _put_u64s(chunks, values)


def _put_groups_scalar(
    chunks: List[bytes], pairs: Tuple[Tuple[int, int], ...]
) -> None:
    chunks.append(_U32.pack(len(pairs)))
    for tid, value in pairs:
        chunks.append(_U64.pack(tid))
        chunks.append(_I64.pack(value))


class _Reader:
    """Bounds-checked sequential reader (mirrors ``store._Cursor``)."""

    def __init__(self, data: bytes, pos: int, label: str) -> None:
        self.data = data
        self.pos = pos
        self.label = label

    def _need(self, n: int) -> None:
        if self.pos + n > len(self.data):
            raise ValueError(
                f"{self.label}: truncated checkpoint (need {n} bytes at "
                f"offset {self.pos}, have {len(self.data) - self.pos})"
            )

    def take(self, st: struct.Struct) -> int:
        self._need(st.size)
        (value,) = st.unpack_from(self.data, self.pos)
        self.pos += st.size
        return value

    def take_blob(self) -> bytes:
        n = self.take(_U32)
        self._need(n)
        raw = self.data[self.pos : self.pos + n]
        self.pos += n
        return raw

    def take_str(self) -> str:
        return self.take_blob().decode("utf-8")

    def take_u64s(self) -> Tuple[int, ...]:
        n = self.take(_U32)
        self._need(8 * n)
        values = struct.unpack_from(f"<{n}Q", self.data, self.pos)
        self.pos += 8 * n
        return values

    def take_groups(self) -> TidGroups:
        return tuple(
            (self.take(_U64), self.take_u64s()) for _ in range(self.take(_U32))
        )

    def take_groups_scalar(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(
            (self.take(_U64), self.take(_I64)) for _ in range(self.take(_U32))
        )
