"""Chunked streaming trace upload: bounded memory on both ends.

A client submits a trace it holds on disk without either side ever
materializing the full UCWA image in memory:

* the **client** reads the file :data:`CHUNK_SIZE_DEFAULT` bytes at a
  time (:func:`iter_file_chunks`) and ships each chunk as one
  ``trace-chunk`` protocol frame, keeping a running sha256;
* the **server** appends each chunk to a spool file in its upload
  registry and keeps its own running sha256 — per-connection state is
  one open file handle plus one hash context, independent of trace
  size;
* ``trace-end`` carries the client's digest.  The server accepts the
  upload only if its running digest matches (``digest-mismatch``
  otherwise) and the spooled bytes start with the UCWA3 header
  (``bad-upload`` otherwise: a UCWA2 file is refused like any other
  non-trace), then atomically renames the spool to
  ``uploads/<digest>.ucwa``.

The registered file is content-addressed by construction: its name *is*
its sha256, which is exactly the ``file_digest`` the result cache keys
on.  A later ``trace_ref`` job spec therefore needs no re-hash, and an
incremental-engine job slices the file through the bounded-memory
:class:`~repro.trace.stream.EpochStream`, so the decoded record list is
never fully resident either.
"""

from __future__ import annotations

import hashlib
import os
import uuid
from pathlib import Path
from typing import BinaryIO, Iterator, List, Optional, Union

from ...trace.store import _HEADER_V3

#: Default client-side read/ship granularity.  Big enough that framing
#: overhead is noise, small enough that per-connection memory is trivial.
CHUNK_SIZE_DEFAULT = 256 * 1024

#: Hard per-chunk cap enforced server-side (decoded bytes).  A chunk
#: above this is a protocol violation, not a tuning knob.
MAX_CHUNK_BYTES = 8 * 1024 * 1024


def upload_path(directory: Union[str, Path], digest: str) -> Path:
    """Registry path of an uploaded trace (content-addressed by digest)."""
    return Path(directory) / f"{digest}.ucwa"


def iter_file_chunks(
    path: Union[str, Path], chunk_size: int = CHUNK_SIZE_DEFAULT
) -> Iterator[bytes]:
    """Yield a file's bytes in bounded chunks (never the whole file)."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(chunk_size)
            if not chunk:
                return
            yield chunk


class UploadError(Exception):
    """A rejected upload; ``code`` is a stable protocol error code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


class UploadSession:
    """Server-side state of one in-flight chunked upload.

    Owned by a single connection handler; a connection that drops
    mid-upload aborts its session, which removes the partial spool file
    (truncated uploads never register).
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._spool = self._dir / f".part-{uuid.uuid4().hex}"
        self._fh: Optional[BinaryIO] = open(self._spool, "wb")
        self._hasher = hashlib.sha256()
        self.received = 0
        self.chunks = 0

    def append(self, data: bytes) -> None:
        """Spool one chunk (running digest, O(chunk) memory)."""
        from .. import protocol

        if self._fh is None:
            raise UploadError(protocol.ERR_BAD_UPLOAD, "upload already finished")
        if len(data) > MAX_CHUNK_BYTES:
            raise UploadError(
                protocol.ERR_BAD_UPLOAD,
                f"chunk of {len(data)} bytes exceeds the "
                f"{MAX_CHUNK_BYTES}-byte limit",
            )
        self._fh.write(data)
        self._hasher.update(data)
        self.received += len(data)
        self.chunks += 1

    def finish(self, claimed_digest: str) -> "FinishedUpload":
        """Verify the running digest and register the spooled bytes."""
        from .. import protocol

        if self._fh is None:
            raise UploadError(protocol.ERR_BAD_UPLOAD, "upload already finished")
        self._fh.close()
        self._fh = None
        digest = self._hasher.hexdigest()
        if digest != claimed_digest:
            self._spool.unlink(missing_ok=True)
            raise UploadError(
                protocol.ERR_DIGEST_MISMATCH,
                f"upload digest {digest[:16]}… does not match the claimed "
                f"{str(claimed_digest)[:16]}… after {self.received} bytes",
            )
        with open(self._spool, "rb") as fh:
            magic = fh.read(len(_HEADER_V3))
        if magic != _HEADER_V3:
            self._spool.unlink(missing_ok=True)
            raise UploadError(
                protocol.ERR_BAD_UPLOAD,
                "uploaded bytes are not a UCWA3 trace (bad magic)",
            )
        final = upload_path(self._dir, digest)
        os.replace(self._spool, final)
        return FinishedUpload(digest=digest, path=final, size=self.received)

    def abort(self) -> None:
        """Drop the session and its partial spool file (idempotent)."""
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:  # pragma: no cover
                pass
            self._fh = None
        self._spool.unlink(missing_ok=True)


class FinishedUpload:
    """A verified, registered upload."""

    __slots__ = ("digest", "path", "size")

    def __init__(self, digest: str, path: Path, size: int) -> None:
        self.digest = digest
        self.path = path
        self.size = size


class UploadStore:
    """The server's registry of verified uploads (``uploads/<digest>.ucwa``)."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def session(self) -> UploadSession:
        return UploadSession(self.directory)

    def has(self, digest: str) -> bool:
        return upload_path(self.directory, digest).exists()

    def path(self, digest: str) -> Path:
        return upload_path(self.directory, digest)

    def digests(self) -> List[str]:
        return sorted(p.stem for p in self.directory.glob("*.ucwa"))
