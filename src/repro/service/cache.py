"""Content-addressed result cache (in-memory LRU over an on-disk store).

Cache keys follow the recipe in ``docs/profiling-service.md``::

    key = sha256({trace_digest, criteria, frame, engine, code_version})

* ``trace_digest`` content-addresses the *input*: sha256 of the trace
  file's bytes for path jobs, :func:`repro.trace.store.trace_digest` of
  the collected trace for workload jobs.  Editing a trace file therefore
  invalidates its entries automatically — there is no explicit
  invalidation API.
* ``criteria``/``frame``/``engine`` address the *question* asked of it.
* ``code_version`` addresses the *analyzer*: a digest over the profiler
  and trace package sources, so upgrading the slicer silently retires
  every stale entry instead of serving results the current code would
  not produce.

Reads check a bounded in-memory LRU first, then the on-disk JSON store
(``<dir>/results/<key>.json``); disk hits are promoted into the LRU.
Writes go straight through to disk, so a daemon restart keeps its warm
set.  Each file is sealed: a first line holding the sha256 of the
payload's canonical JSON (:func:`payload_seal`), then that JSON.  A read
whose seal does not match, or that finds no seal, is a miss and deletes
the file, so a damaged entry costs a recompute, never a wrong answer.
The workload→digest memo (:class:`WorkloadDigestMemo`) lets the server
answer a repeat *workload* submit without even re-running the workload:
the first run records the digest its deterministic trace hashed to, also
keyed by ``code_version``.

The disk tier has a lifecycle (docs/profiling-service.md, "Eviction and
TTL"): byte counts are tracked on every put/evict (``cache_bytes`` in
:meth:`ResultCache.stats`), an optional ``max_bytes`` budget evicts
least-recently-used entries on overflow, and an optional ``ttl_s``
expires entries by age since they were stored (an expired entry counts
as a miss and is unlinked on discovery).  On restart the store is
re-indexed from file sizes and mtimes, so budgets keep holding across
daemon generations.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union


def code_version() -> str:
    """Digest of the analyzer's source (profiler + trace + this package).

    Computed once per process over the sorted ``.py`` files of the
    packages whose behaviour determines a job's result.  Any edit to the
    slicer, the trace codecs, or the service's own job execution yields a
    new version and thereby a disjoint cache-key space.
    """
    global _CODE_VERSION
    version = _CODE_VERSION
    if version is None:
        import repro.profiler
        import repro.trace

        hasher = hashlib.sha256()
        roots = [
            Path(repro.profiler.__file__).parent,
            Path(repro.trace.__file__).parent,
            Path(__file__).parent,
        ]
        for root in roots:
            for source in sorted(root.glob("*.py")):
                hasher.update(source.name.encode("utf-8"))
                hasher.update(source.read_bytes())
        version = hasher.hexdigest()[:16]
        _CODE_VERSION = version
    return version


_CODE_VERSION: Optional[str] = None


def payload_seal(payload: Dict[str, Any]) -> str:
    """sha256 of a result payload's canonical JSON, the form a cache file
    and a warm-handoff entry carry it in."""
    return hashlib.sha256(_canonical(payload)).hexdigest()


def _canonical(payload: Dict[str, Any]) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


#: bytes of a cache file's seal line (64 hex digits and a newline)
_SEAL_LINE = 65


def _unseal(data: bytes) -> Dict[str, Any]:
    """The payload of a cache file; ``ValueError`` unless the seal matches."""
    seal, _, raw = data.partition(b"\n")
    if hashlib.sha256(raw).hexdigest().encode("ascii") != seal:
        raise ValueError("cache entry does not match its seal")
    payload = json.loads(raw)
    if not isinstance(payload, dict):
        raise ValueError("cache entry is not a JSON object")
    return payload


def cache_key(
    trace_digest: str,
    criteria: str,
    engine: str,
    frame: Optional[int] = None,
    version: Optional[str] = None,
) -> str:
    """The content-addressed result key (hex sha256)."""
    payload = {
        "trace_digest": trace_digest,
        "criteria": criteria,
        "engine": engine,
        "frame": frame,
        "code_version": version if version is not None else code_version(),
    }
    raw = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(raw).hexdigest()


class _DiskEntry:
    """Index record for one on-disk result (size + LRU/TTL clocks)."""

    __slots__ = ("size", "stored", "used")

    def __init__(self, size: int, stored: float, used: float) -> None:
        self.size = size
        self.stored = stored  # clock() at write time (TTL anchor)
        self.used = used  # clock() at last touch (LRU order)


class ResultCache:
    """Two-tier result cache: bounded LRU in front of a directory store.

    Thread-safe; every method may be called from connection handler and
    supervisor threads concurrently.  Hit/miss counters live here so the
    ``stats`` endpoint reports the cache's own truth rather than the
    server's bookkeeping.

    ``max_bytes`` bounds the disk tier (least-recently-used entries are
    evicted on overflow; the entry just written always survives its own
    put), ``ttl_s`` expires entries by age since storage.  The byte
    ledger counts each entry's payload JSON, not its seal line.
    ``clock`` is injectable for deterministic lifecycle tests and defaults
    to :func:`time.monotonic`.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        memory_entries: int = 128,
        max_bytes: Optional[int] = None,
        ttl_s: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if memory_entries < 1:
            raise ValueError(f"memory_entries must be >= 1, got {memory_entries}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError(f"ttl_s must be positive, got {ttl_s}")
        self._dir = Path(directory) / "results"
        self._dir.mkdir(parents=True, exist_ok=True)
        self._memory_entries = memory_entries
        self._max_bytes = max_bytes
        self._ttl_s = ttl_s
        self._clock = clock
        self._lru: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._lock = threading.Lock()
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        # Re-index whatever a previous daemon generation left on disk.
        # File age (wall-clock mtime) is translated onto the injected
        # clock's timeline so TTLs keep counting across restarts.
        self._index: Dict[str, _DiskEntry] = {}
        self._bytes = 0
        now = self._clock()
        wall = time.time()
        for path in sorted(self._dir.glob("*.json")):
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover — raced removal
                continue
            age = max(0.0, wall - stat.st_mtime)
            size = max(0, stat.st_size - _SEAL_LINE)
            entry = _DiskEntry(size, now - age, now - age)
            self._index[path.stem] = entry
            self._bytes += entry.size
        self._enforce_budget()

    def _path(self, key: str) -> Path:
        return self._dir / f"{key}.json"

    def _remember(self, key: str, payload: Dict[str, Any]) -> None:
        self._lru[key] = payload
        self._lru.move_to_end(key)
        while len(self._lru) > self._memory_entries:
            self._lru.popitem(last=False)

    def _drop_disk(self, key: str) -> None:
        """Remove one entry from both tiers and the byte ledger."""
        entry = self._index.pop(key, None)
        if entry is not None:
            self._bytes -= entry.size
        self._lru.pop(key, None)
        self._path(key).unlink(missing_ok=True)

    def _expired(self, key: str) -> bool:
        """TTL check; expires (and unlinks) the entry when stale."""
        if self._ttl_s is None:
            return False
        entry = self._index.get(key)
        if entry is None or self._clock() - entry.stored <= self._ttl_s:
            return False
        self._drop_disk(key)
        self.expirations += 1
        return True

    def _enforce_budget(self) -> None:
        """Evict least-recently-used entries until under ``max_bytes``."""
        if self._max_bytes is None:
            return
        while self._bytes > self._max_bytes and len(self._index) > 1:
            victim = min(self._index, key=lambda k: self._index[k].used)
            self._drop_disk(victim)
            self.evictions += 1

    def lookup(self, key: str) -> Optional[Tuple[Dict[str, Any], str]]:
        """Look up a result: ``(payload, tier)`` with tier ``"memory"`` or
        ``"disk"``, or None on miss.  Updates the hit counters."""
        with self._lock:
            if self._expired(key):
                self.misses += 1
                return None
            payload = self._lru.get(key)
            if payload is not None:
                self._lru.move_to_end(key)
                entry = self._index.get(key)
                if entry is not None:
                    entry.used = self._clock()
                self.memory_hits += 1
                return payload, "memory"
            payload = self._read_disk(key)
            if payload is None:
                self.misses += 1
                return None
            self.disk_hits += 1
            entry = self._index.get(key)
            if entry is not None:
                entry.used = self._clock()
            self._remember(key, payload)
            return payload, "disk"

    def _read_disk(self, key: str) -> Optional[Dict[str, Any]]:
        """A disk entry whose seal matches, or None.  A torn, damaged or
        unsealed entry is dropped so the slot heals on the next put."""
        try:
            return _unseal(self._path(key).read_bytes())
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self._drop_disk(key)
            return None

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Like :meth:`lookup` but returns the payload alone."""
        found = self.lookup(key)
        return None if found is None else found[0]

    def peek(self, key: str) -> Optional[Dict[str, Any]]:
        """Read a payload without counting hits/misses or touching LRU
        order (warm-handoff enumeration must not distort the stats); a
        damaged disk entry is dropped, as :meth:`lookup` drops it."""
        with self._lock:
            payload = self._lru.get(key)
            if payload is not None:
                return payload
            return self._read_disk(key)

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Store a result in both tiers (write-through)."""
        raw = _canonical(payload)
        sealed = hashlib.sha256(raw).hexdigest().encode("ascii") + b"\n" + raw
        with self._lock:
            old = self._index.get(key)
            if old is not None:
                self._bytes -= old.size
            tmp = self._path(key).with_suffix(".tmp")
            tmp.write_bytes(sealed)
            tmp.replace(self._path(key))
            now = self._clock()
            size = len(raw)
            self._index[key] = _DiskEntry(size, now, now)
            self._bytes += size
            self._remember(key, payload)
            self._enforce_budget()

    def contains(self, key: str) -> bool:
        """Presence check without counting a hit or a miss."""
        with self._lock:
            if self._ttl_s is not None:
                entry = self._index.get(key)
                if entry is not None and self._clock() - entry.stored > self._ttl_s:
                    return False
            return key in self._lru or self._path(key).exists()

    def keys_hot_first(self) -> list:
        """Every disk key, most-recently-used first (handoff order)."""
        with self._lock:
            return sorted(
                self._index, key=lambda k: self._index[k].used, reverse=True
            )

    def cache_bytes(self) -> int:
        """Current disk-tier footprint in bytes (ledger, not a re-scan)."""
        with self._lock:
            return self._bytes

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            lookups = self.memory_hits + self.disk_hits + self.misses
            hits = self.memory_hits + self.disk_hits
            return {
                "memory_hits": self.memory_hits,
                "disk_hits": self.disk_hits,
                "misses": self.misses,
                "hit_rate": hits / lookups if lookups else 0.0,
                "entries_memory": len(self._lru),
                "entries_disk": len(self._index),
                "cache_bytes": self._bytes,
                "max_bytes": self._max_bytes,
                "ttl_s": self._ttl_s,
                "evictions": self.evictions,
                "expirations": self.expirations,
            }


class WorkloadDigestMemo:
    """Persisted workload-name → trace-digest memo, keyed by code version.

    Registered workloads are deterministic, so once a workload has been
    traced under the current analyzer its digest — and therefore its
    result cache key — is known without re-running it.  The memo is the
    bridge that makes a *workload* submit as warm as a *trace-path* one.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self._path = Path(directory) / "workload-digests.json"
        self._lock = threading.Lock()
        self._memo: Dict[str, Dict[str, str]] = {}
        try:
            data = json.loads(self._path.read_text("utf-8"))
            if isinstance(data, dict):
                self._memo = data
        except (FileNotFoundError, OSError, json.JSONDecodeError):
            pass

    def get(self, workload: str) -> Optional[str]:
        with self._lock:
            return self._memo.get(code_version(), {}).get(workload)

    def put(self, workload: str, digest: str) -> None:
        with self._lock:
            self._memo.setdefault(code_version(), {})[workload] = digest
            tmp = self._path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self._memo, indent=2, sort_keys=True), "utf-8")
            tmp.replace(self._path)
