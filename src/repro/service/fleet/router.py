"""Shard-aware fleet client: route each question to the shard owning it.

:class:`FleetClient` holds the shared
:class:`~repro.service.fleet.ring.FleetConfig` and derives, for every
submit, the content-addressed cache key (``sha256(trace digest ×
criteria × engine × frame × code_version)``) and that key's ring owner.
Submits go straight to the owner, so repeat questions always land where
the warm entry lives; trace bytes are streamed to a shard at most once
per (shard, digest) pair and referenced by ``trace_ref`` afterwards.

When a shard dies, the client walks
:meth:`~repro.service.fleet.ring.HashRing.preference` — each next entry
is exactly the shard that would own the key if the dead ones left the
ring, so the failover target agrees with where a post-departure drain
would have handed the entry.  Servers apply the same routing on their
side (misrouted submits are forwarded), so even a client that talks to
an arbitrary shard still hits the warm copy; this client just skips
the extra hop.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from ..cache import cache_key
from ..client import ServiceClient, ServiceError
from ..metrics import merge_snapshots
from ...trace.store import FileDigestMemo
from .ring import FleetConfig, HashRing


class FleetClient:
    """Submit jobs to an N-shard fleet by content-addressed ownership."""

    def __init__(
        self,
        fleet: FleetConfig,
        auth_token: Optional[str] = None,
        connect_timeout_s: float = 5.0,
    ) -> None:
        self._fleet = fleet
        self._ring: HashRing = fleet.ring()
        self._clients: Dict[str, ServiceClient] = {
            info.id: ServiceClient(
                info.endpoint,
                connect_timeout_s=connect_timeout_s,
                auth_token=auth_token,
            )
            for info in fleet.shards
        }
        self._lock = threading.Lock()
        #: (shard id, digest) pairs already streamed — one upload per
        #: shard per trace, then every submit is a trace_ref.
        self._uploaded: Set[Tuple[str, str]] = set()
        self._digests = FileDigestMemo()

    @property
    def fleet(self) -> FleetConfig:
        return self._fleet

    @property
    def ring(self) -> HashRing:
        return self._ring

    def client(self, shard_id: str) -> ServiceClient:
        return self._clients[shard_id]

    # -- placement ------------------------------------------------------ #

    def key_for(
        self,
        digest: str,
        criteria: str = "pixels",
        engine: str = "auto",
        frame: Optional[int] = None,
    ) -> str:
        return cache_key(digest, criteria, engine, frame)

    def owner_for(
        self,
        digest: str,
        criteria: str = "pixels",
        engine: str = "auto",
        frame: Optional[int] = None,
    ) -> str:
        """The shard owning one (digest × criteria × engine × frame) key."""
        return self._ring.owner(self.key_for(digest, criteria, engine, frame))

    def trace_digest(self, path: Union[str, Path]) -> str:
        """sha256 of the trace file's current bytes.

        Memoized per absolute path while the file's stat identity holds
        (:class:`~repro.trace.store.FileDigestMemo`), so a rewritten file
        is hashed again and submitted under its new digest.
        """
        return self._digests.digest(Path(path).resolve())

    # -- submits -------------------------------------------------------- #

    def submit_trace(
        self,
        path: Union[str, Path],
        criteria: str = "pixels",
        engine: str = "auto",
        frame: Optional[int] = None,
        wait: bool = True,
        timeout_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Route one trace-file job to its owner (failing over on death)."""
        digest = self.trace_digest(path)
        key = self.key_for(digest, criteria, engine, frame)
        spec: Dict[str, Any] = {
            "trace_ref": digest,
            "criteria": criteria,
            "engine": engine,
        }
        if frame is not None:
            spec["frame"] = frame
        last_error: Optional[ServiceError] = None
        for shard_id in self._ring.preference(key):
            client = self._clients[shard_id]
            try:
                self._ensure_uploaded(shard_id, client, digest, path)
                return client.submit(spec, wait=wait, timeout_s=timeout_s)
            except ServiceError as err:
                if err.code in ("unreachable", "transport"):
                    last_error = err  # dead shard: next preference entry
                    continue
                raise
        assert last_error is not None  # preference() is never empty
        raise last_error

    def submit_workload(
        self,
        workload: str,
        criteria: str = "pixels",
        engine: str = "auto",
        frame: Optional[int] = None,
        wait: bool = True,
        timeout_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Route a workload job deterministically (digest unknown up front).

        The routing key is a pseudo-key over the job identity, so every
        client sends repeats of the same question to the same shard —
        which is what makes the shard's digest memo and cache effective.
        After the first run the server replicates the result to the true
        digest-keyed owner, so digest-routed lookups hit too.
        """
        pseudo_key = f"workload:{workload}:{criteria}:{engine}:{frame}"
        spec: Dict[str, Any] = {
            "workload": workload,
            "criteria": criteria,
            "engine": engine,
        }
        if frame is not None:
            spec["frame"] = frame
        last_error: Optional[ServiceError] = None
        for shard_id in self._ring.preference(pseudo_key):
            try:
                return self._clients[shard_id].submit(
                    spec, wait=wait, timeout_s=timeout_s
                )
            except ServiceError as err:
                if err.code in ("unreachable", "transport"):
                    last_error = err
                    continue
                raise
        assert last_error is not None
        raise last_error

    def _ensure_uploaded(
        self,
        shard_id: str,
        client: ServiceClient,
        digest: str,
        path: Union[str, Path],
    ) -> None:
        with self._lock:
            if (shard_id, digest) in self._uploaded:
                return
        # Outside the lock: a concurrent duplicate upload is harmless
        # (content-addressed, atomically renamed) and cheaper than
        # serializing every submit behind one upload.
        if not client.has_trace(digest):
            client.upload_trace(path)
        with self._lock:
            self._uploaded.add((shard_id, digest))

    # -- fleet-wide views ----------------------------------------------- #

    def stats(self) -> Dict[str, Any]:
        """Per-shard snapshots plus the merged fleet aggregate.

        Unreachable shards are reported by id under ``unreachable``
        rather than failing the whole view.
        """
        per_shard: Dict[str, Any] = {}
        unreachable: List[str] = []
        for shard_id, client in self._clients.items():
            try:
                per_shard[shard_id] = client.stats()
            except ServiceError:
                unreachable.append(shard_id)
        return {
            "shards": per_shard,
            "unreachable": unreachable,
            "fleet": merge_snapshots(per_shard.values()),
        }

    def drain(self, shard_id: str) -> Dict[str, Any]:
        """Ask one shard to hand off its warm state and stop."""
        return self._clients[shard_id].drain()
