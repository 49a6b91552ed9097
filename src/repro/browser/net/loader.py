"""Simulated network stack (resource loading on the IO thread).

Fetching a resource models the full path: the renderer asks the browser
process for the resource (IPC), waits out the network latency (virtual
clock idle time — no instructions), then receives the body in MTU-sized
chunks through ``recvfrom`` syscalls that *write the resource's byte
cells*.  Those cells are what the HTML/CSS/JS parsers read, so resource
bytes that end up influencing pixels pull their own network receive path
into the slice — and everything else (unused library bytes) stays out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ...machine.memory import MemRegion
from ..context import BYTES_PER_CELL, EngineContext, IO_THREAD
from ..ipc.channel import IPCChannel

#: simulated bytes delivered per recvfrom
_MTU = 1400

#: cells consumed per recvfrom record (1400 bytes / 64 bytes-per-cell)
_CELLS_PER_CHUNK = max(1, _MTU // BYTES_PER_CELL)

#: TLS decryption emit-site labels, by cell offset in the chunk modulo 16
_DECRYPT_LABELS = tuple(f"decrypt{i}" for i in range(16))


@dataclass
class Resource:
    """One fetched resource."""

    url: str
    kind: str  # "html" | "css" | "js" | "img" | "beacon"
    content: str = ""
    size_bytes: int = 0
    region: Optional[MemRegion] = None
    latency_ms: float = 40.0

    def __post_init__(self) -> None:
        if self.size_bytes == 0:
            self.size_bytes = len(self.content)


class NetworkStack:
    """Resource loading for the tab."""

    def __init__(self, ctx: EngineContext, channel: IPCChannel) -> None:
        self.ctx = ctx
        self.channel = channel
        self.fetched: Dict[str, Resource] = {}
        self.bytes_received = 0

    def fetch(self, resource: Resource) -> Resource:
        """Fetch a resource; must be called with the IO thread current.

        Allocates the resource's byte region, emits the request IPC, idles
        the clock for the latency, and receives the body chunk by chunk.
        """
        ctx = self.ctx
        tracer = ctx.tracer
        if tracer.current_tid != IO_THREAD:
            raise RuntimeError("NetworkStack.fetch must run on the IO thread")

        region = ctx.alloc_bytes(f"res:{resource.url}", resource.size_bytes)
        resource.region = region

        with tracer.function("net::URLLoader::Start"):
            request_cell = self.channel.serialize(
                f"ResourceRequest:{resource.url}", weight=2
            )
            tracer.op("build_request", reads=(request_cell,), writes=(request_cell,))
            tracer.syscall("sendto", reads=(request_cell,))

        ctx.clock.idle(resource.latency_ms * 1000.0)

        ciphertext = ctx.memory.alloc(f"tls:{resource.url}", region.size)
        # Both regions have ``region.size`` cells; cell ``i`` of the
        # ciphertext decrypts into cell ``i`` of the body.
        wire_base, body_base = ciphertext.base, region.base
        with tracer.function("net::URLLoader::ReadBody"):
            offset = 0
            while offset < region.size:
                end = min(offset + _CELLS_PER_CHUNK, region.size)
                wire_cells = ciphertext.cells(offset, end - offset)
                tracer.syscall("recvfrom", writes=wire_cells)
                # TLS record decryption: ciphertext -> plaintext body, a
                # pair of cells per record (the chunk's last may be one).
                with tracer.function("net::SSLClientSocket::DoPayloadRead"):
                    for i in range(offset, end, 2):
                        wire, body = wire_base + i, body_base + i
                        if i + 1 < end:
                            reads, writes = (wire, wire + 1), (body, body + 1)
                        else:
                            reads, writes = (wire,), (body,)
                        tracer.op(_DECRYPT_LABELS[(i - offset) % 16], reads, writes)
                first = body_base + offset
                ctx.libc_memcpy((wire_cells[0], first), (first,), weight=1)
                offset = end
            self.bytes_received += resource.size_bytes
            ctx.maybe_debug_event()

        self.fetched[resource.url] = resource
        return resource

    def send_beacon(self, url: str, payload_cell: int) -> None:
        """Fire-and-forget analytics beacon (call on the IO thread)."""
        tracer = self.ctx.tracer
        with tracer.function("net::URLLoader::SendBeacon"):
            buffer_cell = self.channel.serialize(f"Beacon:{url}", (payload_cell,), 2)
            tracer.syscall("sendto", reads=(buffer_cell, payload_cell))
