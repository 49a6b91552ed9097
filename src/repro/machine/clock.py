"""Virtual clock with per-thread busy accounting.

The benchmark machine runs the whole tab process on one CPU core (the paper
pins the process with affinity 1), so simulated time advances with every
executed instruction regardless of thread, plus explicit idle gaps (network
latency, user think time).

Busy time is bucketed per (time bucket, thread), which is exactly the data
needed to regenerate Figure 2 (main-thread CPU utilization while browsing
amazon.com).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple


class VirtualClock:
    """Microsecond-resolution clock driven by instruction execution.

    The default ``instr_cost_us`` reflects the trace scale: one emitted
    record stands for ~10^4 real instructions (~30us at 2GHz IPC~0.15 in
    browser-like code), so simulated sessions span realistic seconds.
    """

    def __init__(self, instr_cost_us: float = 30.0, bucket_us: int = 100_000) -> None:
        if instr_cost_us <= 0:
            raise ValueError("instr_cost_us must be positive")
        if bucket_us <= 0:
            raise ValueError("bucket_us must be positive")
        self.instr_cost_us = instr_cost_us
        self.bucket_us = bucket_us
        self._now_us = 0.0
        # (bucket index, tid) -> busy microseconds
        self._busy: Dict[Tuple[int, int], float] = defaultdict(float)

    @property
    def now_us(self) -> float:
        return self._now_us

    def tick(self, tid: int, instructions: int = 1) -> None:
        """Account for ``instructions`` executed by thread ``tid``."""
        cost = instructions * self.instr_cost_us
        # Attribute the busy time to the bucket where the work started;
        # bursts longer than a bucket are split across buckets.
        now = self._now_us
        bucket = int(now // self.bucket_us)
        room = (bucket + 1) * self.bucket_us - now
        if 0 < cost <= room:
            # The loop's single step when the cost fits the current bucket
            # (same operands, same order: Figure 2 depends on it).
            self._busy[(bucket, tid)] += cost
            self._now_us = now + cost
            return
        remaining = cost
        while remaining > 0:
            bucket = int(self._now_us // self.bucket_us)
            room = (bucket + 1) * self.bucket_us - self._now_us
            step = min(remaining, room)
            self._busy[(bucket, tid)] += step
            self._now_us += step
            remaining -= step

    def idle(self, duration_us: float) -> None:
        """Advance time without attributing busy work (I/O wait, think time)."""
        if duration_us < 0:
            raise ValueError("idle duration must be non-negative")
        self._now_us += duration_us

    def utilization_series(self, tid: int) -> List[Tuple[float, float]]:
        """Per-bucket utilization of thread ``tid``.

        Returns a list of (bucket start time in seconds, utilization in
        [0, 1]) covering every bucket from 0 to the current time.
        """
        last_bucket = int(self._now_us // self.bucket_us)
        series = []
        for bucket in range(last_bucket + 1):
            busy = self._busy.get((bucket, tid), 0.0)
            series.append((bucket * self.bucket_us / 1e6, min(1.0, busy / self.bucket_us)))
        return series

    def busy_time_us(self, tid: int) -> float:
        """Total busy time attributed to ``tid``."""
        return sum(v for (_, t), v in self._busy.items() if t == tid)
