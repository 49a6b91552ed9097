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

from typing import Dict, List, Optional, Tuple


class VirtualClock:
    """Microsecond-resolution clock driven by instruction execution.

    The default ``instr_cost_us`` reflects the trace scale: one emitted
    record stands for ~10^4 real instructions (~30us at 2GHz IPC~0.15 in
    browser-like code), so simulated sessions span realistic seconds.

    Every traced record ticks the clock, so :meth:`tick` keeps the busy
    total of the (bucket, thread) key it last added to in ``_open_us``
    instead of updating the per-key dict each time, together with the end
    of that bucket.  The total is stored back into the dict when a tick
    lands on another key and before anything reads the dict (``_busy``
    does it), so the float additions, and the Figure 2 series, are the
    ones an update per tick makes.
    """

    def __init__(self, instr_cost_us: float = 30.0, bucket_us: int = 100_000) -> None:
        if instr_cost_us <= 0:
            raise ValueError("instr_cost_us must be positive")
        if bucket_us <= 0:
            raise ValueError("bucket_us must be positive")
        if bucket_us != int(bucket_us):
            # Whole buckets make ``now < bucket end`` the exact test for
            # ``int(now // bucket_us) == bucket`` that ``tick`` relies on.
            raise ValueError("bucket_us must be a whole number of microseconds")
        self.instr_cost_us = instr_cost_us
        self.bucket_us = bucket_us
        self._now_us = 0.0
        # (bucket index, tid) -> busy microseconds, except the open key's
        self._stored: Dict[Tuple[int, int], float] = {}
        #: the key ticks last added to, its busy total and its bucket end;
        #: no tid matches ``_open_tid`` until the first tick opens a key
        self._open_key: Optional[Tuple[int, int]] = None
        self._open_tid: Optional[int] = None
        self._open_us = 0.0
        self._open_end = 0

    @property
    def now_us(self) -> float:
        return self._now_us

    @property
    def _busy(self) -> Dict[Tuple[int, int], float]:
        """(bucket index, tid) -> busy microseconds, the open key included."""
        if self._open_key is not None:
            self._stored[self._open_key] = self._open_us
        return self._stored

    def tick(self, tid: int, instructions: int = 1) -> None:
        """Account for ``instructions`` executed by thread ``tid``."""
        cost = instructions * self.instr_cost_us
        now = self._now_us
        # One step inside the open key's bucket: the same operands, in the
        # same order, as the split loop below (Figure 2 depends on it).
        if tid == self._open_tid and 0 < cost <= self._open_end - now:
            self._open_us += cost
            self._now_us = now + cost
            return
        # Attribute the busy time to the bucket where the work started;
        # bursts longer than a bucket are split across buckets.
        busy = self._busy
        remaining = cost
        while remaining > 0:
            bucket = int(self._now_us // self.bucket_us)
            room = (bucket + 1) * self.bucket_us - self._now_us
            step = min(remaining, room)
            key = (bucket, tid)
            busy[key] = busy.get(key, 0.0) + step
            self._now_us += step
            remaining -= step
            self._open_key = key
            self._open_tid = tid
            self._open_us = busy[key]
            self._open_end = (bucket + 1) * self.bucket_us

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
        busy_by_key = self._busy
        last_bucket = int(self._now_us // self.bucket_us)
        series = []
        for bucket in range(last_bucket + 1):
            busy = busy_by_key.get((bucket, tid), 0.0)
            series.append((bucket * self.bucket_us / 1e6, min(1.0, busy / self.bucket_us)))
        return series

    def busy_time_us(self, tid: int) -> float:
        """Total busy time attributed to ``tid``."""
        return sum(v for (_, t), v in self._busy.items() if t == tid)
