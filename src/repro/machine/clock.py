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

from typing import Dict, List, Optional, Sized, Tuple

#: Sums of whole numbers below this are exact in a float.
_EXACT = 2**53


class VirtualClock:
    """Microsecond-resolution clock driven by instruction execution.

    The default ``instr_cost_us`` reflects the trace scale: one emitted
    record stands for ~10^4 real instructions (~30us at 2GHz IPC~0.15 in
    browser-like code), so simulated sessions span realistic seconds.

    A tracer does not tick the clock once per record.  It hands the
    clock its record list (:meth:`count_records`) and names the thread
    that runs (:meth:`switch`); every record appended since the last
    sync is then one instruction of that thread.  The clock syncs, that
    is, charges those records, before :meth:`switch` changes thread and
    before every read or write of its state (:attr:`now_us`,
    :meth:`idle`, :meth:`tick`, ``_busy`` and through it
    :meth:`utilization_series` and :meth:`busy_time_us`), so each read
    sees exactly what one tick per record would have left.  A sync of
    ``n`` records is one ``tick(tid, n)`` when every sum it makes is a
    whole number below 2**53, hence exact and equal to the sums of ``n``
    single ticks; otherwise it replays ``n`` single ticks.  Either way
    the float additions, and the Figure 2 series, are the ones a tick per
    record makes.
    """

    def __init__(self, instr_cost_us: float = 30.0, bucket_us: int = 100_000) -> None:
        if instr_cost_us <= 0:
            raise ValueError("instr_cost_us must be positive")
        if bucket_us <= 0:
            raise ValueError("bucket_us must be positive")
        if bucket_us != int(bucket_us):
            # Whole buckets keep every split of a whole-number tick whole,
            # which a one-tick sync relies on.
            raise ValueError("bucket_us must be a whole number of microseconds")
        self.instr_cost_us = instr_cost_us
        self.bucket_us = bucket_us
        self._now_us = 0.0
        #: (bucket index, tid) -> busy microseconds, as of the last sync
        self._busy_us: Dict[Tuple[int, int], float] = {}
        #: the counted record list, how many of its records are charged,
        #: and the thread the records appended since then belong to
        self._records: Sized = ()
        self._synced = 0
        self._tid: Optional[int] = None

    def count_records(self, records: Sized) -> None:
        """Count one instruction per record appended to ``records`` from now on.

        The records already in the list are not charged.  A clock counts
        one list: the tracer that owns the clock calls this once.
        """
        self._sync()
        self._records = records
        self._synced = len(records)

    def switch(self, tid: int) -> None:
        """Charge the records appended from now on to thread ``tid``."""
        self._sync()
        self._tid = tid

    def _sync(self) -> None:
        """Charge the records appended since the last sync to ``_tid``."""
        pending = len(self._records) - self._synced
        if not pending:
            return
        self._synced += pending
        tid = self._tid
        cost = self.instr_cost_us
        now = self._now_us
        total = self._busy_us.get((int(now // self.bucket_us), tid), 0.0)
        # Only the key at ``now`` can hold busy time already; the buckets
        # after it are empty.  Whole operands and results below 2**53
        # make every addition exact, so one tick equals ``pending`` ticks.
        if (
            float(cost).is_integer()
            and now.is_integer()
            and float(total).is_integer()
            and now + pending * cost < _EXACT
        ):
            self._add(tid, pending)
        else:
            for _ in range(pending):
                self._add(tid, 1)

    @property
    def now_us(self) -> float:
        self._sync()
        return self._now_us

    @property
    def _busy(self) -> Dict[Tuple[int, int], float]:
        """(bucket index, tid) -> busy microseconds."""
        self._sync()
        return self._busy_us

    def tick(self, tid: int, instructions: int = 1) -> None:
        """Account for ``instructions`` executed by thread ``tid``."""
        self._sync()
        self._add(tid, instructions)

    def _add(self, tid: int, instructions: int) -> None:
        """The body of :meth:`tick`, for a clock that is in sync."""
        # Attribute the busy time to the bucket where the work started;
        # bursts longer than a bucket are split across buckets.
        busy = self._busy_us
        remaining = instructions * self.instr_cost_us
        while remaining > 0:
            bucket = int(self._now_us // self.bucket_us)
            room = (bucket + 1) * self.bucket_us - self._now_us
            step = min(remaining, room)
            key = (bucket, tid)
            busy[key] = busy.get(key, 0.0) + step
            self._now_us += step
            remaining -= step

    def idle(self, duration_us: float) -> None:
        """Advance time without attributing busy work (I/O wait, think time)."""
        if duration_us < 0:
            raise ValueError("idle duration must be non-negative")
        self._sync()
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
