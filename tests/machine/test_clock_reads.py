"""Reads of the virtual clock between ticks match the reference loop exactly.

This checks every read (``utilization_series``, ``busy_time_us``,
``_busy``) taken at random points between ticks and idles against a
clock that updates its dict on every step, with exact float equality:
Figure 2 is plotted from these reads.  Reads between the records a
tracer appends are checked in ``test_tracer_reference.py``.
"""

import random
from collections import defaultdict

import pytest

from repro.machine.clock import VirtualClock


class ReferenceClock:
    """Per-step dict updates (the bucket-splitting loop) and plain reads."""

    def __init__(self, instr_cost_us, bucket_us=100_000):
        self.instr_cost_us = instr_cost_us
        self.bucket_us = bucket_us
        self.now_us = 0.0
        self.busy = defaultdict(float)

    def tick(self, tid, instructions=1):
        remaining = instructions * self.instr_cost_us
        while remaining > 0:
            bucket = int(self.now_us // self.bucket_us)
            room = (bucket + 1) * self.bucket_us - self.now_us
            step = min(remaining, room)
            self.busy[(bucket, tid)] += step
            self.now_us += step
            remaining -= step

    def idle(self, duration_us):
        self.now_us += duration_us

    def utilization_series(self, tid):
        last_bucket = int(self.now_us // self.bucket_us)
        return [
            (bucket * self.bucket_us / 1e6,
             min(1.0, self.busy.get((bucket, tid), 0.0) / self.bucket_us))
            for bucket in range(last_bucket + 1)
        ]

    def busy_time_us(self, tid):
        return sum(v for (_, t), v in self.busy.items() if t == tid)


@pytest.mark.parametrize("instr_cost_us", [30.0, 0.7, 33.3, 1e5])
@pytest.mark.parametrize("seed", range(4))
def test_reads_between_ticks_match_the_reference_loop(instr_cost_us, seed):
    rng = random.Random(seed)
    clock = VirtualClock(instr_cost_us=instr_cost_us)
    reference = ReferenceClock(instr_cost_us)
    reads = 0
    for _ in range(2000):
        roll = rng.random()
        if roll < 0.05:
            to_edge = 100_000.0 - reference.now_us % 100_000.0
            gap = rng.choice((0.0, rng.uniform(0.0, 250_000.0), to_edge))
            clock.idle(gap)
            reference.idle(gap)
        elif roll < 0.08:
            tid = rng.randint(1, 4)
            assert clock.utilization_series(tid) == reference.utilization_series(tid)
            assert clock.busy_time_us(tid) == reference.busy_time_us(tid)
            reads += 1
        else:
            tid = rng.randint(1, 4)
            instructions = rng.choice((0, 1, 1, 1, 2, rng.randint(1, 40)))
            clock.tick(tid, instructions)
            reference.tick(tid, instructions)
    assert reads > 40
    for tid in range(1, 5):
        assert clock.utilization_series(tid) == reference.utilization_series(tid)
        assert clock.busy_time_us(tid) == reference.busy_time_us(tid)
    assert dict(clock._busy) == dict(reference.busy)


def test_a_read_of_the_open_key_sees_its_latest_tick():
    clock = VirtualClock(instr_cost_us=1.0, bucket_us=100)
    clock.tick(tid=1, instructions=10)
    assert clock.busy_time_us(1) == 10.0
    clock.tick(tid=1, instructions=5)
    assert clock.busy_time_us(1) == 15.0
    assert clock.utilization_series(1) == [(0.0, 0.15)]
    clock.tick(tid=1, instructions=5)
    assert clock._busy == {(0, 1): 20.0}


def test_bucket_must_be_whole_microseconds():
    with pytest.raises(ValueError, match="whole number"):
        VirtualClock(bucket_us=100.5)
    assert VirtualClock(bucket_us=100.0).bucket_us == 100.0
