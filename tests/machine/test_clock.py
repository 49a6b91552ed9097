"""Unit tests for the virtual clock and busy accounting."""

import random
from collections import defaultdict

import pytest

from repro.machine.clock import VirtualClock


def test_tick_advances_time():
    clock = VirtualClock(instr_cost_us=0.5)
    clock.tick(tid=1, instructions=10)
    assert clock.now_us == pytest.approx(5.0)


def test_idle_advances_without_busy():
    clock = VirtualClock(instr_cost_us=1.0, bucket_us=100)
    clock.idle(250)
    series = clock.utilization_series(tid=1)
    assert all(util == 0.0 for _, util in series)
    assert clock.now_us == 250


def test_idle_rejects_negative():
    clock = VirtualClock()
    with pytest.raises(ValueError):
        clock.idle(-1)


def test_constructor_validation():
    with pytest.raises(ValueError):
        VirtualClock(instr_cost_us=0)
    with pytest.raises(ValueError):
        VirtualClock(bucket_us=0)


def test_utilization_full_bucket():
    clock = VirtualClock(instr_cost_us=1.0, bucket_us=100)
    clock.tick(tid=7, instructions=100)  # exactly one full bucket
    series = clock.utilization_series(tid=7)
    assert series[0][1] == pytest.approx(1.0)


def test_burst_splits_across_buckets():
    clock = VirtualClock(instr_cost_us=1.0, bucket_us=100)
    clock.idle(50)
    clock.tick(tid=3, instructions=100)  # 50us in bucket 0, 50us in bucket 1
    series = clock.utilization_series(tid=3)
    assert series[0][1] == pytest.approx(0.5)
    assert series[1][1] == pytest.approx(0.5)


def test_threads_accounted_separately():
    clock = VirtualClock(instr_cost_us=1.0, bucket_us=100)
    clock.tick(tid=1, instructions=30)
    clock.tick(tid=2, instructions=20)
    assert clock.busy_time_us(1) == pytest.approx(30)
    assert clock.busy_time_us(2) == pytest.approx(20)
    # Sequential execution: thread 2's work lands after thread 1's.
    series2 = clock.utilization_series(tid=2)
    assert series2[0][1] == pytest.approx(0.2)


def test_series_x_axis_in_seconds():
    clock = VirtualClock(instr_cost_us=1.0, bucket_us=1_000_000)
    clock.idle(2_500_000)
    series = clock.utilization_series(tid=1)
    assert [x for x, _ in series] == pytest.approx([0.0, 1.0, 2.0])


class LoopClock:
    """The reference ``tick``: the bucket-splitting loop for every cost."""

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


@pytest.mark.parametrize("instr_cost_us", [30.0, 0.7, 33.3, 1e5])
@pytest.mark.parametrize("seed", range(4))
def test_tick_matches_the_reference_loop_exactly(instr_cost_us, seed):
    rng = random.Random(seed)
    clock = VirtualClock(instr_cost_us=instr_cost_us)
    reference = LoopClock(instr_cost_us)
    for _ in range(2000):
        if rng.random() < 0.05:
            # Gaps of nothing, of any length, and to the next bucket edge.
            to_edge = 100_000.0 - reference.now_us % 100_000.0
            gap = rng.choice((0.0, rng.uniform(0.0, 250_000.0), to_edge))
            clock.idle(gap)
            reference.idle(gap)
        else:
            tid = rng.randint(1, 4)
            instructions = rng.choice((0, 1, 1, 1, 2, rng.randint(1, 40)))
            clock.tick(tid, instructions)
            reference.tick(tid, instructions)
        assert clock.now_us == reference.now_us
    assert dict(clock._busy) == dict(reference.busy)
