"""Differential testing: chained epochs ≡ sequential ≡ oracle, per seed.

The conformance check :func:`tests.conformance.checks.assert_reference_trio`
over every fuzz seed: the sequential reference must equal the
transitive-closure oracle and the epoch core chained over small epochs,
and its sampled timelines and join reasons must agree with its flags.
The oracle shares no code or formulation with the streaming passes, so
a bug would have to be reimplemented three independent ways to slip
through.  On mismatch the input is in the assertion message;
``tests/conformance/inputs.py`` names the generator and seed.
"""

from __future__ import annotations

import pytest

from repro.profiler import Profiler
from repro.profiler.epoch import SliceFrontier
from repro.workloads.fuzz import random_trace

from ..conformance.checks import assert_reference_trio


@pytest.mark.parametrize("seed", range(60))
def test_random_traces_all_engines_agree(seed):
    assert_reference_trio(f"random-{seed}")


@pytest.mark.parametrize("seed", (7, 21))
def test_random_pages_all_engines_agree(seed):
    """Full engine-generated traces from randomized synthetic pages,
    race-free under the concurrency sanitizer."""
    assert_reference_trio(f"page-{seed}")


@pytest.mark.parametrize("seed", (3, 11))
def test_sync_fuzz_traces_slice_identically(seed):
    """Well-synchronized, race-free fuzz traces through all three slicers."""
    assert_reference_trio(f"sync-{seed}")


def test_engine_switch_on_profiler_api():
    store = random_trace(123)
    prof = Profiler(store)
    seq = prof.pixel_slice()
    inc = prof.pixel_slice(engine="incremental")
    assert bytes(inc.flags) == bytes(seq.flags)
    assert inc.engine_stats["engine"] == "incremental"
    assert inc.engine_stats["records_total"] == len(store)
    for engine in ("turbo", "parallel"):
        with pytest.raises(ValueError):
            prof.pixel_slice(engine=engine)


_FRONTIER = SliceFrontier(
    live_mem=(3, 9, 0xFFFF_FFFF_0000),
    live_regs=((1, (2, 5)), (4, (1,))),
    pending=((1, (1 << 21,)),),
    stacks=((1, ((7, 1234, 1, 0), (9, -1, 0, 1))),),
)


def test_frontier_serialization_round_trip():
    import pickle

    frontier = _FRONTIER
    assert SliceFrontier.from_bytes(frontier.to_bytes()) == frontier
    assert pickle.loads(pickle.dumps(frontier)) == frontier
    assert SliceFrontier.empty().to_bytes() == SliceFrontier().to_bytes()


def test_frontier_from_bytes_rejects_short_and_trailing_input():
    """A damaged checkpoint frontier raises ``ValueError`` (which the
    checkpoint readers treat as "rebuild cold"), never ``struct.error``
    and never a silently different frontier."""
    data = _FRONTIER.to_bytes()
    for cut in range(len(data)):
        with pytest.raises(ValueError, match="truncated"):
            SliceFrontier.from_bytes(data[:cut])
    with pytest.raises(ValueError, match="trailing"):
        SliceFrontier.from_bytes(data + b"\0")
