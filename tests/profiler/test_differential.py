"""Differential testing: chained epochs ≡ sequential ≡ oracle.

Three implementations of the backward slice are run over the same
randomized traces and must produce identical sliced-record sets:

* the streaming sequential pass (``profiler/slicer.py``),
* the epoch core (``profiler/epoch.py``) chained over small fixed-size
  epochs, so non-empty frontiers cross many epoch boundaries
  (``epoch_chain.py``),
* the transitive-closure oracle (``profiler/oracle.py``).

The trio makes single-implementation bugs visible: the oracle shares no
code or formulation with the streaming passes, so a bug would have to be
reimplemented three independent ways to slip through.  On mismatch the
failing seed is in the assertion message; ``random_trace(seed)``
reproduces the trace exactly.
"""

from __future__ import annotations

import pytest

from repro.profiler import Profiler
from repro.profiler.cdg import build_index
from repro.profiler.criteria import (
    combined_criteria,
    pixel_criteria,
    syscall_criteria,
)
from repro.profiler.epoch import SliceFrontier
from repro.profiler.oracle import OracleSlicer
from repro.profiler.slicer import BackwardSlicer, SlicerOptions
from repro.trace.lint import lint_or_raise
from repro.workloads.fuzz import random_page, random_trace

from .epoch_chain import chained_epoch_slice

# 60 seeds x 3 criteria = 180 randomized differential runs.
SEEDS = range(60)

REASONS = SlicerOptions(track_reasons=True)


def _criteria_variants(store):
    variants = [syscall_criteria(store)]
    if store.metadata.tile_buffers:
        variants.append(pixel_criteria(store))
        variants.append(combined_criteria(store))
    return variants


def _assert_equivalent(store, seed, *, epoch_size):
    # Sanitize first: a malformed trace would make any slicer agreement
    # (or disagreement) meaningless.
    lint_or_raise(store)
    cdi = build_index(store.forward())
    for criteria in _criteria_variants(store):
        seq = BackwardSlicer(store, cdi, criteria).run()
        chain = chained_epoch_slice(store, cdi, criteria, epoch_size)
        orc = OracleSlicer(store, cdi, criteria).run()
        label = f"seed={seed} criteria={criteria.name}"
        assert bytes(chain.flags) == bytes(seq.flags), (
            f"chained epochs != sequential for {label}; "
            f"first diffs at {_diff_indices(seq.flags, chain.flags)}"
        )
        assert bytes(orc.flags) == bytes(seq.flags), (
            f"oracle != sequential for {label}; "
            f"first diffs at {_diff_indices(seq.flags, orc.flags)}"
        )
        # Sampling a timeline rides along the same walk: it changes
        # neither flags nor reasons, and its last sample is the slice.
        reasons = BackwardSlicer(store, cdi, criteria, options=REASONS).run()
        sampled = BackwardSlicer(
            store, cdi, criteria, sample_every=7, options=REASONS
        ).run()
        assert bytes(sampled.flags) == bytes(seq.flags), label
        assert sampled.reasons == reasons.reasons, label
        last = sampled.timeline[-1]
        assert (last.processed, last.in_slice) == (
            len(store), sampled.slice_size()
        ), label


def _diff_indices(a, b, limit=10):
    return [i for i, (x, y) in enumerate(zip(a, b)) if x != y][:limit]


@pytest.mark.parametrize("seed", SEEDS)
def test_random_traces_all_engines_agree(seed):
    store = random_trace(seed, target_records=1_500 + 100 * (seed % 7))
    # Small epochs force many frontier hand-offs.
    _assert_equivalent(store, seed, epoch_size=128 + 13 * (seed % 5))


@pytest.mark.parametrize("seed", (7, 21))
def test_random_pages_all_engines_agree(seed):
    """Full engine-generated traces from randomized synthetic pages."""
    from repro.harness.experiments import run_engine
    from repro.tsan.detector import detect_races

    bench = random_page(seed, n_actions=1)
    store = run_engine(bench, metrics_ticks=1).trace_store()
    # Engine-generated traces must also be race-free under the concurrency
    # sanitizer: an unsynchronized cross-thread pair would make the slice
    # depend on interleaving, voiding the engine comparison.
    report = detect_races(store)
    assert report.ok, "\n".join(r.describe() for r in report.races[:5])
    _assert_equivalent(store, seed, epoch_size=max(256, len(store) // 13))


@pytest.mark.parametrize("seed", (3, 11))
def test_sync_fuzz_traces_slice_identically(seed):
    """Well-synchronized fuzz traces through all three slicers too."""
    from repro.tsan.detector import detect_races
    from repro.workloads.fuzz import random_sync_trace

    store, injected = random_sync_trace(seed, target_records=2_000)
    assert not injected
    assert detect_races(store).ok
    _assert_equivalent(store, seed, epoch_size=256)


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
