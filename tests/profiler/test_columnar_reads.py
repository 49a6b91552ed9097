"""What repeated queries on one trace build, and the blocked closure walk.

* the vectorized closure walks the edge stream in blocks of source
  records and must give the flags of the one-list walk, on stored
  indexes and on synthetic streams, within a memory bound;
* a :class:`~repro.profiler.Profiler` converts a row store to columns
  once, however many vectorized queries it answers;
* on a columnar trace the forward pass and the categorization read
  columns, and each region's records are built once across queries;
  an epoch stream over the columns keeps none of them.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.profiler import Profiler
from repro.profiler import vectorized
from repro.profiler.api import job_criteria
from repro.profiler.categorize import categorize_unnecessary
from repro.profiler.criteria import pixel_criteria
from repro.trace.columnar import ColumnarTrace, parse_columnar, serialize_columnar
from repro.trace.stream import open_epoch_stream
from repro.workloads.fuzz import random_frame_trace, random_trace

CRITERIA = ("pixels", "syscalls", "pixels+syscalls")


def one_list_closure(n, seeds, src, tgt):
    """The reference closure: one walk over the whole stream, one list
    per edge column."""
    flags = bytearray(n)
    for s in seeds:
        flags[s] = 1
    for s, t in zip(src.tolist(), tgt.tolist()):
        if flags[s]:
            flags[t] = 1
    return flags


def as_ucwa3(store) -> ColumnarTrace:
    """A trace read back from an indexed UCWA3 image (no records kept)."""
    cols = ColumnarTrace.from_store(store)
    vectorized.attach_index(cols)
    return parse_columnar(serialize_columnar(cols))


@pytest.mark.parametrize("block", [1, 5, 64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chunked_closure_matches_the_one_list_walk(monkeypatch, block, seed):
    """On a stored index; with blocks of one record every edge takes the
    array path."""
    store = random_trace(seed, target_records=3_000)
    cols = as_ucwa3(store)
    index = cols.index
    assert len(cols) > 4 * block
    criteria = pixel_criteria(cols)
    seeds = vectorized._resolve_seeds(
        cols, criteria.by_index(), criteria.include_syscalls, criteria.window_end
    ).tolist()
    want = one_list_closure(len(cols), seeds, index.edge_src, index.edge_tgt)
    monkeypatch.setattr(vectorized, "CLOSURE_BLOCK", block)
    got = vectorized._closure(len(cols), seeds, index.edge_src, index.edge_tgt)
    assert got == want
    sequential = Profiler(store).slice(criteria, engine="sequential")
    assert bytes(Profiler(cols).slice(criteria).flags) == bytes(sequential.flags)


def edge_stream(rng, n, n_edges, far_share):
    """A deduplicated stream of ``n_edges`` or fewer edges over ``n``
    records, sorted by descending source, every target below its source:
    most edges reach a few records down, ``far_share`` of them anywhere
    below."""
    if n < 2 or not n_edges:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    src = rng.integers(1, n, n_edges)
    near = np.minimum(rng.geometric(0.1, n_edges), src)
    far = rng.integers(0, src) + 1  # uniform in [1, src]
    tgt = src - np.where(rng.random(n_edges) < far_share, far, near)
    key = np.unique(src * (n + 1) + tgt)[::-1]
    return key // (n + 1), key % (n + 1)


def assert_blocks_match_the_one_list_walk(n, seeds, src, tgt):
    assert np.all(tgt < src) and np.all(np.diff(src) <= 0)
    assert len(np.unique(src * (n + 1) + tgt)) == len(src)
    want = one_list_closure(n, seeds, src, tgt)
    for block in (1, 2, 7, 64, 1024, n + 1):
        with mock.patch.object(vectorized, "CLOSURE_BLOCK", block):
            got = vectorized._closure(n, np.array(seeds, np.int64), src, tgt)
        assert got == want, f"block={block}"


@settings(max_examples=100, deadline=None)
@given(
    # Sizes either side of the block sizes tried, up to about 3,000.
    n=st.sampled_from([0, 1, 2, 5, 63, 64, 65, 700, 1023, 1024, 1025, 2049, 3000]),
    edges_per_record=st.sampled_from([0, 0.5, 1, 2, 4]),
    far_share=st.sampled_from([0, 0.1, 0.5, 1]),
    n_seeds=st.integers(min_value=0, max_value=30),
    ends=st.sampled_from([(), (0,), (-1,), (0, -1)]),
    rng_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_blocked_closure_matches_the_one_list_walk_on_synthetic_streams(
    n, edges_per_record, far_share, n_seeds, ends, rng_seed
):
    rng = np.random.default_rng(rng_seed)
    src, tgt = edge_stream(rng, n, int(n * edges_per_record), far_share)
    seeds = rng.integers(0, n, n_seeds).tolist() if n else []
    seeds += [end % n for end in ends if n]
    assert_blocks_match_the_one_list_walk(n, seeds, src, tgt)


def jump_stream(n, stride):
    """Every record above ``stride`` reaches the record ``stride`` below
    it and record 0, so edges cross many blocks."""
    src = np.repeat(np.arange(n - 1, stride, -1, dtype=np.int64), 2)
    tgt = src - stride
    tgt[1::2] = 0
    return src, tgt


@pytest.mark.parametrize(
    "n, seeds, stream",
    [
        (0, [], (np.zeros(0, np.int64), np.zeros(0, np.int64))),
        (50, [3, 49], (np.zeros(0, np.int64), np.zeros(0, np.int64))),
        (500, [], jump_stream(500, 97)),
        (500, [0], jump_stream(500, 97)),
        (500, [499], jump_stream(500, 97)),
        (500, [0, 499], jump_stream(500, 1)),
        (2_000, [1_999], jump_stream(2_000, 300)),
    ],
    ids=["empty-trace", "no-edges", "no-seeds", "seed-at-0", "seed-at-top",
         "chain", "long-jumps"],
)
def test_blocked_closure_edge_cases(n, seeds, stream):
    assert_blocks_match_the_one_list_walk(n, seeds, *stream)


def test_blocked_closure_memory_stays_small():
    """A stream of bing's size (about 120,000 records and 425,000 edges)
    walks in under 2 MB: one block's in-block edges become Python ints,
    never the whole stream (a ``.tolist()`` of bing's holds 34 MB)."""
    rng = np.random.default_rng(24)
    n = 120_000
    src, tgt = edge_stream(rng, n, 440_000, 0.4)
    assert 400_000 < len(src) < 440_000
    seeds = np.nonzero(rng.random(n) < 0.02)[0]
    tracemalloc.start()
    try:
        flags = vectorized._closure(n, seeds, src, tgt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, f"closure peak {peak / 1e6:.2f} MB"
    assert flags == one_list_closure(n, seeds.tolist(), src, tgt)


def test_vectorized_queries_on_a_row_store_convert_it_once(monkeypatch):
    store = random_frame_trace(2)
    conversions = []
    from_store = ColumnarTrace.from_store

    def counting(trace):
        conversions.append(trace)
        return from_store(trace)

    monkeypatch.setattr(ColumnarTrace, "from_store", staticmethod(counting))
    profiler = Profiler(store)
    for name in CRITERIA:
        criteria = job_criteria(store, name)
        got = profiler.slice(criteria, engine="vectorized")
        want = profiler.slice(criteria, engine="sequential")
        assert bytes(got.flags) == bytes(want.flags)
    assert conversions == [store]


def test_columnar_forward_pass_and_categories_build_no_records():
    store = random_frame_trace(3)
    cols = as_ucwa3(store)
    profiler = Profiler(cols)
    want_cd = Profiler(store).control_dependence_index()._cd
    assert profiler.control_dependence_index()._cd == want_cd
    for name in CRITERIA:
        result = profiler.slice(job_criteria(cols, name))
        assert categorize_unnecessary(cols, result) == categorize_unnecessary(
            store, result
        )
    assert cols._materialized is None and not cols._spans


def test_incremental_queries_build_each_region_once(monkeypatch):
    store = random_frame_trace(4, n_frames=5)
    cols = as_ucwa3(store)
    built = []
    materialize = ColumnarTrace.materialize

    def counting(self, lo, hi):
        built.append((lo, hi))
        return materialize(self, lo, hi)

    monkeypatch.setattr(ColumnarTrace, "materialize", counting)
    frames = range(len(cols.frame_spans()))
    for _sweep in range(2):
        profiler = Profiler(cols)  # a fresh checkpoint per sweep
        for frame in frames:
            criteria = job_criteria(cols, "pixels", frame)
            got = profiler.slice(criteria, engine="incremental")
            want = Profiler(store).slice(criteria, engine="sequential")
            assert bytes(got.flags) == bytes(want.flags)
    assert built, "no region was materialized"
    assert len(built) == len(set(built))


def test_epoch_streams_over_columns_keep_no_records():
    """A stream holds only its resident regions, so it reads columnar
    spans without the trace's cache."""
    store = random_frame_trace(5)
    cols = as_ucwa3(store)
    stream = open_epoch_stream(cols)
    streamed = [rec for epoch in stream.epochs() for rec in epoch.records]
    assert streamed == store.records()
    assert not cols._spans and cols._materialized is None
