"""What repeated queries on one trace build, and the chunked closure walk.

* the vectorized closure walks the edge stream in fixed-size chunks and
  must give the flags of the one-list walk;
* a :class:`~repro.profiler.Profiler` converts a row store to columns
  once, however many vectorized queries it answers;
* on a columnar trace the forward pass and the categorization read
  columns, and each region's records are built once across queries;
  an epoch stream over the columns keeps none of them.
"""

from __future__ import annotations

import pytest

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
    """The closure as it was before chunking: one list per edge column."""
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


@pytest.mark.parametrize("chunk", [1, 5, 64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chunked_closure_matches_the_one_list_walk(monkeypatch, chunk, seed):
    store = random_trace(seed, target_records=3_000)
    cols = as_ucwa3(store)
    index = cols.index
    assert index.n_edges() > 4 * chunk
    criteria = pixel_criteria(cols)
    seeds = vectorized._resolve_seeds(
        cols, criteria.by_index(), criteria.include_syscalls, criteria.window_end
    ).tolist()
    want = one_list_closure(len(cols), seeds, index.edge_src, index.edge_tgt)
    monkeypatch.setattr(vectorized, "CLOSURE_CHUNK", chunk)
    got = vectorized._closure(len(cols), seeds, index.edge_src, index.edge_tgt)
    assert got == want
    sequential = Profiler(store).slice(criteria, engine="sequential")
    assert bytes(Profiler(cols).slice(criteria).flags) == bytes(sequential.flags)


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
