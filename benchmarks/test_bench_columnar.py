"""Columnar cold-slice benchmark: vectorized over the stored index vs the
sequential reference.

The tentpole claim of the UCWA3 work: answering "what fed the pixels"
from a trace *on disk* is an order of magnitude faster when the file
carries its slice index and the vectorized engine runs array joins over
it than when every record is materialized and walked by the sequential
reference.  Both paths start cold — open the file, build whatever they
need, slice — and must produce byte-identical flags.

Asserted floors (CI-safe; local runs are well above them):

* cold vectorized over the indexed file at least **5x** faster than cold
  sequential over the unindexed file (see EXPERIMENTS.md for the local
  ratio on the bing trace);
* the indexed file no larger than the trace's digest image
  (``serialize_trace``: the bytes a row-oriented UCWA2 file held).
"""

import time

import pytest

np = pytest.importorskip("numpy")

from repro.profiler import Profiler, pixel_criteria
from repro.trace.columnar import ColumnarTrace, save_columnar
from repro.trace.store import load_any_trace, serialize_trace
from repro.profiler.vectorized import attach_index

#: CI floor for the cold-slice speedup; locally the ratio is about 7x.
MIN_SPEEDUP = 5.0


@pytest.fixture(scope="module")
def trace_files(bing_result, tmp_path_factory):
    """The bing trace on disk with and without its index (index build
    timed too)."""
    store = bing_result.store
    root = tmp_path_factory.mktemp("columnar")
    bare = root / "bing-bare.ucwa"
    indexed = root / "bing.ucwa"
    cols = ColumnarTrace.from_store(store)
    save_columnar(cols, bare)
    t0 = time.perf_counter()
    attach_index(cols)
    index_s = time.perf_counter() - t0
    save_columnar(cols, indexed)
    return {
        "bare": bare,
        "indexed": indexed,
        "index_s": index_s,
        "records": len(store),
        "image_size": len(serialize_trace(store)),
    }


def _cold_sequential(path):
    store = load_any_trace(path)
    return Profiler(store).slice(pixel_criteria(store), engine="sequential")


def _cold_vectorized(path):
    cols = load_any_trace(path)
    return Profiler(cols).slice(pixel_criteria(cols), engine="vectorized")


def _best_of(fn, path, rounds=3):
    best, result = None, None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn(path)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def test_cold_slice_speedup(trace_files, capsys):
    seq, seq_s = _best_of(_cold_sequential, trace_files["bare"], rounds=1)
    vec, vec_s = _best_of(_cold_vectorized, trace_files["indexed"], rounds=3)
    assert bytes(vec.flags) == bytes(seq.flags), (
        "cold vectorized flags diverge from cold sequential"
    )
    speedup = seq_s / vec_s
    with capsys.disabled():
        print(
            f"\nbing cold slice ({trace_files['records']} records): "
            f"sequential, unindexed file {seq_s * 1000:.0f}ms, "
            f"vectorized, indexed file {vec_s * 1000:.0f}ms -> {speedup:.1f}x "
            f"(index build {trace_files['index_s'] * 1000:.0f}ms, "
            f"slice {seq.slice_size()} records)"
        )
    assert speedup >= MIN_SPEEDUP, (
        f"cold vectorized only {speedup:.2f}x faster than sequential "
        f"(floor {MIN_SPEEDUP}x): seq {seq_s:.3f}s vs vec {vec_s:.3f}s"
    )


def test_indexed_file_no_larger_than_the_digest_image(trace_files, capsys):
    image_size = trace_files["image_size"]
    size = trace_files["indexed"].stat().st_size
    with capsys.disabled():
        print(
            f"\nbing file size: digest image {image_size} B, UCWA3+index "
            f"{size} B ({size / image_size:.2f}x)"
        )
    assert size <= image_size, (
        f"UCWA3 file ({size} B, slice index included) larger than the "
        f"digest image ({image_size} B)"
    )


def test_engine_stats_report_stored_index(trace_files):
    result = _cold_vectorized(trace_files["indexed"])
    assert result.engine_stats["engine"] == "vectorized"
    assert result.engine_stats["stored_index"] is True
    assert result.engine_stats["records"] == trace_files["records"]
