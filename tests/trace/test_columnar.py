"""Property tests for the columnar UCWA3 format (repro/trace/columnar.py).

The locked-down invariants:

* **round trip** — for every paper workload and a broad fuzz corpus,
  a row store written as UCWA3 and loaded back has the store's records
  and its exact digest image (``serialize_trace``);
* **digest invariance** — ``trace_digest`` is format-stable: the same
  logical trace hashes identically whether held as a row store or a
  (possibly index-carrying) columnar trace, so service cache keys never
  churn on a format migration;
* **lint transparency** — the sanitizer passes on converted traces
  exactly as it does on the originals;
* **hostile input** — malformed headers, truncated files, and corrupt
  section tables raise ``ValueError`` naming the file, never crash.
"""

import pytest

np = pytest.importorskip("numpy")

import dataclasses
import struct

from repro.trace.columnar import (
    ColumnarTrace,
    convert_trace,
    load_columnar,
    parse_columnar,
    save_columnar,
    save_ucwa3,
    serialize_columnar,
)
from repro.trace.lint import lint_or_raise
from repro.trace.store import (
    load_any_trace,
    serialize_trace,
    trace_digest,
)
from repro.workloads import benchmark, benchmark_names
from repro.workloads.fuzz import random_trace

FUZZ_SEEDS = range(32)


def _workload_store(name):
    from repro.harness.experiments import run_engine

    return run_engine(benchmark(name)).trace_store()


def _assert_round_trip(store, tmp_path, label):
    image = serialize_trace(store)
    digest = trace_digest(store)

    cols = ColumnarTrace.from_store(store)
    assert len(cols) == len(store)
    # The columnar trace satisfies TraceSource: digest without conversion.
    assert trace_digest(cols) == digest, label

    path = tmp_path / f"{label}.ucwa"
    save_columnar(cols, path)
    loaded = load_columnar(path)
    assert len(loaded) == len(store)
    assert serialize_trace(loaded) == image, (
        f"row store -> UCWA3 -> digest image not byte-identical for {label}"
    )
    assert trace_digest(loaded) == digest, label
    return loaded


@pytest.mark.parametrize("name", benchmark_names())
def test_workload_round_trip(name, tmp_path):
    store = _workload_store(name)
    loaded = _assert_round_trip(store, tmp_path, name)
    # Records materialize identically via the batched span path.
    for orig, back in zip(store.forward(), loaded.forward()):
        assert orig == back


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_round_trip(seed, tmp_path):
    store = random_trace(seed, target_records=800 + 67 * (seed % 5))
    _assert_round_trip(store, tmp_path, f"fuzz{seed}")


@pytest.mark.parametrize("name", ("bing", "ticker"))
def test_index_round_trip_and_digest_invariance(name, tmp_path):
    from repro.profiler.vectorized import attach_index

    store = _workload_store(name)
    digest = trace_digest(store)
    cols = ColumnarTrace.from_store(store)
    index = attach_index(cols)
    assert cols.index is index and index.n_edges() > 0

    # The derived INVT/EDGE sections must not leak into the digest.
    assert trace_digest(cols) == digest

    path = tmp_path / f"{name}-indexed.ucwa"
    save_columnar(cols, path)
    loaded = load_columnar(path)
    assert loaded.index is not None
    assert np.array_equal(loaded.index.edge_src, index.edge_src)
    assert np.array_equal(loaded.index.edge_tgt, index.edge_tgt)
    assert np.array_equal(loaded.index.inv_id, index.inv_id)
    assert np.array_equal(loaded.index.inv_call, index.inv_call)
    assert np.array_equal(loaded.index.inv_ret, index.inv_ret)
    assert np.array_equal(loaded.index.inv_fn, index.inv_fn)
    assert trace_digest(loaded) == digest
    assert serialize_trace(loaded) == serialize_trace(store)

    # A no-index file is strictly smaller and loads with index=None.
    bare = tmp_path / f"{name}-bare.ucwa"
    cols_bare = ColumnarTrace.from_store(store)
    save_columnar(cols_bare, bare)
    assert bare.stat().st_size < path.stat().st_size
    assert load_columnar(bare).index is None


@pytest.mark.parametrize("name", ("wiki_article", "scrollseq"))
def test_lint_passes_on_converted_trace(name, tmp_path):
    store = _workload_store(name)
    src = tmp_path / "src.ucwa"
    dst = tmp_path / "dst.ucwa"
    save_ucwa3(store, src, with_index=False)
    convert_trace(src, dst)
    report_orig = lint_or_raise(store)
    report_conv = lint_or_raise(load_columnar(dst))
    assert report_conv.counts == report_orig.counts
    assert [i.check for i in report_conv.issues] == [
        i.check for i in report_orig.issues
    ]


def test_load_any_trace_dispatches_on_header(tmp_path):
    """UCWA3 is the one format read: a UCWA2 file (whose layout is the
    digest image) is refused with its path named."""
    store = random_trace(5, target_records=1_000)
    v2 = tmp_path / "a.ucwa"
    v3 = tmp_path / "b.ucwa"
    v2.write_bytes(serialize_trace(store))
    save_columnar(ColumnarTrace.from_store(store), v3)
    assert isinstance(load_any_trace(v3), ColumnarTrace)
    assert serialize_trace(load_any_trace(v3)) == v2.read_bytes()
    with pytest.raises(ValueError, match="a.ucwa: not a UCWA3 trace file"):
        load_any_trace(v2)


def test_from_store_keeps_a_copy_of_the_rows():
    from repro.profiler.vectorized import attach_index

    store = random_trace(4, target_records=700)
    cols = ColumnarTrace.from_store(store)
    assert cols.records() == store.records()
    assert cols.records() is not store.records()
    n = len(store)
    store.append(store.records()[0])
    assert len(cols) == n and len(cols.records()) == n
    assert list(cols.forward()) == store.records()[:n]

    # The index built over the kept rows equals the one built over the
    # columns alone (the v3 write path relies on the rows).
    columns_only = parse_columnar(serialize_columnar(cols))
    assert columns_only.index is None
    from_rows = attach_index(cols)
    from_columns = attach_index(columns_only)
    for name in ("inv_id", "inv_call", "inv_ret", "inv_fn", "edge_src", "edge_tgt"):
        assert np.array_equal(getattr(from_rows, name), getattr(from_columns, name))


def test_span_rebases_operand_offsets():
    store = random_trace(11, target_records=1_200)
    # Parse the encoded columns: a trace built by from_store keeps its
    # row list, and span() would slice that instead of the columns.
    cols = parse_columnar(serialize_columnar(ColumnarTrace.from_store(store)))
    records = list(store.forward())
    lo, hi = len(records) // 3, 2 * len(records) // 3
    assert cols.span(lo, hi) == records[lo:hi]
    assert cols[len(records) - 1] == records[-1]
    assert cols[-1] == records[-1]
    with pytest.raises(IndexError):
        cols[len(records)]


# --------------------------------------------------------------------- #
# Hostile input: every malformation is a ValueError naming the file     #
# --------------------------------------------------------------------- #


@pytest.fixture()
def valid_v3(tmp_path):
    store = random_trace(2, target_records=600)
    cols = ColumnarTrace.from_store(store)
    path = tmp_path / "good.ucwa"
    save_columnar(cols, path)
    return path, bytearray(path.read_bytes())


def _expect_value_error(tmp_path, data, name):
    path = tmp_path / name
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError) as err:
        load_columnar(path)
    assert name in str(err.value), (
        f"error for {name} does not name the file: {err.value}"
    )


def test_rejects_empty_file(tmp_path):
    _expect_value_error(tmp_path, b"", "empty.ucwa")


def test_rejects_wrong_header(tmp_path):
    _expect_value_error(tmp_path, b"UCWAX\n" + b"\x00" * 64, "hdr.ucwa")


def test_rejects_truncated_section_table(valid_v3, tmp_path):
    _, data = valid_v3
    _expect_value_error(tmp_path, data[:12], "table.ucwa")


def test_rejects_truncated_payload(valid_v3, tmp_path):
    _, data = valid_v3
    _expect_value_error(tmp_path, data[: len(data) - 16], "cut.ucwa")


def test_rejects_section_extent_past_eof(valid_v3, tmp_path):
    _, data = valid_v3
    # Inflate the first section's length field far past the file size.
    table_at = len(b"UCWA3\n") + 4
    tag, offset, length = struct.unpack_from("<4sQQ", data, table_at)
    struct.pack_into("<4sQQ", data, table_at, tag, offset, length + 10_000_000)
    _expect_value_error(tmp_path, data, "extent.ucwa")


def test_rejects_bad_array_width_code(valid_v3, tmp_path):
    path, data = valid_v3
    # CORE payload: u64 record count, then the first adaptive array header
    # byte (its width code).  Smash the code to an unsupported value.
    buf = path.read_bytes()
    table_at = len(b"UCWA3\n") + 4
    (n_sections,) = struct.unpack_from("<I", buf, len(b"UCWA3\n"))
    for k in range(n_sections):
        tag, offset, length = struct.unpack_from(
            "<4sQQ", buf, table_at + k * struct.calcsize("<4sQQ")
        )
        if tag == b"CORE":
            data[offset + 8] = 99
            break
    else:
        pytest.fail("no CORE section in fixture file")
    _expect_value_error(tmp_path, data, "width.ucwa")


def test_rejects_a_name_that_is_not_utf8(valid_v3, tmp_path):
    _, data = valid_v3
    table_at = len(b"UCWA3\n") + 4
    tag, offset, length = struct.unpack_from("<4sQQ", data, table_at)
    assert tag == b"SYMS"
    data[offset + 4 + 2] = 0xFF  # first byte of the first symbol name
    _expect_value_error(tmp_path, data, "utf8.ucwa")


def test_rejects_missing_required_section(valid_v3, tmp_path):
    _, data = valid_v3
    table_at = len(b"UCWA3\n") + 4
    tag, offset, length = struct.unpack_from("<4sQQ", data, table_at)
    struct.pack_into("<4sQQ", data, table_at, b"XXXX", offset, length)
    _expect_value_error(tmp_path, data, "missing.ucwa")


@pytest.mark.parametrize("bad", ["zero", "past-record-0"])
def test_rejects_edge_deltas_out_of_range(bad, tmp_path):
    """Every stored edge points strictly down: an ``EDGE`` delta of 0 (a
    self edge) or one larger than its source index (a target below record
    0) is rejected when the file loads."""
    from repro.profiler.vectorized import attach_index

    cols = ColumnarTrace.from_store(random_trace(2, target_records=600))
    attach_index(cols)
    index = cols.index
    # The writer stores src - tgt; the first stored edge has the highest source.
    tgt = index.edge_tgt.copy()
    tgt[0] = index.edge_src[0] if bad == "zero" else -1
    cols.index = dataclasses.replace(index, edge_tgt=tgt)
    name = f"edge-{bad}.ucwa"
    path = tmp_path / name
    path.write_bytes(serialize_columnar(cols))
    with pytest.raises(ValueError, match="EDGE deltas out of range") as err:
        load_columnar(path)
    assert name in str(err.value)


def test_serialize_columnar_is_deterministic():
    store = random_trace(9, target_records=900)
    a = serialize_columnar(ColumnarTrace.from_store(store))
    b = serialize_columnar(ColumnarTrace.from_store(store))
    assert a == b
