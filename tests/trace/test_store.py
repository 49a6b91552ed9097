"""Unit tests for trace storage and the UCWA3 file round trip."""

import functools
import struct

import pytest

from repro.machine import Tracer
from repro.machine.tracer import LOAD_COMPLETE_MARKER, TILE_MARKER
from repro.trace import (
    InstrKind,
    SymbolTable,
    TraceRecord,
    load_any_trace,
)
from repro.trace.columnar import (
    ColumnarTrace,
    parse_columnar,
    save_ucwa3,
    serialize_columnar,
)
from repro.trace.store import serialize_trace
from repro.trace.stream import open_epoch_stream
from repro.workloads import TABLE2_BENCHMARKS, benchmark
from repro.workloads.fuzz import random_frame_trace, random_sync_trace, random_trace


def small_trace():
    tracer = Tracer()
    tracer.spawn_thread(1, "CrRendererMain", "root_main")
    tracer.spawn_thread(2, "Compositor", "root_comp")
    with tracer.function("blink::html::Parse"):
        tracer.op("a", reads=(0x1000, 0x1001), writes=(0x2000,))
        tracer.compare_and_branch("more", reads=(0x2000,))
    tracer.switch(2)
    with tracer.function("cc::Raster"):
        tracer.syscall("recvfrom", writes=(0x3000,))
        tracer.marker(TILE_MARKER, cells=(0x4000, 0x4001))
        tracer.marker(LOAD_COMPLETE_MARKER)
    return tracer.store


def test_forward_backward_iteration():
    store = small_trace()
    fwd = list(store.forward())
    bwd = list(store.backward())
    assert fwd == list(reversed(bwd))
    assert len(fwd) == len(store)


def test_thread_ids_and_counts():
    store = small_trace()
    assert store.thread_ids() == [1, 2]
    counts = store.instructions_per_thread()
    assert sum(counts.values()) == len(store)
    assert counts[1] > 0 and counts[2] > 0


def _workload_trace(name):
    from repro.harness.experiments import run_engine

    return run_engine(benchmark(name), metrics_ticks=2).trace_store()


#: the hand-built trace, the paper workloads and the fuzz corpus
ROUND_TRIP_TRACES = {
    "small": small_trace,
    **{name: functools.partial(_workload_trace, name) for name in TABLE2_BENCHMARKS},
    **{
        f"fuzz{seed}": functools.partial(random_trace, seed, target_records=600)
        for seed in range(8)
    },
    "fuzz-frames": functools.partial(random_frame_trace, 3),
    "fuzz-sync": lambda: random_sync_trace(5)[0],
}


@pytest.mark.parametrize("name", list(ROUND_TRIP_TRACES))
def test_round_trip_preserves_records(name, tmp_path):
    store = ROUND_TRIP_TRACES[name]()
    path = tmp_path / "trace.ucwa"
    save_ucwa3(store, path, with_index=False)
    loaded = load_any_trace(path)
    assert len(loaded) == len(store)
    back = loaded.materialize(0, len(loaded))
    assert back == store.records()
    assert all(type(r.kind) is InstrKind for r in back)
    assert loaded.metadata.frames == store.metadata.frames
    assert serialize_trace(loaded) == serialize_trace(store)


def test_round_trip_preserves_symbols_and_metadata(tmp_path):
    store = small_trace()
    path = tmp_path / "trace.ucwa"
    save_ucwa3(store, path)
    loaded = load_any_trace(path)
    orig_names = [name for _, name in store.symbols]
    back_names = [name for _, name in loaded.symbols]
    assert orig_names == back_names
    assert loaded.metadata.thread_names == store.metadata.thread_names
    assert loaded.metadata.tile_buffers == store.metadata.tile_buffers
    assert loaded.metadata.load_complete_index == store.metadata.load_complete_index


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ucwa"
    path.write_bytes(b"not a trace at all")
    with pytest.raises(ValueError):
        load_any_trace(path)


# --------------------------------------------------------------------- #
# The UCWA3 readers' error contract                                     #
# --------------------------------------------------------------------- #


def _load_everything(path):
    trace = load_any_trace(path)
    return trace.materialize(0, len(trace))


def _stream_everything(path):
    stream = open_epoch_stream(path)
    return stream.span(0, len(stream))


#: every reader of a UCWA3 file, each driven to a full record read
READERS = {
    "load_any_trace": _load_everything,
    "open_epoch_stream": _stream_everything,
}


def _expect_error_naming_file(path, reader_name):
    with pytest.raises(ValueError) as err:
        READERS[reader_name](path)
    assert path.name in str(err.value), f"{reader_name}: {err.value}"


def _image(store):
    """The UCWA3 image of ``store`` (no index) and its section table."""
    image = serialize_columnar(ColumnarTrace.from_store(store))
    (count,) = struct.unpack_from("<I", image, len(b"UCWA3\n"))
    sections = {}
    for k in range(count):
        tag, offset, length = struct.unpack_from("<4sQQ", image, 10 + 20 * k)
        sections[tag.decode("ascii")] = (offset, length)
    return image, sections


def _core_array_at(image, sections, column):
    """Offset and width of CORE array ``column`` (0 tid … 5 marker id + 1)."""
    pos = sections["CORE"][0] + 8  # after the u64 record count
    for _ in range(column):
        width, count = struct.unpack_from("<BQ", image, pos)
        pos += 9 + width * count
    width, _ = struct.unpack_from("<BQ", image, pos)
    return pos + 9, width


@pytest.mark.parametrize("reader_name", list(READERS))
def test_every_truncation_raises_value_error_naming_the_file(tmp_path, reader_name):
    """Cut the file at every byte: header, section table and every
    section.  Every reader raises a ValueError naming the file — never
    struct.error or IndexError, and never a short trace."""
    store = small_trace()
    records = store.records()
    # Every optional field is set somewhere, so the sweep cuts inside
    # each of its columns.
    for field in ("regs_read", "regs_written", "mem_read", "mem_written", "marker"):
        assert any(getattr(r, field) for r in records), field
    assert any(r.syscall is not None for r in records)
    image, sections = _image(store)
    full = tmp_path / "full.ucwa"
    full.write_bytes(image)
    assert READERS[reader_name](full) == records
    offsets = sorted(offset for offset, _ in sections.values())
    assert len(offsets) == 8 and offsets[-1] < len(image)
    for cut in range(len(image)):
        path = tmp_path / f"cut{cut}.ucwa"
        path.write_bytes(image[:cut])
        _expect_error_naming_file(path, reader_name)


def test_decoding_leaves_the_collector_as_it_found_it():
    """``materialize`` pauses the cyclic collector; it must always
    restore it."""
    import gc

    good = parse_columnar(_image(small_trace())[0])
    bad = parse_columnar(_image(small_trace())[0])
    bad.markers = []  # marker ids now point past the table
    assert gc.isenabled()
    good.materialize(0, len(good))
    assert gc.isenabled()
    with pytest.raises(IndexError):
        bad.materialize(0, len(bad))
    assert gc.isenabled()
    gc.disable()
    try:
        good.materialize(0, len(good))
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("reader_name", list(READERS))
def test_unknown_kind_raises_value_error_naming_the_file(tmp_path, reader_name):
    image, sections = _image(small_trace())
    bad = bytearray(image)
    at, width = _core_array_at(image, sections, 2)
    assert width == 1
    bad[at + 3] = 200  # the fourth record's kind
    path = tmp_path / "badkind.ucwa"
    path.write_bytes(bytes(bad))
    _expect_error_naming_file(path, reader_name)


@pytest.mark.parametrize("reader_name", list(READERS))
def test_ucwa1_header_raises_value_error_naming_the_file(tmp_path, reader_name):
    """UCWA1 is no longer read: it fails like any unknown header."""
    image, _ = _image(small_trace())
    path = tmp_path / "v1.ucwa"
    path.write_bytes(b"UCWA1\n" + image[len(b"UCWA3\n"):])
    _expect_error_naming_file(path, reader_name)


@pytest.mark.parametrize("reader_name", list(READERS))
def test_ucwa2_file_raises_value_error_naming_the_file(tmp_path, reader_name):
    """UCWA2 is no longer read either.  Its layout survives only as the
    digest image, which is exactly what a UCWA2 file held."""
    image = serialize_trace(small_trace())
    assert image.startswith(b"UCWA2\n")
    path = tmp_path / "v2.ucwa"
    path.write_bytes(image)
    _expect_error_naming_file(path, reader_name)


@pytest.mark.parametrize("reader_name", list(READERS))
def test_marker_id_past_table_raises_value_error_naming_the_file(
    tmp_path, reader_name
):
    store = small_trace()
    image, sections = _image(store)
    bad = bytearray(image)
    at, width = _core_array_at(image, sections, 5)
    assert width == 1
    n_markers = len({r.marker for r in store.records()} - {None})
    bad[at] = n_markers + 1  # the first record names marker id n_markers
    path = tmp_path / "badmarker.ucwa"
    path.write_bytes(bytes(bad))
    _expect_error_naming_file(path, reader_name)


def test_symbol_table_namespace():
    table = SymbolTable()
    sym = table.intern("cc::TileManager::ScheduleTasks")
    assert table.namespace(sym) == "cc::TileManager"
    assert table.top_level_namespace(sym) == "cc"
    plain = table.intern("memcpy")
    assert table.namespace(plain) is None
    assert table.top_level_namespace(plain) is None


def test_symbol_table_intern_idempotent():
    table = SymbolTable()
    a = table.intern("f")
    b = table.intern("f")
    assert a == b
    assert table.lookup("f") == a
    assert table.lookup("g") is None
    assert table.name(a) == "f"


def test_record_touches_memory():
    rec = TraceRecord(tid=1, pc=10, kind=InstrKind.OP, fn=0)
    assert not rec.touches_memory()
    rec2 = TraceRecord(tid=1, pc=10, kind=InstrKind.OP, fn=0, mem_read=(1,))
    assert rec2.touches_memory()


def test_metadata_thread_roles():
    store = small_trace()
    assert store.metadata.main_thread_id() == 1
    assert store.metadata.thread_ids_by_role("Comp") == [2]
