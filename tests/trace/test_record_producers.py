"""Records from every bulk producer are ordinary frozen ``TraceRecord``s.

The tracer, the UCWA2 decoder and the UCWA3 materializer build records
through ``new_record`` (an unfrozen twin retyped to ``TraceRecord``), not
through ``TraceRecord.__init__``.  Each record they return must be
indistinguishable from a keyword-built one: the same type, frozen,
equal and hash-equal, and unchanged by ``pickle`` and
``dataclasses.replace``.
"""

from __future__ import annotations

import dataclasses
import inspect
import pickle

import pytest

from repro.harness.experiments import run_engine
from repro.trace.columnar import ColumnarTrace, parse_columnar, serialize_columnar
from repro.trace.records import InstrKind, TraceRecord, new_record
from repro.trace.store import load_trace, save_trace
from repro.workloads import benchmark
from repro.workloads.fuzz import random_trace

FIELDS = [f.name for f in dataclasses.fields(TraceRecord)]


SOURCES = ["ticker"] + [f"random_trace({seed})" for seed in range(6)]


def _store(source):
    if source == "ticker":
        return run_engine(benchmark("ticker"), metrics_ticks=2).trace_store()
    return random_trace(seed=int(source[len("random_trace("):-1]))


def _producers(store, tmp_path):
    """(producer name, its records) for one traced store."""
    path = tmp_path / "t.ucwa"
    save_trace(store, path)
    columns = ColumnarTrace.from_store(store)
    parsed = parse_columnar(serialize_columnar(columns))
    n = len(store)
    return [
        ("tracer", store.records()),
        ("ucwa2-decoder", load_trace(path).records()),
        ("columnar-materialize", columns.materialize(0, n)),
        ("ucwa3-materialize", parsed.materialize(0, n)),
        ("columnar-index", [parsed[i] for i in range(0, n, 7)]),
    ]


def _assert_ordinary(record):
    assert type(record) is TraceRecord
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.tid = record.tid
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.marker = "x"
    keyword = TraceRecord(**{name: getattr(record, name) for name in FIELDS})
    assert record == keyword and hash(record) == hash(keyword)
    restored = pickle.loads(pickle.dumps(record))
    assert type(restored) is TraceRecord
    assert restored == record and hash(restored) == hash(record)
    replaced = dataclasses.replace(record)
    assert type(replaced) is TraceRecord and replaced == record


@pytest.mark.parametrize("source", SOURCES)
def test_every_producer_builds_ordinary_records(source, tmp_path):
    store = _store(source)
    expected = store.records()
    for name, records in _producers(store, tmp_path):
        assert records, name
        for record in records:
            _assert_ordinary(record)
        if name != "columnar-index":
            assert records == expected, name


def test_new_record_signature_matches_the_dataclass_fields():
    params = list(inspect.signature(new_record).parameters.values())
    fields = dataclasses.fields(TraceRecord)
    assert [p.name for p in params] == [f.name for f in fields]
    for param, field in zip(params, fields):
        if field.default is dataclasses.MISSING:
            assert param.default is inspect.Parameter.empty, field.name
        else:
            assert param.default == field.default, field.name


def test_new_record_equals_the_keyword_built_record():
    args = (3, 0x100005, InstrKind.MARKER, 7, (1,), (2, 3), (40, 41), (42,), None, "tile_ready")
    record = new_record(*args)
    _assert_ordinary(record)
    assert record == TraceRecord(*args)
    assert new_record(1, 2, InstrKind.OP, 3) == TraceRecord(tid=1, pc=2, kind=InstrKind.OP, fn=3)
    assert not hasattr(record, "__dict__")
