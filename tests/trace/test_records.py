"""The trace record type: a slotted frozen dataclass with a hand-written init."""

import dataclasses
import inspect
import pickle

import pytest

from repro.trace.records import InstrKind, TraceRecord


def sample_record():
    return TraceRecord(
        3, 0x100005, InstrKind.MARKER, 7, (1,), (2, 3), (40, 41), (42,), None, "tile_ready"
    )


def test_init_signature_matches_the_dataclass_fields():
    params = list(inspect.signature(TraceRecord.__init__).parameters.values())[1:]
    fields = dataclasses.fields(TraceRecord)
    assert [p.name for p in params] == [f.name for f in fields]
    for param, field in zip(params, fields):
        if field.default is dataclasses.MISSING:
            assert param.default is inspect.Parameter.empty, field.name
        else:
            assert param.default == field.default, field.name
        assert param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


def test_records_are_frozen():
    record = sample_record()
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.tid = 4
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.marker = None


def test_keyword_and_positional_construction_agree():
    positional = sample_record()
    keyword = TraceRecord(
        tid=3,
        pc=0x100005,
        kind=InstrKind.MARKER,
        fn=7,
        regs_read=(1,),
        regs_written=(2, 3),
        mem_read=(40, 41),
        mem_written=(42,),
        marker="tile_ready",
    )
    assert keyword == positional
    assert hash(keyword) == hash(positional)
    assert TraceRecord(1, 2, InstrKind.OP, 3) == TraceRecord(tid=1, pc=2, kind=InstrKind.OP, fn=3)


def test_defaults_fill_unset_fields():
    record = TraceRecord(1, 2, InstrKind.RET, 3)
    assert (record.regs_read, record.regs_written, record.mem_read, record.mem_written) == (
        (), (), (), ()
    )
    assert record.syscall is None and record.marker is None


def test_replace_and_pickle_round_trip():
    record = sample_record()
    assert dataclasses.replace(record) == record
    changed = dataclasses.replace(record, marker="load_complete", tid=9)
    assert (changed.marker, changed.tid, changed.pc) == ("load_complete", 9, record.pc)
    restored = pickle.loads(pickle.dumps(record))
    assert restored == record and hash(restored) == hash(record)


def test_records_have_no_instance_dict():
    record = sample_record()
    assert not hasattr(record, "__dict__")
    assert TraceRecord.__slots__ == tuple(f.name for f in dataclasses.fields(TraceRecord))
