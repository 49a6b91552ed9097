"""CLI surface of the sanitizer: python -m repro.tsan {races,locks}."""

import json

import pytest

from repro.trace.columnar import save_ucwa3
from repro.trace.store import serialize_trace
from repro.tsan.__main__ import main as tsan_main
from repro.tsan.detector import detect_races
from repro.workloads.fuzz import random_sync_trace, random_trace


def test_races_on_clean_trace_exits_zero(tmp_path, capsys):
    store, _ = random_sync_trace(5, target_records=1_200)
    path = tmp_path / "clean.ucwa"
    save_ucwa3(store, path, with_index=False)
    assert tsan_main(["races", str(path)]) == 0
    assert "no races found" in capsys.readouterr().out


def test_races_on_racy_trace_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "racy.ucwa"
    save_ucwa3(random_trace(5, target_records=1_200), path, with_index=False)
    assert tsan_main(["races", str(path)]) == 1
    assert "race" in capsys.readouterr().out


def test_races_json_is_machine_readable(tmp_path, capsys):
    store, _ = random_sync_trace(6, target_records=1_200)
    path = tmp_path / "clean.ucwa"
    save_ucwa3(store, path, with_index=False)
    assert tsan_main(["races", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True
    assert data["n_races"] == 0
    assert data["trace"] == str(path)


@pytest.mark.parametrize("racy", (True, False), ids=("racy", "clean"))
def test_races_reads_ucwa3_like_its_row_store(tmp_path, capsys, racy):
    if racy:
        store = random_trace(5, target_records=1_200)
    else:
        store, _ = random_sync_trace(5, target_records=1_200)
    path = tmp_path / "t.ucwa"
    save_ucwa3(store, path)
    status = tsan_main(["races", str(path), "--json"])
    data = json.loads(capsys.readouterr().out)
    assert data.pop("trace") == str(path)
    assert data == json.loads(json.dumps(detect_races(store).to_json()))
    assert status == (1 if racy else 0)


@pytest.mark.parametrize("kind", ("missing", "not-a-trace", "ucwa2"))
def test_races_on_unreadable_path_exits_2(tmp_path, capsys, kind):
    path = tmp_path / "t.ucwa"
    if kind == "not-a-trace":
        path.write_text("hello\n")
    elif kind == "ucwa2":  # the retired format: its layout is the digest image
        path.write_bytes(serialize_trace(random_trace(5, target_records=300)))
    assert tsan_main(["races", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.out + captured.err


def test_races_rejects_ambiguous_inputs(capsys):
    assert tsan_main(["races"]) == 2
    assert tsan_main(["races", "a.ucwa", "--workload=wiki_article"]) == 2
    assert tsan_main(["races", "--bogus"]) == 2


def test_locks_static_pass_is_clean(capsys):
    assert tsan_main(["locks"]) == 0
    out = capsys.readouterr().out
    assert "cycles: 0" in out
    assert "inversion pairs: 0" in out


def test_locks_json_lists_the_engine_graph(capsys):
    assert tsan_main(["locks", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "cc:lock:tree" in data["static"]["locks"]
    assert data["static"]["cycles"] == []


def test_usage_on_unknown_subcommand(capsys):
    assert tsan_main([]) == 2
    assert tsan_main(["bogus"]) == 2
    assert "Usage" in capsys.readouterr().out
