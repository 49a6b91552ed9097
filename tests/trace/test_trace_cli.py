"""Tests for the trace CLI and full-trace persistence of a real workload."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.profiler import Profiler, pixel_criteria
from repro.trace import load_any_trace
from repro.trace.__main__ import main as trace_main
from repro.trace.columnar import ColumnarTrace, save_columnar, save_ucwa3
from repro.trace.store import serialize_trace
from repro.harness.experiments import run_engine
from repro.workloads import benchmark


@pytest.fixture(scope="module")
def saved_trace(tmp_path_factory):
    bench = benchmark("wiki_article")
    bench.config.load_animation_ticks = 4
    engine = run_engine(bench)
    path = tmp_path_factory.mktemp("traces") / "wiki.ucwa"
    save_ucwa3(engine.trace_store(), path, with_index=False)
    return engine, path


def test_real_trace_round_trip(saved_trace):
    engine, path = saved_trace
    loaded = load_any_trace(path)
    store = engine.trace_store()
    assert len(loaded) == len(store)
    assert loaded.metadata.thread_names == store.metadata.thread_names
    assert loaded.metadata.tile_buffers == store.metadata.tile_buffers


def test_slice_identical_from_disk(saved_trace):
    """Collect once, profile many: the stored trace slices identically."""
    engine, path = saved_trace
    loaded = load_any_trace(path)
    original = Profiler(engine.trace_store()).pixel_slice()
    replayed = Profiler(loaded).pixel_slice()
    assert bytes(original.flags) == bytes(replayed.flags)


def test_cli_info(saved_trace, capsys):
    _, path = saved_trace
    assert trace_main(["info", str(path)]) == 0
    out = capsys.readouterr().out
    assert "records" in out
    assert "CrRendererMain" in out
    assert "tile markers" in out


def test_cli_slice(saved_trace, capsys):
    _, path = saved_trace
    assert trace_main(["slice", str(path)]) == 0
    out = capsys.readouterr().out
    assert "pixels slice:" in out


def test_cli_slice_criteria_families(saved_trace, capsys):
    """--criteria switches the slicing-criteria family (paper Section V)."""
    _, path = saved_trace
    assert trace_main(["slice", str(path), "--criteria=syscalls"]) == 0
    out = capsys.readouterr().out
    assert "syscalls slice:" in out

    assert trace_main(["slice", str(path), "--criteria=pixels+syscalls"]) == 0
    out = capsys.readouterr().out
    assert "pixels+syscalls slice:" in out


def test_cli_slice_combined_criteria_is_superset(saved_trace, capsys):
    """pixels+syscalls can only widen the slice, never shrink it."""
    import re

    _, path = saved_trace

    def fraction(criteria):
        assert trace_main(["slice", str(path), f"--criteria={criteria}"]) == 0
        match = re.search(r"slice: ([\d.]+)%", capsys.readouterr().out)
        assert match is not None
        return float(match.group(1))

    combined = fraction("pixels+syscalls")
    assert combined >= fraction("pixels")
    assert combined >= fraction("syscalls")


def test_cli_slice_rejects_unknown_criteria(saved_trace, capsys):
    _, path = saved_trace
    assert trace_main(["slice", str(path), "--criteria=colors"]) == 2
    out = capsys.readouterr().out
    assert "unknown criteria 'colors'" in out
    assert "pixels" in out and "syscalls" in out and "pixels+syscalls" in out


def test_cli_usage_on_bad_args(capsys):
    assert trace_main([]) == 2
    assert trace_main(["bogus"]) == 2


def test_cli_slice_rejects_unknown_engine(saved_trace, capsys):
    _, path = saved_trace
    assert trace_main(["slice", str(path), "--engine=turbo"]) == 2
    out = capsys.readouterr().out
    assert "unknown engine 'turbo'" in out
    assert "sequential" in out and "vectorized" in out


@pytest.mark.parametrize(
    "option, message",
    (
        ("--engine=parallel", "unknown engine 'parallel'"),
        ("--workers=4", "unknown option '--workers=4'"),
    ),
    ids=("--engine=parallel", "--workers=4"),
)
def test_cli_slice_rejects_removed_options(saved_trace, option, message, capsys):
    """The parallel engine and its worker count are gone: asking for
    either exits 2 before anything is sliced."""
    _, path = saved_trace
    assert trace_main(["slice", str(path), option]) == 2
    assert message in capsys.readouterr().out


def test_cli_lint_on_real_trace(saved_trace, capsys):
    _, path = saved_trace
    assert trace_main(["lint", str(path)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "call-ret-balance" in out


GOLDEN = Path(__file__).resolve().parents[1] / "harness" / "goldens" / "paper_numbers.json"


def test_collect_then_slice_reproduces_the_table2_golden(tmp_path, capsys):
    """collect runs the harness recipe, so a stored trace slices to the
    paper numbers exactly, with the engine that ran named."""
    from repro.profiler.api import run_slice_job

    golden = json.loads(GOLDEN.read_text("utf-8"))["table2"]["amazon_mobile"]
    path = tmp_path / "amazon_mobile.ucwa"
    assert trace_main(["collect", "amazon_mobile", str(path)]) == 0
    assert f"saved {golden['total_instructions']} records" in capsys.readouterr().out
    assert trace_main(["slice", str(path)]) == 0
    out = capsys.readouterr().out
    match = re.search(r"pixels slice: ([\d.]+)% of (\d+) records", out)
    assert match is not None, out
    assert match.group(1) == f"{100 * golden['all_fraction']:.1f}"
    assert int(match.group(2)) == golden["total_instructions"]
    assert "engine: engine=vectorized" in out and "stored_index=True" in out

    _, stats = run_slice_job(load_any_trace(path))
    assert stats.total == golden["total_instructions"]
    assert stats.fraction == golden["all_fraction"]


def test_cli_slice_auto_runs_vectorized_on_an_indexed_v3_file(
    saved_trace, tmp_path, capsys
):
    _, path = saved_trace  # written without the index
    indexed = tmp_path / "wiki3.ucwa"
    assert trace_main(["convert", str(path), str(indexed)]) == 0
    capsys.readouterr()
    assert trace_main(["slice", str(path)]) == 0
    bare_out = capsys.readouterr().out
    assert "engine=sequential" in bare_out
    assert trace_main(["slice", str(indexed)]) == 0
    indexed_out = capsys.readouterr().out
    assert "engine=vectorized" in indexed_out and "stored_index=True" in indexed_out
    # Same fractions, line for line, whichever engine ran.
    strip = lambda out: [line for line in out.splitlines() if "engine" not in line]
    assert strip(indexed_out) == strip(bare_out)


def _write_unreadable(path, problem):
    """A file at ``path`` that no reader accepts, or none for "missing"."""
    if problem == "not-a-trace":
        path.write_text("localhost\n")
        return
    if problem == "missing":
        return
    store = _small_store()
    if problem == "ucwa2":  # the retired format: its layout is the digest image
        path.write_bytes(serialize_trace(store))
        return
    cols = ColumnarTrace.from_store(store)
    if problem == "bad-kind":
        cols.kind = cols.kind.copy()
        cols.kind[3] = 200
    else:  # a marker id past the marker table
        cols.marker1 = cols.marker1.copy()
        cols.marker1[0] = len(cols.markers) + 1
    save_columnar(cols, path)


def _small_store():
    from repro.workloads.fuzz import random_frame_trace

    return random_frame_trace(2, n_frames=2, records_per_frame=60)


@pytest.mark.parametrize("command", ["info", "lint", "slice"])
@pytest.mark.parametrize(
    "problem", ["missing", "not-a-trace", "ucwa2", "bad-kind", "bad-marker"]
)
def test_cli_unreadable_trace_is_an_error_not_a_traceback(command, problem, tmp_path, capsys):
    path = tmp_path / "t.ucwa"
    _write_unreadable(path, problem)
    assert trace_main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(path) in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("fmt", ["default", "v3"])
def test_cli_collect_checks_the_destination_before_simulating(fmt, tmp_path, monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("collect simulated before checking its destination")

    monkeypatch.setattr("repro.harness.experiments.run_engine", must_not_run)
    path = tmp_path / "missing-dir" / "t.ucwa"
    options = [] if fmt == "default" else [f"--format={fmt}"]
    assert trace_main(["collect", "ticker", str(path), *options]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: no such directory: {path.parent}\n"
    assert not path.parent.exists()


def _reader_leaves(args, lines_read, unbuffered):
    """Run the trace CLI with its stdout on a pipe whose reader closes
    after ``lines_read`` lines (0: before the CLI writes anything, the
    earliest ``| head`` can leave).  Returns (status, lines, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.trace", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    lines = [child.stdout.readline() for _ in range(lines_read)]
    child.stdout.close()
    stderr = child.stderr.read()
    child.stderr.close()
    return child.wait(timeout=60), lines, stderr


@pytest.mark.parametrize("command", ["info", "lint", "slice"])
@pytest.mark.parametrize(
    "lines_read, unbuffered", [(0, False), (0, True), (1, True)]
)
def test_cli_output_cut_short_by_its_reader_exits_0(
    command, lines_read, unbuffered, tmp_path
):
    """``python -m repro.trace info|lint|slice ... | head`` exits 0 and
    prints nothing on stderr, whether the pipe breaks on a print (an
    unbuffered stdout) or in the flush at exit (a buffered one)."""
    path = tmp_path / "t.ucwa"
    save_ucwa3(_small_store(), path)
    status, lines, stderr = _reader_leaves([command, str(path)], lines_read, unbuffered)
    assert (status, stderr) == (0, b"")
    assert all(line.endswith(b"\n") for line in lines)
