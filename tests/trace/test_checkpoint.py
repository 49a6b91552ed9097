"""Checkpoint sidecars: image round-trip and the consistency lint check."""

import dataclasses
import sys
import threading

import pytest

from repro.profiler.cdg import build_index
from repro.profiler.incremental import IncrementalSlicer, SliceCheckpoint
from repro.profiler.redundancy import frame_pixel_criteria
from repro.trace.checkpoint import (
    CHECKPOINT_MAGIC,
    CheckpointImage,
    sidecar_path,
)
from repro.trace.lint import lint_trace
from repro.trace.store import save_trace
from repro.trace.__main__ import main as trace_main
from repro.workloads.fuzz import random_frame_trace


@pytest.fixture(scope="module")
def store():
    return random_frame_trace(11)


@pytest.fixture(scope="module")
def checkpoint(store):
    """A populated checkpoint: every frame of the trace sliced once."""
    cdi = build_index(store.records())
    ckpt = SliceCheckpoint(trace_digest="t" * 64)
    for span in store.frame_spans():
        criteria = frame_pixel_criteria(store, span)
        IncrementalSlicer(store, cdi, criteria, checkpoint=ckpt).run()
    assert ckpt.memos and ckpt.facts
    return ckpt


# --------------------------------------------------------------------- #
# Image round-trip                                                      #
# --------------------------------------------------------------------- #


def test_concurrent_saves_to_one_path_all_succeed(checkpoint, tmp_path):
    """Writers racing on one path (service workers slicing frames of one
    trace) each succeed; the last replace wins and no temp file is left."""
    image = checkpoint.to_image()
    path = tmp_path / "t.ckpt"
    errors = []

    def writer():
        try:
            for _ in range(40):
                image.save(path)
        except OSError as err:
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert CheckpointImage.load(path).to_bytes() == image.to_bytes()
    assert [p.name for p in tmp_path.iterdir()] == ["t.ckpt"]


def test_image_round_trip(checkpoint, tmp_path):
    path = tmp_path / "t.ckpt"
    checkpoint.save(path)
    assert path.read_bytes().startswith(CHECKPOINT_MAGIC)
    loaded = SliceCheckpoint.load(path)
    assert loaded.options_key == checkpoint.options_key
    assert loaded.trace_digest == checkpoint.trace_digest
    assert [r.key() for r in loaded.regions] == [
        r.key() for r in checkpoint.regions
    ]
    assert set(loaded.facts) == set(checkpoint.facts)
    assert set(loaded.memos) == set(checkpoint.memos)
    for index, memo in checkpoint.memos.items():
        other = loaded.memos[index]
        assert other.entry == memo.entry
        assert other.exit == memo.exit
        assert other.flags == memo.flags
        assert other.extra == memo.extra
        assert other.min_depth == memo.min_depth
    for index, facts in checkpoint.facts.items():
        other = loaded.facts[index]
        assert other.digest == facts.digest
        assert other.pcs == facts.pcs
        assert other.footprint.mem_written == facts.footprint.mem_written


def test_image_bytes_round_trip(checkpoint):
    image = checkpoint.to_image()
    again = CheckpointImage.from_bytes(image.to_bytes())
    assert again == image


def test_truncated_image_rejected(checkpoint, tmp_path):
    data = checkpoint.to_image().to_bytes()
    with pytest.raises(ValueError, match="truncated"):
        CheckpointImage.from_bytes(data[: len(data) - 3])
    with pytest.raises(ValueError, match="not a UCWA checkpoint"):
        CheckpointImage.from_bytes(b"garbage" + data)


def test_sidecar_path():
    assert str(sidecar_path("/tmp/t.ucwa")).endswith("t.ucwa.ckpt")


# --------------------------------------------------------------------- #
# checkpoint-consistency lint                                           #
# --------------------------------------------------------------------- #


def _issues(store, image):
    report = lint_trace(store, checkpoint=image)
    return [i for i in report.issues if i.check == "checkpoint-consistency"]


def test_valid_checkpoint_lints_clean(store, checkpoint):
    assert _issues(store, checkpoint.to_image()) == []


def test_lint_catches_tampered_digest(store, checkpoint):
    image = checkpoint.to_image()
    index = next(iter(image.facts))
    image.facts[index] = dataclasses.replace(
        image.facts[index], digest="0" * 64
    )
    assert any("digest" in i.message for i in _issues(store, image))


def test_lint_catches_wrong_record_count(store, checkpoint):
    image = checkpoint.to_image()
    index = next(iter(image.facts))
    facts = image.facts[index]
    image.facts[index] = dataclasses.replace(
        facts, n_records=facts.n_records + 1
    )
    assert any("record(s)" in i.message for i in _issues(store, image))


def test_lint_catches_broken_tiling(store, checkpoint):
    image = checkpoint.to_image()
    lo, hi, frame_id, kind = image.regions[1]
    image.regions[1] = (lo + 1, hi, frame_id, kind)
    messages = [i.message for i in _issues(store, image)]
    assert any("does not continue the tiling" in m for m in messages)


def test_lint_catches_moved_frame_region(store, checkpoint):
    image = checkpoint.to_image()
    frame_pos = next(
        i for i, (_, _, frame_id, _) in enumerate(image.regions)
        if frame_id >= 0
    )
    lo, hi, frame_id, _kind = image.regions[frame_pos]
    image.regions[frame_pos] = (lo, hi, frame_id, "scroll")
    assert any(
        "does not match the trace's frame spans" in i.message
        for i in _issues(store, image)
    )


def test_lint_catches_memo_without_facts(store, checkpoint):
    image = checkpoint.to_image()
    index = next(iter(image.memos))
    del image.facts[index]
    assert any("no region facts" in i.message for i in _issues(store, image))


def test_lint_prefix_checkpoint_accepted(store):
    """A mid-stream save summarizes only a prefix; that must lint clean."""
    cdi = build_index(store.records())
    ckpt = SliceCheckpoint()
    spans = store.frame_spans()
    criteria = frame_pixel_criteria(store, spans[0])
    from repro.trace.stream import compute_regions

    prefix_hi = spans[0].end + 1
    regions = compute_regions(
        [s for s in store.metadata.complete_frames() if s.end < prefix_hi],
        prefix_hi,
    )

    class _Prefix:
        metadata = store.metadata
        symbols = store.symbols

        def __len__(self):
            return prefix_hi

        def span(self, lo, hi):
            return store.span(lo, hi)

    IncrementalSlicer(
        _Prefix(), cdi, criteria, checkpoint=ckpt, regions=regions
    ).run()
    assert _issues(store, ckpt.to_image()) == []


# --------------------------------------------------------------------- #
# CLI integration                                                       #
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def trace_on_disk(store, tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "t.ucwa"
    save_trace(store, path)
    return path


def test_cli_lint_with_checkpoint(store, checkpoint, trace_on_disk, tmp_path, capsys):
    ckpt_path = tmp_path / "t.ckpt"
    checkpoint.save(ckpt_path)
    assert trace_main(
        ["lint", str(trace_on_disk), f"--checkpoint={ckpt_path}"]
    ) == 0
    out = capsys.readouterr().out
    assert "checkpoint-consistency" in out


def test_cli_lint_auto_sidecar(store, checkpoint, trace_on_disk, capsys):
    sidecar = sidecar_path(trace_on_disk)
    checkpoint.save(sidecar)
    try:
        assert trace_main(["lint", str(trace_on_disk)]) == 0
        assert "checkpoint-consistency" in capsys.readouterr().out
    finally:
        sidecar.unlink()


def test_cli_lint_tampered_checkpoint_fails(store, checkpoint, trace_on_disk, tmp_path, capsys):
    image = checkpoint.to_image()
    index = next(iter(image.facts))
    image.facts[index] = dataclasses.replace(
        image.facts[index], digest="0" * 64
    )
    ckpt_path = tmp_path / "bad.ckpt"
    image.save(ckpt_path)
    assert trace_main(
        ["lint", str(trace_on_disk), f"--checkpoint={ckpt_path}", "--json"]
    ) == 1
    out = capsys.readouterr().out
    assert "checkpoint-consistency" in out


def test_cli_lint_unreadable_checkpoint_exits_2(trace_on_disk, tmp_path, capsys):
    junk = tmp_path / "junk.ckpt"
    junk.write_bytes(b"not a checkpoint")
    assert trace_main(
        ["lint", str(trace_on_disk), f"--checkpoint={junk}"]
    ) == 2
    assert "cannot load checkpoint" in capsys.readouterr().err
