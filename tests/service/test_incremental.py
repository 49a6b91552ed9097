"""Service frames-incremental path: checkpoint reuse across submits.

Successive per-frame submits of the same trace digest with
``engine="incremental"`` must share a persisted checkpoint: the first
submit builds it cold, later submits of *other* frames load it warm —
distinct fingerprints, so the result cache cannot serve them — and every
answer stays byte-identical to the sequential engine's.
"""

import pytest

from repro.service.jobs import JobSpec, execute_job
from repro.trace.store import save_trace
from repro.workloads.fuzz import random_frame_trace


@pytest.fixture(scope="session")
def frame_trace_path(tmp_path_factory):
    store = random_frame_trace(seed=5)
    path = tmp_path_factory.mktemp("svc-frames") / "frames.ucwa"
    save_trace(store, path)
    return path


def _frame_spec(path, frame, engine="incremental"):
    return JobSpec(trace_path=str(path), frame=frame, engine=engine)


def test_successive_frame_submits_reuse_checkpoint(service, frame_trace_path):
    server, client = service
    first = client.submit(_frame_spec(frame_trace_path, 0), wait=True)
    assert first["outcome"] == "ok"
    assert first["result"]["engine_stats"]["checkpoint"] == "cold"

    second = client.submit(_frame_spec(frame_trace_path, 1), wait=True)
    assert second["outcome"] == "ok"  # new fingerprint: not a cache hit
    assert second["result"]["engine_stats"]["checkpoint"] == "warm"

    third = client.submit(_frame_spec(frame_trace_path, 2), wait=True)
    assert third["result"]["engine_stats"]["checkpoint"] == "warm"
    # The warm checkpoint did real work: most records were served from
    # memos rather than re-walked.
    stats = third["result"]["engine_stats"]
    assert stats["memo_exact"] + stats["memo_pass_through"] > 0

    ckpt_dir = server._cache_dir / "checkpoints"
    assert ckpt_dir.is_dir() and list(ckpt_dir.iterdir())


def test_incremental_submits_match_sequential(service, frame_trace_path):
    _, client = service
    for frame in (0, 1, 2, 3):
        seq = client.submit(
            _frame_spec(frame_trace_path, frame, engine="sequential"),
            wait=True,
        )
        inc = client.submit(_frame_spec(frame_trace_path, frame), wait=True)
        assert (
            inc["result"]["flags_sha256"] == seq["result"]["flags_sha256"]
        ), f"frame {frame}"
        assert inc["result"]["slice_size"] == seq["result"]["slice_size"]


def test_whole_trace_incremental_submit(service, fuzz_trace_path):
    """A frameless trace is one 'all' region; the engine still answers."""
    _, client = service
    seq = client.submit(
        JobSpec(trace_path=str(fuzz_trace_path), engine="sequential"),
        wait=True,
    )
    inc = client.submit(
        JobSpec(trace_path=str(fuzz_trace_path), engine="incremental"),
        wait=True,
    )
    assert inc["result"]["flags_sha256"] == seq["result"]["flags_sha256"]


def test_execute_job_without_checkpoint_dir_is_stateless(frame_trace_path):
    """No checkpoint_dir (e.g. a directly-executed spec): no sidecar I/O,
    no 'checkpoint' marker in the payload."""
    payload = execute_job(_frame_spec(frame_trace_path, 0))
    assert "checkpoint" not in payload["engine_stats"]


def test_checkpoint_dir_round_trip_via_execute_job(frame_trace_path, tmp_path):
    import dataclasses

    spec = dataclasses.replace(
        _frame_spec(frame_trace_path, 0), checkpoint_dir=str(tmp_path / "ck")
    )
    cold = execute_job(spec)
    assert cold["engine_stats"]["checkpoint"] == "cold"
    spec2 = dataclasses.replace(spec, frame=1)
    warm = execute_job(spec2)
    assert warm["engine_stats"]["checkpoint"] == "warm"


def _tear(data):
    return data[:40]


def _flip_frontier_count_bit(data):
    """Flip the top bit of a memo entry frontier's live-cell count,
    keeping the container framing intact."""
    import dataclasses

    from repro.trace.checkpoint import CheckpointImage

    image = CheckpointImage.from_bytes(data)
    index, memo = min(image.memos.items())
    entry = bytearray(memo.entry)
    entry[3] ^= 0x80
    image.memos[index] = dataclasses.replace(memo, entry=bytes(entry))
    return image.to_bytes()


@pytest.mark.parametrize(
    "damage", (_tear, _flip_frontier_count_bit), ids=("torn", "frontier-bit-flip")
)
def test_torn_checkpoint_file_rebuilds_cold(frame_trace_path, tmp_path, damage):
    import dataclasses

    ckpt_dir = tmp_path / "ck"
    spec = dataclasses.replace(
        _frame_spec(frame_trace_path, 0), checkpoint_dir=str(ckpt_dir)
    )
    execute_job(spec)
    (ckpt_file,) = ckpt_dir.iterdir()
    ckpt_file.write_bytes(damage(ckpt_file.read_bytes()))
    again = execute_job(dataclasses.replace(spec, frame=1))
    assert again["engine_stats"]["checkpoint"] == "cold"
    reference = execute_job(_frame_spec(frame_trace_path, 1, engine="sequential"))
    assert again["flags_sha256"] == reference["flags_sha256"]


def test_fingerprint_ignores_checkpoint_dir(frame_trace_path):
    import dataclasses

    base = _frame_spec(frame_trace_path, 0)
    with_dir = dataclasses.replace(base, checkpoint_dir="/tmp/elsewhere")
    assert base.fingerprint() == with_dir.fingerprint()
