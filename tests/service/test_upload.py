"""Streaming trace upload: digest verification, failure paths, memory.

The failure-path tests pin the contract the protocol docstring promises:
stable error codes, truncated uploads never register (no spool debris,
no phantom ``trace_ref`` target), and the server never hangs — every
scenario ends in a response or a clean close.
"""

import base64
import hashlib
import socket

import pytest

from repro.service.client import ServiceClient, ServiceError
from repro.service.fleet.upload import (
    UploadError,
    UploadStore,
    iter_file_chunks,
    upload_path,
)
from repro.service.protocol import recv_message, send_message


def _file_sha256(path):
    hasher = hashlib.sha256()
    for chunk in iter_file_chunks(path):
        hasher.update(chunk)
    return hasher.hexdigest()


# --------------------------------------------------------------------- #
# UploadSession / UploadStore units                                     #
# --------------------------------------------------------------------- #


def test_session_round_trip_registers_content_addressed(tmp_path, fuzz_trace_path):
    store = UploadStore(tmp_path / "uploads")
    session = store.session()
    for chunk in iter_file_chunks(fuzz_trace_path, 1024):
        session.append(chunk)
    digest = _file_sha256(fuzz_trace_path)
    finished = session.finish(digest)
    assert finished.digest == digest
    assert finished.path == upload_path(store.directory, digest)
    assert finished.path.read_bytes() == fuzz_trace_path.read_bytes()
    assert store.has(digest)
    assert store.digests() == [digest]


def test_session_digest_mismatch_removes_spool(tmp_path):
    store = UploadStore(tmp_path / "uploads")
    session = store.session()
    session.append(b"UCWA3\nsome bytes")
    with pytest.raises(UploadError) as err:
        session.finish("0" * 64)
    assert err.value.code == "digest-mismatch"
    assert list(store.directory.iterdir()) == []  # no spool debris


def test_session_rejects_non_trace_bytes(tmp_path):
    store = UploadStore(tmp_path / "uploads")
    # UCWA1 and UCWA2 are no longer read, so their headers are not trace
    # headers either.
    for payload in (
        b"#!/bin/sh\necho not a trace\n",
        b"UCWA1\n" + bytes(64),
        b"UCWA2\n" + bytes(64),
    ):
        session = store.session()
        session.append(payload)
        with pytest.raises(UploadError) as err:
            session.finish(hashlib.sha256(payload).hexdigest())
        assert err.value.code == "bad-upload"
        assert list(store.directory.iterdir()) == []


def test_session_abort_is_idempotent_and_cleans_up(tmp_path):
    store = UploadStore(tmp_path / "uploads")
    session = store.session()
    session.append(b"partial")
    session.abort()
    session.abort()
    assert list(store.directory.iterdir()) == []


def test_oversized_chunk_is_a_protocol_violation(tmp_path):
    from repro.service.fleet.upload import MAX_CHUNK_BYTES

    session = UploadStore(tmp_path / "uploads").session()
    with pytest.raises(UploadError) as err:
        session.append(b"x" * (MAX_CHUNK_BYTES + 1))
    assert err.value.code == "bad-upload"
    session.abort()


# --------------------------------------------------------------------- #
# End-to-end over the wire                                              #
# --------------------------------------------------------------------- #


def _tcp_client(service_factory, **kwargs):
    kwargs.setdefault("tcp_addr", ("127.0.0.1", 0))
    server = service_factory(**kwargs)
    return server, ServiceClient(f"tcp:127.0.0.1:{server.tcp_port}")


def test_upload_then_trace_ref_submit(service_factory, fuzz_trace_path):
    server, client = _tcp_client(service_factory)
    uploaded = client.upload_trace(fuzz_trace_path, chunk_size=8 * 1024)
    digest = _file_sha256(fuzz_trace_path)
    assert uploaded["digest"] == digest
    assert uploaded["bytes"] == fuzz_trace_path.stat().st_size
    assert client.has_trace(digest)
    assert not client.has_trace("f" * 64)

    by_ref = client.submit({"trace_ref": digest}, wait=True)
    assert by_ref["outcome"] == "ok"
    # The ref job's result is byte-identical to the path job's: same
    # bytes, same digest, same content-addressed cache slot.
    by_path = client.submit({"trace_path": str(fuzz_trace_path)}, wait=True)
    assert by_path["outcome"].startswith("cache-")
    assert by_path["result"]["flags_sha256"] == by_ref["result"]["flags_sha256"]


def test_upload_with_spec_submits_in_one_round_trip(service_factory, fuzz_trace_path):
    server, client = _tcp_client(service_factory)
    response = client.upload_trace(
        fuzz_trace_path, spec={"criteria": "pixels"}, wait=True
    )
    assert response["outcome"] == "ok"
    assert response["digest"] == _file_sha256(fuzz_trace_path)
    assert response["result"]["trace_digest"] == response["digest"]


def test_unknown_trace_ref_is_a_stable_error(service_factory):
    server, client = _tcp_client(service_factory)
    with pytest.raises(ServiceError) as err:
        client.submit({"trace_ref": "a" * 64}, wait=True)
    assert err.value.code == "no-such-trace"


def test_digest_mismatch_on_trace_end(service_factory):
    server, client = _tcp_client(service_factory)
    sock = client._open(5.0)
    try:
        send_message(sock, {"op": "trace-begin"})
        assert recv_message(sock)["ok"]
        send_message(
            sock,
            {
                "op": "trace-chunk",
                "data": base64.b64encode(b"UCWA3\npayload").decode(),
            },
        )
        send_message(sock, {"op": "trace-end", "digest": "0" * 64})
        response = recv_message(sock)
    finally:
        sock.close()
    assert response["ok"] is False
    assert response["error"]["code"] == "digest-mismatch"
    assert server.uploads.digests() == []  # nothing registered
    assert not list(server.uploads.directory.glob(".part-*"))  # no spool


def test_truncated_upload_cleans_up_and_server_stays_healthy(
    service_factory, fuzz_trace_path
):
    server, client = _tcp_client(service_factory)
    sock = client._open(5.0)
    send_message(sock, {"op": "trace-begin"})
    assert recv_message(sock)["ok"]
    send_message(
        sock,
        {"op": "trace-chunk", "data": base64.b64encode(b"UCWA3\nhalf a tr").decode()},
    )
    # Vanish mid-upload: no trace-end, just a dead socket.
    sock.close()

    # The abort is asynchronous (connection handler's finally); poll
    # briefly rather than racing it.
    import time

    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if not list(server.uploads.directory.glob(".part-*")):
            break
        time.sleep(0.01)
    assert not list(server.uploads.directory.glob(".part-*"))
    assert server.uploads.digests() == []
    assert server.metrics.counter("uploads_aborted") == 1
    # And the daemon still serves new work on a fresh connection.
    assert client.ping()
    assert client.upload_trace(fuzz_trace_path)["digest"] == _file_sha256(
        fuzz_trace_path
    )


def test_chunk_without_begin_reports_on_trace_end(service_factory):
    server, client = _tcp_client(service_factory)
    sock = client._open(5.0)
    try:
        send_message(
            sock, {"op": "trace-chunk", "data": base64.b64encode(b"x").decode()}
        )
        send_message(sock, {"op": "trace-end", "digest": "0" * 64})
        response = recv_message(sock)
    finally:
        sock.close()
    assert response["error"]["code"] == "bad-upload"


def test_bad_base64_chunk_fails_the_upload(service_factory):
    server, client = _tcp_client(service_factory)
    sock = client._open(5.0)
    try:
        send_message(sock, {"op": "trace-begin"})
        assert recv_message(sock)["ok"]
        send_message(sock, {"op": "trace-chunk", "data": "!!! not base64 !!!"})
        send_message(sock, {"op": "trace-end", "digest": "0" * 64})
        response = recv_message(sock)
    finally:
        sock.close()
    assert response["error"]["code"] == "bad-upload"
    assert not list(server.uploads.directory.glob(".part-*"))


def test_streamed_upload_slices_frames_as_epochs_arrive(
    service_factory, frame_trace_path
):
    server, client = _tcp_client(service_factory)
    cold = client.upload_trace(
        frame_trace_path, spec={"engine": "incremental"}, stream=True
    )
    assert cold["streamed"] is True
    assert cold["checkpoint"] == "cold"
    assert len(cold["frames"]) == 4
    assert all(f["in_slice"] >= 0 for f in cold["frames"])
    # The streamed pass persisted its checkpoint: a per-frame submit of
    # the same digest starts warm, and a re-stream reports warm too.
    by_frame = client.submit(
        {"trace_ref": cold["digest"], "engine": "incremental", "frame": 1},
        wait=True,
    )
    assert by_frame["outcome"] == "ok"
    assert by_frame["result"]["engine_stats"]["checkpoint"] == "warm"
    warm = client.upload_trace(
        frame_trace_path, spec={"engine": "incremental"}, stream=True
    )
    assert warm["checkpoint"] == "warm"
    assert [f["flags_sha256"] for f in warm["frames"]] == [
        f["flags_sha256"] for f in cold["frames"]
    ]


def test_stream_with_damaged_checkpoint_recomputes_cold(
    service_factory, frame_trace_path
):
    """A damaged ``.ckpt`` costs a recompute, never a different answer."""
    from repro.profiler.incremental import checkpoint_path_for

    server, client = _tcp_client(service_factory)
    first = client.upload_trace(
        frame_trace_path, spec={"engine": "incremental"}, stream=True
    )
    ckpt = checkpoint_path_for(first["digest"], server._cache_dir / "checkpoints")
    image = ckpt.read_bytes()
    ckpt.write_bytes(image[: len(image) // 2])
    again = client.upload_trace(
        frame_trace_path, spec={"engine": "incremental"}, stream=True
    )
    assert again["checkpoint"] == "cold"
    assert [f["flags_sha256"] for f in again["frames"]] == [
        f["flags_sha256"] for f in first["frames"]
    ]


def test_stream_requires_incremental_engine(service_factory, frame_trace_path):
    server, client = _tcp_client(service_factory)
    with pytest.raises(ServiceError) as err:
        client.upload_trace(
            frame_trace_path, spec={"engine": "sequential"}, stream=True
        )
    assert err.value.code == "invalid-spec"


def test_upload_memory_stays_bounded(service_factory, tmp_path):
    """Peak heap during an upload must be O(chunk), not O(trace).

    A ~1 MiB synthetic trace streamed in 64 KiB chunks: if either side
    buffered the full image the allocation delta would exceed the file
    size; the budget asserts it stays far below it.
    """
    import tracemalloc

    from repro.trace.columnar import save_ucwa3
    from repro.workloads.fuzz import random_trace

    store = random_trace(seed=3, target_records=60_000)
    big = tmp_path / "big.ucwa"
    save_ucwa3(store, big, with_index=False)
    size = big.stat().st_size
    assert size > 1024 * 1024  # the test is vacuous on a tiny file

    server, client = _tcp_client(service_factory)
    chunk = 64 * 1024
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    response = client.upload_trace(big, chunk_size=chunk)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert response["bytes"] == size
    # Client + server run in this process; allow generous slack for
    # base64 framing and JSON, but nothing near the full file size.
    assert peak - before < max(size // 4, 12 * chunk)


def test_iter_file_chunks_validates_chunk_size(fuzz_trace_path):
    with pytest.raises(ValueError):
        list(iter_file_chunks(fuzz_trace_path, 0))
    chunks = list(iter_file_chunks(fuzz_trace_path, 1024))
    assert all(len(c) <= 1024 for c in chunks)
    assert b"".join(chunks) == fuzz_trace_path.read_bytes()
