"""The file-digest memo: a rewritten file is never given its old digest.

``FileDigestMemo`` keeps a path's digest while its stat identity
(device, inode, size, mtime, ctime) is unchanged, and never keeps the
digest of a file changed within ``RACY_WINDOW_NS`` of its clock (git's
racy-clean rule).  The tests pass their own clock to age a file without
sleeping.
"""

import os
import time

from repro.trace import store as store_module
from repro.trace.store import RACY_WINDOW_NS, FileDigestMemo, file_digest


def _write(path, data):
    path.write_bytes(data)
    return os.stat(path)


def _aged_clock():
    """Now, seen from far enough ahead that every file is old."""
    return lambda: time.time_ns() + 10 * RACY_WINDOW_NS


def _count_hashes(monkeypatch):
    calls = []

    def counting(path):
        calls.append(path)
        return file_digest(path)

    monkeypatch.setattr(store_module, "file_digest", counting)
    return calls


def test_an_old_unchanged_file_is_hashed_once(tmp_path, monkeypatch):
    path = tmp_path / "t.ucwa"
    _write(path, b"a" * 100)
    calls = _count_hashes(monkeypatch)
    memo = FileDigestMemo(clock=_aged_clock())
    assert memo.digest(path) == memo.digest(str(path)) == file_digest(path)
    assert len(calls) == 1


def test_a_same_size_rewrite_with_its_mtime_restored_is_hashed_again(tmp_path):
    path = tmp_path / "t.ucwa"
    before = _write(path, b"a" * 100)
    memo = FileDigestMemo(clock=_aged_clock())
    old = memo.digest(path)
    _write(path, b"b" * 100)
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    assert memo.digest(path) == file_digest(path) != old


def test_a_replaced_file_is_hashed_again(tmp_path):
    path, other = tmp_path / "t.ucwa", tmp_path / "u.ucwa"
    _write(path, b"a" * 100)
    _write(other, b"c" * 100)
    memo = FileDigestMemo(clock=_aged_clock())
    old = memo.digest(path)
    os.replace(other, path)
    assert memo.digest(path) == file_digest(path) != old


def test_a_file_changed_within_the_window_is_hashed_on_every_call(tmp_path, monkeypatch):
    path = tmp_path / "t.ucwa"
    st = _write(path, b"a" * 100)
    changed = max(st.st_mtime_ns, st.st_ctime_ns)
    calls = _count_hashes(monkeypatch)
    racy = FileDigestMemo(clock=lambda: changed + RACY_WINDOW_NS - 1)
    for _ in range(3):
        assert racy.digest(path) == file_digest(path)
    assert len(calls) == 3
    settled = FileDigestMemo(clock=lambda: changed + RACY_WINDOW_NS)
    for _ in range(3):
        settled.digest(path)
    assert len(calls) == 4
    # With the real clock, a file written just now is racy too.
    live = FileDigestMemo()
    live.digest(path)
    live.digest(path)
    assert len(calls) == 6
