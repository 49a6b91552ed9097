"""Content-addressed cache tests: key recipe, LRU/disk tiers, memo."""

import json

import pytest

from repro.service.cache import (
    ResultCache,
    WorkloadDigestMemo,
    cache_key,
    code_version,
)

_DIGEST = "ab" * 32


def test_cache_key_is_deterministic():
    assert cache_key(_DIGEST, "pixels", "sequential") == cache_key(
        _DIGEST, "pixels", "sequential"
    )


def test_cache_key_covers_every_addressing_dimension():
    base = cache_key(_DIGEST, "pixels", "sequential", frame=None, version="v1")
    variants = [
        cache_key("cd" * 32, "pixels", "sequential", frame=None, version="v1"),
        cache_key(_DIGEST, "syscalls", "sequential", frame=None, version="v1"),
        cache_key(_DIGEST, "pixels", "vectorized", frame=None, version="v1"),
        cache_key(_DIGEST, "pixels", "sequential", frame=0, version="v1"),
        cache_key(_DIGEST, "pixels", "sequential", frame=None, version="v2"),
    ]
    assert len({base, *variants}) == len(variants) + 1


def test_code_version_is_stable_and_short():
    assert code_version() == code_version()
    assert len(code_version()) == 16


def test_put_then_get_hits_memory(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("k1", {"fraction": 0.5})
    assert cache.lookup("k1") == ({"fraction": 0.5}, "memory")
    stats = cache.stats()
    assert stats["memory_hits"] == 1
    assert stats["misses"] == 0


def test_miss_is_counted(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.lookup("absent") is None
    assert cache.stats()["misses"] == 1
    assert cache.stats()["hit_rate"] == 0.0


def test_lru_eviction_falls_back_to_disk_and_promotes(tmp_path):
    cache = ResultCache(tmp_path, memory_entries=2)
    for i in range(3):
        cache.put(f"k{i}", {"i": i})
    # k0 was evicted from the LRU but the write-through kept it on disk.
    payload, tier = cache.lookup("k0")
    assert (payload, tier) == ({"i": 0}, "disk")
    # The disk hit promoted it back into memory.
    assert cache.lookup("k0") == ({"i": 0}, "memory")
    stats = cache.stats()
    assert stats["disk_hits"] == 1
    assert stats["memory_hits"] == 1
    assert stats["entries_disk"] == 3


def test_disk_store_survives_restart(tmp_path):
    ResultCache(tmp_path).put("persist", {"ok": 1})
    reopened = ResultCache(tmp_path)
    assert reopened.lookup("persist") == ({"ok": 1}, "disk")


def test_corrupt_disk_entry_is_a_miss_and_heals(tmp_path):
    cache = ResultCache(tmp_path, memory_entries=1)
    cache.put("bad", {"ok": 1})
    cache.put("other", {"ok": 2})  # evicts "bad" from memory
    path = tmp_path / "results" / "bad.json"
    path.write_text("{torn", "utf-8")
    assert cache.lookup("bad") is None
    assert not path.exists()  # dropped so the next put heals the slot
    cache.put("bad", {"ok": 3})
    assert cache.get("bad") == {"ok": 3}


@pytest.mark.parametrize("damage", ("flipped-digit", "unsealed"))
def test_damaged_or_unsealed_entry_is_a_miss_and_is_deleted(tmp_path, damage):
    """An entry is trusted only while it matches its seal, so a flipped
    digit on disk, or an entry written without a seal, is never served."""
    payload = {"fraction": 0.375, "slice_size": 3}
    path = tmp_path / "results" / "k.json"
    for read in ("peek", "lookup"):
        ResultCache(tmp_path).put("k", payload)
        if damage == "unsealed":
            path.write_text(json.dumps(payload, sort_keys=True), "utf-8")
        else:
            path.write_bytes(path.read_bytes().replace(b"0.375", b"0.975"))
        reopened = ResultCache(tmp_path)
        assert getattr(reopened, read)("k") is None, read
        assert not path.exists(), read
    assert reopened.stats()["misses"] == 1


def test_contains_does_not_touch_counters(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("k", {})
    assert cache.contains("k")
    assert not cache.contains("absent")
    stats = cache.stats()
    assert stats["memory_hits"] == stats["disk_hits"] == stats["misses"] == 0


def test_workload_memo_round_trip_and_persistence(tmp_path):
    memo = WorkloadDigestMemo(tmp_path)
    assert memo.get("bing") is None
    memo.put("bing", _DIGEST)
    assert memo.get("bing") == _DIGEST
    # A fresh instance reads the same file back.
    assert WorkloadDigestMemo(tmp_path).get("bing") == _DIGEST
    # Entries are scoped to the current code version.
    stored = json.loads((tmp_path / "workload-digests.json").read_text("utf-8"))
    assert stored == {code_version(): {"bing": _DIGEST}}
