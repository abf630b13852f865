"""RunStore: content addressing, atomicity, memoization, active-store slot."""

import hashlib
import pickle

import numpy as np
import pytest

from repro.store import (
    RunStore,
    active_store,
    canonical_key,
    code_fingerprint,
    fingerprint,
    set_active_store,
)
from repro.telemetry import metrics


class TestFingerprint:
    def test_canonical_key_is_order_insensitive(self):
        assert canonical_key({"a": 1, "b": [2, 3]}) == canonical_key({"b": [2, 3], "a": 1})

    def test_tuples_and_lists_address_alike(self):
        assert fingerprint({"stream": (0, 1)}) == fingerprint({"stream": [0, 1]})

    def test_distinct_keys_distinct_fingerprints(self):
        assert fingerprint({"seed": 0}) != fingerprint({"seed": 1})

    def test_rejects_unserializable_keys(self):
        with pytest.raises(TypeError, match="JSON-serializable"):
            fingerprint({"rng": np.random.default_rng(0)})

    def test_code_fingerprint_is_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64


class TestRunStore:
    def test_roundtrip(self, tmp_path):
        store = RunStore(tmp_path)
        value = {"curve": np.arange(4.0), "final": 1.5}
        store.save("cell", {"i": 0}, value)
        loaded = store.load("cell", {"i": 0})
        assert np.array_equal(loaded["curve"], value["curve"])
        assert loaded["final"] == value["final"]

    def test_missing_key_raises_with_address(self, tmp_path):
        store = RunStore(tmp_path)
        with pytest.raises(KeyError, match="cell/"):
            store.load("cell", {"i": 99})

    def test_kinds_are_namespaced(self, tmp_path):
        store = RunStore(tmp_path)
        store.save("cell", {"i": 0}, "cell-value")
        assert not store.has("trace", {"i": 0})

    def test_entries_are_immutable(self, tmp_path):
        # Double-writes keep the first bytes: racing deterministic
        # producers computed the same value, so first-wins is safe and
        # cheapest.
        store = RunStore(tmp_path)
        store.save("cell", {"i": 0}, "first")
        store.save("cell", {"i": 0}, "second")
        assert store.load("cell", {"i": 0}) == "first"

    def test_no_partial_files_visible(self, tmp_path):
        store = RunStore(tmp_path)
        store.save("cell", {"i": 0}, list(range(1000)))
        files = list(tmp_path.rglob("*"))
        assert all("tmp" not in f.name for f in files)

    def test_two_instances_share_entries(self, tmp_path):
        RunStore(tmp_path).save("cell", {"i": 7}, "shared")
        assert RunStore(tmp_path).load("cell", {"i": 7}) == "shared"

    def test_get_or_create_memoizes(self, tmp_path):
        store = RunStore(tmp_path)
        calls = []
        make = lambda: calls.append(1) or "value"
        before = metrics().snapshot()
        assert store.get_or_create("stage", {"k": 1}, make) == "value"
        assert store.get_or_create("stage", {"k": 1}, make) == "value"
        assert len(calls) == 1
        counts = metrics().snapshot().delta(before).counters
        assert counts == {"store.misses": 1, "store.hits": 1, "store.writes": 1}

    def test_addresses_are_code_salted(self, tmp_path):
        # The on-disk path embeds the code fingerprint indirectly: the
        # same key under a different "code version" must not collide.
        store = RunStore(tmp_path)
        plain = fingerprint({"i": 0})
        assert store.address("cell", {"i": 0}) != plain


class TestActiveStore:
    def test_defaults_to_none_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        previous = set_active_store(None)
        try:
            assert active_store() is None
        finally:
            set_active_store(previous)

    def test_set_and_restore(self, tmp_path):
        store = RunStore(tmp_path)
        previous = set_active_store(store)
        try:
            assert active_store() is store
        finally:
            set_active_store(previous)
        assert active_store() is not store

    def test_restore_preserves_env_fallback(self, tmp_path, monkeypatch):
        # Regression: a temporary install/restore cycle (what a shard
        # run does) must not collapse the unresolved slot to an explicit
        # None, which would permanently disable $REPRO_STORE.
        import repro.store as store_module

        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env-store"))
        monkeypatch.setattr(store_module, "_ACTIVE", store_module._UNRESOLVED)
        previous = set_active_store(RunStore(tmp_path / "temporary"))
        set_active_store(previous)
        resolved = active_store()
        assert resolved is not None
        assert resolved.root == tmp_path / "env-store"

    def test_rejects_non_store_values(self):
        with pytest.raises(TypeError, match="RunStore or None"):
            set_active_store("/tmp/not-a-store")

    def test_pickles_are_plain_files(self, tmp_path):
        # The transport claim: a store entry is one ordinary file whose
        # bytes are a pickle behind a 40-byte length + sha256 header —
        # rsync/scp of the directory is a full sync.
        store = RunStore(tmp_path)
        path = store.save("cell", {"i": 3}, ("tuple", 3))
        blob = path.read_bytes()
        assert int.from_bytes(blob[:8], "big") == len(blob) - 40
        assert blob[8:40] == hashlib.sha256(blob[40:]).digest()
        assert pickle.loads(blob[40:]) == ("tuple", 3)
