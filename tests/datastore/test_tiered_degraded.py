"""TieredStore behaviour when the fast (networked) tier is unreachable."""

import socket

import pytest

from repro.datastore.base import StoreUnavailable
from repro.datastore import open_store
from repro.datastore.netkv import NetKVStore, TransportConfig
from repro.datastore.tiered import TieredStore

DEAD_FAST = TransportConfig(op_timeout=0.3, connect_timeout=0.3, retries=0,
                            backoff_base=0.0, backoff_max=0.0)


def dead_address():
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    address = probe.getsockname()
    probe.close()
    return address


@pytest.fixture
def degraded():
    fast = NetKVStore.connect([dead_address()], config=DEAD_FAST)
    backing = open_store("kv://1")
    store = TieredStore(fast, backing, persist_prefixes=("ckpt/",))
    yield store, backing
    fast.close()


class TestDegradedMode:
    def test_persistent_write_lands_in_backing(self, degraded):
        store, backing = degraded
        store.write("ckpt/a", b"saved")
        assert backing.read("ckpt/a") == b"saved"
        assert store.degraded_ops > 0

    def test_nonpersistent_write_still_raises(self, degraded):
        store, _ = degraded
        # Swallowing this would silently lose data that has no other home.
        with pytest.raises(StoreUnavailable):
            store.write("scratch/x", b"gone")

    def test_read_falls_back_to_backing(self, degraded):
        store, backing = degraded
        backing.write("ckpt/b", b"from-backing")
        assert store.read("ckpt/b") == b"from-backing"
        assert store.degraded_ops > 0

    def test_keys_lists_backing_only(self, degraded):
        store, backing = degraded
        backing.write("ckpt/one", b"1")
        backing.write("ckpt/two", b"2")
        assert store.keys("ckpt/") == ["ckpt/one", "ckpt/two"]

    def test_healthy_tiers_never_count_degraded(self):
        fast = open_store("kv://1")
        backing = open_store("kv://1")
        store = TieredStore(fast, backing, persist_prefixes=("ckpt/",))
        store.write("ckpt/a", b"x")
        assert store.read("ckpt/a") == b"x"
        store.evict()
        assert store.read("ckpt/a") == b"x"  # recovered from backing
        assert store.degraded_ops == 0
