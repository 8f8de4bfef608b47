"""``kv://``: the NetKV cluster over in-process shards.

Slotting (``netkv.key_slot``), one in-process shard (``aio.LocalShard``) and
the in-process cluster ``open_store("kv://N")`` builds: N
``aio.LocalShard`` channels under the production ``NetKVCluster``.
"""

import sys
import threading

import pytest

from repro.datastore import NetKVStore, StoreUnavailable, open_store
from repro.datastore.aio import LocalShard
from repro.datastore.base import KeyNotFound
from repro.datastore.netkv import key_slot


class TestKeySlot:
    def test_stable(self):
        assert key_slot("rdf/frame-1") == key_slot("rdf/frame-1")

    def test_in_range(self):
        for k in ("a", "b", "rdf/f", "x" * 100):
            assert 0 <= key_slot(k) < 16384

    def test_hash_tags_group_keys(self):
        # Redis semantics: only the {...} part is hashed.
        assert key_slot("{sim42}/rdf") == key_slot("{sim42}/frames")

    def test_known_redis_vector(self):
        # CRC16-XModem("123456789") == 0x31C3 == 12739 (standard test vector).
        assert key_slot("123456789") == 12739 % 16384


class TestLocalShard:
    """One in-process shard through its channel methods: the same table
    entries (encoder, handler, reply parser) the socket channel uses."""

    def test_set_get(self):
        s = LocalShard(("local", 0))
        s.set("k", b"v")
        assert s.get("k") == b"v"

    def test_get_missing(self):
        with pytest.raises(KeyNotFound):
            LocalShard(("local", 0)).get("k")

    def test_delete(self):
        s = LocalShard(("local", 0))
        s.set("k", b"v")
        s.delete("k")
        assert len(s) == 0
        with pytest.raises(KeyNotFound):
            s.delete("k")

    def test_rename(self):
        s = LocalShard(("local", 0))
        s.set("a", b"v")
        s.rename("a", "b")
        assert s.get("b") == b"v"
        with pytest.raises(KeyNotFound):
            s.rename("nope", "x")

    def test_scan_prefix(self):
        s = LocalShard(("local", 0))
        s.set("rdf/1", b"")
        s.set("rdf/2", b"")
        s.set("other", b"")
        assert s.keys("rdf/") == ["rdf/1", "rdf/2"]
        assert s.data == {"rdf/1": b"", "rdf/2": b"", "other": b""}


def _shard_sizes(store):
    cluster = store.cluster
    return cluster._gather([(i, "len", ())
                            for i in range(len(cluster._channels))])


class TestInProcessCluster:
    def test_keys_spread_across_shards(self):
        with open_store("kv://10") as s:
            for i in range(2000):
                s.write(f"frame-{i:05d}", b"x")
            sizes = _shard_sizes(s)
        assert sum(sizes) == 2000
        assert min(sizes) > 0  # every shard got something
        assert max(sizes) < 2000  # and no shard got everything

    def test_routing_follows_key_slot(self):
        with open_store("kv://5") as s:
            s.write("key", b"v")
            owner = key_slot("key") % 5
            assert _shard_sizes(s) == [int(i == owner) for i in range(5)]

    def test_keys_aggregate_all_shards(self):
        with open_store("kv://4") as s:
            for i in range(50):
                s.write(f"k{i:02d}", b"x")
            assert s.keys() == [f"k{i:02d}" for i in range(50)]

    def test_cross_slot_move(self):
        with open_store("kv://7") as s:
            assert key_slot("aaa") % 7 != key_slot("zzzzzz") % 7
            s.write("aaa", b"payload")
            s.move("aaa", "zzzzzz")
            assert s.read("zzzzzz") == b"payload"
            with pytest.raises(KeyNotFound):
                s.read("aaa")

    def test_starts_no_thread(self):
        before = threading.active_count()
        s = open_store("kv://3")
        assert isinstance(s, NetKVStore)
        assert len(s.cluster._channels) == 3
        s.write("rdf/live/a", b"x")
        assert s.read("rdf/live/a") == b"x"
        assert s.keys("rdf/") == ["rdf/live/a"]
        s.move("rdf/live/a", "rdf/done/a")
        assert threading.active_count() == before
        s.close()
        assert threading.active_count() == before

    def test_closed_store_refuses_operations(self):
        s = open_store("kv://2")
        s.write("k", b"v")
        s.close()
        with pytest.raises(StoreUnavailable):
            s.read("k")
        with pytest.raises(StoreUnavailable):
            s.write("k", b"w")

    def test_listing_while_threads_write(self):
        """Listings racing two writer threads see every preloaded key and
        never fail: the shard lock serializes them, as the server's
        event loop does for its connections."""
        s = open_store("kv://1")
        preloaded = {f"pre/{i:05d}": b"x" for i in range(20_000)}
        s.write_many(preloaded)
        stop = threading.Event()
        errors = []

        def writer(tag):
            i = 0
            try:
                while not stop.is_set():
                    s.write(f"w{tag}/{i}", b"y")
                    i += 1
            except Exception as exc:  # surfaced by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-3)
        for t in threads:
            t.start()
        try:
            for _ in range(20):
                listed = set(s.keys())
                assert listed.issuperset(preloaded)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10.0)
            sys.setswitchinterval(interval)
            s.close()
        assert not any(t.is_alive() for t in threads)
        assert errors == []
