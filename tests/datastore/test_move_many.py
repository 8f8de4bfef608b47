"""``DataStore.move_many`` and the cluster's batched ``rename_many``.

The count guard pins what one batched move costs the cluster, through
``TransportStats``: every key is hashed to its slot once, and a batch of
cross-window moves sends one MGET per source window, then one MSET per
destination replica and one MDEL per source replica, whatever the batch
size. Same-window moves are one native RENAME per pair and replica.
"""

import pytest

from repro.datastore import open_store
from repro.datastore import netkv
from repro.datastore.aio import LocalShard
from repro.datastore.base import KeyNotFound
from repro.datastore.fsstore import FSStore
from repro.datastore.namespaced import NamespacedStore
from repro.datastore.netkv import NetKVCluster, key_slot
from repro.datastore.taridx import TaridxStore

NSHARDS = 4
N = 24


def _cluster(replication):
    shards = [LocalShard(("mm", i)) for i in range(NSHARDS)]
    return shards, NetKVCluster([s.address for s in shards],
                                replication=replication, route_refresh=0.0,
                                channels=shards)


def _primary(key):
    return key_slot(key) % NSHARDS


def _cross_pairs(n):
    """``n`` (src, dst) pairs whose keys have different primaries."""
    pairs = []
    i = 0
    while len(pairs) < n:
        src, dst = f"rdf/live/f{i:06d}", f"rdf/done/f{i:06d}"
        if _primary(src) != _primary(dst):
            pairs.append((src, dst))
        i += 1
    return pairs


@pytest.fixture
def counted_key_slot(monkeypatch):
    """Counts the cluster's real ``key_slot`` calls."""
    calls = []

    def counting(key):
        calls.append(key)
        return key_slot(key)

    monkeypatch.setattr(netkv, "key_slot", counting)
    return calls


class TestCountGuard:
    @pytest.mark.parametrize("replication", [1, 2])
    def test_cross_window_batch_is_one_op_per_window(self, replication,
                                                     counted_key_slot):
        shards, cluster = _cluster(replication)
        pairs = _cross_pairs(N)
        cluster.mset([(src, b"v" + src.encode()) for src, _ in pairs])
        cluster.stats.reset()
        counted_key_slot.clear()

        cluster.rename_many(pairs)

        src_windows = {_primary(src) for src, _ in pairs}
        dst_windows = {_primary(dst) for _, dst in pairs}
        assert len(src_windows) > 1 and len(dst_windows) > 1
        assert cluster.stats.op_requests == {
            "mget": len(src_windows),
            "mset": replication * len(dst_windows),
            "mdelete": replication * len(src_windows),
        }
        assert cluster.stats.key_slots == 2 * N
        assert len(counted_key_slot) == 2 * N
        assert cluster.mget([dst for _, dst in pairs]) == [
            b"v" + src.encode() for src, _ in pairs]
        assert cluster.keys("rdf/live/") == []
        cluster.close()

    @pytest.mark.parametrize("replication", [1, 2])
    def test_same_window_batch_is_native_renames(self, replication,
                                                 counted_key_slot):
        shards, cluster = _cluster(replication)
        pairs = [(f"rdf/live/{{cg{i:04d}}}", f"rdf/done/{{cg{i:04d}}}")
                 for i in range(N)]
        cluster.mset([(src, b"x") for src, _ in pairs])
        cluster.stats.reset()
        counted_key_slot.clear()

        cluster.rename_many(pairs)

        assert cluster.stats.op_requests == {"rename": replication * N}
        assert cluster.stats.key_slots == 2 * N
        assert len(counted_key_slot) == 2 * N
        assert sorted(cluster.keys()) == sorted(dst for _, dst in pairs)
        cluster.close()

    def test_single_rename_routes_each_key_once(self, counted_key_slot):
        shards, cluster = _cluster(2)
        (src, dst), = _cross_pairs(1)
        cluster.set(src, b"v")
        cluster.stats.reset()
        counted_key_slot.clear()
        cluster.rename(src, dst)
        assert cluster.stats.key_slots == 2
        assert len(counted_key_slot) == 2
        assert cluster.stats.op_requests == {"mget": 1, "mset": 2,
                                             "mdelete": 2}
        cluster.close()


class TestRenameManySemantics:
    def test_missing_sources_raise_after_the_rest_move(self):
        shards, cluster = _cluster(1)
        pairs = _cross_pairs(4) + [("a/{t}", "b/{t}"), ("a/{u}", "b/{u}")]
        present = [pairs[0], pairs[2], pairs[4]]
        cluster.mset([(src, src.encode()) for src, _ in present])
        with pytest.raises(KeyNotFound) as info:
            cluster.rename_many(pairs)
        assert info.value.args[0] == pairs[1][0]
        assert sorted(cluster.keys()) == sorted(dst for _, dst in present)
        cluster.close()

    def test_failed_delete_leg_counts_orphans_and_keeps_copies(self):
        shards, cluster = _cluster(1)
        pairs = [(src, dst) for src, dst in _cross_pairs(200)
                 if _primary(src) == 0 and _primary(dst) != 0][:5]
        cluster.mset([(src, b"payload") for src, _ in pairs])
        real_mdelete = cluster._mdelete

        def delete_on_a_dying_shard(*args, **kwargs):
            shards[0].up = False  # crash inside the two-phase window
            return real_mdelete(*args, **kwargs)

        cluster._mdelete = delete_on_a_dying_shard
        cluster.rename_many(pairs)  # must not raise
        del cluster._mdelete
        assert cluster.stats.rename_orphans == len(pairs)
        assert cluster.mget([dst for _, dst in pairs]) == [b"payload"] * 5
        cluster.close()

    def test_empty_batch_sends_nothing(self):
        shards, cluster = _cluster(2)
        cluster.rename_many([])
        assert cluster.stats.op_requests == {}
        cluster.close()


@pytest.fixture(params=["fs", "taridx", "kv", "namespaced-kv"])
def store(request, tmp_path):
    kind = request.param
    if kind == "fs":
        s = FSStore(str(tmp_path / "fs"))
    elif kind == "taridx":
        s = TaridxStore(str(tmp_path / "tar"))
    elif kind == "kv":
        s = open_store("kv://3")
    else:
        s = NamespacedStore(open_store("kv://3"), "tenant", "camp")
    yield s
    s.close()


def test_move_many_moves_every_pair(store):
    pairs = [(f"rdf/live/f{i}", f"rdf/done/f{i}") for i in range(10)]
    store.write_many({src: src.encode() for src, _ in pairs})
    store.write("rdf/done/f3", b"stale")
    store.move_many(pairs)
    assert store.keys("rdf/live/") == []
    assert store.read_many([dst for _, dst in pairs]) == {
        dst: src.encode() for src, dst in pairs}


def test_kv_move_many_counts_io_stats():
    store = open_store("kv://2")
    store.write_many({f"k{i}": b"v" for i in range(3)})
    store.move_many([(f"k{i}", f"m{i}") for i in range(3)])
    assert store.stats.moves == 3
    store.close()
