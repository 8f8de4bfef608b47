"""ChaosStore: the production NetKV cluster over breakable in-process shards.

Every check goes through the driver's public surface: the DataStore
ops, the fault controls, ``verify_*``, and each shard's channel API
(``store.shards[i].get/set/mget/...``), which talks to one shard
directly, the way a second client or an operator would.
"""

import os

import numpy as np
import pytest

from repro.chaos import ChaosStore
from repro.datastore.base import KeyNotFound, StoreError, StoreUnavailable


@pytest.fixture
def quiet_store():
    """Factory for stores whose injector never fires (deterministic
    happy wire); every store it makes is closed after the test."""
    made = []

    def make(**kwargs):
        store = ChaosStore(rng=np.random.default_rng(0), **kwargs)
        store.injector.rates = {mode: 0.0 for mode in store.injector.rates}
        made.append(store)
        return store

    yield make
    for store in made:
        store.close()


def holders(store, key):
    """Indices of the shards holding a copy of ``key``."""
    return [i for i, s in enumerate(store.shards) if s.mget([key]) != [None]]


def test_basic_round_trip_and_keys(quiet_store):
    store = quiet_store()
    store.write("a/1", b"x")
    store.write("a/2", b"y")
    store.write("b/1", b"z")
    assert store.read("a/1") == b"x"
    assert store.keys("a/") == ["a/1", "a/2"]
    store.delete("a/1")
    with pytest.raises(KeyNotFound):
        store.read("a/1")
    assert store.keys("a/") == ["a/2"]


def test_move_acks_the_value_under_its_new_name(quiet_store):
    store = quiet_store()
    store.write("src", b"v")
    store.move("src", "dst")
    assert store.read("dst") == b"v"
    with pytest.raises(KeyNotFound):
        store.read("src")
    assert store.acked == {"src": None, "dst": b"v"}
    assert store.verify_acked(strict=True) == []


def test_replication_validation():
    with pytest.raises(StoreError):
        ChaosStore(nshards=2, replication=3)
    with pytest.raises(StoreError):
        ChaosStore(nshards=0)


def test_read_survives_one_replica_down(quiet_store):
    store = quiet_store()
    for i in range(16):
        store.write(f"k{i}", b"v%d" % i)
    store.shard_down(1)
    for i in range(16):
        assert store.read(f"k{i}") == b"v%d" % i
    assert store.verify_acked() == []


def test_overwrite_missed_during_outage_is_repaired_on_rejoin(quiet_store):
    store = quiet_store()
    keys = [f"k{i}" for i in range(16)]
    for k in keys:
        store.write(k, b"old")
    store.shard_down(0)
    # Some keys replicate onto shard 0; writes still ack on the peer.
    for k in keys:
        store.write(k, b"new")
    assert store.replica_health()["up"] == store.nshards - 1
    store.shard_up(0)
    assert store.replica_health()["up"] == store.nshards
    # No shard keeps the overwritten value, shard 0 included.
    for shard in store.shards:
        assert b"old" not in shard.mget(keys)
    assert store.verify_acked(strict=True) == []


def test_stale_replica_never_serves_reads(quiet_store):
    store = quiet_store(nshards=2, replication=2)
    store.write("k", b"old")
    store.shard_down(0)
    store.write("k", b"new")          # shard 0 misses this write
    store.shard_down(1)
    store.shard_up(0)                 # back, but its only peer is down
    store.shard_up(1)                 # fail-back settles the marked write
    assert store.read("k") == b"new"
    assert [s.get("k") for s in store.shards] == [b"new", b"new"]
    assert store.verify_acked(strict=True) == []


def test_reads_refuse_rather_than_go_stale_mid_outage(quiet_store):
    store = quiet_store(nshards=2, replication=2)
    store.write("k", b"old")
    store.shard_down(0)
    store.write("k", b"new")
    store.shard_down(1)
    store.shard_up(0)  # only the replica that missed the write is up
    with pytest.raises(StoreUnavailable):
        store.read("k")
    with pytest.raises(StoreUnavailable):
        store.keys("")
    # Non-strict verification tolerates the outage; strict does not.
    assert store.verify_acked(strict=False) == []
    assert any("unverifiable" in p for p in store.verify_acked(strict=True))
    store.shard_up(1)
    assert store.read("k") == b"new"


def test_newer_write_beats_an_older_tombstone_at_fail_back(quiet_store):
    store = quiet_store(nshards=2, replication=2)
    store.write("k", b"v1")
    store.shard_down(1)
    store.delete("k")            # tombstoned on shard 0 alone
    store.shard_down(0)
    store.shard_up(1)            # still holds v1; its only peer is down
    store.write("k", b"v2")      # acked by shard 1 alone, marked there
    store.shard_up(0)            # its tombstone predates shard 1's write
    assert [s.mget(["k"]) for s in store.shards] == [[b"v2"], [b"v2"]]
    assert store.keys() == ["k"]
    assert store.verify_acked(strict=True) == []


def test_all_replicas_down_is_unavailable_not_lost(quiet_store):
    store = quiet_store(nshards=2, replication=1)
    store.write("k", b"v")
    (shard,) = holders(store, "k")
    store.shard_down(shard)
    with pytest.raises(StoreUnavailable):
        store.read("k")
    with pytest.raises(StoreUnavailable):
        store.write("k", b"v2")
    with pytest.raises(StoreUnavailable):
        store.keys("")
    store.heal_all()
    assert store.read("k") == b"v"
    assert store.verify_acked(strict=True) == []


def test_tombstones_survive_partial_outage(quiet_store):
    store = quiet_store()
    store.write("k", b"v")
    store.shard_down(holders(store, "k")[0])
    store.delete("k")  # reaches the other replica only
    store.heal_all()
    with pytest.raises(KeyNotFound):
        store.read("k")
    assert holders(store, "k") == []
    assert store.verify_acked(strict=True) == []


def test_heal_all_garbage_collects_tombstones(quiet_store):
    store = quiet_store()
    store.write("k", b"v")
    store.shard_down(holders(store, "k")[-1])
    store.delete("k")  # partial: tombstoned on the replica it reached
    assert any(s.keys() for s in store.shards)
    store.heal_all()
    assert all(s.keys() == [] for s in store.shards)
    assert store.verify_acked(strict=True) == []


def test_crash_restart_replays_the_wal(quiet_store):
    store = quiet_store()
    for i in range(16):
        store.write(f"k{i}", b"v%d" % i)
    store.delete("k0")
    store.move("k1", "moved")
    for shard in range(store.nshards):
        store.crash_restart(shard)
    assert store.verify_durable() == []
    assert store.verify_acked(strict=True) == []


def test_wal_compaction_keeps_restart_exact(quiet_store):
    """Past ``compact_bytes`` a shard snapshots and retires its log, as
    the server does; a restart then replays snapshot plus log."""
    store = quiet_store(nshards=1, replication=1)
    blob = b"x" * (1 << 20)
    for i in range(10):
        store.write(f"big{i % 3}", blob + bytes([i]))
    store.delete("big0")
    assert store.shards[0].wal.snapshots >= 1
    store.crash_restart(0)
    assert store.verify_durable() == []
    assert store.verify_acked(strict=True) == []


def test_memory_only_crash_restart_comes_back_empty(quiet_store):
    store = quiet_store(durable=False, replication=1)
    store.write("k", b"v")
    (shard,) = holders(store, "k")
    store.crash_restart(shard)
    assert store.shards[shard].keys() == []
    assert store.verify_acked() == ["acked write lost: k"]


def test_verify_durable_catches_memory_ahead_of_the_wal(quiet_store):
    store = quiet_store()
    store.write("k", b"v")
    shard = store.shards[holders(store, "k")[0]]
    shard.backend.set("k", b"never logged")  # behind the WAL's back
    assert store.verify_durable() == [
        f"shard {shard.address[1]} memory differs from its WAL replay: k"]


def test_verify_acked_catches_lost_write(quiet_store):
    store = quiet_store()
    store.write("k", b"v")
    for shard in store.shards:   # every copy vanishes behind the cluster
        shard.mdelete(["k"])
    assert any("acked write lost" in p for p in store.verify_acked())


def test_verify_acked_catches_resurrected_delete(quiet_store):
    store = quiet_store()
    store.write("k", b"v")
    store.delete("k")
    for shard in store.shards:   # the deleted value reappears everywhere
        shard.set("k", b"v")
    assert any("tombstone resurrected" in p for p in store.verify_acked())


def test_virtual_delay_accumulates_and_drains(quiet_store):
    store = quiet_store()
    store.injector.rates["delay"] = 1.0
    store.write("k", b"v")
    assert store.fault_counts["delayed"] > 0
    delay = store.drain_virtual_delay()
    assert delay > 0.0
    assert store.drain_virtual_delay() == 0.0


def test_transport_stats_feed_telemetry_shape(quiet_store):
    store = quiet_store()
    store.write("k", b"v")
    stats = store.transport_stats.as_dict()
    assert stats["requests"] >= 1
    health = store.replica_health()
    assert health["up"] == store.nshards
    assert [s["address"] for s in health["shards"]] == [
        f"chaos:{i}" for i in range(store.nshards)]


def test_close_deletes_the_wal_directory():
    store = ChaosStore()
    store.write("k", b"v")
    assert sorted(os.listdir(store.directory)) == [
        f"shard{i}" for i in range(store.nshards)]
    store.close()
    assert not os.path.exists(store.directory)
    with pytest.raises(StoreUnavailable):
        store.read("k")
