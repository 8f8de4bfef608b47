"""Replicated-cluster tests: failover, repair, tombstones, batching.

These cover the acceptance criteria of the replication work: a
campaign keeps running with zero acknowledged-write loss when one
replica of each slot dies, feedback managers complete against the
degraded cluster without surfacing StoreUnavailable, cross-shard
renames never lose the value (a duplicate is the worst case), and
deleted keys stay deleted when a stale replica comes back.

Tests that need several live servers carry ``@pytest.mark.multi_server``
so constrained runners can opt out via ``REPRO_SKIP_MULTI_SERVER=1``.
"""

import contextlib

import pytest

from repro.datastore.base import (
    KeyNotFound,
    StoreError,
    StoreUnavailable,
    open_store,
)
from repro.datastore.netkv import (
    NetKVClient,
    NetKVCluster,
    NetKVServer,
    NetKVStore,
    TransportConfig,
)

FAST = TransportConfig(op_timeout=0.5, connect_timeout=0.5, retries=1,
                       backoff_base=0.01, backoff_max=0.05)


@contextlib.contextmanager
def live_cluster(nservers, replication, config=FAST, probe_cooldown=0.05):
    servers = [NetKVServer().start() for _ in range(nservers)]
    cluster = NetKVCluster([s.address for s in servers], config=config,
                           replication=replication,
                           probe_cooldown=probe_cooldown)
    try:
        yield servers, cluster
    finally:
        cluster.close()
        for s in servers:
            s.stop()


def key_on_shard(cluster, shard, tag="k"):
    """A key whose *primary* replica is the given shard."""
    for i in range(10_000):
        key = f"{tag}{i}"
        if cluster._replicas_for(key)[0] == shard:
            return key
    raise AssertionError(f"no key hashed to shard {shard}")


@pytest.mark.multi_server
class TestReplicaFailover:
    def test_kill_one_replica_campaign_zero_acked_loss(self):
        """Acceptance: with replication=2 over 3 shards, killing one
        server mid-campaign loses no acknowledged write, and the
        store-backed feedback loop keeps completing iterations."""
        from repro.core.feedback import FeedbackManager, StoreFeedbackMixin

        class CountingFeedback(StoreFeedbackMixin, FeedbackManager):
            def __init__(self, store):
                FeedbackManager.__init__(self)
                StoreFeedbackMixin.__init__(self, store, "live/", "done/")

            def process(self, items):
                return len(items)

            def report(self, result):
                pass

        with live_cluster(3, replication=2) as (servers, cluster):
            store = NetKVStore(cluster)
            payloads = {f"frame/{i:04d}": f"data-{i}".encode() * 7
                        for i in range(200)}
            store.write_many(payloads)  # every write acknowledged
            store.write_many({f"live/{i:03d}": b"x" * 32 for i in range(40)})

            servers[1].stop()  # one replica of every slot survives

            for key, value in payloads.items():
                assert store.read(key) == value  # zero acked-write loss
            assert len(store.keys("frame/")) == 200

            mgr = CountingFeedback(store)
            while store.keys("live/"):
                rep = mgr.run_iteration()
                assert rep.error == ""  # never surfaced StoreUnavailable
            assert mgr.total_items == 40
            assert len(store.keys("done/")) == 40

            assert cluster.stats.shard_down_events >= 1
            assert cluster.stats.failovers > 0
            health = cluster.replica_health()
            assert health["up"] == 2 and health["nshards"] == 3

    def test_failback_repair_restores_missed_writes(self):
        """A shard that dies and comes back is repaired: it pulls the
        writes it missed, so it can serve the keyspace alone later."""
        with live_cluster(2, replication=2) as (servers, cluster):
            for i in range(30):
                cluster.set(f"pre/{i:02d}", b"old")
            host, port = servers[1].address
            servers[1].stop()
            for i in range(30):
                cluster.set(f"post/{i:02d}", b"new")  # acked on shard 0 only
            cluster.delete("pre/00")  # tombstoned: shard 1 never hears of it

            servers[1] = NetKVServer(host=host, port=port).start()  # empty
            cluster.repair()
            assert cluster.stats.shard_up_events >= 1
            assert cluster.stats.read_repairs > 0

            servers[0].stop()  # now shard 1 must carry everything
            for i in range(1, 30):
                assert cluster.get(f"pre/{i:02d}") == b"old"
            for i in range(30):
                assert cluster.get(f"post/{i:02d}") == b"new"
            with pytest.raises(KeyNotFound):
                cluster.get("pre/00")  # the delete survived the repair
            assert "pre/00" not in cluster.keys("pre/")

    def test_returning_replica_refuses_reads_its_down_peer_could_refute(self):
        """A shard that failed back while the only replica holding the
        writes it missed is down must refuse, not answer NF or stale."""
        with live_cluster(2, replication=2) as (servers, cluster):
            key = key_on_shard(cluster, 0)
            cluster.set(key, b"v1")
            addrs = [s.address for s in servers]
            servers[0].stop()
            cluster.set(key, b"v2")  # acked by shard 1 alone
            servers[1].stop()
            servers[0] = NetKVServer(*addrs[0]).start()  # back, empty
            cluster.repair()
            with pytest.raises(StoreUnavailable):
                cluster.get(key)
            with pytest.raises(StoreUnavailable):
                cluster.mget([key])
            with pytest.raises(StoreUnavailable):
                cluster.delete(key)
            cluster.set(key, b"v3")  # writes still land
            servers[1] = NetKVServer(*addrs[1]).start()  # back, empty too
            cluster.repair()
            assert cluster.get(key) == b"v3"

    def test_all_replicas_down_raises_store_unavailable(self):
        with live_cluster(2, replication=2) as (servers, cluster):
            cluster.set("k", b"v")
            for s in servers:
                s.stop()
            with pytest.raises(StoreUnavailable):
                cluster.get("k")
            with pytest.raises(StoreUnavailable):
                cluster.keys("")  # a dead window must refuse, not lie


@pytest.mark.multi_server
class TestTombstones:
    def test_deleted_key_is_not_resurrected_by_stale_replica(self):
        """A replica that kept a deleted key across an outage must not
        bring it back: peers' tombstones veto listings and the repair
        pass prunes the stale copy for real."""
        with live_cluster(2, replication=2) as (servers, cluster):
            cluster.set("doomed", b"v")
            host, port = servers[1].address
            servers[1].stop()
            cluster.delete("doomed")  # reaches shard 0 only -> tombstone

            servers[1] = NetKVServer(host=host, port=port).start()
            stale = NetKVClient(servers[1].address, config=FAST)
            stale.set("doomed", b"v")  # the copy a crashed disk kept
            cluster.repair()

            assert "doomed" not in cluster.keys("")
            with pytest.raises(KeyNotFound):
                cluster.get("doomed")
            with pytest.raises(KeyNotFound):
                stale.get("doomed")  # pruned on the replica itself
            stale.close()

    def test_rewrite_supersedes_pending_tombstone(self):
        with live_cluster(2, replication=2) as (servers, cluster):
            cluster.set("phoenix", b"old")
            host, port = servers[1].address
            servers[1].stop()
            cluster.delete("phoenix")
            cluster.set("phoenix", b"new")  # re-birth clears the marker

            servers[1] = NetKVServer(host=host, port=port).start()
            cluster.repair()
            servers[0].stop()
            assert cluster.get("phoenix") == b"new"
            assert "phoenix" in cluster.keys("")


@pytest.mark.multi_server
class TestCrossShardRename:
    def test_cross_shard_rename_happy_path(self):
        with live_cluster(2, replication=1) as (servers, cluster):
            src = key_on_shard(cluster, 0, "src")
            dst = key_on_shard(cluster, 1, "dst")
            cluster.set(src, b"payload")
            cluster.rename(src, dst)
            assert cluster.get(dst) == b"payload"
            with pytest.raises(KeyNotFound):
                cluster.get(src)
            assert cluster.stats.rename_orphans == 0

    def test_shard_death_between_phases_orphans_never_loses(self):
        """Kill the source shard after the destination copy is fully
        acknowledged but before the source delete: the rename must
        still succeed, leaving at worst a duplicate (counted as an
        orphan), never a lost value."""
        with live_cluster(2, replication=1) as (servers, cluster):
            src = key_on_shard(cluster, 0, "src")
            dst = key_on_shard(cluster, 1, "dst")
            cluster.set(src, b"payload")

            original_delete = cluster._delete_window

            def delete_on_a_dying_shard(*args, **kwargs):
                servers[0].stop()  # crash inside the two-phase window
                return original_delete(*args, **kwargs)

            cluster._delete_window = delete_on_a_dying_shard
            try:
                cluster.rename(src, dst)  # must not raise
            finally:
                cluster._delete_window = original_delete

            assert cluster.get(dst) == b"payload"
            assert cluster.stats.rename_orphans == 1


@pytest.mark.multi_server
class TestPipelinedBatches:
    def test_mset_mget_mdelete_roundtrip(self):
        with live_cluster(3, replication=2) as (servers, cluster):
            items = [(f"b/{i:03d}", bytes([i]) * 16) for i in range(100)]
            cluster.mset(items)
            keys = [k for k, _ in items] + ["b/missing"]
            values = cluster.mget(keys)
            assert values[:-1] == [v for _, v in items]  # order preserved
            assert values[-1] is None
            assert cluster.stats.batched_requests > 0
            assert cluster.stats.batched_keys >= 100
            assert cluster.stats.max_batch_keys <= cluster.config.batch_keys

            flags = cluster.mdelete(keys)
            assert flags == [True] * 100 + [False]
            assert cluster.keys("b/") == []

    def test_batches_chunk_at_batch_keys(self):
        config = TransportConfig(op_timeout=0.5, connect_timeout=0.5,
                                 retries=1, backoff_base=0.01,
                                 backoff_max=0.05, batch_keys=8)
        with live_cluster(1, replication=1, config=config) as (_, cluster):
            cluster.mset([(f"c/{i:02d}", b"v") for i in range(30)])
            assert cluster.stats.max_batch_keys <= 8
            assert cluster.stats.batched_requests >= 4  # ceil(30 / 8)

    def test_mget_fails_over_past_a_dead_replica(self):
        with live_cluster(2, replication=2) as (servers, cluster):
            items = [(f"f/{i:03d}", b"v%d" % i) for i in range(60)]
            cluster.mset(items)
            servers[0].stop()
            values = cluster.mget([k for k, _ in items])
            assert values == [v for _, v in items]  # no holes

    def test_store_batched_overrides_roundtrip(self):
        with live_cluster(2, replication=2) as (servers, cluster):
            store = NetKVStore(cluster)
            store.write_many({f"s/{i}": b"x%d" % i for i in range(20)})
            found = store.read_present([f"s/{i}" for i in range(25)])
            assert found == {f"s/{i}": b"x%d" % i for i in range(20)}
            with pytest.raises(KeyNotFound):
                store.read_many(["s/0", "s/999"])
            assert store.delete_many(f"s/{i}" for i in range(25)) == 20


class TestUrlAndValidation:
    def test_url_replication_option_is_parsed(self):
        store = open_store(
            "netkv://127.0.0.1:1,127.0.0.1:2,127.0.0.1:3?replication=2")
        try:
            assert isinstance(store, NetKVStore)
            assert store.cluster.replication == 2
            assert store.cluster.addresses == [("127.0.0.1", 1),
                                               ("127.0.0.1", 2),
                                               ("127.0.0.1", 3)]
        finally:
            store.close()

    def test_replication_is_clamped_to_shard_count(self):
        store = open_store("netkv://127.0.0.1:1,127.0.0.1:2?replication=5")
        try:
            assert store.cluster.replication == 2
        finally:
            store.close()

    def test_unknown_url_option_is_rejected(self):
        with pytest.raises(StoreError):
            open_store("netkv://127.0.0.1:1?bogus=1")
        with pytest.raises(StoreError):
            open_store("netkv://127.0.0.1:1?replication=two")

    def test_constructor_validation(self):
        with pytest.raises(StoreError):
            NetKVCluster([])
        with pytest.raises(StoreError):
            NetKVCluster([("127.0.0.1", 1)], replication=0)
        with pytest.raises(StoreError):
            NetKVCluster([("127.0.0.1", 1)], probe_cooldown=-1.0)


@pytest.mark.multi_server
class TestClusterCLI:
    def test_health_exit_codes_track_shard_state(self, capsys):
        from repro.cli import main

        servers = [NetKVServer().start() for _ in range(2)]
        url = "netkv://" + ",".join(f"{h}:{p}" for h, p in
                                    (s.address for s in servers))
        try:
            assert main(["netkv", "--health", url]) == 0
            out = capsys.readouterr().out
            assert "2/2 shard(s) up" in out

            servers[0].stop()
            assert main(["netkv", "--health", url]) == 1
            out = capsys.readouterr().out
            assert "1/2 shard(s) up" in out
            assert "DOWN" in out
        finally:
            for s in servers:
                s.stop()

    def test_health_rejects_bad_url(self, capsys):
        from repro.cli import main

        assert main(["netkv", "--health", "netkv://nonsense"]) == 2
