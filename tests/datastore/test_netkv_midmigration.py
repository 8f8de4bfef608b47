"""A slot frozen mid-migration, through the single-key and batch ops.

While a slot migrates the cluster dual-writes (the destination window
must ack, the source write is best effort), double-reads (destination
first, then source; a key is missing only when both windows say so),
and deletes from both windows with a tombstone that keeps the copier
from resurrecting the key. After cutover the slot drains: deletes still
cover both windows. ``set``/``get``/``delete`` and
``mset``/``mget``/``mdelete`` must agree on all of it, and on the
failover and read-repair counts of a one-key read.

The slot is frozen by writing ``_migrating``/``_draining`` under
``_route_lock``, over in-process ``LocalShard`` shards (no socket, no
thread).
"""

import pytest

from repro.datastore.aio import LocalShard
from repro.datastore.base import KeyNotFound, StoreUnavailable
from repro.datastore.netkv import _TOMB, NetKVCluster, key_slot


class SingleKey:
    @staticmethod
    def write(cluster, key, value):
        cluster.set(key, value)

    @staticmethod
    def read(cluster, key):
        try:
            return cluster.get(key)
        except KeyNotFound:
            return None

    @staticmethod
    def delete(cluster, key):
        try:
            cluster.delete(key)
        except KeyNotFound:
            return False
        return True


class OneKeyBatch:
    @staticmethod
    def write(cluster, key, value):
        cluster.mset([(key, value)])

    @staticmethod
    def read(cluster, key):
        return cluster.mget([key])[0]

    @staticmethod
    def delete(cluster, key):
        return cluster.mdelete([key])[0]


class MixedBatch:
    """The migrating key batched with a bystander on a shard that stays up."""

    @staticmethod
    def write(cluster, key, value):
        cluster.mset([(BYSTANDER, b"b"), (key, value)])

    @staticmethod
    def read(cluster, key):
        return cluster.mget([BYSTANDER, key])[1]

    @staticmethod
    def delete(cluster, key):
        return cluster.mdelete([BYSTANDER, key])[1]


ONE_KEY = [SingleKey, OneKeyBatch]
EVERY_OP = ONE_KEY + [MixedBatch]


def on_shard(shard, tag, nshards=3):
    """A hash tag whose keys live on ``shard`` under the default map."""
    for i in range(10_000):
        name = f"{tag}{i}"
        if key_slot(name) % nshards == shard:
            return "{" + name + "}"
    raise AssertionError(f"no tag hashed to shard {shard}")


SRC_TAG = on_shard(0, "m")   # the frozen slot's keys; primary shard 0
KEY = SRC_TAG + "key"
MISSING = SRC_TAG + "missing"
BYSTANDER = on_shard(2, "b") + "bystander"


@pytest.fixture
def make_cluster():
    made = []

    def make(replication=1, nshards=3):
        shards = [LocalShard(("mid", i)) for i in range(nshards)]
        cluster = NetKVCluster([s.address for s in shards],
                               replication=replication, probe_cooldown=0.0,
                               route_refresh=0.0, channels=shards)
        made.append(cluster)
        return shards, cluster

    yield make
    for cluster in made:
        cluster.close()


def migrating(cluster, dst):
    """Freeze KEY's slot between the mark and the cutover."""
    with cluster._route_lock:
        cluster._migrating[key_slot(KEY)] = dst


def draining(cluster, src, dst):
    """Freeze KEY's slot after the cutover, before its old copies go."""
    slot = key_slot(KEY)
    with cluster._route_lock:
        cluster._slot_owner[slot] = dst
        cluster._draining[slot] = src


@pytest.mark.parametrize("ops", EVERY_OP, ids=lambda o: o.__name__)
class TestFrozenMigration:
    def test_write_lands_on_the_destination_window(self, make_cluster, ops):
        shards, cluster = make_cluster()
        migrating(cluster, 1)
        ops.write(cluster, KEY, b"new")
        assert shards[1].data[KEY] == b"new"
        assert shards[0].data[KEY] == b"new"  # best-effort source copy
        assert cluster.stats.dual_writes == 1

    def test_write_needs_the_destination_ack(self, make_cluster, ops):
        shards, cluster = make_cluster()
        migrating(cluster, 1)
        shards[1].up = False
        with pytest.raises(StoreUnavailable):
            ops.write(cluster, KEY, b"new")

    def test_source_only_key_is_readable(self, make_cluster, ops):
        shards, cluster = make_cluster()
        cluster.set(KEY, b"old")
        migrating(cluster, 1)
        assert KEY not in shards[1].data
        assert ops.read(cluster, KEY) == b"old"
        assert ops.read(cluster, MISSING) is None  # NF in both windows

    def test_destination_down_and_source_nf_is_unavailable(
            self, make_cluster, ops):
        shards, cluster = make_cluster()
        cluster.set(KEY, b"old")
        migrating(cluster, 1)
        shards[1].up = False
        # The source holds it: served despite the dead destination.
        assert ops.read(cluster, KEY) == b"old"
        # The source proves no old copy, but the unreachable destination
        # may hold a write made since the mark.
        with pytest.raises(StoreUnavailable):
            ops.read(cluster, MISSING)

    @pytest.mark.parametrize("state", ["migrating", "draining"])
    def test_delete_tombstone_stops_the_copier(self, make_cluster, ops,
                                                state):
        shards, cluster = make_cluster()
        cluster.set(KEY, b"old")
        if state == "migrating":
            migrating(cluster, 1)
            read_window = cluster._replicas_for
        else:
            shards[1].set(KEY, b"old")  # the copy made before cutover
            draining(cluster, 0, 1)
            read_window = lambda key: [0]  # the straggler pass
        assert ops.delete(cluster, KEY) is True
        assert KEY not in shards[0].data and KEY not in shards[1].data
        for shard in shards[:2]:
            assert _TOMB + KEY in shard.data
        # A source copy read before the delete must not come back.
        shards[0].set(KEY, b"old")
        assert cluster._copy_pass({key_slot(KEY)}, 1, [1], read_window) == 0
        assert KEY not in shards[1].data


@pytest.mark.parametrize("ops", ONE_KEY, ids=lambda o: o.__name__)
class TestOneKeyReadAccounting:
    def test_failover_past_a_dead_replica(self, make_cluster, ops):
        shards, cluster = make_cluster(replication=2)
        cluster.set(KEY, b"v")
        shards[0].up = False
        assert ops.read(cluster, KEY) == b"v"
        assert cluster.stats.failovers == 1
        assert cluster.stats.read_repairs == 0

    def test_read_repair_of_a_replica_that_lacks_the_key(
            self, make_cluster, ops):
        shards, cluster = make_cluster(replication=2)
        cluster.set(KEY, b"v")
        shards[0].delete(KEY)
        assert ops.read(cluster, KEY) == b"v"
        assert cluster.stats.failovers == 1
        assert cluster.stats.read_repairs == 1
        assert shards[0].data[KEY] == b"v"
