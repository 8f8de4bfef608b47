"""Durable-shard integration tests: crash/restart recovery over the wire.

The WAL unit tests (test_wal.py) prove the log itself; these prove the
shard: an ``AsyncNetKVServer`` started with ``persist_dir`` acks a
mutation only after the record is fsynced, so killing the process (or
here, stopping the server without any orderly flush of the backend)
and restarting on the same directory recovers exactly the acked set —
including tombstones — and the SNAPSHOT wire command compacts the log
while serving.
"""

from __future__ import annotations

import contextlib
import json
import time

import pytest

from repro.datastore.aio import AsyncNetKVServer
from repro.datastore.base import KeyNotFound, StoreError, StoreUnavailable
from repro.datastore.netkv import (
    NetKVClient,
    NetKVCluster,
    NetKVServer,
    TransportConfig,
    key_slot,
)
from repro.datastore.wal import DurabilityConfig

pytestmark = [pytest.mark.persist, pytest.mark.async_transport]

FAST = TransportConfig(op_timeout=2.0, connect_timeout=2.0, retries=1,
                       backoff_base=0.01, backoff_max=0.05,
                       route_refresh=0.05)

# Tests restart shards repeatedly; skipping the real fsync keeps them
# fast without weakening what they check (recovery reads the same
# bytes either way — fsync only matters when the *kernel* dies).
NOSYNC = DurabilityConfig(fsync=False)


def durable_server(tmp_path, name, port=0, durability=NOSYNC):
    srv = AsyncNetKVServer(port=port, persist_dir=str(tmp_path / name),
                           durability=durability)
    return srv.start()


@contextlib.contextmanager
def client_for(server):
    client = NetKVClient(server.address, config=FAST)
    try:
        yield client
    finally:
        client.close()


def test_restart_recovers_acked_writes(tmp_path):
    srv = durable_server(tmp_path, "shard0")
    port = srv.address[1]
    with client_for(srv) as c:
        for i in range(200):
            c.set(f"k{i}", b"v%d" % i)
        c.mset([(f"m{i}", b"mv%d" % i) for i in range(50)])
    srv.stop()

    srv = durable_server(tmp_path, "shard0", port=port)
    try:
        assert srv.wal is not None and len(srv.wal.recovered) == 250
        with client_for(srv) as c:
            assert c.get("k0") == b"v0"
            assert c.get("k199") == b"v199"
            assert c.mget([f"m{i}" for i in range(50)]) == [
                b"mv%d" % i for i in range(50)]
    finally:
        srv.stop()


def test_restart_does_not_resurrect_deletes(tmp_path):
    srv = durable_server(tmp_path, "shard0")
    with client_for(srv) as c:
        c.set("keep", b"1")
        c.set("gone", b"2")
        c.delete("gone")
    srv.stop()

    # Two restart generations: replay must apply the delete both times.
    for _ in range(2):
        srv = durable_server(tmp_path, "shard0")
        try:
            with client_for(srv) as c:
                assert c.get("keep") == b"1"
                with pytest.raises(KeyNotFound):
                    c.get("gone")
        finally:
            srv.stop()


def test_restart_preserves_rename(tmp_path):
    srv = durable_server(tmp_path, "shard0")
    with client_for(srv) as c:
        c.set("old", b"x")
        c.rename("old", "new")
    srv.stop()

    srv = durable_server(tmp_path, "shard0")
    try:
        with client_for(srv) as c:
            assert c.get("new") == b"x"
            with pytest.raises(KeyNotFound):
                c.get("old")
    finally:
        srv.stop()


def test_snapshot_command_compacts_and_recovery_uses_it(tmp_path):
    srv = durable_server(tmp_path, "shard0")
    with client_for(srv) as c:
        for i in range(100):
            c.set("hot", b"v%d" % i)  # 100 WAL records, one live key
        info = c.snapshot()
        assert info["keys"] == 1
        assert info["wal_bytes"] > 0  # cumulative bytes logged since open
        assert info["snapshots"] >= 1
        c.set("after", b"tail")  # lands in the fresh post-snapshot log
    srv.stop()

    srv = durable_server(tmp_path, "shard0")
    try:
        assert srv.wal is not None
        # One snapshot frame ("hot") + one log frame ("after") — the
        # 99 overwritten versions were compacted away.
        assert srv.wal.info()["replayed_records"] == 2
        with client_for(srv) as c:
            assert c.get("hot") == b"v99"
            assert c.get("after") == b"tail"
    finally:
        srv.stop()


def test_snapshot_refused_without_persistence():
    srv = NetKVServer().start()  # in-memory: no WAL at all
    try:
        with client_for(srv) as c:
            with pytest.raises(StoreError, match="no persistence"):
                c.snapshot()
    finally:
        srv.stop()


@pytest.mark.multi_server
def test_migration_survives_restart_of_both_shards(tmp_path):
    """Move slots between durable shards, crash both, verify the world.

    Migration rewrites the *placement*; persistence rewrites *history*.
    The combination is the dangerous case: after cutover the moved keys
    live in the destination's WAL, so restarting every shard must still
    serve every key from its new home (the routing map is also written
    to the shards' WALs, so a fresh client recovers it too — see
    test_migration_is_visible_to_other_cluster_instances).
    """
    servers = [durable_server(tmp_path, f"shard{i}") for i in range(3)]
    cluster = NetKVCluster([s.address for s in servers], config=FAST,
                           replication=2, probe_cooldown=0.05)
    try:
        for i in range(120):
            cluster.set(f"key{i}", b"val%d" % i)
        moving = sorted({key_slot(f"key{i}") % 16384 for i in range(120)
                         if key_slot(f"key{i}") % 3 == 0})
        result = cluster.migrate_slots(moving, 2)
        assert result["slots"] >= 1

        # Crash/restart every shard on its durable directory.
        ports = [s.address[1] for s in servers]
        for s in servers:
            s.stop()
        servers = [durable_server(tmp_path, f"shard{i}", port=ports[i])
                   for i in range(3)]

        for i in range(120):
            assert cluster.get(f"key{i}") == b"val%d" % i
        health = cluster.replica_health()
        assert health["migrating_slots"] == 0
    finally:
        cluster.close()
        for s in servers:
            s.stop()


@pytest.mark.multi_server
def test_migration_is_visible_to_other_cluster_instances(tmp_path):
    """A migration run from one process must reroute every *other*
    client too.

    The serve daemon scenario: cluster A is a long-lived client, a
    separate CLI process (cluster B) migrates slots and prunes the
    source copies. A's in-memory slot map is now stale — under
    per-instance routing it would read the pruned source window and
    get KeyNotFound for acked keys. The shared routing map published
    to the shards closes that hole: A adopts it within one
    ``route_refresh`` interval and keeps resolving every key.

    Four shards with replication=2 make the source window [0, 1] and
    destination window [2, 3] disjoint, so a stale map really would
    miss — no surviving overlap replica can mask the bug.
    """
    servers = [durable_server(tmp_path, f"shard{i}") for i in range(4)]
    a = NetKVCluster([s.address for s in servers], config=FAST,
                     replication=2, probe_cooldown=0.05)
    b = NetKVCluster([s.address for s in servers], config=FAST,
                     replication=2, probe_cooldown=0.05)
    try:
        for i in range(90):
            a.set(f"key{i}", b"val%d" % i)
        moving = sorted({key_slot(f"key{i}") for i in range(90)
                         if key_slot(f"key{i}") % 4 == 0})
        result = b.migrate_slots(moving, 2)
        assert result["slots"] >= 1 and result["epoch"] > 0

        # A never heard about the migration directly; its next ops
        # poll the shared map (the migration itself outlasts one
        # refresh interval, so A's poll timer is already due).
        for i in range(90):
            assert a.get(f"key{i}") == b"val%d" % i
        assert a.stats.route_refreshes >= 1
        health = a.replica_health()
        assert health["routing_epoch"] == result["epoch"]
        assert health["migrating_slots"] == 0
        assert health["draining_slots"] == 0

        # And A's *writes* land on the new window: B reads them back.
        a.set("post-migrate", b"fresh")
        assert b.get("post-migrate") == b"fresh"

        # A brand-new instance learns the map from the shards alone
        # (give it one refresh interval: the first poll is lazy).
        c = NetKVCluster([s.address for s in servers], config=FAST,
                         replication=2, probe_cooldown=0.05)
        try:
            time.sleep(0.06)
            for i in range(90):
                assert c.get(f"key{i}") == b"val%d" % i
            assert c.replica_health()["routing_epoch"] == result["epoch"]
        finally:
            c.close()
    finally:
        a.close()
        b.close()
        for s in servers:
            s.stop()


@pytest.mark.multi_server
def test_nonconverging_drain_aborts_and_rolls_back(tmp_path):
    """A drain that never converges must abort before cutover, not
    fall through to it: cutting over with keys still in flight would
    let cleanup prune source copies that were never delivered."""
    servers = [durable_server(tmp_path, f"shard{i}") for i in range(2)]
    cluster = NetKVCluster([s.address for s in servers], config=FAST,
                           replication=1, probe_cooldown=0.05)
    try:
        for i in range(40):
            cluster.set(f"key{i}", b"val%d" % i)
        moving = sorted({key_slot(f"key{i}") for i in range(40)
                         if key_slot(f"key{i}") % 2 == 0})
        # Simulate a copy phase that can never finish (e.g. a writer
        # racing the drain faster than it can chase).
        cluster._copy_pass = lambda *a, **k: 1
        with pytest.raises(StoreUnavailable, match="did not converge"):
            cluster.migrate_slots(moving, 1)
        del cluster._copy_pass  # restore the real method

        # Rolled back: no slot stuck migrating or draining, ownership
        # unchanged, every key still served from its source window.
        health = cluster.replica_health()
        assert health["migrating_slots"] == 0
        assert health["draining_slots"] == 0
        assert health["slot_overrides"] == 0
        for i in range(40):
            assert cluster.get(f"key{i}") == b"val%d" % i

        # The abort is not sticky: the same migration succeeds once
        # the copy pass can make progress again.
        result = cluster.migrate_slots(moving, 1)
        assert result["slots"] == len(moving)
        for i in range(40):
            assert cluster.get(f"key{i}") == b"val%d" % i
    finally:
        cluster.close()
        for s in servers:
            s.stop()


@pytest.mark.multi_server
def test_interrupted_cleanup_resumes_on_rerun(tmp_path):
    """A failure after cutover leaves the slots draining; re-running
    the same migration finishes the straggler pass and cleanup rather
    than stranding stale source copies forever."""
    servers = [durable_server(tmp_path, f"shard{i}") for i in range(2)]
    cluster = NetKVCluster([s.address for s in servers], config=FAST,
                           replication=1, probe_cooldown=0.05)
    try:
        for i in range(40):
            cluster.set(f"key{i}", b"val%d" % i)
        moving = sorted({key_slot(f"key{i}") for i in range(40)
                         if key_slot(f"key{i}") % 2 == 0})

        real_cleanup = cluster._cleanup_moved
        calls = {"n": 0}

        def flaky_cleanup(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise StoreUnavailable("cleanup interrupted")
            return real_cleanup(*args, **kwargs)

        cluster._cleanup_moved = flaky_cleanup
        with pytest.raises(StoreUnavailable, match="cleanup interrupted"):
            cluster.migrate_slots(moving, 1)

        # Cutover stood (the drain converged) but cleanup did not run:
        # the slots stay draining and every key is served from the new
        # authoritative window.
        health = cluster.replica_health()
        assert health["migrating_slots"] == 0
        assert health["draining_slots"] == len(moving)
        for i in range(40):
            assert cluster.get(f"key{i}") == b"val%d" % i

        # Re-running the same migration resumes: no slots to re-copy,
        # just the straggler pass and the deferred cleanup.
        result = cluster.migrate_slots(moving, 1)
        assert result["slots"] == 0
        assert calls["n"] == 2
        health = cluster.replica_health()
        assert health["draining_slots"] == 0
        for i in range(40):
            assert cluster.get(f"key{i}") == b"val%d" % i
    finally:
        cluster.close()
        for s in servers:
            s.stop()


def test_recovered_payloads_are_exact_bytes(tmp_path):
    """Binary-unfriendly payloads (newlines, NULs, frame-like bytes)
    must round-trip through the WAL byte-for-byte."""
    nasty = [b"", b"\n", b"\x00" * 8, b"OK 3\nabc", bytes(range(256))]
    srv = durable_server(tmp_path, "shard0")
    with client_for(srv) as c:
        for i, v in enumerate(nasty):
            c.set(f"n{i}", v)
    srv.stop()
    srv = durable_server(tmp_path, "shard0")
    try:
        with client_for(srv) as c:
            for i, v in enumerate(nasty):
                assert c.get(f"n{i}") == v
    finally:
        srv.stop()


def test_snapshot_info_is_json_clean(tmp_path):
    srv = durable_server(tmp_path, "shard0")
    try:
        with client_for(srv) as c:
            c.set("k", b"v")
            info = c.snapshot()
        # The CLI prints this dict; it must stay JSON-serializable.
        json.dumps(info)
        assert info["recovered_keys"] == 0
        assert info["fsync"] is False
    finally:
        srv.stop()


# --- stale read after fail-back ------------------------------------------
#
# A write that reaches only part of a replica window used to leave the
# missed replica with its *old* value: fail-back repair pulled only keys
# the recovered shard lacked, and read repair only fixes replicas that
# answer NF. The primary then served the stale copy after it returned.


def _keys_on_primary(primary, n, nshards=2, prefix="k"):
    """``n`` keys whose hash slot makes shard ``primary`` their primary."""
    out, i = [], 0
    while len(out) < n:
        key = f"{prefix}{i}"
        if key_slot(key) % nshards == primary:
            out.append(key)
        i += 1
    return out


@contextlib.contextmanager
def _two_durable_shards(tmp_path):
    servers = [durable_server(tmp_path, f"shard{i}") for i in range(2)]
    cluster = NetKVCluster([s.address for s in servers], config=FAST,
                           replication=2, probe_cooldown=0.05)
    try:
        yield servers, cluster
    finally:
        cluster.close()
        for s in servers:
            s.stop()


def _restart_from_wal(tmp_path, servers, idx):
    """Restart shard ``idx`` on its old port, replaying its WAL."""
    port = servers[idx].address[1]
    servers[idx] = durable_server(tmp_path, f"shard{idx}", port=port)


@pytest.mark.multi_server
def test_set_missed_by_primary_is_repaired_on_fail_back(tmp_path):
    with _two_durable_shards(tmp_path) as (servers, cluster):
        (key,) = _keys_on_primary(0, 1)
        cluster.set(key, b"v1")
        servers[0].stop()
        cluster.set(key, b"v2")  # acked by shard 1 alone
        _restart_from_wal(tmp_path, servers, 0)
        assert servers[0].wal.recovered[key] == b"v1"
        cluster.repair()
        assert cluster.get(key) == b"v2"


@pytest.mark.multi_server
def test_mset_missed_by_primary_is_repaired_on_fail_back(tmp_path):
    with _two_durable_shards(tmp_path) as (servers, cluster):
        keys = _keys_on_primary(0, 6)
        cluster.mset([(k, b"old") for k in keys])
        servers[0].stop()
        cluster.mset([(k, b"new-" + k.encode()) for k in keys])
        _restart_from_wal(tmp_path, servers, 0)
        cluster.repair()
        assert cluster.mget(keys) == [b"new-" + k.encode() for k in keys]
        for k in keys:
            assert cluster.get(k) == b"new-" + k.encode()


@pytest.mark.multi_server
def test_rename_missed_by_primary_is_repaired_on_fail_back(tmp_path):
    with _two_durable_shards(tmp_path) as (servers, cluster):
        src, dst = _keys_on_primary(0, 2)
        cluster.set(src, b"moved")
        cluster.set(dst, b"stale")
        servers[0].stop()
        cluster.rename(src, dst)  # same window: one RENAME, on shard 1
        _restart_from_wal(tmp_path, servers, 0)
        cluster.repair()
        assert cluster.get(dst) == b"moved"
        with pytest.raises(KeyNotFound):
            cluster.get(src)
        assert cluster.keys() == [dst]
